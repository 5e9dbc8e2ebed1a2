"""The project lint: every rule fires on a crafted bad snippet, stays
silent on the real tree, and the CLI reports rule code + file:line with
the right exit status."""

import textwrap
from pathlib import Path


from repro.analysis.lint import load_module, main, run_rules
from repro.analysis.rules import all_rules
from repro.analysis.rules.hotloop import HotLoopRule
from repro.analysis.rules.rng_dataflow import RngSharingRule
from repro.analysis.rules.seqarith import SeqArithmeticRule
from repro.analysis.rules.wallclock import WallClockRule

REPO = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def codes_for(path: Path) -> list:
    return [f.code for f in run_rules([path])]


def rule_findings(rule, path: Path) -> list:
    return list(rule.check(load_module(path)))


# ----------------------------------------------------------------------
# SIM001: wall clock / global randomness
# ----------------------------------------------------------------------
class TestWallClock:
    def test_time_time_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            import time

            def stamp():
                return time.time()
            """)
        findings = rule_findings(WallClockRule(), path)
        assert [f.code for f in findings] == ["SIM001"]
        assert findings[0].line == 4

    def test_datetime_now_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            import datetime
            from datetime import datetime as dt

            a = datetime.datetime.now()
            b = dt.utcnow()
            """)
        assert [f.code for f in rule_findings(WallClockRule(), path)] == ["SIM001", "SIM001"]

    def test_global_random_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            import random
            from random import randint

            def roll():
                return random.random() + randint(1, 6)
            """)
        assert len(rule_findings(WallClockRule(), path)) == 2

    def test_unseeded_random_instance_fires_seeded_does_not(self, tmp_path):
        path = write(tmp_path, "mixed.py", """\
            import random

            bad = random.Random()
            good = random.Random(42)
            named = random.Random("0:loss")
            """)
        findings = rule_findings(WallClockRule(), path)
        assert [f.line for f in findings] == [3]

    def test_instance_methods_are_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            def pick(sim):
                rng = sim.substream("pick")
                return rng.random()
            """)
        assert rule_findings(WallClockRule(), path) == []


# ----------------------------------------------------------------------
# SIM002: raw sequence arithmetic
# ----------------------------------------------------------------------
class TestSeqArithmetic:
    def test_inline_mod_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", "def f(x):\n    return x * 31 % (1 << 32)\n")
        findings = rule_findings(SeqArithmeticRule(), path)
        assert [f.code for f in findings] == ["SIM002"]

    def test_mask_on_seq_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", "def f(pkt, n):\n    return (pkt.seq + n) & 0xFFFFFFFF\n")
        codes = [f.code for f in rule_findings(SeqArithmeticRule(), path)]
        assert "SIM002" in codes

    def test_bare_plus_on_seq_name_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", "def f(expected_seq, take):\n    return expected_seq + take\n")
        assert [f.code for f in rule_findings(SeqArithmeticRule(), path)] == ["SIM002"]

    def test_crypto_word_masks_are_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            def rotl(value, amount):
                return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF
            """)
        assert rule_findings(SeqArithmeticRule(), path) == []

    def test_record_counter_increment_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            class Records:
                def bump(self):
                    self.tx_record_seq += 1
            """)
        assert rule_findings(SeqArithmeticRule(), path) == []

    def test_seq_home_module_is_exempt(self, tmp_path):
        home = tmp_path / "repro" / "tcp"
        home.mkdir(parents=True)
        path = home / "seq.py"
        path.write_text("def add(seq, delta):\n    return (seq + delta) % (1 << 32)\n")
        assert rule_findings(SeqArithmeticRule(), path) == []


# ----------------------------------------------------------------------
# SIM006: RNG stream sharing (determinism dataflow pass)
# ----------------------------------------------------------------------
class TestRngSharing:
    def test_module_level_rng_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            import random

            rng = random.Random(7)
            """)
        findings = rule_findings(RngSharingRule(), path)
        assert [f.code for f in findings] == ["SIM006"]
        assert "module-level RNG" in findings[0].message
        assert findings[0].line == 3

    def test_master_stream_passed_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            def wire(sim, link):
                link.attach(sim.random)
            """)
        findings = rule_findings(RngSharingRule(), path)
        assert [f.code for f in findings] == ["SIM006"]
        assert "master stream" in findings[0].message

    def test_master_stream_stored_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            def wire(self, sim):
                self.rng = sim.random
            """)
        assert len(rule_findings(RngSharingRule(), path)) == 1

    def test_stdlib_random_module_is_not_a_master_stream(self, tmp_path):
        # `random.random` is the stdlib function (SIM001's beat, not ours).
        path = write(tmp_path, "ok.py", """\
            import random

            def roll(sampler):
                return sampler(random.random)
            """)
        assert rule_findings(RngSharingRule(), path) == []

    def test_substream_shared_by_two_callees_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            def build(sim, Link):
                rng = sim.substream("net")
                a = Link(rng)
                b = Link(rng)
                return a, b
            """)
        findings = rule_findings(RngSharingRule(), path)
        assert [f.code for f in findings] == ["SIM006"]
        assert "2 callees" in findings[0].message
        assert findings[0].line == 2  # anchored at the binding

    def test_one_substream_per_consumer_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            def build(sim, Link):
                a = Link(sim.substream("net:a"))
                b = Link(sim.substream("net:b"))
                return a, b
            """)
        assert rule_findings(RngSharingRule(), path) == []

    def test_simulator_home_module_is_exempt(self, tmp_path):
        home = tmp_path / "repro" / "sim"
        home.mkdir(parents=True)
        path = home / "simulator.py"
        path.write_text("import random\n\n_boot = random.Random(0)\n")
        assert rule_findings(RngSharingRule(), path) == []


# ----------------------------------------------------------------------
# SIM013: per-byte loops in hot modules
# ----------------------------------------------------------------------
class TestHotLoop:
    def hot_file(self, tmp_path, body: str, pkg: str = "crypto") -> Path:
        hot = tmp_path / "repro" / pkg
        hot.mkdir(parents=True)
        return write(hot, "mod.py", body)

    def test_per_byte_crc_loop_fires(self, tmp_path):
        path = self.hot_file(tmp_path, """\
            def crc(table, data, crc):
                for byte in data:
                    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
                return crc
            """)
        findings = rule_findings(HotLoopRule(), path)
        assert [f.code for f in findings] == ["SIM013"]
        assert "per-byte loop over `data`" in findings[0].message

    def test_table_subscript_by_loop_var_fires(self, tmp_path):
        path = self.hot_file(tmp_path, """\
            def absorb(self, block):
                z = 0
                for b in block:
                    z ^= self.table[b]
                return z
            """, pkg="core")
        assert [f.code for f in rule_findings(HotLoopRule(), path)] == ["SIM013"]

    def test_range_loop_is_fine(self, tmp_path):
        path = self.hot_file(tmp_path, """\
            def crc(table, data, crc):
                for i in range(len(data)):
                    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8)
                return crc
            """)
        assert rule_findings(HotLoopRule(), path) == []

    def test_unpacked_words_loop_is_fine(self, tmp_path):
        path = self.hot_file(tmp_path, """\
            import struct

            def crc(t, data, crc):
                for w in struct.unpack(f"<{len(data) >> 3}Q", data):
                    crc ^= w & 0xFFFFFFFF
                return crc
            """)
        assert rule_findings(HotLoopRule(), path) == []

    def test_import_time_table_build_is_fine(self, tmp_path):
        path = self.hot_file(tmp_path, """\
            SBOX = list(range(256))
            INV = [0] * 256
            for i in SBOX:
                INV[SBOX[i] & 0xFF] = i
            """)
        assert rule_findings(HotLoopRule(), path) == []

    def test_non_bitwise_body_is_fine(self, tmp_path):
        path = self.hot_file(tmp_path, """\
            def total(sizes):
                acc = 0
                for n in sizes:
                    acc += n
                return acc
            """, pkg="net")
        assert rule_findings(HotLoopRule(), path) == []

    def test_cold_package_is_fine(self, tmp_path):
        cold = tmp_path / "repro" / "exec"
        cold.mkdir(parents=True)
        path = write(cold, "mod.py", """\
            def mask(values):
                out = []
                for v in values:
                    out.append(v & 0xFF)
                return out
            """)
        assert rule_findings(HotLoopRule(), path) == []

    def test_sim_noqa_waives_reference_impl(self, tmp_path):
        path = self.hot_file(tmp_path, """\
            def crc_reference(table, data, crc):
                for byte in data:  # sim: noqa[SIM013]
                    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
                return crc
            """)
        assert [f.code for f in run_rules([path], rules=[HotLoopRule()])] == []


# ----------------------------------------------------------------------
# suppression, the real tree, and the CLI
# ----------------------------------------------------------------------
class TestRunner:
    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        path = write(tmp_path, "bad.py", "import time\nx = time.time()  # noqa: E402\n")
        assert codes_for(path) == ["SIM001"]

    def test_flake8_noqa_never_silences_a_sim_code(self, tmp_path):
        # `# sim: noqa[...]` is the one waiver syntax; `# noqa` is ruff's.
        for comment in ("# noqa", "# noqa: SIM001"):
            path = write(tmp_path, "bad.py", f"import time\nx = time.time()  {comment}\n")
            assert codes_for(path) == ["SIM001"], comment

    def test_real_tree_is_clean(self):
        # Exactly what `python -m repro.analysis src benchmarks/*.py` scans.
        # benchmarks/perf is left out: it times the simulator from outside
        # with the wall clock, which is its job.
        findings = run_rules([REPO / "src", *sorted((REPO / "benchmarks").glob("*.py"))])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_all_rules_registered(self):
        # Each kept rule has a historical hit on real code; the rules that
        # never fired on any committed tree were retired
        # (docs/static-analysis.md has the replay table).
        assert sorted(rule.code for rule in all_rules()) == ["SIM001", "SIM002", "SIM006", "SIM013"]

    def test_sim_noqa_suppresses_specific_code(self, tmp_path):
        path = write(tmp_path, "waived.py", """\
            import time

            def stamp():
                return time.time()  # sim: noqa[SIM001]
            """)
        assert codes_for(path) == []

    def test_bare_sim_noqa_suppresses_everything(self, tmp_path):
        body = "import time\n\ndef f(a_seq):\n    return a_seq + 1, time.time()  # sim: noqa\n"
        path = write(tmp_path, "waived.py", body)
        assert codes_for(path) == []

    def test_unused_sim_noqa_warns_sim998(self, tmp_path):
        path = write(tmp_path, "stale.py", "x = 1  # sim: noqa[SIM001]\n")
        findings = run_rules([path])
        assert [f.code for f in findings] == ["SIM998"]
        assert "SIM001" in findings[0].message
        assert findings[0].line == 1

    def test_suppression_roundtrip(self, tmp_path):
        """Waive a finding, fix the code, and the waiver itself warns."""
        path = write(tmp_path, "round.py", """\
            import time

            def stamp():
                return time.time()  # sim: noqa[SIM001]
            """)
        assert codes_for(path) == []
        path.write_text("import time\n\n\ndef stamp(now):\n    return now  # sim: noqa[SIM001]\n")
        assert codes_for(path) == ["SIM998"]

    def test_docstring_mention_of_noqa_is_not_a_suppression(self, tmp_path):
        path = write(tmp_path, "docs.py", '''\
            """Explains the waiver syntax.

            Write ``# sim: noqa[SIM001]`` on the offending line.
            """

            x = 1
            ''')
        assert codes_for(path) == []

    def test_cli_exit_zero_on_clean_tree(self, capsys):
        assert main([]) == 0
        assert capsys.readouterr().out == ""

    def test_cli_reports_code_and_location(self, tmp_path, capsys):
        path = write(tmp_path, "seeded.py", """\
            import time

            def f(a_seq):
                return time.time(), a_seq + 1, a_seq % (1 << 32)
            """)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        for code in ("SIM001", "SIM002"):
            assert code in out
        assert f"{path}:4" in out

    def test_cli_rejects_unknown_rule_and_missing_path(self, tmp_path, capsys):
        # The CLI takes paths only: any option is a usage error.
        assert main(["--select", "SIM042"]) == 2
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_syntax_error_reported_not_crash(self, tmp_path):
        path = write(tmp_path, "broken.py", "def f(:\n")
        assert codes_for(path) == ["SIM999"]
