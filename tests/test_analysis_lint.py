"""The project lint: every rule fires on a crafted bad snippet, stays
silent on the real tree, and the CLI reports rule code + file:line with
the right exit status."""

import json
import textwrap
from pathlib import Path


from repro.analysis.lint import default_target, load_module, main, run_rules
from repro.analysis.pipeline import run_analysis
from repro.analysis.rules import all_rules
from repro.analysis.rules.event_tiebreak import EventTiebreakRule
from repro.analysis.rules.hotloop import HotLoopRule
from repro.analysis.rules.l5p_contract import IncrementalTransformRule
from repro.analysis.rules.metric_baseline import MetricBaselineRule
from repro.analysis.rules.mutable_defaults import MutableDefaultsRule
from repro.analysis.rules.pkg_docstrings import PackageDocstringRule
from repro.analysis.rules.rng_dataflow import RngSharingRule
from repro.analysis.rules.seqarith import SeqArithmeticRule
from repro.analysis.rules.unordered_iter import UnorderedIterRule
from repro.analysis.rules.wallclock import WallClockRule


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
# SIM003: mutable defaults
# ----------------------------------------------------------------------
class TestMutableDefaults:
    def test_list_and_dict_defaults_fire(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            def f(items=[], table={}):
                return items, table

            def g(pool=list()):
                return pool
            """)
        assert [f.code for f in rule_findings(MutableDefaultsRule(), path)] == ["SIM003"] * 3

    def test_none_default_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            def f(items=None, count=0, name="x"):
                items = items if items is not None else []
                return items, count, name
            """)
        assert rule_findings(MutableDefaultsRule(), path) == []


# ----------------------------------------------------------------------
# SIM005: package docstrings
# ----------------------------------------------------------------------
class TestPackageDocstrings:
    def test_missing_init_docstring_fires(self, tmp_path):
        path = write(tmp_path, "__init__.py", "from . import something\n")
        findings = rule_findings(PackageDocstringRule(), path)
        assert [f.code for f in findings] == ["SIM005"]
        assert findings[0].line == 1

    def test_blank_init_docstring_fires(self, tmp_path):
        path = write(tmp_path, "__init__.py", '"""   """\n')
        assert [f.code for f in rule_findings(PackageDocstringRule(), path)] == ["SIM005"]

    def test_documented_package_is_fine(self, tmp_path):
        path = write(tmp_path, "__init__.py", '"""The widget package."""\n')
        assert rule_findings(PackageDocstringRule(), path) == []

    def test_plain_module_without_docstring_is_fine(self, tmp_path):
        path = write(tmp_path, "module.py", "x = 1\n")
        assert rule_findings(PackageDocstringRule(), path) == []


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
# SIM007: unordered iteration feeding scheduling/metrics
# ----------------------------------------------------------------------
class TestUnorderedIter:
    def test_dict_values_feeding_schedule_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            def drain(sim, flows):
                for flow in flows.values():
                    sim.schedule(0.1, flow.fire)
            """)
        findings = rule_findings(UnorderedIterRule(), path)
        assert [f.code for f in findings] == ["SIM007"]
        assert "event scheduling" in findings[0].message

    def test_set_literal_feeding_metrics_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            def count(counter):
                for name in {"rx", "tx"}:
                    counter.inc(name)
            """)
        findings = rule_findings(UnorderedIterRule(), path)
        assert [f.code for f in findings] == ["SIM007"]
        assert "metric emission" in findings[0].message

    def test_comprehension_over_set_call_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            def enqueue(heappush, heap, items):
                return [heappush(heap, x) for x in set(items)]
            """)
        assert [f.code for f in rule_findings(UnorderedIterRule(), path)] == ["SIM007"]

    def test_sorted_view_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            def drain(sim, flows):
                for fid in sorted(flows):
                    sim.schedule(0.1, flows[fid].fire)
            """)
        assert rule_findings(UnorderedIterRule(), path) == []

    def test_bookkeeping_loop_without_sink_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            def total(flows):
                acc = 0
                for flow in flows.values():
                    acc += flow.bytes
                return acc
            """)
        assert rule_findings(UnorderedIterRule(), path) == []


# ----------------------------------------------------------------------
# SIM008: same-timestamp event tiebreakers
# ----------------------------------------------------------------------
class TestEventTiebreak:
    def test_bare_time_payload_heap_entry_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            import heapq

            def push(heap, when, event):
                heapq.heappush(heap, (when, event))
            """)
        findings = rule_findings(EventTiebreakRule(), path)
        assert [f.code for f in findings] == ["SIM008"]
        assert "tiebreaker" in findings[0].message

    def test_seq_tiebreaker_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            import heapq

            def push(heap, when, seq, event):
                heapq.heappush(heap, (when, seq, event))
                heapq.heappush(heap, (when, seq))
            """)
        assert rule_findings(EventTiebreakRule(), path) == []

    def test_counter_call_tiebreaker_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            import heapq

            def push(heap, when, counter):
                heapq.heappush(heap, (when, next(counter)))
            """)
        assert rule_findings(EventTiebreakRule(), path) == []

    def test_lt_on_time_alone_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            class Timer:
                def __lt__(self, other):
                    return self.deadline < other.deadline
            """)
        findings = rule_findings(EventTiebreakRule(), path)
        assert [f.code for f in findings] == ["SIM008"]
        assert "Timer.__lt__" in findings[0].message

    def test_lt_on_time_seq_tuple_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            class Event:
                def __lt__(self, other):
                    return (self.time, self.seq) < (other.time, other.seq)
            """)
        assert rule_findings(EventTiebreakRule(), path) == []


# ----------------------------------------------------------------------
# SIM010: Table 3's incremental-transform precondition
# ----------------------------------------------------------------------
class TestIncrementalTransform:
    def test_whole_message_buffering_fires(self, tmp_path):
        path = write(tmp_path, "bad.py", """\
            from repro.core.types import MsgTransform

            class Hoarder(MsgTransform):
                def __init__(self):
                    self.buf = b""

                def process(self, data):
                    self.buf += data
            """)
        findings = rule_findings(IncrementalTransformRule(), path)
        assert [f.code for f in findings] == ["SIM010"]
        assert "whole-message buffering" in findings[0].message

    def test_incremental_passthrough_is_fine(self, tmp_path):
        path = write(tmp_path, "good.py", """\
            from repro.core.types import MsgTransform

            class Streamer(MsgTransform):
                def process(self, data):
                    self.digest.update(data)
                    return data
            """)
        assert rule_findings(IncrementalTransformRule(), path) == []


# ----------------------------------------------------------------------
# SIM012: baseline metrics stay reachable (cross-artifact pass)
# ----------------------------------------------------------------------
class TestMetricBaseline:
    def bench_dir(self, tmp_path, baseline: dict, module_body: str) -> Path:
        bench = tmp_path / "bench"
        bench.mkdir()
        (bench / "baseline.json").write_text(json.dumps(baseline))
        write(bench, "emit.py", module_body)
        return bench

    def test_renamed_metric_leaf_fires(self, tmp_path):
        bench = self.bench_dir(
            tmp_path,
            {"benchmarks": {"demo": {"metrics": {"run.tcp_gbps": 1.0, "run.drops": 2}}}},
            """\
            NAME = "demo"
            METRIC = "run.drops"
            """,
        )
        findings = run_rules([bench], rules=[MetricBaselineRule()])
        assert [f.code for f in findings] == ["SIM012"]
        assert "tcp_gbps" in findings[0].message
        assert findings[0].path.endswith("emit.py")

    def test_orphaned_benchmark_entry_fires_at_baseline(self, tmp_path):
        bench = self.bench_dir(
            tmp_path,
            {"benchmarks": {"ghost": {"metrics": {}}}},
            'NAME = "something-else"\n',
        )
        findings = run_rules([bench], rules=[MetricBaselineRule()])
        assert [f.code for f in findings] == ["SIM012"]
        assert findings[0].path.endswith("baseline.json")
        assert "ghost" in findings[0].message

    def test_quick_suffix_maps_to_base_name(self, tmp_path):
        bench = self.bench_dir(
            tmp_path,
            {"benchmarks": {"demo_quick": {"metrics": {"run.drops": 2}}}},
            """\
            NAME = "demo"
            METRIC = "run.drops"
            """,
        )
        assert run_rules([bench], rules=[MetricBaselineRule()]) == []

    def test_fstring_fragment_reaches_leaf(self, tmp_path):
        bench = self.bench_dir(
            tmp_path,
            {"benchmarks": {"demo": {"metrics": {"loss3.tcp_gbps": 9.0}}}},
            """\
            NAME = "demo"

            def key(pct):
                return f"loss{pct}.tcp_gbps"
            """,
        )
        assert run_rules([bench], rules=[MetricBaselineRule()]) == []

    def test_directory_without_baseline_is_ignored(self, tmp_path):
        write(tmp_path, "emit.py", 'NAME = "demo"\n')
        assert run_rules([tmp_path], rules=[MetricBaselineRule()]) == []


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
    def test_noqa_suppresses_specific_code(self, tmp_path):
        path = write(tmp_path, "waived.py", """\
            import time

            def stamp():
                return time.time()  # noqa: SIM001
            """)
        assert codes_for(path) == []

    def test_bare_noqa_suppresses_everything(self, tmp_path):
        path = write(tmp_path, "waived.py", "def f(items=[]):  # noqa\n    return items\n")
        assert codes_for(path) == []

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        path = write(tmp_path, "bad.py", "def f(items=[]):  # noqa: SIM001\n    return items\n")
        assert codes_for(path) == ["SIM003"]

    def test_real_tree_is_clean(self):
        findings = run_rules([default_target()])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_all_rules_registered(self):
        # Retired: SIM011 (upcall wiring; the endpoint core makes a partial
        # Listing-2 surface unrepresentable) and SIM004 / SIM009 / SIM014
        # (adapter surface, magic framing, literal plugin declarations;
        # all computed from the protocol's one FrameSpec).
        assert sorted(rule.code for rule in all_rules()) == [
            f"SIM{n:03d}" for n in range(1, 14) if n not in (4, 9, 11)
        ]

    def test_sim_noqa_suppresses_specific_code(self, tmp_path):
        path = write(tmp_path, "waived.py", """\
            import time

            def stamp():
                return time.time()  # sim: noqa[SIM001]
            """)
        assert codes_for(path) == []

    def test_bare_sim_noqa_suppresses_everything(self, tmp_path):
        path = write(tmp_path, "waived.py", "def f(items=[]):  # sim: noqa\n    return items\n")
        assert codes_for(path) == []

    def test_unused_sim_noqa_warns_sim998(self, tmp_path):
        path = write(tmp_path, "stale.py", "x = 1  # sim: noqa[SIM001]\n")
        findings = run_rules([path])
        assert [f.code for f in findings] == ["SIM998"]
        assert "SIM001" in findings[0].message
        assert findings[0].line == 1

    def test_unused_legacy_noqa_stays_silent(self, tmp_path):
        # flake8-style comments are honored but never staleness-checked.
        path = write(tmp_path, "stale.py", "x = 1  # noqa: SIM001\n")
        assert codes_for(path) == []

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

            def f(a_seq, items=[]):
                return time.time(), a_seq + 1, a_seq % (1 << 32), items
            """)
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        for code in ("SIM001", "SIM002", "SIM003"):
            assert code in out
        assert f"{path}:4" in out

    def test_cli_select_runs_only_chosen_rules(self, tmp_path, capsys):
        body = "import time\nx = time.time()\n\ndef f(i=[]):\n    return i\n"
        path = write(tmp_path, "seeded.py", body)
        assert main(["--select", "SIM001", str(path)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out and "SIM003" not in out

    def test_cli_rejects_unknown_rule_and_missing_path(self, tmp_path, capsys):
        assert main(["--select", "SIM042"]) == 2
        assert main([str(tmp_path / "nope.py")]) == 2

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("SIM001", "SIM002", "SIM003", "SIM010"):
            assert code in out

    def test_syntax_error_reported_not_crash(self, tmp_path):
        path = write(tmp_path, "broken.py", "def f(:\n")
        assert codes_for(path) == ["SIM999"]


# ----------------------------------------------------------------------
# pipeline: findings cache and output formats
# ----------------------------------------------------------------------
BAD_BODY = "import time\n\n\ndef stamp():\n    return time.time()\n"


class TestPipeline:
    def test_cache_round_trip_and_invalidation(self, tmp_path):
        path = write(tmp_path, "bad.py", BAD_BODY)
        cache = tmp_path / "cache.json"
        first = run_analysis([path], cache_path=cache)
        assert [f.code for f in first] == ["SIM001"]
        assert cache.exists()

        cached = run_analysis([path], cache_path=cache)
        assert [f.as_dict() for f in cached] == [f.as_dict() for f in first]

        path.write_text("def stamp(now):\n    return now\n")
        assert run_analysis([path], cache_path=cache) == []

    def test_cache_survives_mtime_touch(self, tmp_path):
        import os

        path = write(tmp_path, "bad.py", BAD_BODY)
        cache = tmp_path / "cache.json"
        run_analysis([path], cache_path=cache)
        os.utime(path, (0, 0))  # content unchanged, mtime moved
        findings = run_analysis([path], cache_path=cache)
        assert [f.code for f in findings] == ["SIM001"]

    def test_cache_ignored_for_different_rule_selection(self, tmp_path):
        path = write(tmp_path, "bad.py", BAD_BODY)
        cache = tmp_path / "cache.json"
        assert [f.code for f in run_analysis([path], cache_path=cache)] == ["SIM001"]
        # A different rule set must not reuse the all-rules cache entries.
        only_sim3 = [r for r in all_rules() if r.code == "SIM003"]
        assert run_analysis([path], rules=only_sim3, cache_path=cache) == []

    def test_cli_json_format(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", BAD_BODY)
        assert main(["--format", "json", "--no-cache", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "SIM001"
        assert payload["findings"][0]["line"] == 5

    def test_cli_sarif_format_to_file(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", BAD_BODY)
        out = tmp_path / "analysis.sarif"
        assert main(["--format", "sarif", "--no-cache", "--output", str(out), str(path)]) == 1
        assert capsys.readouterr().out == ""  # findings went to the file
        sarif = json.loads(out.read_text())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analysis"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {rule.code for rule in all_rules()} <= rule_ids
        assert {"SIM998", "SIM999"} <= rule_ids  # pipeline pseudo-rules
        result = run["results"][0]
        assert result["ruleId"] == "SIM001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 5

    def test_sarif_unused_suppression_is_a_warning(self, tmp_path, capsys):
        path = write(tmp_path, "stale.py", "x = 1  # sim: noqa[SIM001]\n")
        assert main(["--format", "sarif", "--no-cache", str(path)]) == 1
        sarif = json.loads(capsys.readouterr().out)
        result = sarif["runs"][0]["results"][0]
        assert result["ruleId"] == "SIM998"
        assert result["level"] == "warning"

    def test_cli_cache_flag_is_honored(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", BAD_BODY)
        cache = tmp_path / "lint-cache.json"
        assert main(["--cache", str(cache), str(path)]) == 1
        capsys.readouterr()
        assert cache.exists()
        assert main(["--cache", str(cache), str(path)]) == 1
        assert "SIM001" in capsys.readouterr().out
