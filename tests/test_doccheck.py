"""The docs checker (`repro.analysis.doccheck`): dead markdown links
and stale ``file.py:line`` code anchors are reported with location and
exit status 1; the repo's real docs are clean."""

import textwrap
from pathlib import Path

from repro.analysis.doccheck import default_targets, main


def write_md(root: Path, name: str, body: str) -> Path:
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


def run(root: Path, md: Path, capsys):
    rc = main([str(md), "--root", str(root)])
    captured = capsys.readouterr()
    return rc, captured.out + captured.err


class TestLinks:
    def test_dead_relative_link_reported(self, tmp_path, capsys):
        md = write_md(tmp_path, "doc.md", "See [the plan](missing.md).\n")
        rc, out = run(tmp_path, md, capsys)
        assert rc == 1
        assert "dead link" in out and "missing.md" in out and "doc.md:1" in out

    def test_live_link_and_externals_pass(self, tmp_path, capsys):
        write_md(tmp_path, "other.md", "hi\n")
        md = write_md(tmp_path, "doc.md", """\
            [ok](other.md) [web](https://example.com) [mail](mailto:a@b.c)
            [frag](#section) [anchored](other.md#part)
            """)
        rc, _ = run(tmp_path, md, capsys)
        assert rc == 0

    def test_links_inside_code_fences_skipped(self, tmp_path, capsys):
        md = write_md(tmp_path, "doc.md", """\
            ```
            [not a link](nowhere.md)
            ```
            """)
        rc, _ = run(tmp_path, md, capsys)
        assert rc == 0


class TestAnchors:
    def test_missing_file_anchor_reported(self, tmp_path, capsys):
        md = write_md(tmp_path, "doc.md", "See `src/repro/nope.py:10`.\n")
        rc, out = run(tmp_path, md, capsys)
        assert rc == 1
        assert "stale code anchor" in out and "no such file" in out

    def test_line_past_eof_reported(self, tmp_path, capsys):
        write_md(tmp_path, "src/mod.py", "x = 1\ny = 2\n")
        md = write_md(tmp_path, "doc.md", "See `src/mod.py:99`.\n")
        rc, out = run(tmp_path, md, capsys)
        assert rc == 1
        assert "src/mod.py:99" in out and "lines" in out

    def test_valid_anchor_passes(self, tmp_path, capsys):
        write_md(tmp_path, "src/mod.py", "x = 1\ny = 2\n")
        md = write_md(tmp_path, "doc.md", "See `src/mod.py:2` and `src/mod.py`.\n")
        rc, _ = run(tmp_path, md, capsys)
        assert rc == 0

    def test_generated_outputs_skipped(self, tmp_path, capsys):
        md = write_md(tmp_path, "doc.md", "Emitted to `benchmarks/out/thing.json`.\n")
        rc, _ = run(tmp_path, md, capsys)
        assert rc == 0


class TestCli:
    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "ghost.md")]) == 2

    def test_default_targets_cover_root_and_docs(self, tmp_path):
        write_md(tmp_path, "README.md", "hello\n")
        write_md(tmp_path, "docs/guide.md", "hello\n")
        write_md(tmp_path, "CHANGES.md", "PR 1 added `src/long_gone.py`.\n")  # history names deleted files
        targets = default_targets(tmp_path)
        assert tmp_path / "README.md" in targets
        assert tmp_path / "docs" in targets
        assert tmp_path / "CHANGES.md" not in targets

    def test_real_docs_are_clean(self, capsys):
        repo = Path(__file__).resolve().parent.parent
        assert main(["--root", str(repo), *map(str, default_targets(repo))]) == 0
