"""Markdown doc checker: dead links and stale code anchors.

The docs (docs/*.md, README.md, EXPERIMENTS.md, ...) cite code as
``path/to/file.py:123`` and cross-link each other with relative
markdown links.  Both rot silently; this tool makes the rot loud:

- every relative markdown link ``[text](target)`` must resolve to an
  existing file (external ``http(s)://``/``mailto:`` targets and
  pure ``#fragment`` links are skipped — CI has no network);
- every backticked repo path ``src/.../x.py`` must exist, and when it
  carries a ``:line`` suffix the file must be at least that long.

Run with ``python -m repro.analysis.doccheck [files...]`` (default:
``*.md`` at the repo root — except ``CHANGES.md`` and ``ISSUE.md``,
which name deleted and not-yet-written files by design — plus ``docs/``).  Exit status mirrors
``repro.analysis.lint``: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

#: ``[text](target)`` — non-greedy, single-line targets without spaces.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Backticked repo-relative code anchor with optional :line suffix.
_ANCHOR_RE = re.compile(
    r"`((?:src|docs|benchmarks|tests|examples)/[\w./-]+\.(?:py|md|json|yml|yaml|toml|txt))(?::(\d+))?`"
)

_EXTERNAL = ("http://", "https://", "mailto:")

#: Generated at run time (gitignored) — referenced by docs, never present in CI.
_GENERATED = ("benchmarks/out/", "benchmarks/perf/out/")


def _iter_markdown(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.md"))
        else:
            yield path


def _check_file(md: Path, root: Path) -> list[str]:
    problems: list[str] = []
    text = md.read_text(encoding="utf-8")
    in_code_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code_block = not in_code_block
        if not in_code_block:
            for match in _LINK_RE.finditer(line):
                target = match.group(1)
                if target.startswith(_EXTERNAL) or target.startswith("#"):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                resolved = (root / rel) if rel.startswith("/") else (md.parent / rel)
                if not resolved.exists():
                    problems.append(f"{md}:{lineno}: dead link `{target}`")
        for match in _ANCHOR_RE.finditer(line):
            rel, line_no = match.group(1), match.group(2)
            if rel.startswith(_GENERATED):
                continue
            resolved = root / rel
            if not resolved.is_file():
                problems.append(f"{md}:{lineno}: stale code anchor `{rel}` (no such file)")
            elif line_no is not None:
                total = resolved.read_text(encoding="utf-8").count("\n") + 1
                if int(line_no) > total:
                    problems.append(
                        f"{md}:{lineno}: stale code anchor `{rel}:{line_no}` "
                        f"(file has {total} lines)"
                    )
    return problems


#: The change log and the per-PR task file record the past and the
#: to-do: they rightly name files that are gone or not there yet.
_HISTORY = ("CHANGES.md", "ISSUE.md")


def default_targets(root: Path) -> list[Path]:
    targets = sorted(p for p in root.glob("*.md") if p.name not in _HISTORY)
    docs = root / "docs"
    if docs.is_dir():
        targets.append(docs)
    return targets


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.doccheck",
        description="Check markdown links and file:line code anchors in the docs.",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="markdown files/dirs (default: *.md + docs/)")
    parser.add_argument("--root", type=Path, default=Path.cwd(), help="repo root for code anchors (default: cwd)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    paths = list(args.paths) or default_targets(root)
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    problems: list[str] = []
    checked = 0
    for md in _iter_markdown(paths):
        checked += 1
        problems.extend(_check_file(md, root))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s) in {checked} file(s)", file=sys.stderr)
        return 1
    print(f"{checked} markdown file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
