"""Project-specific AST lint (the static half of ``repro.analysis``).

Generic linters cannot know that ``time.time()`` breaks simulation
reproducibility or that ``% (1 << 32)`` outside ``repro/tcp/seq.py`` is
a re-implementation of sequence-number wraparound.  The rules here
encode exactly those project invariants; each one maps to a property
the paper's correctness argument relies on (see DESIGN.md §11).

This module holds the core vocabulary — :class:`Finding`,
:class:`SourceModule`, the :class:`LintRule`/:class:`ProjectRule` base
classes, and suppression parsing.  The pass pipeline (caching, project
passes, output formats) lives in :mod:`repro.analysis.pipeline`; the
CLI entry point is :func:`main`.

Run with ``python -m repro.analysis [paths...]``.  Exit status is 0
when the tree is clean, 1 when any rule fired, 2 on usage errors.

Suppression comes in two flavors:

- ``# noqa`` / ``# noqa: SIM002`` — the legacy flake8-style trailing
  comment.  Silences rules for that line, never warns when stale.
- ``# sim: noqa[SIM002]`` (comma-separated codes allowed; bare
  ``# sim: noqa`` silences everything) — the project syntax.  It does
  not collide with ruff's ``SIM*`` rule namespace, and a suppression
  that matches no finding is itself reported as ``SIM998`` so waivers
  cannot silently outlive the code they excused.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

#: ``# noqa`` / ``# noqa: SIM001, SIM002`` trailing-comment syntax.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9_,\s]+))?", re.IGNORECASE)

#: The project syntax: ``sim: noqa[SIM006]`` (codes comma-separated,
#: bare form silences everything) in a trailing comment.
_SIM_NOQA_RE = re.compile(r"#\s*sim:\s*noqa(?:\[(?P<codes>[A-Z0-9_,\s]*)\])?", re.IGNORECASE)

#: Pseudo-codes emitted by the pipeline itself (not by a registered rule).
UNUSED_SUPPRESSION_CODE = "SIM998"
SYNTAX_ERROR_CODE = "SIM999"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class SourceModule:
    """A parsed source file handed to each rule."""

    path: Path
    text: str
    tree: ast.AST
    #: line number -> set of suppressed codes; the empty set means "all".
    noqa: dict = field(default_factory=dict)
    #: same, for the project ``sim: noqa[...]`` syntax (tracked for staleness).
    sim_noqa: dict = field(default_factory=dict)

    @property
    def posix_path(self) -> str:
        return self.path.as_posix()

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        for table in (self.noqa, self.sim_noqa):
            codes = table.get(finding.line)
            if codes is not None and (not codes or finding.code in codes):
                return True
        return False


class LintRule:
    """Base class: one per-module rule, one code, one ``check`` generator."""

    code: str = "SIM000"
    name: str = "abstract"
    description: str = ""
    #: Pass family, for ``--list-rules`` and the DESIGN §11 rule table.
    family: str = "core"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(LintRule):
    """A whole-project pass: sees every scanned file, not one module.

    ``check_project`` receives a :class:`ModuleSet`-like loader (see
    :mod:`repro.analysis.pipeline`) exposing ``paths`` (every scanned
    file) and ``load(path) -> SourceModule`` (parsed on demand and
    memoized), so cross-artifact passes only pay for the files they
    actually inspect.
    """

    family = "consistency"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        return ()

    def check_project(self, modules) -> Iterable[Finding]:
        raise NotImplementedError


def _comment_lines(text: str) -> Iterator[tuple[int, str]]:
    """``(lineno, comment_text)`` for every real COMMENT token.

    Tokenizing (rather than regex-scanning raw lines) keeps docstrings
    and string literals that merely *mention* the noqa syntax from
    registering as suppressions.
    """
    import io
    import tokenize

    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        return


def _parse_suppressions(comments: Sequence[tuple], pattern: re.Pattern) -> dict:
    table: dict = {}
    for lineno, comment in comments:
        match = pattern.search(comment)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            table[lineno] = set()
        else:
            table[lineno] = {c.strip().upper() for c in codes.split(",") if c.strip()}
    return table


def load_module(path: Path) -> SourceModule:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    comments = list(_comment_lines(text))
    return SourceModule(
        path=path,
        text=text,
        tree=tree,
        noqa=_parse_suppressions(comments, _NOQA_RE),
        sim_noqa=_parse_suppressions(comments, _SIM_NOQA_RE),
    )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            yield path


def run_rules(
    paths: Sequence[Path],
    rules: Optional[Sequence[LintRule]] = None,
) -> list[Finding]:
    """Run ``rules`` (default: all registered) over every ``.py`` file
    under ``paths``; returns findings sorted by location.

    Convenience wrapper over the pipeline with caching disabled —
    the API tests and embedding callers use; the CLI adds caching and
    output formats on top.
    """
    from repro.analysis.pipeline import run_analysis

    return run_analysis(paths, rules=rules, cache_path=None)


def default_target() -> Path:
    """The ``repro`` package itself (lint the simulation sources)."""
    return Path(__file__).resolve().parents[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.analysis.pipeline import default_cache_path, run_analysis
    from repro.analysis.rules import all_rules
    from repro.analysis.sarif import to_sarif

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project static analysis: determinism, offloadability-contract, "
        "and cross-artifact consistency passes (--list-rules names them).",
    )
    parser.add_argument("paths", nargs="*", type=Path, help="files/directories to lint (default: the repro package)")
    parser.add_argument("--select", help="comma-separated rule codes to run (default: all)")
    parser.add_argument("--list-rules", action="store_true", help="print the registered rules and exit")
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument("--output", type=Path, help="write findings to this file instead of stdout")
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        help=f"findings cache file (default: {default_cache_path()}; set REPRO_ANALYSIS_CACHE to move it)",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the mtime+hash findings cache")
    args = parser.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.code}  [{rule.family}] {rule.name}: {rule.description}")
        return 0
    if args.select is not None:
        wanted = {code.strip().upper() for code in args.select.split(",") if code.strip()}
        if not wanted:
            print("--select given but no rule codes named", file=sys.stderr)
            return 2
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            print(f"unknown rule code(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.code in wanted]

    paths = list(args.paths) or [default_target()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    cache_path = None if args.no_cache else (args.cache or default_cache_path())
    findings = run_analysis(paths, rules=rules, cache_path=cache_path)

    if args.format == "text":
        rendered = "\n".join(f.format() for f in findings)
    elif args.format == "json":
        rendered = json.dumps(
            {"findings": [f.as_dict() for f in findings], "count": len(findings)},
            indent=2,
            sort_keys=True,
        )
    else:
        rendered = json.dumps(to_sarif(findings, all_rules()), indent=2, sort_keys=True)

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(rendered + "\n", encoding="utf-8")
    elif rendered:
        print(rendered)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
