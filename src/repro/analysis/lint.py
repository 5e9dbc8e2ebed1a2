"""Project-specific AST lint (the static half of ``repro.analysis``).

Generic linters cannot know that ``time.time()`` breaks simulation
reproducibility or that ``% (1 << 32)`` outside ``repro/tcp/seq.py`` is
a re-implementation of sequence-number wraparound.  The rules here
encode exactly those project invariants, and each one has caught real
code in this repository's history (docs/static-analysis.md names the
hits; DESIGN.md §11 maps them to the paper).

This module holds the whole lint: :class:`Finding`,
:class:`SourceModule`, the :class:`LintRule` base class, suppression
parsing and :func:`run_rules`, the one loop that runs every rule over
every file.  Run it with ``python -m repro.analysis [paths...]``; it
takes paths only.  Exit status is 0 when the tree is clean, 1 when any
rule fired, 2 on usage errors.

A finding is waived with ``# sim: noqa[SIM002]`` on its line
(comma-separated codes allowed; bare ``# sim: noqa`` silences every
rule on that line).  A waiver that matches no finding is itself
reported as ``SIM998``, so waivers cannot outlive the code they
excused.  Flake8-style ``# noqa`` comments belong to ruff and never
silence a ``SIM`` code.
"""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

#: ``sim: noqa[SIM006]`` (codes comma-separated, bare form silences
#: everything) in a trailing comment.
_SIM_NOQA_RE = re.compile(r"#\s*sim:\s*noqa(?:\[(?P<codes>[A-Z0-9_,\s]*)\])?", re.IGNORECASE)

#: Pseudo-codes emitted by :func:`run_rules` itself (not by a rule).
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


@dataclass
class SourceModule:
    """A parsed source file handed to each rule."""

    path: Path
    tree: ast.AST
    #: line number -> codes its waiver comment names; the empty set means "all".
    sim_noqa: dict

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


class LintRule:
    """Base class: one per-module rule, one code, one ``check`` generator."""

    code: str = "SIM000"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        raise NotImplementedError


def _parse_suppressions(text: str) -> dict:
    """``{line: codes}`` for every ``# sim: noqa`` comment.

    Tokenizing (rather than regex-scanning raw lines) keeps docstrings
    and string literals that merely *mention* the syntax from
    registering as suppressions.
    """
    table: dict = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SIM_NOQA_RE.search(token.string)
            if match is None:
                continue
            codes = match.group("codes")
            table[token.start[0]] = set() if codes is None else {
                c.strip().upper() for c in codes.split(",") if c.strip()
            }
    except (tokenize.TokenizeError, IndentationError, SyntaxError):
        pass
    return table


def load_module(path: Path) -> SourceModule:
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return SourceModule(path=path, tree=tree, sim_noqa=_parse_suppressions(text))


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            yield path


def _check_file(path: Path, rules: Sequence[LintRule]) -> list[Finding]:
    """One file's findings after its waivers, plus SIM998 for stale ones."""
    try:
        module = load_module(path)
    except SyntaxError as exc:
        return [
            Finding(str(path), exc.lineno or 1, (exc.offset or 0) + 1, SYNTAX_ERROR_CODE, f"syntax error: {exc.msg}")
        ]
    kept: list[Finding] = []
    used: set[int] = set()
    for rule in rules:
        for finding in rule.check(module):
            codes = module.sim_noqa.get(finding.line)
            if codes is not None and (not codes or finding.code in codes):
                used.add(finding.line)
            else:
                kept.append(finding)
    for line in sorted(set(module.sim_noqa) - used):
        codes = module.sim_noqa[line]
        label = ",".join(sorted(codes)) if codes else "all rules"
        kept.append(
            Finding(
                str(path),
                line,
                1,
                UNUSED_SUPPRESSION_CODE,
                f"unused suppression: `# sim: noqa[{label}]` matched no finding; remove it",
            )
        )
    return kept


def run_rules(paths: Sequence[Path], rules: Optional[Sequence[LintRule]] = None) -> list[Finding]:
    """Run ``rules`` (default: all registered) over every ``.py`` file
    under ``paths``; returns findings sorted by location."""
    if rules is None:
        from repro.analysis.rules import all_rules

        rules = all_rules()
    findings = [f for path in iter_python_files(paths) for f in _check_file(path, rules)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def default_target() -> Path:
    """The ``repro`` package itself (lint the simulation sources)."""
    return Path(__file__).resolve().parents[1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if any(arg.startswith("-") for arg in args):
        print("usage: python -m repro.analysis [paths...]  (default: the repro package)", file=sys.stderr)
        return 2
    paths = [Path(arg) for arg in args] or [default_target()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    findings = run_rules(paths)
    for finding in findings:
        print(finding.format())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
