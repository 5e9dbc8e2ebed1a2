"""Rule registry for the project lint.

Each rule module defines one :class:`~repro.analysis.lint.LintRule`
subclass; register it here so the CLI and the tests pick it up.  A rule
stays only while it has a historical hit on real code —
docs/static-analysis.md names each rule's hits, and DESIGN.md §11 maps
the rules to the paper.
"""

from __future__ import annotations

from repro.analysis.lint import LintRule
from repro.analysis.rules.hotloop import HotLoopRule
from repro.analysis.rules.rng_dataflow import RngSharingRule
from repro.analysis.rules.seqarith import SeqArithmeticRule
from repro.analysis.rules.wallclock import WallClockRule


def all_rules() -> list[LintRule]:
    return [WallClockRule(), SeqArithmeticRule(), RngSharingRule(), HotLoopRule()]
