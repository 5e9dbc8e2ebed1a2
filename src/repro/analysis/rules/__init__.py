"""Rule registry for the project analysis passes.

Each rule module defines one or more
:class:`~repro.analysis.lint.LintRule` subclasses; register new rules
here so the CLI, the SARIF emitter, and the tests pick them up.  Rules
are grouped into pass families (``core``, ``determinism``,
``contract``, ``consistency``) — see DESIGN.md §11 for the rule table
mapped to paper sections.
"""

from __future__ import annotations

from repro.analysis.lint import LintRule
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


def all_rules() -> list[LintRule]:
    return [
        WallClockRule(),
        SeqArithmeticRule(),
        MutableDefaultsRule(),
        PackageDocstringRule(),
        RngSharingRule(),
        UnorderedIterRule(),
        EventTiebreakRule(),
        IncrementalTransformRule(),
        MetricBaselineRule(),
        HotLoopRule(),
    ]
