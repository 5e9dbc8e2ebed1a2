"""Static analysis and runtime sanitizers for the reproduction.

Two halves keep the simulation honest while the codebase is refactored
aggressively (see ROADMAP.md):

- :mod:`repro.analysis.lint` + :mod:`repro.analysis.pipeline` — a
  multi-pass static-analysis framework (``SIM*`` codes) run via
  ``python -m repro.analysis``.  Four pass families encode source-level
  invariants: *core* hygiene (wall clock/global randomness, centralized
  32-bit sequence arithmetic, mutable defaults, package docstrings),
  *determinism* dataflow (shared RNG streams, unordered iteration
  feeding scheduling/metrics, missing same-timestamp tiebreakers), the
  *contract* checker for Table 3's incremental-transform precondition
  over ``repro.l5p`` transforms, and
  *consistency* between emitted metric names and
  ``benchmarks/baseline.json``.  Output formats: text, JSON, SARIF
  (:mod:`repro.analysis.sarif`); an mtime+hash findings cache keeps the
  full run inside the CI budget.
- :mod:`repro.analysis.sanitizer` — an opt-in runtime invariant checker
  (``SAN*`` codes) that validates, per packet, the paper's Table 3
  preconditions and the Figure 7 resynchronization state machine.

Keep this module import-light: :mod:`repro.core.context` imports the
sanitizer on its hot path.
"""

__all__ = ["lint", "sanitizer"]
