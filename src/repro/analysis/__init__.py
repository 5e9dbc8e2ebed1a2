"""Static analysis and runtime sanitizers for the reproduction.

Two halves keep the simulation honest while the codebase is refactored
aggressively (see ROADMAP.md):

- :mod:`repro.analysis.lint` — a project AST lint (``SIM*`` codes) run
  via ``python -m repro.analysis [paths...]``.  It keeps four rules, each
  with a historical hit on real code: no wall clock or global
  randomness (SIM001), 32-bit sequence arithmetic only in
  ``repro/tcp/seq.py`` (SIM002), one RNG substream per consumer
  (SIM006), and no per-byte loops in the hot packages (SIM013).
- :mod:`repro.analysis.sanitizer` — an opt-in runtime invariant checker
  (``SAN*`` codes) that validates, per packet, the paper's Table 3
  preconditions and the Figure 7 resynchronization state machine.

Keep this module import-light: :mod:`repro.core.context` imports the
sanitizer on its hot path.
"""

__all__ = ["lint", "sanitizer"]
