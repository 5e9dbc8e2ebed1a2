"""SIM001 — no wall clock, no global randomness.

The simulator is deterministic by construction: every run is a pure
function of its seed (``Simulator(seed=...)``), and every stochastic
decision must draw from :meth:`Simulator.substream`.  A single
``time.time()`` or module-level ``random.random()`` silently breaks
run-to-run reproducibility — the property the determinism tests and
every experiment comparison depend on.  Simulated time is ``sim.now``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.lint import Finding, LintRule, SourceModule

#: ``time`` module functions that read the host clock (or block on it).
_TIME_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "localtime",
    "gmtime",
    "sleep",
}

#: ``datetime``/``date`` constructors that read the host clock.
_DATETIME_FNS = {"now", "utcnow", "today"}

#: Module-level ``random`` functions (the shared, unseeded global PRNG).
_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "normalvariate",
    "expovariate",
    "betavariate",
    "gammavariate",
    "lognormvariate",
    "paretovariate",
    "weibullvariate",
    "vonmisesvariate",
    "triangular",
    "getrandbits",
    "randbytes",
    "seed",
}


class _Imports:
    """Names the module binds to the stdlib ``time``/``datetime``/``random``."""

    def __init__(self, tree: ast.AST):
        self.time_modules: set[str] = set()
        self.datetime_modules: set[str] = set()
        self.datetime_classes: set[str] = set()
        self.random_modules: set[str] = set()
        self.random_functions: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name == "time":
                        self.time_modules.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(bound)
                    elif alias.name == "random":
                        self.random_modules.add(bound)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            self.datetime_classes.add(alias.asname or alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        self.random_functions.add(alias.asname or alias.name)
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FNS:
                            self.random_functions.add(alias.asname or alias.name)


class WallClockRule(LintRule):
    code = "SIM001"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        imports = _Imports(module.tree)
        yield from self._check_calls(module, imports)

    def _check_calls(self, module: SourceModule, imports: _Imports) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                owner, attr = func.value.id, func.attr
                if owner in imports.time_modules and attr in _TIME_FNS:
                    yield module.finding(
                        node, self.code, f"`{owner}.{attr}()` reads the wall clock; use `sim.now` for simulated time"
                    )
                elif owner in imports.random_modules:
                    if attr in _RANDOM_FNS:
                        yield module.finding(
                            node,
                            self.code,
                            f"module-level `{owner}.{attr}()` uses the global PRNG; "
                            "draw from `Simulator.substream()` instead",
                        )
                    elif attr == "SystemRandom":
                        yield module.finding(
                            node, self.code, "`random.SystemRandom` is non-deterministic by design"
                        )
                    elif attr == "Random" and not node.args and not node.keywords:
                        yield module.finding(
                            node, self.code, "unseeded `random.Random()`; pass an explicit seed or use a substream"
                        )
                elif (owner in imports.datetime_modules or owner in imports.datetime_classes) and (
                    attr in _DATETIME_FNS
                ):
                    yield module.finding(
                        node, self.code, f"`{owner}.{attr}()` reads the wall clock; simulations must not observe it"
                    )
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute):
                # datetime.datetime.now() / datetime.date.today()
                inner = func.value
                if (
                    isinstance(inner.value, ast.Name)
                    and inner.value.id in imports.datetime_modules
                    and inner.attr in ("datetime", "date")
                    and func.attr in _DATETIME_FNS
                ):
                    yield module.finding(
                        node,
                        self.code,
                        f"`{inner.value.id}.{inner.attr}.{func.attr}()` reads the wall clock",
                    )
            elif isinstance(func, ast.Name) and func.id in imports.random_functions:
                yield module.finding(
                    node,
                    self.code,
                    f"`{func.id}()` (imported from a wall-clock/global-random module) "
                    "is non-deterministic; route through the simulator",
                )
