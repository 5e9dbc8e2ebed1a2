"""SIM006 — RNG streams must not be shared across components.

The determinism contract (docs/performance.md) hangs on substream
discipline: every component draws from its *own* ``random.Random``
derived via ``Simulator.substream(name)``, so enabling or reordering
one component can never perturb another's draw sequence.  Three
patterns break that silently and are flagged here by a small dataflow
walk over each module:

- a **module-level** ``random.Random(...)`` instance: global state
  shared by every importer, in every test, in every process;
- passing the simulator's **master stream** (``sim.random``) into
  another component (as a call argument or stored onto an object) —
  consumers must derive a named substream instead;
- binding one substream (``rng = sim.substream(...)`` or a seeded
  ``Random``) and handing it to **two or more** callees: both now
  interleave draws, so adding a draw in one changes the other's
  sequence (the ``repro.faults`` substream discipline, generalized).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Union

from repro.analysis.lint import Finding, LintRule, SourceModule

#: The module that legitimately owns the master stream.
_HOME = "repro/sim/simulator.py"

_FuncScope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def _random_module_names(tree: ast.AST) -> tuple[set, set]:
    """Names bound to the ``random`` module / its ``Random`` class."""
    modules: set = set()
    classes: set = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "random":
            for alias in node.names:
                if alias.name == "Random":
                    classes.add(alias.asname or alias.name)
    return modules, classes


def _is_rng_factory(call: ast.Call, modules: set, classes: set) -> bool:
    """``random.Random(...)`` / ``Random(...)`` / ``<x>.substream(...)``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "Random" and isinstance(func.value, ast.Name) and func.value.id in modules:
            return True
        if func.attr == "substream":
            return True
    elif isinstance(func, ast.Name) and func.id in classes:
        return True
    return False


def _is_master_stream(node: ast.AST, modules: set) -> bool:
    """``<obj>.random`` where ``<obj>`` is not the stdlib ``random``."""
    if not isinstance(node, ast.Attribute) or node.attr != "random":
        return False
    if isinstance(node.value, ast.Name) and node.value.id in modules:
        return False  # `random.random` is the stdlib module (SIM001's beat)
    return True


def _function_scopes(tree: ast.AST) -> Iterator[_FuncScope]:
    yield tree  # module scope first
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _direct_statements(scope: _FuncScope) -> Iterator[ast.stmt]:
    """Statements of ``scope`` excluding nested function/class bodies."""
    stack = list(scope.body)
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for field_name in ("body", "orelse", "finalbody", "handlers"):
            children = getattr(stmt, field_name, None)
            if children:
                for child in children:
                    if isinstance(child, ast.ExceptHandler):
                        stack.extend(child.body)
                    elif isinstance(child, ast.stmt):
                        stack.append(child)


class RngSharingRule(LintRule):
    code = "SIM006"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.posix_path.endswith(_HOME):
            return
        modules, classes = _random_module_names(module.tree)
        yield from self._module_level_rng(module, modules, classes)
        yield from self._master_stream_leaks(module, modules)
        yield from self._shared_substreams(module, modules, classes)

    # ------------------------------------------------------------------
    def _module_level_rng(self, module: SourceModule, modules: set, classes: set) -> Iterator[Finding]:
        assert isinstance(module.tree, ast.Module)
        for stmt in module.tree.body:
            targets: list = []
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if not isinstance(value, ast.Call) or not _is_rng_factory(value, modules, classes):
                continue
            names = ", ".join(t.id for t in targets if isinstance(t, ast.Name)) or "<rng>"
            yield module.finding(
                stmt,
                self.code,
                f"module-level RNG `{names}` is shared by every importer; "
                "construct per-run streams via `Simulator.substream()` instead",
            )

    def _master_stream_leaks(self, module: SourceModule, modules: set) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if _is_master_stream(arg, modules):
                        yield module.finding(
                            arg,
                            self.code,
                            "passing the simulator's master stream (`.random`) into another "
                            "component couples its draws to everyone else's; pass "
                            "`sim.substream(<name>)` instead",
                        )
            elif isinstance(node, ast.Assign) and _is_master_stream(node.value, modules):
                yield module.finding(
                    node,
                    self.code,
                    "storing the simulator's master stream (`.random`) shares one draw "
                    "sequence across components; store `sim.substream(<name>)` instead",
                )

    def _shared_substreams(self, module: SourceModule, modules: set, classes: set) -> Iterator[Finding]:
        for scope in _function_scopes(module.tree):
            bindings: dict = {}  # name -> binding stmt
            for stmt in _direct_statements(scope):
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Call)
                    and _is_rng_factory(stmt.value, modules, classes)
                ):
                    bindings[stmt.targets[0].id] = stmt
            if not bindings:
                continue
            passed: dict = {name: [] for name in bindings}
            for stmt in _direct_statements(scope):
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        if isinstance(arg, ast.Name) and arg.id in passed:
                            passed[arg.id].append(node)
            for name, calls in passed.items():
                if len(calls) >= 2:
                    lines = ", ".join(str(c.lineno) for c in calls)
                    yield module.finding(
                        bindings[name],
                        self.code,
                        f"RNG stream `{name}` is handed to {len(calls)} callees (lines {lines}); "
                        "components sharing one stream interleave draws — derive a dedicated "
                        "substream per consumer",
                    )
