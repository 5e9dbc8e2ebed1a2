"""SIM010 — the Table-3 incremental-transform precondition, machine-checked.

The paper's Table 3 asks for an incrementally computable transform with
constant-size state (§3.2).  A ``MsgTransform.process`` that accumulates
the raw ``data`` into instance state while returning nothing derived
from it is whole-message buffering — the state the NIC would need grows
with the message, violating the constant-size context budget
(208 B/flow, §6.4).  (The framing preconditions need no rule: a
protocol's header, magic pattern and stream cut are all computed from
its one ``repro.l5p.frame.FrameSpec``, and every stream endpoint
inherits the four recovery upcalls from
``repro.l5p.base.StreamEndpoint``.)
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.lint import Finding, LintRule, SourceModule

_TRANSFORM_BASE = "MsgTransform"
#: Module defining the abstract surface itself.
_TYPES_HOME = "repro/core/types.py"


def _base_names(node: ast.ClassDef) -> set:
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
            return stmt
    return None


class IncrementalTransformRule(LintRule):
    code = "SIM010"
    name = "l5p-incremental-transform"
    description = "MsgTransform.process must stay incremental, not buffer the whole message"
    family = "contract"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.posix_path.endswith(_TYPES_HOME):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or _TRANSFORM_BASE not in _base_names(node):
                continue
            process = _method(node, "process")
            if process is None or not process.args.args or len(process.args.args) < 2:
                continue
            data_param = process.args.args[1].arg  # (self, data, ...)
            if self._buffers_whole_payload(process, data_param) and not self._returns_payload(
                process, data_param
            ):
                yield module.finding(
                    process,
                    self.code,
                    f"`{node.name}.process` accumulates `{data_param}` into instance state and "
                    "returns nothing derived from it: that is whole-message buffering, not an "
                    "incremental transform (Table 3: constant-size per-message state)",
                )

    @staticmethod
    def _buffers_whole_payload(fn: ast.FunctionDef, data_param: str) -> bool:
        """``self.X += data`` / ``self.X.append(data)`` with the raw param."""
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == data_param
            ):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("append", "extend")
                and isinstance(node.func.value, ast.Attribute)
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == data_param
            ):
                return True
        return False

    @staticmethod
    def _returns_payload(fn: ast.FunctionDef, data_param: str) -> bool:
        """Any return whose value is not a trivial empty constant."""
        for node in ast.walk(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if isinstance(node.value, ast.Constant) and node.value.value in (None, b"", ""):
                continue
            return True
        return False
