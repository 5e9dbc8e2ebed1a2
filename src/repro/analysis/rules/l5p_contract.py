"""SIM009, SIM010, SIM014 — the Table-3 offloadability contract, machine-checked.

The paper's Table 3 names the preconditions an L5P must satisfy before
its data-intensive operation can ride the NIC: a plaintext magic
pattern plus length field for receive resynchronization (§3.3) and an
incrementally computable transform with constant-size state (§3.2).
``repro.l5p`` is a generic plugin surface; these rules make the
preconditions structural properties of the code, checked on every class
that claims the surface, instead of conventions a new plugin can
silently skip.  (The recovery/degradation upcalls of §4 and §5.3 need
no rule: every stream endpoint inherits all four from
``repro.l5p.base.StreamEndpoint``.)

- **SIM009** (magic-framing): a direct ``L5pAdapter`` subclass must
  declare a non-trivial magic pattern (``magic_len``/``header_len``
  not literal zero), ``check_magic`` must be able to say *no* (not a
  bare ``return True``), and ``parse_header`` must have a rejection
  path (``return None`` or ``raise``) — otherwise speculative resync
  locks onto garbage.
- **SIM010** (incremental-transform): a ``MsgTransform.process`` that
  accumulates the raw ``data`` into instance state while returning
  nothing derived from it is whole-message buffering — the state the
  NIC would need grows with the message, violating the constant-size
  context budget (208 B/flow, §6.4).
- **SIM014** (plugin-declaration): literal ``L5Protocol`` /
  ``MagicSpec`` / ``Table3Preconditions`` declarations (the
  ``repro.l5p.plugin`` registry surface) must be statically coherent:
  pattern/mask lengths agree, the mask is not all-zero, ``confidence``
  lies in (0, 1], the protocol name is lowercase, and every Table-3
  row is asserted ``True`` explicitly — a literal ``False`` (or an
  omitted row, which defaults ``False``) means the protocol is not
  autonomously offloadable and the declaration would be rejected at
  import time anyway; the lint moves that failure to review time.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.analysis.lint import Finding, LintRule, SourceModule

_ADAPTER_BASE = "L5pAdapter"
_TRANSFORM_BASE = "MsgTransform"
#: Modules defining the abstract surfaces themselves.
_TYPES_HOME = "repro/core/types.py"
#: Module defining the plugin declaration surface itself.
_PLUGIN_HOME = "repro/l5p/plugin.py"

_TABLE3_ROWS = (
    "size_preserving",
    "incremental_constant_state",
    "header_plaintext_length",
    "magic_identifiable",
    "state_from_msg_index",
)


def _base_names(node: ast.ClassDef) -> set:
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _class_attr_value(node: ast.ClassDef, name: str) -> Optional[ast.expr]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.target.id == name:
                return stmt.value
    return None


def _method(node: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
            return stmt
    return None


def _body_sans_docstring(fn: ast.FunctionDef) -> list:
    body = list(fn.body)
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    return body


class MagicFramingRule(LintRule):
    code = "SIM009"
    name = "l5p-magic-framing"
    description = "L5P adapters must declare a discriminating magic pattern and rejectable header framing"
    family = "contract"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.posix_path.endswith(_TYPES_HOME):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or _ADAPTER_BASE not in _base_names(node):
                continue
            yield from self._check_adapter(module, node)

    def _check_adapter(self, module: SourceModule, node: ast.ClassDef) -> Iterator[Finding]:
        for attr in ("magic_len", "header_len"):
            value = _class_attr_value(node, attr)
            if isinstance(value, ast.Constant) and value.value == 0:
                yield module.finding(
                    value,
                    self.code,
                    f"adapter `{node.name}` declares `{attr} = 0`: without a plaintext "
                    "magic/length pattern the NIC cannot resynchronize after a drop (Table 3)",
                )
        check_magic = _method(node, "check_magic")
        if check_magic is not None:
            body = _body_sans_docstring(check_magic)
            if (
                len(body) == 1
                and isinstance(body[0], ast.Return)
                and isinstance(body[0].value, ast.Constant)
                and body[0].value.value is True
            ):
                yield module.finding(
                    check_magic,
                    self.code,
                    f"`{node.name}.check_magic` accepts every window: a magic pattern must be "
                    "able to reject a candidate header, or speculation locks onto garbage (§3.3)",
                )
        parse_header = _method(node, "parse_header")
        if parse_header is not None and not self._can_reject(parse_header):
            yield module.finding(
                parse_header,
                self.code,
                f"`{node.name}.parse_header` has no rejection path (`return None` or `raise`): "
                "length framing requires the header validator to refuse garbage (Table 3)",
            )

    @staticmethod
    def _can_reject(fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Return):
                if node.value is None:
                    return True
                if isinstance(node.value, ast.Constant) and node.value.value is None:
                    return True
                # Delegation (`return other_parse(...)` / conditional exprs)
                # can carry the rejection; accept any non-constructor call.
                if isinstance(node.value, ast.IfExp):
                    return True
                if isinstance(node.value, ast.Call):
                    name = (
                        node.value.func.attr
                        if isinstance(node.value.func, ast.Attribute)
                        else getattr(node.value.func, "id", "")
                    )
                    if name not in ("MessageDesc",):
                        return True
        return False


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


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return getattr(node.func, "id", "")


def _kwarg(node: ast.Call, name: str) -> Optional[ast.expr]:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _literal(value: Optional[ast.expr]):
    """The constant behind ``value``, or None when not a plain literal."""
    if isinstance(value, ast.Constant):
        return value.value
    return None


class PluginDeclarationRule(LintRule):
    code = "SIM014"
    name = "l5p-plugin-declaration"
    description = "Literal L5Protocol/MagicSpec/Table3Preconditions declarations must be coherent"
    family = "contract"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.posix_path.endswith(_PLUGIN_HOME):
            return  # the declaration surface itself
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "MagicSpec":
                yield from self._check_magic_spec(module, node)
            elif name == "L5Protocol":
                yield from self._check_protocol(module, node)

    def _check_magic_spec(self, module: SourceModule, node: ast.Call) -> Iterator[Finding]:
        pattern = _literal(_kwarg(node, "pattern"))
        mask = _literal(_kwarg(node, "mask"))
        if isinstance(pattern, bytes) and isinstance(mask, bytes):
            if len(pattern) != len(mask):
                yield module.finding(
                    node,
                    self.code,
                    f"MagicSpec pattern ({len(pattern)}B) and mask ({len(mask)}B) lengths "
                    "disagree: the TCAM match is positional, so every pattern byte needs a "
                    "mask byte (§3.3)",
                )
            if pattern == b"":
                yield module.finding(
                    node, self.code, "MagicSpec.pattern is empty: nothing for resync to match on"
                )
            if mask and not any(mask):
                yield module.finding(
                    node,
                    self.code,
                    "MagicSpec.mask is all zeroes: it matches every window, so speculative "
                    "search degenerates to confirming every byte position (§3.3)",
                )
        confidence = _literal(_kwarg(node, "confidence"))
        if isinstance(confidence, (int, float)) and not 0.0 < float(confidence) <= 1.0:
            yield module.finding(
                node,
                self.code,
                f"MagicSpec.confidence {confidence!r} outside (0, 1]: it is a declared "
                "false-positive-rate bound, gated by the fig_l5p_plugins study",
            )

    def _check_protocol(self, module: SourceModule, node: ast.Call) -> Iterator[Finding]:
        proto_name = _literal(_kwarg(node, "name"))
        label = proto_name if isinstance(proto_name, str) else "<dynamic>"
        if isinstance(proto_name, str) and (not proto_name or proto_name != proto_name.lower()):
            yield module.finding(
                node,
                self.code,
                f"L5Protocol name {proto_name!r} must be non-empty lowercase: registry "
                "lookups are exact-match",
            )
        pre = _kwarg(node, "preconditions")
        if isinstance(pre, ast.Call) and _call_name(pre) == "Table3Preconditions":
            given = {kw.arg: _literal(kw.value) for kw in pre.keywords}
            for row in _TABLE3_ROWS:
                if row not in given:
                    yield module.finding(
                        pre,
                        self.code,
                        f"protocol {label!r} omits Table-3 row `{row}` (defaults False): "
                        "every precondition must be asserted explicitly, or the protocol "
                        "is declaring itself non-offloadable",
                    )
                elif given[row] is False:
                    yield module.finding(
                        pre,
                        self.code,
                        f"protocol {label!r} declares Table-3 row `{row}=False`: an L5P "
                        "failing Table 3 is not autonomously offloadable and register() "
                        "will reject it at import time",
                    )
        magic = _kwarg(node, "magic")
        header_len = _literal(_kwarg(node, "header_len"))
        if isinstance(magic, ast.Call) and _call_name(magic) == "MagicSpec":
            pattern = _literal(_kwarg(magic, "pattern"))
            if isinstance(pattern, bytes) and isinstance(header_len, int):
                if len(pattern) > header_len:
                    yield module.finding(
                        node,
                        self.code,
                        f"protocol {label!r}: magic pattern ({len(pattern)}B) exceeds "
                        f"header_len ({header_len}B) — the NIC only has the header to "
                        "match against (§3.3)",
                    )
