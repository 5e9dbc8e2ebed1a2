"""SIM002 — 32-bit TCP sequence arithmetic lives in ``repro/tcp/seq.py``.

Sequence numbers inhabit a mod-2^32 space where "before/after" is only
meaningful through the RFC 793 signed-difference comparisons.  Inline
``% (1 << 32)``, ``& 0xFFFFFFFF`` on sequence values, or bare ``+``/``-``
on ``*seq``-named operands re-implements that space ad hoc — the exact
class of bug the paper's offload correctness argument (monotonic
``expected_seq`` advance, §4.1) cannot tolerate.  Use ``sq.add``,
``sq.sub``, ``sq.wrap`` and the ``sq.lt/le/gt/ge`` comparisons.

Deliberately out of scope: augmented increments (``x_seq += 1``) —
those are 64-bit record counters (TLS/DTLS record sequence numbers)
that must *not* wrap at 2^32 — and 32-bit word masks in the crypto
primitives, which never touch sequence names.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.lint import Finding, LintRule, SourceModule

_MOD_2_32 = 1 << 32
_MASK_2_32 = 0xFFFFFFFF

#: Non-``*seq`` identifiers that still denote TCP sequence positions.
_SEQ_NAMES = {"tcpsn", "snd_una", "snd_nxt", "rcv_nxt", "iss", "irs", "isn"}

#: The one module allowed to do raw modular arithmetic.
_HOME = "repro/tcp/seq.py"


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_seq_name(name: Optional[str]) -> bool:
    if not name:
        return False
    return name.endswith("seq") or name in _SEQ_NAMES


def _mentions_seq(node: ast.AST) -> bool:
    return any(_is_seq_name(_terminal_name(child)) for child in ast.walk(node))


def _is_mod_2_32_literal(node: ast.AST) -> bool:
    """Matches ``(1 << 32)`` and the literal ``4294967296``."""
    if isinstance(node, ast.Constant) and node.value == _MOD_2_32:
        return True
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
        and isinstance(node.right, ast.Constant)
        and node.right.value == 32
    )


class SeqArithmeticRule(LintRule):
    code = "SIM002"

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if module.posix_path.endswith(_HOME):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.BinOp):
                continue
            if isinstance(node.op, ast.Mod) and _is_mod_2_32_literal(node.right):
                yield module.finding(
                    node, self.code, "inline `% (1 << 32)` wraparound; use `sq.wrap()`/`sq.add()`"
                )
            elif (
                isinstance(node.op, ast.BitAnd)
                and isinstance(node.right, ast.Constant)
                and node.right.value == _MASK_2_32
                and _mentions_seq(node.left)
            ):
                yield module.finding(
                    node, self.code, "`& 0xFFFFFFFF` mask on a sequence value; use `sq.add()`/`sq.wrap()`"
                )
            elif isinstance(node.op, (ast.Add, ast.Sub)):
                for operand in (node.left, node.right):
                    name = _terminal_name(operand)
                    if _is_seq_name(name):
                        op = "+" if isinstance(node.op, ast.Add) else "-"
                        yield module.finding(
                            node,
                            self.code,
                            f"bare `{op}` on sequence operand `{name}`; "
                            "use `sq.add()`/`sq.sub()` (mod-2^32 space)",
                        )
                        break
