"""SIM013 — no per-byte Python loops in hot modules.

The vectorized hot path (docs/performance.md) exists because a Python
``for byte in data:`` loop pays interpreter dispatch per *byte* while
the batched rewrites (bit-matrix CRC32C, whole-record GHASH,
multi-block CTR, big-int XOR) pay it per 16 bytes, per block or per
record.  A per-byte loop creeping back into ``crypto/``, ``net/``, or
``core/`` is how the 2x iperf-TLS win silently erodes, so this rule
flags the idiom in those packages.

Detection is a heuristic tuned to the codebase: a ``for`` statement
whose iterable is a plain name or attribute (i.e. an existing buffer —
not ``range()``, ``enumerate()``, or an unpacked-words call) and whose
loop variable feeds bitwise arithmetic or a table subscript in the body.
Deliberate reference implementations (kept for validating the fast
paths) carry ``# sim: noqa[SIM013]``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.lint import Finding, LintRule, SourceModule

#: Package directories whose inner loops run per packet or per record.
_HOT_DIRS = ("repro/crypto/", "repro/net/", "repro/core/")

#: Operators that mark byte-at-a-time arithmetic on the loop variable.
_BITWISE_OPS = (ast.BitXor, ast.BitAnd, ast.BitOr, ast.LShift, ast.RShift)


def _in_hot_package(module: SourceModule) -> bool:
    posix = module.posix_path
    return any(f"/{d}" in posix or posix.startswith(d) for d in _HOT_DIRS)


def _loop_var_names(target: ast.AST) -> set[str]:
    """Names bound by the loop target (handles tuple targets)."""
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _uses_bytewise_arith(body: list[ast.stmt], names: set[str]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.BinOp) and isinstance(node.op, _BITWISE_OPS):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Name) and side.id in names:
                        return True
            elif isinstance(node, ast.Subscript):
                # table[byte] / table[byte & 0xFF]-style lookups
                idx = node.slice
                if isinstance(idx, ast.Name) and idx.id in names:
                    return True
    return False


class HotLoopRule(LintRule):
    code = "SIM013"
    name = "no-per-byte-hot-loop"
    description = (
        "per-byte `for byte in data:` loops in hot modules (crypto/, net/, "
        "core/) defeat the vectorized hot path; batch with struct/int-on-bytes"
    )

    def check(self, module: SourceModule) -> Iterable[Finding]:
        if not _in_hot_package(module):
            return
        yield from self._check_loops(module)

    def _check_loops(self, module: SourceModule) -> Iterator[Finding]:
        # Module-level loops run once at import (sbox/table builds) — only
        # loops inside functions can sit on the per-packet path.
        funcs = [
            n for n in ast.walk(module.tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in funcs:
            yield from self._check_function(module, func)

    def _check_function(self, module: SourceModule, func: ast.AST) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.For):
                continue
            # Only direct iteration over a held buffer: `for b in data` /
            # `for b in self._buf`.  Calls (range, enumerate, unpack) and
            # literals are not the per-byte idiom this rule polices.
            if not isinstance(node.iter, (ast.Name, ast.Attribute)):
                continue
            names = _loop_var_names(node.target)
            if not names or not _uses_bytewise_arith(node.body, names):
                continue
            iter_src = ast.unparse(node.iter)
            yield module.finding(
                node,
                self.code,
                f"per-byte loop over `{iter_src}` in a hot module; process 8+ "
                "bytes per iteration (struct unpack, int.from_bytes) or move "
                "the loop off the hot path",
            )
