"""Autonomous DPI offload (paper §7, "Pattern matching").

Deep packet inspection fits the offload preconditions: matching is
confined to L5P messages (never across them), and a streaming
multi-pattern matcher needs only constant per-flow state — the
automaton state — to process any byte range.  The NIC scans each
in-sequence packet and reports per-packet match metadata; software
inspects messages in order and falls back to scanning whenever some
packet bypassed the offload.

The wire format is a minimal inspectable L5P:

    magic(0xD1 0xD9) | kind(1) | length(4, body bytes) | body

The matcher is a from-scratch Aho-Corasick automaton (goto + failure
links), the textbook constant-state streaming multi-pattern scanner.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.types import Direction, L5pAdapter, MsgTransform
from repro.l5p import plugin
from repro.l5p.frame import FrameSpec

MAX_BODY = 1 << 24

FRAME = FrameSpec(
    ">2sBI",
    "magic kind length",
    length="length",
    max_len=MAX_BODY,
    const={"magic": b"\xd1\xd9"},
)
HEADER_LEN = FRAME.header_len


def make_message(body: bytes, kind: int = 1) -> bytes:
    return FRAME.build(kind=kind, length=len(body)) + body


class PatternSet:
    """Aho-Corasick automaton over byte patterns.

    ``match_stream`` consumes chunks and returns the pattern indices
    completing inside each chunk; the only carried state is the current
    node — exactly the paper's constant-size-state requirement.
    """

    def __init__(self, patterns: Iterable[bytes]):
        self.patterns = [bytes(p) for p in patterns]
        if not self.patterns or any(not p for p in self.patterns):
            raise ValueError("need at least one non-empty pattern")
        # goto: list of dicts byte -> node; out: set of pattern indices.
        self._goto: list[dict[int, int]] = [{}]
        self._out: list[set[int]] = [set()]
        self._fail: list[int] = [0]
        for index, pattern in enumerate(self.patterns):
            node = 0
            for byte in pattern:
                node = self._goto[node].setdefault(byte, self._new_node())
            self._out[node].add(index)
        self._build_failure_links()

    def _new_node(self) -> int:
        self._goto.append({})
        self._out.append(set())
        self._fail.append(0)
        return len(self._goto) - 1

    def _build_failure_links(self) -> None:
        queue = deque()
        for node in self._goto[0].values():
            self._fail[node] = 0
            queue.append(node)
        while queue:
            current = queue.popleft()
            for byte, child in self._goto[current].items():
                queue.append(child)
                fallback = self._fail[current]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[child] = self._goto[fallback].get(byte, 0)
                if self._fail[child] == child:
                    self._fail[child] = 0
                self._out[child] |= self._out[self._fail[child]]

    def step(self, state: int, byte: int) -> tuple[int, set[int]]:
        while state and byte not in self._goto[state]:
            state = self._fail[state]
        state = self._goto[state].get(byte, 0)
        return state, self._out[state]

    def scan(self, data: bytes, state: int = 0) -> tuple[int, set[int]]:
        """Scan ``data`` from ``state``; returns (new state, matches)."""
        found: set[int] = set()
        for byte in data:
            state, out = self.step(state, byte)
            found |= out
        return state, found


class _DpiTransform(MsgTransform):
    """Per-message streaming scan; bytes pass through untouched."""

    def __init__(self, adapter: "DpiAdapter"):
        self.adapter = adapter
        self._state = 0

    def process(self, data: bytes) -> bytes:
        self._state, found = self.adapter.patterns.scan(data, self._state)
        if found:
            self.adapter.note_matches(found)
        return data

    def finalize_tx(self) -> bytes:
        return b""

    def verify_rx(self, wire_trailer: bytes) -> bool:
        return True


class DpiAdapter(L5pAdapter):
    """NIC-side DPI: per-flow automaton state, per-packet match report.

    One instance per flow direction; matches found while walking a
    packet are latched and drained into that packet's metadata.
    """

    name = "dpi"
    frame = FRAME

    def __init__(self, patterns: PatternSet):
        self.patterns = patterns
        self._pkt_matches: set[int] = set()
        self.total_matches = 0

    def note_matches(self, found: set[int]) -> None:
        self._pkt_matches |= found
        self.total_matches += len(found)

    def begin_message(self, direction: Direction, static_state, desc, msg_index, rr_state=None):
        del direction, static_state, msg_index, rr_state
        return _DpiTransform(self)

    def apply_packet_meta(self, meta, processed: bool, ok: bool, desc_kinds) -> None:
        # Reuse crc_ok as the "scanned by NIC" bit and placed as the
        # per-packet "a match completed in this packet" report.
        meta.crc_ok = processed and ok
        meta.placed = processed and bool(self._pkt_matches)
        self._pkt_matches = set()


PLUGIN = plugin.register(
    plugin.L5Protocol(
        name="dpi",
        frame=FRAME,
        confidence=1e-4,
        preconditions=plugin.Table3Preconditions(
            size_preserving=True,
            incremental_constant_state=True,
            state_from_msg_index=True,
            notes="pure scan: bytes pass through unchanged, matches latch "
            "into packet metadata (§7)",
        ),
        factory=lambda patterns=None, **kw: DpiAdapter(
            patterns if patterns is not None else PatternSet((b"\x00",)), **kw
        ),
        description="NIC-side deep packet inspection over framed streams",
    )
)
