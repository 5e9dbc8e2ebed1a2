"""FrameSpec: one L5P's fixed plaintext header, stated once (§3.3).

Table 3 asks one thing of a protocol's framing: a fixed-size plaintext
header carrying a length field and a recognizable pattern.  A
:class:`FrameSpec` is that fact as data — a ``struct`` layout with named
fields, which of them are constant, enumerated or have reserved-zero
bits, and how the length field maps to the message's extent.  What a
protocol would otherwise write by hand is *computed* from it: the header
and scan-window sizes, the full header check (:meth:`FrameSpec.parse`),
the software stream cut (:meth:`FrameSpec.total_len`), the encoder
(:meth:`FrameSpec.build`) and the NIC's TCAM first-pass filter
(:attr:`FrameSpec.pattern` / :attr:`FrameSpec.mask` /
:meth:`FrameSpec.matches`).  The mask is the constant bytes, the bits all
``one_of`` values share and the reserved-zero bits, so it is a necessary
condition of the full check by construction.
"""

from __future__ import annotations

import re
import struct
from collections import namedtuple
from typing import Callable, Mapping, Optional, Union

_FIELD = re.compile(r"(\d*)([BHIQs])")

#: What the length field counts: the body alone, the body and its
#: trailer (TLS, HTTP/2), or the whole message, header included (NVMe-TCP).
_COUNTS = ("body", "body+trailer", "message")


def _tcam(size: int, care: int, want: int, from_bytes=int.from_bytes) -> Callable[[bytes], bool]:
    """The integer mask test over a ``size``-byte window, precompiled as
    a closure: the resync scan runs it once per stream byte."""

    def matches(window: bytes) -> bool:
        if len(window) != size:
            if len(window) < size:
                return False
            window = window[:size]
        return from_bytes(window, "big") & care == want

    return matches


class FrameSpec:
    """A fixed header: ``layout`` is a ``struct`` format of ``B``/``H``/
    ``I``/``Q``/``Ns`` fields, ``names`` their space-separated names.

    ``length`` names the length field; ``decode``/``encode`` convert it
    from/to its wire form when that is not a binary integer (``decode``
    returns None for an undecodable value).  ``counts`` says what it
    counts, ``max_len`` bounds it, and ``trailer`` is the trailer size —
    an int, or ``(flag_field, flag_bit, size)`` for a trailer present
    only when a header flag is set.  ``const`` fields hold one value,
    ``one_of`` fields one of a few, ``zero_bits`` are reserved-zero bits
    of a field; ``check(fields)`` states what a table cannot.
    ``magic_len`` narrows the resync scan window to a header prefix.
    """

    def __init__(
        self,
        layout: str,
        names: str,
        *,
        length: str,
        counts: str = "body",
        max_len: Optional[int] = None,
        trailer: Union[int, tuple[str, int, int]] = 0,
        const: Optional[Mapping[str, Union[int, bytes]]] = None,
        one_of: Optional[Mapping[str, tuple[int, ...]]] = None,
        zero_bits: Optional[Mapping[str, int]] = None,
        decode: Optional[Callable[[bytes], Optional[int]]] = None,
        encode: Optional[Callable[[int], bytes]] = None,
        check: Optional[Callable[[tuple], bool]] = None,
        magic_len: Optional[int] = None,
    ):
        self._struct = struct.Struct(layout)
        self.header_len = self._struct.size
        self.magic_len = self.header_len if magic_len is None else magic_len
        self.Fields = namedtuple("Fields", names)
        fields = self.Fields._fields
        codes = _FIELD.findall(layout)
        if len(codes) != len(fields) or counts not in _COUNTS or not 0 < self.magic_len <= self.header_len:
            raise ValueError(f"incoherent frame spec: {layout!r} / {names!r} / {counts!r} / magic_len {magic_len}")
        self.length, self.max_len = length, max_len
        self.const, self.one_of, self.zero_bits = dict(const or {}), dict(one_of or {}), dict(zero_bits or {})
        #: Byte width of each field.
        self.widths = dict(zip(fields, (int(n or 1) if code == "s" else struct.calcsize(code) for n, code in codes)))
        self._enumerated = tuple((fields.index(name), frozenset(values)) for name, values in self.one_of.items())
        self._length = fields.index(length)
        self._decode, self._encode, self._check = decode, encode, check
        self._counted_header = self.header_len if counts == "message" else 0
        self._counts_trailer = counts != "body"
        self._flag = None
        if isinstance(trailer, tuple):
            self._flag, trailer = (fields.index(trailer[0]), trailer[1]), trailer[2]
        self._trailer = trailer

        # The TCAM entry: per field, the bits every valid header agrees on.
        care, want = [], []
        for name, (_, code) in zip(fields, codes):
            width = self.widths[name]
            ones = (1 << 8 * width) - 1
            if name in self.const:
                value = self.const[name]
                bits = (ones, int.from_bytes(value, "big") if code == "s" else value)
            elif name in self.one_of:
                low, high = ones, 0
                for value in self.one_of[name]:
                    low, high = low & value, high | value
                bits = (ones & ~(low ^ high), low)
            else:
                bits = (self.zero_bits.get(name, 0), 0)
            care.append(bits[0].to_bytes(width, "big") if code == "s" else bits[0])
            want.append(bits[1].to_bytes(width, "big") if code == "s" else bits[1])
        care, want = self._struct.pack(*care), self._struct.pack(*want)
        self._care, self._want = int.from_bytes(care, "big"), int.from_bytes(want, "big")
        #: The TCAM pattern/mask over the ``magic_len``-byte scan window.
        self.pattern, self.mask = want[: self.magic_len], care[: self.magic_len]
        #: ``matches(window)``: the TCAM match — could ``window`` (at least
        #: ``magic_len`` bytes; the rest is ignored) start a header?
        self.matches = _tcam(self.magic_len, int.from_bytes(self.mask, "big"), int.from_bytes(self.pattern, "big"))

    def unpack(self, header: bytes) -> tuple:
        """The named fields of ``header`` (length decoded), unchecked."""
        values = self._struct.unpack(header)
        if self._decode is not None:
            values = list(values)
            values[self._length] = self._decode(values[self._length])
        return self.Fields._make(values)

    def spans(self, fields: tuple) -> Optional[tuple[int, int]]:
        """``(body_len, trailer_len)`` the length field implies; None when
        it is undecodable, over ``max_len`` or too small for the rest."""
        length = fields[self._length]
        if length is None or (self.max_len is not None and length > self.max_len):
            return None
        trailer = self._trailer
        if self._flag is not None and not fields[self._flag[0]] & self._flag[1]:
            trailer = 0
        body = length - self._counted_header - (trailer if self._counts_trailer else 0)
        return None if body < 0 else (body, trailer)

    def parse(self, header: bytes) -> Optional[tuple]:
        """The full header check: the fields, or None if ``header``
        (exactly ``header_len`` bytes) cannot start a message."""
        if int.from_bytes(header, "big") & self._care != self._want:
            return None
        fields = self.unpack(header)
        for index, allowed in self._enumerated:
            if fields[index] not in allowed:
                return None
        if self.spans(fields) is None or (self._check is not None and not self._check(fields)):
            return None
        return fields

    def total_len(self, header: bytes) -> int:
        """Full on-wire length of the message ``header`` starts;
        :class:`ValueError` if it cannot be a header."""
        fields = self.parse(header)
        if fields is None:
            raise ValueError(f"bad header {bytes(header).hex()}")
        return self.header_len + sum(self.spans(fields))

    def build(self, **fields) -> bytes:
        """Encode a header (``const`` fields filled in);
        :class:`ValueError` if the result would not parse back."""
        values = self.Fields(**{**self.const, **fields})
        wire = list(values)
        if self._encode is not None:
            wire[self._length] = self._encode(wire[self._length])
        try:
            header = self._struct.pack(*wire)
        except struct.error as exc:
            raise ValueError(f"header field out of range: {fields}") from exc
        if self.parse(header) != values:
            raise ValueError(f"header fields invalid for this frame: {fields}")
        return header
