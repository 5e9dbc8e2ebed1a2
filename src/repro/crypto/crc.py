"""CRC32 and CRC32C (Castagnoli), from scratch.

NVMe-TCP protects PDUs with CRC32C data/header digests (RFC 3385); the
paper's NIC computes/verifies them inline.  We validate against
published check values (``crc32c(b"123456789") == 0xE3069283``) and
against the reflected one-byte-at-a-time table walk,
:func:`_crc_bytewise`, which the property tests use as the oracle.

:func:`crc32c` computes the digest as a bit-matrix product over GF(2).
A CRC without its pre/post inversion is linear in the message bits, so
bit ``j`` of a block's CRC is the parity of ``x & M[j]``, where ``x`` is
the block read as one big-endian integer and ``M[j]`` holds bit ``j`` of
each message bit's contribution, indexed by the bit's distance from the
block end.  The running CRC enters as a 4-byte prefix — the bytes whose
CRC from zero is that state — so one formula covers every length.  A
block is 32 big-int ANDs and popcounts, all in C; buffers longer than
one block are walked block by block.  :func:`crc32` is IEEE CRC32 and
returns :func:`zlib.crc32`.

:class:`FastCrc` offers the same incremental interface backed by
``zlib.crc32`` for macro-benchmarks, where digest *cycles* are charged
by the CPU model rather than spent in Python.
"""

from __future__ import annotations

import functools
import zlib

CRC32C_POLY = 0x82F63B78  # Castagnoli, reflected
CRC32_POLY = 0xEDB88320  # IEEE 802.3, reflected

#: Bytes per matrix product: the 4-byte state prefix plus up to
#: ``_BLOCK - 4`` message bytes.  A power of two, since the masks are
#: built by doubling; the 32 masks of ``_BLOCK`` bytes take 256 KiB.
_BLOCK = 8192
_STEP = _BLOCK - 4


def _build_table(poly: int) -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE_C = _build_table(CRC32C_POLY)
_TABLE_IEEE = _build_table(CRC32_POLY)


def _crc_bytewise(table: list[int], data: bytes, crc: int) -> int:
    """Reference one-byte-at-a-time CRC (slow; the test oracle)."""
    crc ^= 0xFFFFFFFF
    for byte in data:  # sim: noqa[SIM013] - reference implementation
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _combine(vectors: list[int], v: int) -> int:
    """XOR of ``vectors[i]`` for every set bit ``i`` of ``v`` (over GF(2),
    row ``v`` times the matrix whose rows are ``vectors``)."""
    out = 0
    for i, vector in enumerate(vectors):
        if v >> i & 1:
            out ^= vector
    return out


def _row(columns: list[int], j: int) -> int:
    """Row ``j`` of the matrix with these ``columns``: bit ``j`` of each."""
    return sum((column >> j & 1) << i for i, column in enumerate(columns))


@functools.lru_cache(maxsize=None)
def _matrix() -> tuple[list[int], list[list[int]]]:
    """The CRC32C masks ``M[0..31]`` of one ``_BLOCK``-byte block and the
    4x256 prefix table, built on first use.

    ``M[j]`` bit ``8*d + k`` is bit ``j`` of what bit ``k`` of the byte
    ``d`` bytes before the block end adds to the raw CRC: ``table[1 << k]``
    advanced over ``d`` zero bytes.  Built by doubling: the bits for
    distances D..2D-1 are those for 0..D-1 pushed through "advance D
    zero bytes", whose matrix is kept as its rows, and advancing 2D bytes
    is advancing D twice.

    ``prefix[k][b]`` is the 4 bytes whose raw CRC from zero is ``b << 8*k``,
    read big-endian; the prefixes of a state's four bytes XOR to the
    state's prefix, because a CRC is linear.
    """
    table = _TABLE_C
    masks = [_row([table[1 << k] for k in range(8)], j) for j in range(32)]
    advance = [table[1 << i & 0xFF] ^ (1 << i) >> 8 for i in range(32)]
    rows = [_row(advance, j) for j in range(32)]
    span = 1
    while span < _BLOCK:
        masks = [low | _combine(masks, row) << 8 * span for low, row in zip(masks, rows)]
        rows = [_combine(rows, row) for row in rows]
        span *= 2

    # Undo one zero byte: the top byte of table[i] names i.
    index = {entry >> 24: i for i, entry in enumerate(table)}

    def prefix_of(state: int) -> int:
        for _ in range(4):
            i = index[state >> 24]
            state = (state ^ table[i]) << 8 | i
        return int.from_bytes(state.to_bytes(4, "little"), "big")

    prefix = [[prefix_of(b << 8 * k) for b in range(256)] for k in range(4)]
    return masks, prefix


def _crc_block(data: bytes, state: int) -> int:
    """Raw CRC (no inversions) of at most ``_STEP`` bytes from raw ``state``."""
    masks, (p0, p1, p2, p3) = _matrix()
    prefix = p0[state & 0xFF] ^ p1[state >> 8 & 0xFF] ^ p2[state >> 16 & 0xFF] ^ p3[state >> 24]
    x = prefix << 8 * len(data) | int.from_bytes(data, "big")
    crc = 0
    for bit, mask in enumerate(masks):
        crc |= ((x & mask).bit_count() & 1) << bit
    return crc


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC32C of ``data``; pass a previous value to continue a stream."""
    state = crc ^ 0xFFFFFFFF
    # One block needs no memoryview: making and slicing one costs about
    # as much as the whole CRC of a short buffer.
    if len(data) <= _STEP:
        return _crc_block(data, state) ^ 0xFFFFFFFF
    view = memoryview(data)
    for start in range(0, len(view), _STEP):
        state = _crc_block(view[start : start + _STEP], state)
    return state ^ 0xFFFFFFFF


def crc32(data: bytes, crc: int = 0) -> int:
    """IEEE CRC32 of ``data`` (zlib-compatible)."""
    return zlib.crc32(data, crc)


class Crc32c:
    """Incremental CRC32C digest with the interface the NIC model uses."""

    digest_size = 4
    name = "crc32c"

    def __init__(self, data: bytes = b""):
        self._crc = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        self._crc = crc32c(data, self._crc)

    def intdigest(self) -> int:
        return self._crc

    def digest(self) -> bytes:
        return self._crc.to_bytes(4, "little")

    def copy(self) -> "Crc32c":
        clone = Crc32c()
        clone._crc = self._crc
        return clone


class FastCrc:
    """zlib-backed 4-byte digest used as a stand-in during macro-benchmarks.

    It is *not* CRC32C — it is the IEEE polynomial computed in C — but it
    has identical length, incrementality, and corruption-detection
    behaviour, which is all the protocol machinery observes.  See
    DESIGN.md §2 for the substitution rationale.
    """

    digest_size = 4
    name = "fast-crc32"

    def __init__(self, data: bytes = b""):
        self._crc = zlib.crc32(data) if data else 0

    def update(self, data: bytes) -> None:
        self._crc = zlib.crc32(data, self._crc)

    def intdigest(self) -> int:
        return self._crc & 0xFFFFFFFF

    def digest(self) -> bytes:
        return self.intdigest().to_bytes(4, "little")

    def copy(self) -> "FastCrc":
        clone = FastCrc()
        clone._crc = self._crc
        return clone


_DIGESTS = {"crc32c": Crc32c, "fast": FastCrc}


def get_digest(name: str):
    """Digest factory by name: ``"crc32c"`` (real) or ``"fast"``."""
    try:
        return _DIGESTS[name]
    except KeyError:
        raise ValueError(f"unknown digest {name!r}; choose from {sorted(_DIGESTS)}") from None
