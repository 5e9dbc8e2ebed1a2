"""GHASH — the GF(2^128) universal hash underlying AES-GCM (NIST SP 800-38D).

Field elements are held as 128-bit Python ints in the NIST byte order:
``int.from_bytes(block, "big")``, where the *most significant* bit of the
integer is the coefficient of x^0.

For speed we precompute, per hash key H, a Shoup-style table
``T[k][b]`` = (byte value ``b`` at byte position ``k``) x H, so a block
multiplication is 16 table lookups and XORs instead of a 128-step shift
loop.  Tables are shared across *all* connections keyed by the same H
through a small LRU cache (:func:`precompute_table`), mirroring how the
paper's HW context caches the per-key static state (§3.2), and whole
records are absorbed with the 16 lookups unrolled inline per block
rather than a per-block method call.
"""

from __future__ import annotations

from collections import OrderedDict

# x^128 + x^7 + x^2 + x + 1, in the right-shift (reflected) representation.
_R = 0xE1000000000000000000000000000000


def gf128_mul(x: int, y: int) -> int:
    """Bitwise GF(2^128) multiplication, straight from the spec.

    Slow; used to validate the table-driven path and to build tables.
    """
    z = 0
    v = x
    for i in range(127, -1, -1):
        if (y >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


def _mul_x(v: int) -> int:
    """Multiply a field element by x (one step of the shift loop)."""
    if v & 1:
        return (v >> 1) ^ _R
    return v >> 1


def _build_table(h: int) -> list[list[int]]:
    """Byte-position tables for multiplication by H.

    ``powers[j]`` is H*x^j.  A set integer bit i of the operand carries
    coefficient x^(127-i); for byte k (0 = most significant) and bit t
    (LSB-first within the byte) that exponent is 8k + 7 - t.
    """
    powers = [h]
    for _ in range(127):
        powers.append(_mul_x(powers[-1]))
    table: list[list[int]] = []
    for k in range(16):
        row = [0] * 256
        for t in range(8):
            row[1 << t] = powers[8 * k + 7 - t]
        for b in range(1, 256):
            if b & (b - 1):  # not a power of two: combine smaller entries
                row[b] = row[b & (b - 1)] ^ row[b & -b]
        table.append(row)
    return table


#: Per-key LRU of Shoup tables, shared across connections: many flows
#: under one key (or one re-keyed connection) pay the ~100-multiply
#: table build once.  Tables are pure functions of H, so the cache can
#: never affect results — only how fast they compute.
_TABLE_CACHE: OrderedDict[int, list[list[int]]] = OrderedDict()
_TABLE_CACHE_SIZE = 128


def precompute_table(h: int) -> list[list[int]]:
    """The multiplication-by-H table for reuse across many
    :class:`Ghash` instances keyed by the same H (the per-connection key
    schedule the paper's HW context caches, §3.2).  Backed by a process-
    wide per-key LRU shared across connections."""
    table = _TABLE_CACHE.get(h)
    if table is None:
        table = _build_table(h)
        _TABLE_CACHE[h] = table
        if len(_TABLE_CACHE) > _TABLE_CACHE_SIZE:
            _TABLE_CACHE.popitem(last=False)
    else:
        _TABLE_CACHE.move_to_end(h)
    return table


class Ghash:
    """Incremental GHASH over a byte stream.

    Input is consumed in 16-byte blocks; a trailing partial block is
    zero-padded at :meth:`digest` time, matching how GCM pads the AAD
    and ciphertext segments separately (the caller — GCM — is
    responsible for segment padding, so :meth:`pad_to_block` is exposed).
    """

    def __init__(self, h: int, table: list[list[int]] | None = None):
        self.h = h
        # Building the Shoup table costs ~100x one block multiply; it is
        # fetched from (and retained in) the shared per-key LRU, so many
        # GCM records — and many connections — under one H build it once.
        self._table = precompute_table(h) if table is None else table
        self._y = 0
        self._buf = b""

    def _mul_h(self, y: int) -> int:
        table = self._table
        z = 0
        for k, byte in enumerate(y.to_bytes(16, "big")):
            z ^= table[k][byte]
        return z

    def update(self, data: bytes) -> None:
        # ``data`` may be a view of a packet payload; the carried-over
        # partial block (< 16 bytes) is always held as ``bytes``.
        buf = b"".join((self._buf, data)) if self._buf else data
        full = len(buf) - (len(buf) % 16)
        y = self._y
        # Batched block absorption: the whole record's full blocks are
        # folded in one loop with the 16 byte-position lookups unrolled
        # inline — no per-block method call, one bytes round-trip per
        # block.  Identical math to _mul_h(y ^ block), block by block.
        t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15 = self._table
        from_bytes = int.from_bytes
        for off in range(0, full, 16):
            y ^= from_bytes(buf[off : off + 16], "big")
            b = y.to_bytes(16, "big")
            y = (
                t0[b[0]]
                ^ t1[b[1]]
                ^ t2[b[2]]
                ^ t3[b[3]]
                ^ t4[b[4]]
                ^ t5[b[5]]
                ^ t6[b[6]]
                ^ t7[b[7]]
                ^ t8[b[8]]
                ^ t9[b[9]]
                ^ t10[b[10]]
                ^ t11[b[11]]
                ^ t12[b[12]]
                ^ t13[b[13]]
                ^ t14[b[14]]
                ^ t15[b[15]]
            )
        self._y = y
        self._buf = bytes(buf[full:])

    def pad_to_block(self) -> None:
        """Zero-pad the pending partial block, closing a GCM segment."""
        if self._buf:
            self.update(b"\x00" * (16 - len(self._buf)))

    def digest_int(self) -> int:
        """Current hash value; pending partial input is zero-padded."""
        if self._buf:
            block = int.from_bytes(self._buf.ljust(16, b"\x00"), "big")
            return self._mul_h(self._y ^ block)
        return self._y

    def digest(self) -> bytes:
        return self.digest_int().to_bytes(16, "big")
