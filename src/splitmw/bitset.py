"""Subsets of {0,...,n-1} as int bitmasks, and families of them as tables
or as packed slots.

A *table* is one Python int of 2^n bits in which bit m stands for the
subset with mask m.  Closing a table downward or upward under inclusion is
n whole-int shift/AND/OR passes (the fast zeta transform over the subset
lattice), so the per-mask work runs inside the interpreter's big-int code.

A *packed* family is one Python int holding the masks of a family in
fixed-width slots, one slot per mask (an `array` of the narrowest unsigned
type that fits n bits, read as one int).  Its *column* for element e,
(packed >> e) & ones with `ones` the bit 0 of every slot, has a bit in
exactly the slots of the masks that hold e; so element degrees, loops,
coloops and "never together in a mask" are bit counts and ANDs of whole
columns, and relabeling the ground set is one shift and OR per element.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from functools import lru_cache


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending.  Linear in the bit count, so use
    `members` for a 2^n-bit table."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def drop_bit(mask: int, e: int) -> int:
    """Remove position e and shift everything above it down one slot."""
    low = mask & ((1 << e) - 1)
    return low | ((mask >> (e + 1)) << e)


def compress(mask: int, kept: tuple[int, ...]) -> int:
    """Re-express mask on the relabeled ground set given by `kept` (ascending)."""
    out = 0
    for new, old in enumerate(kept):
        if mask >> old & 1:
            out |= 1 << new
    return out


# -- 2^n-bit tables ---------------------------------------------------------

# byte i < 3 of a table whose set bits are the masks containing element i
_LOW_HI_BYTES = (0xAA, 0xCC, 0xF0)

# '0' -> 0 and '1' -> 1, to spread a binary numeral to one byte per bit
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=2)
def element_masks(n: int) -> tuple[int, ...]:
    """hi[i] = the table of all masks that contain element i.

    Built from repeated byte patterns: big-int division would be quadratic
    in the table size."""
    size = 1 << n
    nbytes = max(1, size >> 3)
    clip = (1 << size) - 1
    out = []
    for i in range(n):
        if i < 3:
            pattern = bytes((_LOW_HI_BYTES[i],)) * nbytes
        else:
            block = 1 << (i - 3)
            pattern = (b"\x00" * block + b"\xff" * block) * (size >> (i + 1))
        out.append(int.from_bytes(pattern, "little") & clip)
    return tuple(out)


@lru_cache(maxsize=2)
def popcount_classes(n: int) -> tuple[int, ...]:
    """pop[k] = the table of all masks with k elements, k = 0..n, built by
    doubling: adding element j shifts each class up by 2^j into the next."""
    pop = [1]
    for j in range(n):
        width = 1 << j
        pop = ([pop[0]]
               + [pop[k] | (pop[k - 1] << width) for k in range(1, j + 1)]
               + [pop[j] << width])
    return tuple(pop)


def table_of(masks: Iterable[int], n: int) -> int:
    """The table whose set bits are exactly `masks` (each below 2^n)."""
    buf = bytearray(max(1, (1 << n) >> 3))
    for m in masks:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def down_closure(table: int, n: int) -> int:
    """Every subset of a member: x |= (x & hi[i]) >> 2^i for each i."""
    for i, hi in enumerate(element_masks(n)):
        table |= (table & hi) >> (1 << i)
    return table


def up_closure(table: int, n: int) -> int:
    """Every superset of a member within the ground set:
    u |= (u << 2^i) & hi[i] for each i."""
    for i, hi in enumerate(element_masks(n)):
        table |= (table << (1 << i)) & hi
    return table


# -- packed families ----------------------------------------------------------

# unsigned array typecodes, narrowest first
_SLOT_CODES = ("B", "H", "I", "L", "Q")


@lru_cache(maxsize=None)
def slot_code(n: int) -> str:
    """Typecode of the narrowest array slot that holds an n-bit mask."""
    for code in _SLOT_CODES:
        if array(code).itemsize * 8 >= n:
            return code
    raise ValueError(f"no array slot holds {n} bits")


def pack(masks: Iterable[int], code: str) -> int:
    """The masks in consecutive slots of one int."""
    return int.from_bytes(array(code, masks).tobytes(), sys.byteorder)


def unpack(packed: int, count: int, code: str) -> array:
    """The `count` slots of a packed int, in slot order."""
    out = array(code)
    out.frombytes(packed.to_bytes(count * out.itemsize, sys.byteorder))
    return out


def slot_ones(count: int, code: str) -> int:
    """The packed int with bit 0 of each of `count` slots set."""
    return int.from_bytes((array(code, (1,)) * count).tobytes(), sys.byteorder)


def columns(packed: int, ones: int, n: int) -> list[int]:
    """cols[e] = the slots of the masks that hold e, at each slot's bit 0."""
    return [(packed >> e) & ones for e in range(n)]


def place(cols: Iterable[int]) -> int:
    """The packed family whose element i has column cols[i]: the inverse of
    `columns`, and a relabeling when the columns are given in a new order."""
    packed = 0
    for i, col in enumerate(cols):
        packed |= col << i
    return packed


def spread(table: int, n: int) -> bytes:
    """One byte per mask, 1 where the table's bit is set: out[m] = bit m."""
    return f"{table:0{1 << n}b}"[::-1].encode("ascii").translate(_BIT_BYTES)


def members(table: int) -> list[int]:
    """The masks a table holds, ascending, by one scan of its numeral."""
    digits = f"{table:b}"[::-1]
    out = []
    find = digits.find
    m = find("1")
    while m >= 0:
        out.append(m)
        m = find("1", m + 1)
    return out
