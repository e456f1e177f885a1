"""Subsets of {0,...,n-1} as int bitmasks, and families of them as tables
or as packed slots.

A *table* is one Python int of 2^n bits in which bit m stands for the
subset with mask m.  Closing a table downward or upward under inclusion is
n whole-int shift/AND/OR passes (the fast zeta transform over the subset
lattice), so the per-mask work runs inside the interpreter's big-int code.

A *packed* family is one Python int holding the masks of a family in
fixed-width slots, one slot per mask (an `array` of the narrowest unsigned
machine type that fits n bits, read as one int; past 64 bits, slots of
(n+7)//8 bytes).  Its *column* for element e, (packed >> e) & ones with
`ones` the bit 0 of every slot, has a bit in exactly the slots of the
masks that hold e; so element degrees, loops and coloops are bit counts
and ANDs of whole columns, and relabeling the ground set is one shift and
OR per element.  Dropping columns or taking a run of slots keeps the slot
width, so a family may sit in slots wider than its own n needs.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


@lru_cache(maxsize=None)
def _powers(n: int) -> dict[int, int]:
    """{e: 1 << e} for each e in range(n)."""
    return {e: 1 << e for e in range(n)}


def masks_of(rows, n: int) -> list[int] | None:
    """`[mask_of(row) for row in rows]` of a list of lists or tuples of
    exact ints, each in range(n) and none twice in its row, with n <= 64,
    by C-level passes: one set of the elements' types, then one sum of
    powers of two per row, each looked up by its element in a table of n,
    and one bit count of every mask (a sum of powers of two has fewer bits
    than terms iff one repeats); else None."""
    if not (n <= 64 and type(rows) is list and set(map(type, rows)) <= {list, tuple}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        return None
    try:
        masks = list(map(sum, map(map, repeat(_powers(n).__getitem__), rows)))
    except KeyError:    # an element outside range(n)
        return None
    if sum(map(int.bit_count, masks)) != sum(map(len, rows)):
        return None
    return masks


def bits(mask: int) -> list[int]:
    """Indices of the set bits, ascending.  Linear in the bit count, so use
    `members` for a 2^n-bit table."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def k_subsets(k: int, n: int):
    """The masks of the k-subsets of {0,...,n-1}, ascending, each the next
    int with k bits (Gosper's rule), with no pool of n elements."""
    mask, end = (1 << k) - 1, 1 << n
    while mask < end:
        yield mask
        if not mask:
            return
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> 2) // low


# -- 2^n-bit tables ---------------------------------------------------------

# byte i < 3 of a table whose set bits are the masks containing element i
_LOW_HI_BYTES = (0xAA, 0xCC, 0xF0)

# '0' -> 0 and '1' -> 1, to spread a binary numeral to one byte per bit
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=None)
def element_masks(n: int) -> tuple[int, ...]:
    """hi[i] = the table of all masks that contain element i, cached per n
    (n is bounded by the "tables" limit).  Built from repeated byte
    patterns: big-int division would be quadratic in the table size."""
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


@lru_cache(maxsize=None)
def popcount_classes(n: int) -> tuple[int, ...]:
    """pop[k] = the table of all masks with k elements, k = 0..n, cached
    like `element_masks`, built by doubling: adding element j shifts each
    class up by 2^j into the next."""
    pop = [1]
    for j in range(n):
        width = 1 << j
        pop = ([pop[0]]
               + [pop[k] | (pop[k - 1] << width) for k in range(1, j + 1)]
               + [pop[j] << width])
    return tuple(pop)


def table_of(masks: Iterable[int], n: int) -> int:
    """The table whose set bits are exactly `masks` (each below 2^n): a
    byte per mask, packed by eight strided slices (bit 8i+j is byte i of
    slice j)."""
    buf = bytearray(1 << n)
    for m in masks:
        buf[m] = 1
    return sum(int.from_bytes(buf[j::8], "little") << j for j in range(8))


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

# array typecode for each slot width (in bytes) that is a machine type
_ARRAY_CODES = {array(code).itemsize: code for code in "QLIHB"}


@lru_cache(maxsize=None)
def slot_width(n: int) -> int:
    """Bytes per slot for n-bit masks: the narrowest machine type that
    holds n bits, or (n+7)//8 bytes past the widest one."""
    for width in sorted(_ARRAY_CODES):
        if 8 * width >= n:
            return width
    return (n + 7) >> 3


def to_slots(masks: Iterable[int], width: int) -> bytes:
    """The masks as consecutive `width`-byte slots, in native byte order:
    one array when the width is a machine type, else one slot per mask."""
    code = _ARRAY_CODES.get(width)
    if code is not None:
        return array(code, masks).tobytes()
    return b"".join(m.to_bytes(width, sys.byteorder) for m in masks)


# each byte's number of set bits; for b < 8, the bytes with no bit at b or up
_BYTE_COUNTS = bytes(map(int.bit_count, range(256)))
_BELOW = tuple(bytes(range(1 << b)) for b in range(8))


def checked_slots(masks, n: int, k: int) -> bytes | None:
    """`to_slots(masks, slot_width(n))` of a sized family, or None unless
    n <= 64 and every mask is an int below 2^n with k elements: checked by
    C-level passes over the slots' byte positions, those at or above bit n
    (byte j below 2^(n-8j)), then those below it through a table of bit
    counts.  `array` takes anything with `__index__`, so `sum` first
    refuses any mask that adds to no int."""
    width = slot_width(n)
    if width not in _ARRAY_CODES:
        return None
    # packed at 4 bytes or more, and cut down after: `array` parses each
    # 1- or 2-byte item through a format string, at three times the cost
    wide = max(width, 4)
    try:
        sum(masks)
        raw = to_slots(masks, wide)
    except (TypeError, OverflowError):
        return None
    for j in range(n >> 3, wide):
        if _byte_column(raw, j, wide).translate(None, _BELOW[max(n - 8 * j, 0)]):
            return None
    # each slot's bit count is one byte of the sum, as ints, of each byte
    # position's counts: it is at most 64, so no byte carries
    total = 0
    for j in range((n + 7) >> 3):
        counts = _byte_column(raw, j, wide).translate(_BYTE_COUNTS)
        total += int.from_bytes(counts, "little")
    if total.to_bytes(len(masks), "little").count(k) != len(masks):
        return None
    if wide > width:    # each slot's low `width` bytes, one item of `width`
        step = wide // width
        low = 0 if sys.byteorder == "little" else step - 1
        raw = from_slots(raw, width)[low::step].tobytes()
    return raw


def from_slots(raw: bytes, width: int):
    """The masks in a run of `width`-byte slots, as a sequence of ints."""
    code = _ARRAY_CODES.get(width)
    if code is not None:
        out = array(code)
        out.frombytes(raw)
        return out
    return [int.from_bytes(raw[i:i + width], sys.byteorder)
            for i in range(0, len(raw), width)]


def unpack(packed: int, count: int, width: int):
    """The `count` slots of a packed int, in slot order."""
    return from_slots(packed.to_bytes(count * width, sys.byteorder), width)


def slot_ones(count: int, width: int) -> int:
    """The packed int with bit 0 of each of `count` slots set: one slot's
    bytes, repeated."""
    return int.from_bytes((1).to_bytes(width, sys.byteorder) * count, sys.byteorder)


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


def column_view(n: int, masks) -> tuple[list[int], int, int]:
    """(columns, the full column, slot width) of a sized family of masks."""
    width = slot_width(n)
    ones = slot_ones(len(masks), width)
    packed = int.from_bytes(to_slots(masks, width), sys.byteorder)
    return columns(packed, ones, n), ones, width


def minor_families(cols: list[int], e: int, ones: int, count: int,
                   width: int) -> tuple[list[int], list[int]]:
    """(the masks without e, the masks with e), each with position e dropped
    and the positions above it moved down one: one relabeling of the other
    columns, split by the slots of column e."""
    dropped = list(unpack(place(cols[:e] + cols[e + 1:]), count, width))
    return (list(compress(dropped, unpack(cols[e] ^ ones, count, width))),
            list(compress(dropped, unpack(cols[e], count, width))))


def _reversed_bits() -> bytes:
    """Each byte with its eight bits in reverse order, built by doubling:
    adding bit k to a byte adds bit 7-k to its reversal."""
    rev = [0]
    for k in range(8):
        rev += [r | (0x80 >> k) for r in rev]
    return bytes(rev)


_REVERSED_BITS = _reversed_bits()


def _reversed_slots(raw: bytes) -> bytes:
    """Every bit of a run of slots in reverse order: each slot's mask is
    bit-reversed within the slot width, and the slots come out last first."""
    return raw.translate(_REVERSED_BITS)[::-1]


def lex_order(masks: Iterable[int], n: int) -> bytes:
    """The slots (see `to_slots`) of masks of equal size, in lexicographic
    order of their ascending element lists.

    For two such lists, the first place they differ holds the smallest
    element of the symmetric difference, and the list that has it comes
    first.  Bit-reversed, that element is the highest differing bit, so the
    order is descending order of the bit-reversed masks: one C-level sort of
    ints between two byte-table reversals."""
    width = slot_width(n)
    flipped = from_slots(_reversed_slots(to_slots(masks, width)), width)
    # reversing again also turns the ascending sort into descending order
    return _reversed_slots(to_slots(sorted(flipped), width))


# one table per byte position of a slot of at most 64 bits; wider slots are
# written through their numerals instead
@lru_cache(maxsize=8)
def _byte_elements(j: int) -> tuple[list[int], ...]:
    """For each byte value, the elements its set bits stand for when it is
    byte j of a mask."""
    return tuple([8 * j + i for i in range(8) if b >> i & 1] for b in range(256))


@lru_cache(maxsize=8)
def _byte_text(j: int) -> tuple[str, ...]:
    """For each byte value, the text ",e1,e2,..." of the elements its set
    bits stand for when it is byte j of a mask."""
    return tuple("".join(f",{e}" for e in elements)
                 for elements in _byte_elements(j))


def _byte_column(raw: bytes, j: int, width: int) -> bytes:
    """Byte j (bit 8j up) of each `width`-byte slot, in native byte order."""
    return raw[j if sys.byteorder == "little" else width - 1 - j::width]


def _byte_pieces(raw: bytes, n: int, table):
    """(each slot's pieces joined, how many byte positions were joined) for
    the slots of n-bit masks, n <= 64: each byte j looked up in table(j),
    the pieces added by C-level maps.  Byte positions that are zero in every
    slot add nothing and are skipped; slots that are all zero are found by
    one C-level count, and each gets byte 0's piece."""
    width = slot_width(n)
    if raw.count(0) == len(raw):
        return [table(0)[0]] * (len(raw) // width), 1
    joined = None
    count = 0
    for j in range((n + 7) >> 3):
        column = _byte_column(raw, j, width)
        if column.count(0) == len(column):
            continue
        piece = map(table(j).__getitem__, column)
        joined = piece if joined is None else map(add, joined, piece)
        count += 1
    return joined, count


def _wide(n: int) -> bool:
    """Whether n-bit slots are wider than a machine type.  Chaining one
    map per byte position would then cost time and memory quadratic in the
    elements of a wide full basis, so such slots are read one at a time."""
    return slot_width(n) not in _ARRAY_CODES


def element_lists(raw: bytes, n: int) -> list[list[int]]:
    """The ascending element list of each slot's mask (slots of n-bit masks,
    see `to_slots`), as new lists, through per-byte tables of lists; past
    64 bits, each mask through one scan of its numeral (`members`)."""
    if _wide(n):
        return [members(mask) for mask in from_slots(raw, slot_width(n))]
    lists, joined = _byte_pieces(raw, n, _byte_elements)
    if joined == 1:
        lists = map(list.copy, lists)   # not the table's own lists
    return list(lists)


def element_text(raw: bytes, n: int) -> str:
    """`json.dumps(element_lists(raw, n), separators=(",", ":"))`, written
    through per-byte tables of text instead of lists: each slot's pieces
    ",e1,e2,..." are joined by "],[" and the comma after each "[" dropped.
    Past 64 bits, the text of `element_lists` with its spaces dropped."""
    if _wide(n):
        return str(element_lists(raw, n)).replace(" ", "")
    texts, _ = _byte_pieces(raw, n, _byte_text)
    return ("[[" + "],[".join(texts) + "]]").replace("[,", "[")


def spread(table: int, n: int) -> bytes:
    """One byte per mask, 1 where the table's bit is set: out[m] = bit m.
    Only `Matroid.rank_table` reads it."""
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
