"""matroid-bases-v1 records, written from packed slots (see `bitset`).

A record lists each basis as its ascending element list, and the bases in
lexicographic order of those lists (`lex_order`).  Each list, and the JSON
text of the whole record, is written through per-byte tables of a slot's
bytes (`element_lists`, `element_text`), or, past 64 bits, through each
mask's binary numeral.  `RecordWriter` writes many records, each basis
once, for a trace.

Only the verbs that write or order records load this module: `trace`,
`construct` (through `Matroid.to_dict`), and a matroid's first read of its
record order (`Matroid._lex_slots`), which its packed columns follow.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import filterfalse
from operator import add

from .bitset import _ARRAY_CODES, _byte_column, from_slots, members, slot_width, to_slots


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


def lex_order(masks, n: int) -> bytes:
    """The slots (see `bitset.to_slots`) of masks of equal size, in
    lexicographic order of their ascending element lists.

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
    see `bitset.to_slots`), as new lists, through per-byte tables of lists;
    past 64 bits, each mask through one scan of its numeral
    (`bitset.members`)."""
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


class RecordWriter:
    """Records (`Matroid.to_dict`) and their JSON text, `json.dumps(record,
    separators=(",", ":"), sort_keys=True)`, written with no JSON encoder
    from the tables `lists` (mask -> element list) and `texts` (mask ->
    "e1,e2,..."), each mask once; the records share lists: read-only."""

    def __init__(self):
        self.lists, self.texts = {}, {}

    def write(self, m) -> tuple[dict, str]:
        """(record, text) of the `Matroid` m by C-level lookups of its masks
        in record order, once its new masks are written in.  A record whose
        masks are all new (a trace root, or a direct-sum component) takes
        its lists and text whole from its slots instead, and seeds both
        tables from them."""
        n, lists, texts = m.n, self.lists, self.texts
        raw = m._lex_slots()
        masks = from_slots(raw, slot_width(n))
        new = list(filterfalse(lists.__contains__, masks))
        if len(new) == len(masks):
            bases, inner = element_lists(raw, n), element_text(raw, n)[2:-2]
            lists.update(zip(masks, bases))
            texts.update(zip(masks, inner.split("],[")))
        else:
            if new:
                raw = to_slots(new, slot_width(n))
                lists.update(zip(new, element_lists(raw, n)))
                texts.update(zip(new, element_text(raw, n)[2:-2].split("],[")))
            bases = list(map(lists.__getitem__, masks))
            inner = "],[".join(map(texts.__getitem__, masks))
        return (m._record(bases),
                f'{{"bases":[[{inner}]],'
                f'"format":"matroid-bases-v1","n":{n},"rank":{m.rank}}}')
