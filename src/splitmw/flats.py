"""Flats, cyclic flats, and split/paving classification.

A flat is a subset equal to its closure; a cyclic flat is a flat whose
restriction has no coloops.  A connected matroid is *split* when its proper
cyclic flats (those other than the empty set and the full ground set) form
an antichain under inclusion; a general matroid is split when at most one
of its connected components is non-uniform and that component is connected
split.

Flats come from the matroid's rank levels L_k, the tables (see `bitset`) of
the subsets of rank >= k, in whole-int passes with hi_i, the table of the
masks holding i.  Adding i to a mask A without i raises its rank iff A is
in ((L_k & hi_i) >> 2^i) & ~L_k for some level k, so the flats are the
masks that pass this for every i they lack; removing i from a mask A with
i lowers its rank iff A is in L_k & hi_i & ~(L_k << 2^i) for some k, and
the cyclic flats are the flats for which no removal does.  That is about
n*r passes over 2^n-bit ints on top of the levels (`Matroid.rank_levels`:
n, and n per level from the girth up).  The cyclic flats, with ranks, are
found once per matroid and shared by `cyclic_flats`, `is_connected_split`
and `is_split`.  `is_paving` is one AND on the independent-set table.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitset import bits, element_masks, members, popcount_classes
from .errors import check_size
from .matroid import Matroid


def _by_size(table: int, n: int) -> list[int]:
    """The masks a table holds, sorted by (size, mask)."""
    return [a for cls in popcount_classes(n) for a in members(table & cls)]


def _flat_table(m: Matroid) -> int:
    """The table of the flats: no single addition keeps the rank."""
    levels = m.rank_levels()[1:]
    flat = (1 << (1 << m.n)) - 1
    for i, hi in enumerate(element_masks(m.n)):
        width = 1 << i
        raised = 0
        for level in levels:
            raised |= ((level & hi) >> width) & ~level
        flat &= hi | raised
    return flat


def _cyclic_flat_ranks(m: Matroid) -> tuple[tuple[int, int], ...]:
    """(mask, rank) of each cyclic flat, sorted by (size, mask): the flats
    whose restriction has no coloop, so no single removal lowers the rank.
    Computed once per matroid."""
    cached = m._cache.get("cyclicflats")
    if cached is not None:
        return cached
    levels = m.rank_levels()
    cyclic = _flat_table(m)
    for i, hi in enumerate(element_masks(m.n)):
        width = 1 << i
        for level in levels[1:]:
            cyclic &= ~(level & hi & ~(level << width))
    ranks = {}
    for k, (level, above) in enumerate(zip(levels, levels[1:] + (0,))):
        for f in members(cyclic & level & ~above):
            ranks[f] = k
    cached = tuple((f, ranks[f]) for f in _by_size(cyclic, m.n))
    m._cache["cyclicflats"] = cached
    return cached


def _proper(m: Matroid) -> list[int]:
    """The cyclic flats other than the empty set and the ground set."""
    full = m.full_mask
    return [f for f, _ in _cyclic_flat_ranks(m) if f != 0 and f != full]


def _is_antichain(masks: list[int]) -> bool:
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            inter = a & b
            if inter == a or inter == b:
                return False
    return True


def is_connected_split(m: Matroid) -> bool:
    """Connected with proper cyclic flats forming an inclusion antichain."""
    if not m.is_connected():
        return False
    return _is_antichain(_proper(m))


def is_split(m: Matroid) -> bool:
    """Direct sum of at most one connected split matroid with uniform ones.

    Loops and coloops are singleton uniform components, so they are always
    permitted summands.  Checked against the "tables" limit up front: a sum
    of uniform matroids needs no table, but its components still cost n.
    """
    check_size("tables", m.n)
    comps = m.components()
    non_uniform = []
    for comp in comps:
        # a connected matroid is its own only component
        r = m if len(comps) == 1 else m.restrict(comp)
        if not r.is_uniform():
            non_uniform.append(r)
    if len(non_uniform) > 1:
        return False
    return all(is_connected_split(r) for r in non_uniform)


def is_paving(m: Matroid) -> bool:
    """Every circuit has at least `rank` elements (no small dependent sets).

    Independent sets are closed under subsets, so this holds iff every
    (rank-1)-subset is independent."""
    indep = m.independent_sets()
    if m.rank == 0:
        return True
    below = popcount_classes(m.n)[m.rank - 1]
    return indep & below == below


def is_copaving(m: Matroid) -> bool:
    """The dual is paving: every hyperplane has at most `rank` elements.

    A hyperplane with more holds a non-spanning (rank+1)-subset, so this
    holds iff every (rank+1)-subset spans, read from the top rank level."""
    if m.rank == m.n:
        return True
    return not popcount_classes(m.n)[m.rank + 1] & ~m.rank_levels()[m.rank]


class CyclicFlatReport(NamedTuple):
    """All cyclic flats of a matroid plus the derived classifications."""

    n: int
    flats: tuple[int, ...]          # cyclic flats, sorted by (size, mask)
    ranks: tuple[int, ...]          # rank of each listed flat
    proper_flats: tuple[int, ...]   # excludes the empty set and the ground set
    is_antichain: bool              # over the proper flats
    is_connected_split: bool
    is_split: bool
    is_paving: bool
    is_copaving: bool

    def to_dict(self) -> dict:
        return {
            "format": "cyclic-flats-v1",
            "flats": [{"set": bits(f), "rank": r}
                      for f, r in zip(self.flats, self.ranks)],
            "proper_antichain": self.is_antichain,
            "connected_split": self.is_connected_split,
            "split": self.is_split,
            "paving": self.is_paving,
            "copaving": self.is_copaving,
        }


def cyclic_flats(m: Matroid) -> CyclicFlatReport:
    pairs = _cyclic_flat_ranks(m)
    proper = _proper(m)
    return CyclicFlatReport(
        n=m.n,
        flats=tuple(f for f, _ in pairs),
        ranks=tuple(r for _, r in pairs),
        proper_flats=tuple(proper),
        is_antichain=_is_antichain(proper),
        is_connected_split=is_connected_split(m),
        is_split=is_split(m),
        is_paving=is_paving(m),
        is_copaving=is_copaving(m),
    )
