"""Flats, cyclic flats, and split/paving classification.

A flat is a subset equal to its closure; a cyclic flat is a flat whose
restriction has no coloops.  A connected matroid is *split* when its proper
cyclic flats (those other than the empty set and the full ground set) form
an antichain under inclusion; a general matroid is split when at most one
of its connected components is non-uniform and that component is connected
split.  Flat enumeration sweeps every subset, one mask at a time, against
the rank table, which the bit-parallel kernel builds in about n*(r+2) passes
over 2^n-bit ints (see `Matroid.rank_table`); `is_paving` is one AND on the
independent-set table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import bits, popcount_classes
from .errors import LimitExceededError
from .matroid import Matroid

FLATS_LIMIT = 16


def _check_limit(m: Matroid, limit: int):
    if m.n > limit:
        raise LimitExceededError(f"n={m.n} exceeds flat-enumeration limit {limit}")


def flats(m: Matroid, limit: int = FLATS_LIMIT) -> list[int]:
    """All flats as masks, sorted by (size, mask)."""
    _check_limit(m, limit)
    table = m.rank_table()
    out = []
    full = m.full_mask
    for a in range(1 << m.n):
        ra = table[a]
        rest = full & ~a
        is_flat = True
        while rest:
            low = rest & -rest
            rest ^= low
            if table[a | low] == ra:
                is_flat = False
                break
        if is_flat:
            out.append(a)
    out.sort(key=lambda a: (a.bit_count(), a))
    return out


def _cyclic_flat_masks(m: Matroid, limit: int = FLATS_LIMIT) -> list[int]:
    """Flats whose restriction has no coloop: rank drops for no single removal."""
    _check_limit(m, limit)
    table = m.rank_table()
    out = []
    for f in flats(m, limit):
        rf = table[f]
        rest = f
        cyclic = True
        while rest:
            low = rest & -rest
            rest ^= low
            if table[f ^ low] != rf:
                cyclic = False
                break
        if cyclic:
            out.append(f)
    return out


def _is_antichain(masks: list[int]) -> bool:
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            inter = a & b
            if inter == a or inter == b:
                return False
    return True


def is_connected_split(m: Matroid, limit: int = FLATS_LIMIT) -> bool:
    """Connected with proper cyclic flats forming an inclusion antichain."""
    if not m.is_connected():
        return False
    full = m.full_mask
    proper = [f for f in _cyclic_flat_masks(m, limit) if f != 0 and f != full]
    return _is_antichain(proper)


def is_split(m: Matroid, limit: int = FLATS_LIMIT) -> bool:
    """Direct sum of at most one connected split matroid with uniform ones.

    Loops and coloops are singleton uniform components, so they are always
    permitted summands.
    """
    _check_limit(m, limit)
    non_uniform = []
    for comp in m.components():
        r = m.restrict(comp)
        if not r.is_uniform():
            non_uniform.append(r)
    if len(non_uniform) > 1:
        return False
    return all(is_connected_split(r, limit) for r in non_uniform)


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
    return is_paving(m.dual())


@dataclass(frozen=True)
class CyclicFlatReport:
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


def cyclic_flats(m: Matroid, limit: int = FLATS_LIMIT) -> CyclicFlatReport:
    masks = _cyclic_flat_masks(m, limit)
    table = m.rank_table()
    full = m.full_mask
    proper = [f for f in masks if f != 0 and f != full]
    return CyclicFlatReport(
        n=m.n,
        flats=tuple(masks),
        ranks=tuple(table[f] for f in masks),
        proper_flats=tuple(proper),
        is_antichain=_is_antichain(proper),
        is_connected_split=is_connected_split(m, limit),
        is_split=is_split(m, limit),
        is_paving=is_paving(m),
        is_copaving=is_copaving(m),
    )
