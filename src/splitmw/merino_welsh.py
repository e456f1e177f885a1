"""Merino-Welsh inequality checks and the exhaustive rank-2 verification.

For a loopless and coloopless matroid the three inequality forms are

    max(T(2,0), T(0,2)) >= T(1,1)          (max)
    T(2,0) + T(0,2)     >= 2 T(1,1)        (additive)
    T(2,0) *  T(0,2)    >= T(1,1)^2        (multiplicative)

and multiplicative implies additive implies max (AM-GM plus nonnegativity).
All arithmetic is exact.  `check_mw` imports the Tutte engine on its first
call, so importing this module, as `prooftrace` does for the report types,
compiles no engine.

Rank-2 matroids without loops are exactly "parallel classes + all cross
pairs as bases", so their isomorphism classes are integer partitions of n
into at least two parts; a coloop occurs precisely when there are exactly
two classes and one is a singleton.  Enumerating partitions instead of
labeled matroids keeps the n <= 12 sweep at 248 partitions rather than
astronomically many labeled families, without changing any verdict.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import check_size
from .matroid import Matroid, rank2_from_partition


# perfbench/tracing.py wraps these two names of this module, so they stay
# bound, as first-use wrappers, although nothing here calls them; the
# engine itself loads on the first `check_mw`, so a trace loads none

def tutte_dc(m: Matroid, memo=None):
    """`tutte.tutte_dc`, imported on first call."""
    from .tutte import tutte_dc
    return tutte_dc(m, memo)


def tutte_subset_sum(m: Matroid):
    """`tutte.tutte_subset_sum`, imported on first call."""
    from .tutte import tutte_subset_sum
    return tutte_subset_sum(m)


class MWReport(NamedTuple):
    """The three Tutte evaluations and the verdicts for each inequality."""

    n: int
    rank: int
    t20: int
    t02: int
    t11: int
    max_ok: bool
    add_ok: bool
    mult_ok: bool

    def to_dict(self) -> dict:
        return {"format": "mw-v1", "n": self.n, "rank": self.rank,
                "t20": str(self.t20), "t02": str(self.t02), "t11": str(self.t11),
                "max": self.max_ok, "add": self.add_ok, "mult": self.mult_ok}

    @property
    def all_ok(self) -> bool:
        return self.max_ok and self.add_ok and self.mult_ok


def report_from_evaluations(n: int, rank: int, t20: int, t02: int, t11: int) -> MWReport:
    return MWReport(n=n, rank=rank, t20=t20, t02=t02, t11=t11,
                    max_ok=max(t20, t02) >= t11,
                    add_ok=t20 + t02 >= 2 * t11,
                    mult_ok=t20 * t02 >= t11 * t11)


def check_mw(m: Matroid) -> MWReport:
    """Evaluate the three points by deletion-contraction and decide all
    three inequalities.

    Checks the deletion-contraction size limit, then requires a loopless
    and coloopless matroid; raises naming the offending elements otherwise.
    Raises EngineMismatchError if T(1,1) is not the basis count or T(2,2)
    not 2^n (`tutte.check_identities`).
    """
    from .tutte import check_identities, tutte_dc

    check_size("deletion-contraction", m.n)
    m.require_clean()
    t = check_identities(m, tutte_dc(m))
    return report_from_evaluations(m.n, m.rank,
                                   t.evaluate(2, 0), t.evaluate(0, 2),
                                   t.evaluate(1, 1))


# -- exhaustive rank-2 verification ----------------------------------------

def partitions_descending(n: int, max_part: int | None = None):
    """Integer partitions of n in decreasing-lex order, parts descending."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_descending(n - first, first):
            yield (first,) + rest


def rank2_census_partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n indexing the loopless coloopless rank-2 matroids:
    at least two parts, excluding exactly-two-parts-with-a-singleton (the
    coloop pattern)."""
    out = []
    for p in partitions_descending(n):
        if len(p) < 2:
            continue
        if len(p) == 2 and p[1] == 1:
            continue
        out.append(p)
    return out


class Rank2Census(NamedTuple):
    n: int
    partitions: tuple[tuple[int, ...], ...]
    reports: tuple[MWReport, ...]
    all_pass: bool

    def to_dict(self) -> dict:
        return {"format": "rank2-census-v1", "n": self.n,
                "partitions": len(self.partitions), "all_pass": self.all_pass}


def verify_rank2_exhaustive(n_max: int) -> list[Rank2Census]:
    """One census per 2 <= n <= n_max over all rank-2 isomorphism classes,
    after checking n_max against the deletion-contraction limit."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    check_size("deletion-contraction", n_max)
    censuses = []
    for n in range(2, n_max + 1):
        parts = rank2_census_partitions(n)
        # check_mw raises on a coloop, so the derived coloop-exclusion
        # predicate checks itself
        reports = [check_mw(rank2_from_partition(p)) for p in parts]
        censuses.append(Rank2Census(
            n=n, partitions=tuple(parts), reports=tuple(reports),
            all_pass=all(r.mult_ok for r in reports)))
    return censuses


def rank2_threshold_check(n: int) -> bool:
    """Whether C(n,2)^2 <= 2^n; true from n = 13 on, which is why the
    exhaustive rank-2 sweep only needs to reach n = 12."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return comb(n, 2) ** 2 <= 2 ** n
