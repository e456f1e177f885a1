"""Isomorphism testing and minimal-matroid recognition.

Isomorphism is only needed at desk scale (tests and base-case recognition),
so the strategy is: compare a cheap certificate first (ground set size,
rank, basis count, loop count, parallel-class profile, Tutte polynomial);
only on a full certificate match run a backtracking permutation search
pruned by pairwise basis co-occurrence counts.
"""

from __future__ import annotations

from .bitset import place, unpack
from .matroid import Matroid
from .tutte import tutte_dc


def certificate(m: Matroid) -> tuple:
    """Isomorphism-invariant fingerprint (a necessary condition only)."""
    class_sizes = tuple(sorted(c.bit_count() for c in m.parallel_classes()))
    return (m.n, m.rank, len(m.bases), m.loops().bit_count(), class_sizes,
            tutte_dc(m).coeffs)


def _cooccurrence(m: Matroid) -> list[list[int]]:
    """counts[e][f] = the number of bases holding both e and f."""
    cols = m.columns()[0]
    return [[(col & other).bit_count() for other in cols] for col in cols]


def _permutation_search(m1: Matroid, m2: Matroid) -> bool:
    n = m1.n
    c1 = _cooccurrence(m1)
    c2 = _cooccurrence(m2)
    loops1, loops2 = m1.loops(), m2.loops()

    def profile(c, loops, e):
        return (bool(loops >> e & 1), c[e][e], tuple(sorted(c[e])))

    prof2: dict[tuple, list[int]] = {}
    for x in range(n):
        prof2.setdefault(profile(c2, loops2, x), []).append(x)
    candidates = []
    for e in range(n):
        cand = prof2.get(profile(c1, loops1, e))
        if not cand:
            return False
        candidates.append(cand)
    # assign the most constrained elements first
    order = sorted(range(n), key=lambda e: len(candidates[e]))
    mapping = [-1] * n
    used = [False] * n
    cols1, _, width = m1.columns()

    def assign(idx: int) -> bool:
        if idx == n:
            # element e of m1 becomes mapping[e]: its column moves there
            moved = [0] * n
            for e, x in enumerate(mapping):
                moved[x] = cols1[e]
            return set(unpack(place(moved), len(m1.bases), width)) == m2.bases
        e = order[idx]
        row = c1[e]
        for x in candidates[e]:
            if used[x]:
                continue
            crow = c2[x]
            ok = True
            for f in order[:idx]:
                if row[f] != crow[mapping[f]]:
                    ok = False
                    break
            if ok:
                mapping[e] = x
                used[x] = True
                if assign(idx + 1):
                    return True
                used[x] = False
                mapping[e] = -1
        return False

    return assign(0)


def are_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    if (m1.n, m1.rank, len(m1.bases)) != (m2.n, m2.rank, len(m2.bases)):
        return False
    if certificate(m1) != certificate(m2):
        return False
    return _permutation_search(m1, m2)


def certificates_match(m1: Matroid, m2: Matroid) -> bool:
    """Necessary-condition check only (no permutation search)."""
    return certificate(m1) == certificate(m2)


def recognize_minimal(m: Matroid) -> tuple[int, int] | None:
    """Return (k, n) if m is isomorphic to the minimal matroid T_{k,n}.

    T_{k,n} has a hub basis B* (the cycle path) such that every other basis
    is a single swap (B* \\ {i}) | {p} with p outside B*; since the basis
    count k(n-k)+1 forces all k(n-k) swaps to occur, finding any such hub
    certifies the isomorphism exactly.  No permutation search needed.
    """
    k, n = m.rank, m.n
    if not 1 <= k <= n - 1:
        return None
    if len(m.bases) != k * (n - k) + 1:
        return None
    for hub in m.bases:
        if all(b == hub or (b ^ hub).bit_count() == 2 for b in m.bases):
            return (k, n)
    return None


def is_minimal_matroid(m: Matroid) -> bool:
    return recognize_minimal(m) is not None
