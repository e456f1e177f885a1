"""Seeded input generators and independently derived expected outputs.

Every generator is a pure function of its arguments: the same seed gives
byte-identical records.  Nothing here imports splitmw, so the expected
outputs below are derived without the code they check.

Records are `Record(name, n, rank, bases)` with bases as int bitmasks over
the ground set {0, ..., n-1}, the same encoding as matroid-bases-v1.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb


def mask_of(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits(mask: int) -> list[int]:
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def compact(obj) -> str:
    """The CLI's canonical single-line JSON encoding."""
    return json.dumps(obj, separators=(",", ":"))


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Record:
    name: str
    n: int
    rank: int
    bases: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"format": "matroid-bases-v1", "n": self.n, "rank": self.rank,
                "bases": sorted(bits(b) for b in self.bases)}

    @cached_property
    def digest(self) -> str:
        """The trace-v1 node digest of this matroid, derived from the
        matroid-bases-v1 record alone."""
        payload = json.dumps(self.to_dict(), separators=(",", ":"),
                             sort_keys=True)
        return sha256(payload)[:16]

    def describe(self) -> dict:
        return {"name": self.name, "n": self.n, "rank": self.rank,
                "bases": len(self.bases), "sha256": sha256(compact(self.to_dict()))}


def record(name: str, n: int, rank: int, bases) -> Record:
    return Record(name, n, rank, tuple(sorted(set(bases))))


# -- fixed families ----------------------------------------------------------

def uniform(k: int, n: int) -> Record:
    return record(f"U({k},{n})", n, k,
                  (mask_of(c) for c in combinations(range(n), k)))


def minimal(k: int, n: int) -> Record:
    """T_{k,n}: a (k+1)-cycle with one edge replaced by n-k parallel copies.
    Elements 0..k-1 are the path, k..n-1 the parallel class."""
    path = (1 << k) - 1
    bases = [path] + [(path ^ (1 << i)) | (1 << p)
                      for i in range(k) for p in range(k, n)]
    return record(f"minimal({k},{n})", n, k, bases)


def direct_sum(*parts: Record) -> Record:
    n, rank, bases = 0, 0, [0]
    for p in parts:
        bases = [b | (c << n) for b in bases for c in p.bases]
        n += p.n
        rank += p.rank
    return record("+".join(p.name for p in parts), n, rank, bases)


def drop_basis(rec: Record, index: int, name: str) -> Record:
    """The family one basis short of `rec`: bases[index] of the sorted family
    is removed."""
    bases = rec.bases[:index] + rec.bases[index + 1:]
    return Record(name, rec.n, rec.rank, bases)


# -- seeded families ---------------------------------------------------------

def circuit_hyperplanes(r: int, n: int, count: int, seed: int) -> list[int]:
    """`count` r-subsets of {0..n-1}, pairwise meeting in at most r-2
    elements (|A ^ B| >= 4), picked greedily in a seeded random order.

    Removing such a family from the r-subsets leaves the bases of a sparse
    paving matroid.  A greedy run that stalls short of `count` is retried
    with the next derived seed, so the result always has exactly `count`
    sets."""
    candidates = [mask_of(c) for c in combinations(range(n), r)]
    attempt = 0
    while True:
        rng = random.Random(f"sparse-paving:{r}:{n}:{count}:{seed}:{attempt}")
        order = candidates[:]
        rng.shuffle(order)
        chosen: list[int] = []
        for c in order:
            if all((c & d).bit_count() <= r - 2 for d in chosen):
                chosen.append(c)
                if len(chosen) == count:
                    return sorted(chosen)
        attempt += 1


def sparse_paving(r: int, n: int, count: int, seed: int) -> tuple[Record, list[int]]:
    """A sparse paving matroid with exactly `count` circuit-hyperplanes, and
    those circuit-hyperplanes."""
    chs = circuit_hyperplanes(r, n, count, seed)
    dropped = set(chs)
    bases = (m for m in (mask_of(c) for c in combinations(range(n), r))
             if m not in dropped)
    return record(f"sparse-paving({r},{n})", n, r, bases), chs


def near_sparse_paving(rec: Record, chs: list[int]) -> Record:
    """`rec` minus one basis X that differs from a circuit-hyperplane C in a
    single swap.  X and C are then dependent r-sets of a paving family, so
    circuit elimination demands that (X | C) - e be dependent for e in
    X & C; it is a basis, so the family is never a matroid.  X is the first
    such basis in sorted order, which puts the exchange witness in the
    validator's first rows on every seed: the reject costs parse and
    start-up, not a seed-dependent share of a full check."""
    r = rec.rank
    for index, x in enumerate(rec.bases):
        if any((x & c).bit_count() == r - 1 for c in chs):
            return drop_basis(rec, index, f"near-{rec.name}")
    raise ValueError(f"{rec.name}: no basis next to a circuit-hyperplane")


def bridgeless_multigraph(vertices: int, edges: int, seed: int,
                          trees: tuple[int, int]) -> list[tuple[int, int]]:
    """Edges of a connected bridgeless loopless multigraph whose spanning
    tree count lies in the closed range `trees`: a seeded Hamiltonian cycle
    plus seeded chords.  Every chord closes a cycle with the Hamiltonian
    path, and every cycle edge lies on the cycle, so no edge is a bridge.  A
    draw outside the range is retried with the next derived seed."""
    attempt = 0
    while True:
        rng = random.Random(f"bridgeless:{vertices}:{edges}:{seed}:{attempt}")
        order = list(range(vertices))
        rng.shuffle(order)
        out = [(order[i], order[(i + 1) % vertices]) for i in range(vertices)]
        while len(out) < edges:
            u, v = rng.sample(range(vertices), 2)
            out.append((u, v))
        if trees[0] <= spanning_trees(vertices, out) <= trees[1]:
            return out
        attempt += 1


def spanning_trees(vertices: int, edges) -> int:
    """Kirchhoff's matrix-tree theorem: the determinant of the Laplacian with
    vertex 0's row and column removed, by exact Gaussian elimination."""
    lap = [[Fraction(0)] * vertices for _ in range(vertices)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    size, det = vertices - 1, Fraction(1)
    for i in range(size):
        pivot = next((r for r in range(i, size) if a[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, size):
            factor = a[r][i] / a[i][i]
            for c in range(i, size):
                a[r][c] -= factor * a[i][c]
    return int(det)


# -- expected outputs derived without splitmw ----------------------------------

def sparse_paving_tutte(r: int, n: int, count: int) -> list[list[int]]:
    """T(M) = T(U_{r,n}) + count * (xy - x - y): relaxing a circuit-hyperplane
    adds x + y - xy.  T(U_{r,n}) is the corank-nullity sum grouped by subset
    size s: C(n,s) (x-1)^(r-s) for s <= r, C(n,s) (y-1)^(s-r) above."""
    coeffs = [[0] * (n - r + 1) for _ in range(r + 1)]
    for s in range(n + 1):
        a, b = max(r - s, 0), max(s - r, 0)
        for i in range(a + 1):
            for j in range(b + 1):
                coeffs[i][j] += (comb(n, s) * comb(a, i) * (-1) ** (a - i)
                                 * comb(b, j) * (-1) ** (b - j))
    coeffs[1][1] += count
    coeffs[1][0] -= count
    coeffs[0][1] -= count
    return coeffs


def evaluate(coeffs: list[list[int]], x: int, y: int) -> int:
    """Exact evaluation with 0^0 = 1."""
    return sum(c * x ** i * y ** j
               for i, row in enumerate(coeffs) for j, c in enumerate(row))


def tutte_record(coeffs) -> dict:
    return {"format": "tutte-v1", "rank": len(coeffs) - 1,
            "corank": len(coeffs[0]) - 1,
            "coeffs": [[str(c) for c in row] for row in coeffs]}


def mw_record(n: int, rank: int, coeffs) -> dict:
    t20, t02, t11 = evaluate(coeffs, 2, 0), evaluate(coeffs, 0, 2), evaluate(coeffs, 1, 1)
    return {"format": "mw-v1", "n": n, "rank": rank,
            "t20": str(t20), "t02": str(t02), "t11": str(t11),
            "max": max(t20, t02) >= t11, "add": t20 + t02 >= 2 * t11,
            "mult": t20 * t02 >= t11 * t11}


def sparse_paving_cyclic_flats(rec: Record, chs: list[int]) -> dict:
    """cyclic-flats-v1 of a connected sparse paving matroid.  Every set of
    r+1 or more elements spans, so the only proper cyclic flats are the
    circuit-hyperplanes (rank r-1); they pairwise meet in at most r-2
    elements, so they form an antichain, and the dual is sparse paving too."""
    full = (1 << rec.n) - 1
    flats = sorted([0, full] + chs, key=lambda f: (f.bit_count(), f))
    ranks = {0: 0, full: rec.rank}
    return {"format": "cyclic-flats-v1",
            "flats": [{"set": bits(f), "rank": ranks.get(f, rec.rank - 1)}
                      for f in flats],
            "proper_antichain": True, "connected_split": True, "split": True,
            "paving": True, "copaving": True}
