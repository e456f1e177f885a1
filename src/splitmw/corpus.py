"""Deterministic matroid and multigraph corpora for the verification suites.

Everything here is reproducible: random pieces use fixed seeds, never the
environment, so repeated runs exercise byte-identical inputs.
"""

from __future__ import annotations

import random

from .flats import is_split
from .graphs import Multigraph
from .matroid import Matroid, graphic, minimal, rank2_from_partition, uniform
from .merino_welsh import rank2_census_partitions

GRAPH_CORPUS_SEED = 271828
BRIDGELESS_SEED = 314159
PAIR_SAMPLE_SEED = 161803


def minimal_matroids(n_max: int) -> list[Matroid]:
    return [minimal(k, n) for n in range(2, n_max + 1) for k in range(1, n)]


def uniform_matroids(n_max: int, clean_only: bool = False) -> list[Matroid]:
    out = []
    for n in range(0, n_max + 1):
        for k in range(0, n + 1):
            if clean_only and not (1 <= k <= n - 1):
                continue
            out.append(uniform(k, n))
    return out


def rank2_matroids(n_max: int) -> list[Matroid]:
    return [rank2_from_partition(p)
            for n in range(2, n_max + 1)
            for p in rank2_census_partitions(n)]


def k4_graph() -> Multigraph:
    return Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def doubled_doubled_4cycle() -> Multigraph:
    """4-cycle a-b-c-d with edges ab and bc doubled: the standard non-split
    graphic example (its proper cyclic flats form a chain)."""
    return Multigraph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (3, 0)])


def figure_minimal_graph() -> Multigraph:
    """5-cycle with one edge replaced by 3 parallel copies: the graph whose
    cycle matroid is the minimal matroid T_{4,7}."""
    return Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 0), (4, 0)])


def random_multigraphs(count: int, max_edges: int, seed: int) -> list[Multigraph]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.randint(2, 6)
        ne = rng.randint(1, max_edges)
        edges = []
        for _ in range(ne):
            u = rng.randrange(nv)
            v = rng.randrange(nv)
            edges.append((u, v))
        out.append(Multigraph(nv, edges))
    return out


def graphic_corpus(count: int = 50, max_edges: int = 10,
                   seed: int = GRAPH_CORPUS_SEED) -> list[Matroid]:
    return [graphic(g) for g in random_multigraphs(count, max_edges, seed)]


def bridgeless_graphs(min_count: int = 30, max_edges: int = 12,
                      seed: int = BRIDGELESS_SEED) -> list[Multigraph]:
    """Connected bridgeless multigraphs without self-loops; a curated core
    plus seeded random fill."""
    curated = [
        Multigraph(3, [(0, 1), (1, 2), (2, 0)]),
        Multigraph(2, [(0, 1), (0, 1)]),
        Multigraph(2, [(0, 1), (0, 1), (0, 1)]),
        k4_graph(),
        doubled_doubled_4cycle(),
        figure_minimal_graph(),
        # theta graph: two vertices joined by three internally disjoint paths
        Multigraph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]),
        Multigraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        Multigraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ]
    out = [g for g in curated if len(g.edges) <= max_edges]
    rng = random.Random(seed)
    while len(out) < min_count:
        nv = rng.randint(2, 5)
        ne = rng.randint(nv, min(max_edges, nv + 5))
        edges = []
        for _ in range(ne):
            u = rng.randrange(nv)
            v = rng.randrange(nv)
            while v == u:
                v = rng.randrange(nv)
            edges.append((u, v))
        g = Multigraph(nv, edges)
        if g.is_connected() and not g.bridges():
            out.append(g)
    return out


def tutte_identity_corpus() -> list[Matroid]:
    """At least 200 matroids with n <= 10: the minimal and uniform families,
    50 seeded random graphic matroids, and the rank-2 census."""
    corpus = []
    corpus.extend(minimal_matroids(10))
    corpus.extend(uniform_matroids(10))
    corpus.extend(graphic_corpus(50, 10))
    corpus.extend(rank2_matroids(10))
    return corpus


def direct_sum_pairs(corpus: list[Matroid], count: int, max_n: int,
                     seed: int = PAIR_SAMPLE_SEED) -> list[tuple[Matroid, Matroid]]:
    rng = random.Random(seed)
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < 100 * count:
        attempts += 1
        a = rng.choice(corpus)
        b = rng.choice(corpus)
        if a.n + b.n <= max_n:
            pairs.append((a, b))
    return pairs


def split_trace_corpus(n_max: int = 10) -> list[Matroid]:
    """Loopless coloopless split matroids with n <= n_max: all minimal and
    clean uniform families, the rank-2 census, the cycle matroid of K4, and
    the split direct sums of minimal matroids and M(K4)."""
    singles: list[Matroid] = []
    singles.extend(m for m in minimal_matroids(n_max))
    singles.extend(uniform_matroids(n_max, clean_only=True))
    singles.extend(rank2_matroids(n_max))
    mk4 = graphic(k4_graph())
    if mk4.n <= n_max:
        singles.append(mk4)
    summands = minimal_matroids(n_max) + [mk4]
    sums = []
    for i, a in enumerate(summands):
        for b in summands[i:]:
            if a.n + b.n > n_max:
                continue
            s = a.direct_sum(b)
            if s.is_clean() and is_split(s):
                sums.append(s)
    return singles + sums
