"""Shared fixtures and independent desk oracles.

The oracles here deliberately avoid the package's optimized code paths
(rank tables, column-packed basis families) so that agreement is a real
cross-check rather than the same computation twice.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, prod
from operator import or_

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from splitmw import Matroid, Multigraph, graphic, uniform
from splitmw.bitset import bits, mask_of
from splitmw.corpus import (
    doubled_doubled_4cycle,
    figure_minimal_graph,
    k4_graph,
    tutte_identity_corpus,
)
from splitmw.errors import SIZE_LIMITS
from splitmw.matroid import matroid_from_dict, recognize_minimal
from splitmw.merino_welsh import check_mw
from splitmw.prooftrace import (
    RULE_BASE_MINIMAL,
    RULE_DELETE_CONTRACT,
    RULE_DIRECT_SUM,
    ProofNode,
    ProofTrace,
    _base_rule,
    _clean_pivot,
)
from splitmw.tutte import TuttePolynomial, TutteMemo, _uniform_tutte

# Tier-1 runs the same generated examples every time (derandomize also
# disables the example database), and a slow host fails no example.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def k4():
    return graphic(k4_graph())


@pytest.fixture
def dd4():
    return graphic(doubled_doubled_4cycle())


@pytest.fixture
def figure_graph():
    return figure_minimal_graph()


@pytest.fixture
def triangle():
    return Multigraph(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def fano():
    """The Fano plane: non-graphic, non-uniform, paving, rank 3 on 7 points."""
    from splitmw import from_bases
    lines = [{0, 1, 2}, {0, 3, 4}, {0, 5, 6}, {1, 3, 5},
             {1, 4, 6}, {2, 3, 6}, {2, 4, 5}]
    bases = [c for c in combinations(range(7), 3) if set(c) not in lines]
    return from_bases(7, 3, bases)


def every_family(n: int):
    """Every nonempty family of equal-size subsets of {0..n-1}, as an
    unchecked Matroid: 2^C(n,r) - 1 families for each rank r."""
    for r in range(n + 1):
        subsets = [mask_of(c) for c in combinations(range(n), r)]
        for pick in range(1, 1 << len(subsets)):
            yield Matroid(n, r, (subsets[i] for i in bits(pick)))


DERIVED_SOURCES = [m for m in tutte_identity_corpus() if m.n <= 6]


@st.composite
def derived_matroids(draw):
    """A small corpus matroid, dualized, cut down by deletions and
    contractions, and summed with a second one: at most 12 elements."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.sampled_from(DERIVED_SOURCES))
        if draw(st.booleans()):
            m = m.dual()
        for _ in range(draw(st.integers(0, 2))):
            if m.n == 0:
                break
            e = draw(st.integers(0, m.n - 1))
            m = m.delete(e) if draw(st.booleans()) else m.contract(e)
        parts.append(m)
    out = parts[0]
    for m in parts[1:]:
        out = out.direct_sum(m)
    return out


@st.composite
def with_parallels_and_loops(draw, max_n: int):
    """A `derived_matroids` draw with parallel copies and loops added, at
    most `max_n` elements in all, its elements then shuffled.  A copy e' of
    a non-loop e (a new top element) adds the bases B - e + e' for every
    basis B that holds e, so copies of copies make classes of three or
    more; a loop adds no basis."""
    m = draw(derived_matroids().filter(lambda m: m.n < max_n))
    for _ in range(draw(st.integers(0, min(3, max_n - m.n)))):
        non_loops = [e for e in range(m.n) if not loops_oracle(m) >> e & 1]
        if not non_loops:
            break
        e, copy = 1 << draw(st.sampled_from(non_loops)), 1 << m.n
        m = Matroid(m.n + 1, m.rank, m.bases | {b ^ e | copy for b in m.bases if b & e})
    m = m.direct_sum(uniform(0, draw(st.integers(0, min(2, max_n - m.n)))))
    order = draw(st.permutations(range(m.n)))
    return Matroid(m.n, m.rank, [mask_of(order[e] for e in bits(b)) for b in m.bases])


def parallel_classes_oracle(m) -> tuple[list[int], int]:
    """(the parallel classes as masks, ordered by smallest element, the
    loops as a mask): two non-loops are parallel iff no basis holds both."""
    loops = loops_oracle(m)
    classes: list[int] = []
    for e in bits(m.full_mask & ~loops):
        pair = 1 << e
        for i, c in enumerate(classes):
            both = pair | (c & -c)
            if not any(b & both == both for b in m.bases):
                classes[i] |= pair
                break
        else:
            classes.append(pair)
    return classes, loops


@st.composite
def sparse_paving_matroids(draw, grow: bool = False):
    """(m, clean): a sparse paving matroid of rank 2 <= k <= n-2 on at most
    10 elements, whose circuit-hyperplanes are drawn k-sets kept if they
    share at most k-2 elements with every one kept before, so every draw
    is a matroid; summed, unless clean, with up to two loops and up to two
    coloops.  With `grow`, a drawn circuit-hyperplane is grown by a drawn
    element instead (`grown_hyperplane`), and clean says it was not."""
    n = draw(st.integers(4, 10))
    k = draw(st.integers(2, n - 2))
    kept: list[int] = []
    for c in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k),
                           max_size=12)):
        mask = mask_of(c)
        if all((mask & h).bit_count() <= k - 2 for h in kept):
            kept.append(mask)
    ksets = [mask_of(c) for c in combinations(range(n), k)]
    m = Matroid(n, k, [b for b in ksets if b not in kept])
    if grow:
        if kept:
            h = draw(st.sampled_from(kept))
            f = draw(st.sampled_from([f for f in range(n) if not h >> f & 1]))
            grown = grown_hyperplane(m, kept, h, f)
            if grown:
                return grown, False
        return m, True
    loops, coloops = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if loops:
        m = uniform(0, loops).direct_sum(m)
    if coloops:
        m = m.direct_sum(uniform(coloops, coloops))
    return m, not (loops or coloops)


def grown_hyperplane(m, kept, h: int, f: int):
    """Sparse paving m, whose circuit-hyperplanes are `kept`, with h grown
    into the hyperplane h + f of k+1 elements, or None if h + f shares more
    than k-2 elements with another of them.  The k bases h - e + f, each
    next to h, are dropped; one cannot go alone, since two non-bases of a
    paving matroid that share k-1 elements lie in one hyperplane."""
    grown = h | 1 << f
    if any((grown & c).bit_count() > m.rank - 2 for c in kept if c != h):
        return None
    return Matroid(m.n, m.rank, [b for b in m.bases if b & grown != b])


def sparse_paving(k: int, n: int, hyperplanes: int, seed: int) -> Matroid:
    """A sparse paving matroid of rank k on n elements: every k-set is a
    basis but its circuit-hyperplanes, which are k-sets taken in a seeded
    order, each kept if it shares at most k-2 elements with every one kept
    before, until `hyperplanes` are kept or none is left."""
    ksets = [mask_of(c) for c in combinations(range(n), k)]
    order = ksets[:]
    random.Random(seed).shuffle(order)
    kept: set[int] = set()
    for c in order:
        if len(kept) == hyperplanes:
            break
        if all((c & h).bit_count() <= k - 2 for h in kept):
            kept.add(c)
    return Matroid(n, k, [b for b in ksets if b not in kept])


def grown_sparse_paving(k: int, n: int, hyperplanes: int, seed: int) -> Matroid:
    """`sparse_paving` with its least circuit-hyperplane that some element
    can grow grown by the least such element (`grown_hyperplane`)."""
    m = sparse_paving(k, n, hyperplanes, seed)
    kept = [c for c in map(mask_of, combinations(range(n), k)) if c not in m.bases]
    return next(grown for h in kept for f in range(n) if not h >> f & 1
                and (grown := grown_hyperplane(m, kept, h, f)))


def sparse_paving_tutte_oracle(m) -> dict[tuple[int, int], int]:
    """T(M) = T(U(k,n)) - lam*(x + y - xy) for a sparse paving matroid of
    rank k on n elements with lam = C(n,k) - |B| circuit-hyperplanes, as a
    sparse {(i, j): coeff} dict.  T(U(k,n)) is its corank-nullity sum by
    size: the C(n,s) s-sets have corank k - min(s,k) and nullity
    s - min(s,k)."""
    k, n = m.rank, m.n
    poly: dict[tuple[int, int], int] = {}
    for s in range(n + 1):
        da, db = k - min(s, k), s - min(s, k)
        for i in range(da + 1):
            for j in range(db + 1):
                poly[i, j] = poly.get((i, j), 0) + (
                    comb(n, s) * comb(da, i) * comb(db, j)
                    * (-1) ** (da - i + db - j))
    lam = comb(n, k) - len(m.bases)
    for key, sign in (((1, 0), -1), ((0, 1), -1), ((1, 1), 1)):
        poly[key] = poly.get(key, 0) + sign * lam
    return {key: c for key, c in poly.items() if c}


PETERSEN = Multigraph(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def brute_isomorphic(m1, m2) -> bool:
    """Plain permutation sweep; only sensible for n <= 7."""
    if (m1.n, m1.rank, len(m1.bases)) != (m2.n, m2.rank, len(m2.bases)):
        return False
    target = m2.bases
    for perm in permutations(range(m1.n)):
        remapped = set()
        for b in m1.bases:
            nb = 0
            for e in bits(b):
                nb |= 1 << perm[e]
            remapped.add(nb)
        if remapped == target:
            return True
    return False


def pairwise_exchange_violation(m):
    """The basis exchange axiom checked over all ordered basis pairs:
    the first (B1, B2, e) in sorted order for which no f in B2\\B1 makes
    (B1\\{e})|{f} a basis, or None.  Quadratic in the basis count."""
    family = m.bases
    ordered = sorted(family)
    for b1 in ordered:
        for b2 in ordered:
            if b1 == b2:
                continue
            for e in bits(b1 & ~b2):
                removed = b1 ^ (1 << e)
                if not any((removed | (1 << f)) in family for f in bits(b2 & ~b1)):
                    return bits(b1), bits(b2), e
    return None


def is_exchange_witness(m, basis1, basis2, e) -> bool:
    """(B1, B2, e) are two bases and an element of B1\\B2 such that no
    f in B2\\B1 makes (B1\\{e})|{f} a basis."""
    b1, b2 = mask_of(basis1), mask_of(basis2)
    if b1 not in m.bases or b2 not in m.bases or not (b1 & ~b2) >> e & 1:
        return False
    removed = b1 ^ (1 << e)
    return not any((removed | (1 << f)) in m.bases for f in bits(b2 & ~b1))


def rank_oracle(m, a: int) -> int:
    """rank(A) = max over bases B of |A & B|, since every independent set
    extends to a basis; one popcount per basis."""
    return max((b & a).bit_count() for b in m.bases)


def closure_oracle(m, a: int) -> int:
    """`a` with every element whose addition keeps its rank, one
    `rank_oracle` per element."""
    r = rank_oracle(m, a)
    return a | sum(1 << e for e in range(m.n)
                   if rank_oracle(m, a | 1 << e) == r)


def independence_table_oracle(m) -> bytearray:
    """indep[mask] = 1 iff mask is independent: every subset of a basis,
    found by a depth-first walk down from the bases, one mask at a time."""
    indep = bytearray(1 << m.n)
    stack = []
    for b in m.bases:
        if not indep[b]:
            indep[b] = 1
            stack.append(b)
    while stack:
        mask = stack.pop()
        for e in bits(mask):
            child = mask ^ (1 << e)
            if not indep[child]:
                indep[child] = 1
                stack.append(child)
    return indep


def rank_table_oracle(m) -> bytearray:
    """rank[mask] by DP over all 2^n masks: the size of an independent
    mask, else the largest rank among its single removals."""
    indep = independence_table_oracle(m)
    table = bytearray(1 << m.n)
    for mask in range(1, 1 << m.n):
        if indep[mask]:
            table[mask] = mask.bit_count()
        else:
            table[mask] = max(table[mask ^ (1 << e)] for e in bits(mask))
    return table


def circuits_oracle(m) -> list[int]:
    """Dependent masks whose every single removal is independent, ascending."""
    indep = independence_table_oracle(m)
    return [mask for mask in range(1, 1 << m.n)
            if not indep[mask]
            and all(indep[mask ^ (1 << e)] for e in bits(mask))]


def is_paving_oracle(m) -> bool:
    """No dependent mask has fewer than `rank` elements."""
    indep = independence_table_oracle(m)
    return all(indep[mask] or mask.bit_count() >= m.rank
               for mask in range(1 << m.n))


def components_oracle(m) -> list[int]:
    """Classes of "some circuit holds both", by union-find over every
    circuit; masks ordered by smallest element."""
    parent = list(range(m.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for c in circuits_oracle(m):
        els = bits(c)
        for e in els[1:]:
            parent[find(e)] = find(els[0])
    groups: dict[int, int] = {}
    for e in range(m.n):
        root = find(e)
        groups[root] = groups.get(root, 0) | (1 << e)
    return sorted(groups.values(), key=lambda mask: mask & -mask)


def whitney_numbers_oracle(m) -> list[list[int]]:
    """w[a][b] = number of masks with r(E) - r(A) = a and |A| - r(A) = b,
    counted one mask at a time over the oracle rank table."""
    table = rank_table_oracle(m)
    w = [[0] * (m.n - m.rank + 1) for _ in range(m.rank + 1)]
    for mask in range(1 << m.n):
        ra = table[mask]
        w[m.rank - ra][mask.bit_count() - ra] += 1
    return w


def connected_by_partition_oracle(m) -> bool:
    """A matroid is connected iff no proper nonempty subset A satisfies
    rank(A) + rank(E\\A) = rank(E)."""
    if m.n == 0:
        return False
    full = m.full_mask
    for a in range(1, full):
        if rank_oracle(m, a) + rank_oracle(m, full ^ a) == m.rank:
            return False
    return True


def oracle_tutte_coeffs(m) -> dict[tuple[int, int], int]:
    """Corank-nullity sum evaluated from scratch with itertools, producing a
    sparse {(i, j): coeff} dict.  No rank tables, no recursion."""
    n, r = m.n, m.rank
    poly: dict[tuple[int, int], int] = {}
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            a = mask_of(subset)
            ra = max((b & a).bit_count() for b in m.bases) if a else 0
            da, db = r - ra, size - ra
            # accumulate (x-1)^da * (y-1)^db term by binomial expansion
            for i in range(da + 1):
                ci = comb(da, i) * ((-1) ** (da - i))
                for j in range(db + 1):
                    key = (i, j)
                    poly[key] = poly.get(key, 0) + ci * comb(db, j) * ((-1) ** (db - j))
    return {k: v for k, v in poly.items() if v}


def dense_to_sparse(t) -> dict[tuple[int, int], int]:
    return {(i, j): c
            for i, row in enumerate(t.coeffs)
            for j, c in enumerate(row) if c}


# -- multigraphs, by linear algebra ------------------------------------------

def determinant_oracle(rows: list[list[int]]) -> int:
    """Exact Gaussian elimination over the rationals; 1 for a 0x0 matrix."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    assert det.denominator == 1
    return int(det)


def matrix_tree_oracle(g) -> int:
    """Kirchhoff's matrix-tree theorem: the number of maximum spanning
    forests is the product over connected components (found by a search
    over adjacency sets) of a cofactor of the component's Laplacian.  A
    self-loop adds as much to its vertex's degree as to its adjacency, so
    it cancels out of the Laplacian and is skipped."""
    adj = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    counts = []
    for s in range(g.vertex_count):
        if s in seen:
            continue
        comp, stack = [], [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            comp.append(x)
            stack.extend(adj[x] - seen)
            seen.update(adj[x])
        index = {v: i for i, v in enumerate(comp)}
        lap = [[0] * len(comp) for _ in comp]
        for u, v in g.edges:
            if u != v and u in index:
                i, j = index[u], index[v]
                lap[i][i] += 1
                lap[j][j] += 1
                lap[i][j] -= 1
                lap[j][i] -= 1
        counts.append(determinant_oracle([row[1:] for row in lap[1:]]))
    return prod(counts)


# -- deletion-contraction, one basis and one bit at a time -------------------

def canonical_oracle(n: int, bases) -> tuple[int, ...]:
    """The root of a run: the sorted bases relabeled in order of (basis
    degree, index), the labeling a deletion-contraction run gives its root
    and every node inherits.  The masks are read a byte at a time: the
    degrees are summed from a count of each byte value, and each mask is
    renamed through a table of the renamed bits of every byte value."""
    raw, width = written_oracle(n, bases, "little")
    columns = [raw[j::width] for j in range((n + 7) // 8)]
    degree = [0] * n
    for j, column in enumerate(columns):
        for value, count in Counter(column).items():
            for i in range(min(8, n - 8 * j)):
                degree[8 * j + i] += count * (value >> i & 1)
    order = sorted(range(n), key=lambda e: (degree[e], e))
    pos = {old: new for new, old in enumerate(order)}
    renamed = [0] * len(bases)
    for j, column in enumerate(columns):
        table = [sum(1 << pos[8 * j + i] for i in range(min(8, n - 8 * j))
                     if value >> i & 1) for value in range(256)]
        renamed = list(map(or_, renamed, map(table.__getitem__, column)))
    return tuple(sorted(renamed))


def written_oracle(n: int, masks, byteorder: str) -> tuple[bytes, int]:
    """(the masks written one after another in this byte order, each in the
    narrowest of 1, 2, 4 or 8 bytes that holds n bits, that width)."""
    width = next(w for w in (1, 2, 4, 8, (n + 7) // 8) if 8 * w >= n)
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)
    if code:        # a struct format of standard size
        order = "<" if byteorder == "little" else ">"
        return struct.pack(f"{order}{len(masks)}{code}", *masks), width
    return b"".join(b.to_bytes(width, byteorder) for b in masks), width


def slots_oracle(n: int, bases) -> bytes:
    """The sorted bases written one after another in native byte order,
    each in the narrowest of 1, 2, 4 or 8 bytes that holds n bits."""
    return written_oracle(n, sorted(bases), sys.byteorder)[0]


def pivot_oracle(n: int) -> int:
    """Element n-1 of the inherited labeling, at the root the last of the
    canonical order, so one of highest degree."""
    return n - 1


def strip_oracle(n: int, bases: tuple[int, ...]):
    """Remove loops and coloops: (n', sorted bases', n_coloops, n_loops)."""
    union = 0
    inter = bases[0]
    for b in bases:
        union |= b
        inter &= b
    loops = ((1 << n) - 1) & ~union
    coloops = inter
    kept = [e for e in range(n) if not (loops | coloops) >> e & 1]
    new_bases = {mask_of(new for new, old in enumerate(kept) if b >> old & 1)
                 for b in bases}
    return (len(kept), tuple(sorted(new_bases)),
            coloops.bit_count(), loops.bit_count())


def children_oracle(n: int, bases: tuple[int, ...]):
    """Sorted basis families of the deletion and the contraction of the
    pivot, on the other n-1 elements as they are labeled."""
    bit = 1 << pivot_oracle(n)
    return (tuple(sorted([b for b in bases if not b & bit])),
            tuple(sorted([b ^ bit for b in bases if b & bit])))


def poly_add(a, b):
    """a + b, the smaller coefficient matrix padded with zeros."""
    rows = max(len(a.coeffs), len(b.coeffs))
    width = max(len(a.coeffs[0]), len(b.coeffs[0]))

    def cell(t, i, j):
        return t.coeffs[i][j] if i < len(t.coeffs) and j < len(t.coeffs[0]) else 0

    return TuttePolynomial([[cell(a, i, j) + cell(b, i, j) for j in range(width)]
                            for i in range(rows)])


def poly_shift(t, dx: int, dy: int):
    """t * x^dx * y^dy."""
    width = len(t.coeffs[0]) + dy
    return TuttePolynomial([[0] * width] * dx
                           + [[0] * dy + list(row) for row in t.coeffs])


def pack_oracle(t) -> int:
    """t as one int: the coefficient of x^i y^j in the F-bit field at index
    i*(L+1) + j, for L the deletion-contraction limit and F the bit length
    of C(L, L//2)."""
    limit = SIZE_LIMITS["deletion-contraction"]
    field = comb(limit, limit // 2).bit_length()
    return sum(c << field * (i * (limit + 1) + j)
               for i, row in enumerate(t.coeffs) for j, c in enumerate(row))


class OracleMemo(TutteMemo):
    """A `TutteMemo` of `dc_oracle`'s polynomials, each charged as its
    packed int would be."""

    @staticmethod
    def _entry_cost(key, t):
        return TutteMemo._entry_cost(key, pack_oracle(t))


def dc_oracle(n: int, bases: tuple[int, ...], memo):
    """Deletion-contraction over sorted tuples and coefficient matrices with
    the oracles above.  A root with more bases than non-bases whose
    non-bases, as element sets, pairwise share at most k-2 elements is
    sparse paving and takes `sparse_paving_tutte_oracle`, with no memo
    entry.  Any other root is relabeled in canonical order, and below it
    no relabeling; strip, closed form for uniform minors, memo on (n, the
    family's slots), pivot n-1, deletion before contraction."""
    k = bases[0].bit_count()
    if 2 * len(bases) > comb(n, k):
        held = set(bases)
        non_bases = [set(c) for c in combinations(range(n), k)
                     if mask_of(c) not in held]
        if all(len(a & b) <= k - 2 for a, b in combinations(non_bases, 2)):
            coeffs = sparse_paving_tutte_oracle(Matroid(n, k, bases))
            return TuttePolynomial([[coeffs.get((i, j), 0) for j in range(n - k + 1)]
                                    for i in range(k + 1)])
    return dc_node_oracle(n, canonical_oracle(n, bases), memo)


def dc_node_oracle(n: int, bases: tuple[int, ...], memo):
    """One node of `dc_oracle`, on a sorted family in the root's labeling."""
    n, bases, ncoloops, nloops = strip_oracle(n, bases)
    if n == 0:
        core = TuttePolynomial(((1,),))
    else:
        k = bases[0].bit_count()
        if len(bases) == comb(n, k):
            core = _uniform_tutte(k, n)
        else:
            key = (n, slots_oracle(n, bases))
            core = memo.get(key)
            if core is None:
                deleted, contracted = children_oracle(n, bases)
                core = poly_add(dc_node_oracle(n - 1, deleted, memo),
                                dc_node_oracle(n - 1, contracted, memo))
                memo.put(key, core)
    return poly_shift(core, ncoloops, nloops)


# -- matroid structure, one basis and one mask at a time --------------------

def drop_bit(mask: int, e: int) -> int:
    """Remove position e and shift everything above it down one place."""
    low = mask & ((1 << e) - 1)
    return low | ((mask >> (e + 1)) << e)


def loops_oracle(m) -> int:
    """Elements in no basis: the complement of the union of the bases."""
    union = 0
    for b in m.bases:
        union |= b
    return m.full_mask & ~union


def coloops_oracle(m) -> int:
    """Elements in every basis: the intersection of the bases."""
    inter = m.full_mask
    for b in m.bases:
        inter &= b
    return inter


def delete_oracle(m, e: int):
    """(n, rank, bases) of M\\e: the bases without e, or, if e is a
    coloop, every basis with e removed."""
    bit = 1 << e
    keep = [b for b in m.bases if not b & bit]
    if keep:
        return m.n - 1, m.rank, frozenset(drop_bit(b, e) for b in keep)
    return m.n - 1, m.rank - 1, frozenset(drop_bit(b ^ bit, e) for b in m.bases)


def contract_oracle(m, e: int):
    """(n, rank, bases) of M/e: the bases with e, e removed; a loop is
    deleted."""
    bit = 1 << e
    if loops_oracle(m) & bit:
        return delete_oracle(m, e)
    return (m.n - 1, m.rank - 1,
            frozenset(drop_bit(b ^ bit, e) for b in m.bases if b & bit))


def restrict_oracle(m, a: int):
    """(n, rank, bases) of M|a: the largest intersections of bases with a,
    relabeled onto 0..|a|-1."""
    inter = {b & a for b in m.bases}
    r = max(x.bit_count() for x in inter)
    kept = bits(a)
    return len(kept), r, frozenset(
        mask_of(new for new, old in enumerate(kept) if x >> old & 1)
        for x in inter if x.bit_count() == r)


def to_dict_oracle(m) -> dict:
    """matroid-bases-v1 record: each basis's element list, lists sorted."""
    return {"format": "matroid-bases-v1", "n": m.n, "rank": m.rank,
            "bases": sorted(bits(b) for b in m.bases)}


def clean_pivot_oracle(m):
    """The lowest e whose deletion and contraction, both built, have no
    loop and no coloop, or None."""
    def clean(parts):
        minor = Matroid(*parts)
        return not loops_oracle(minor) and not coloops_oracle(minor)

    for e in range(m.n):
        if clean(delete_oracle(m, e)) and clean(contract_oracle(m, e)):
            return e
    return None


def flats_oracle(m) -> list[int]:
    """Masks no single addition keeps at the same rank, by one sweep of the
    rank table, sorted by (size, mask)."""
    table = rank_table_oracle(m)
    out = [a for a in range(1 << m.n)
           if all(table[a | (1 << e)] != table[a]
                  for e in range(m.n) if not a >> e & 1)]
    return sorted(out, key=lambda a: (a.bit_count(), a))


def cyclic_flats_oracle(m) -> list[tuple[int, int]]:
    """(mask, rank) of the flats no single removal lowers in rank."""
    table = rank_table_oracle(m)
    return [(f, table[f]) for f in flats_oracle(m)
            if all(table[f ^ (1 << e)] == table[f] for e in bits(f))]


# -- certificate trees, every node built afresh -------------------------------

def digest_oracle(record: dict) -> str:
    """The first 16 hex digits of the sha256 of the record's compact,
    key-sorted JSON dump."""
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def node_matroid(node) -> Matroid:
    """The matroid a trace node writes: its record, parsed and validated
    as any reader of the trace would."""
    return matroid_from_dict(node.record)


def build_oracle(m) -> ProofNode:
    """The certificate node of m with every minor built, checked and
    recorded again wherever it occurs: no node is shared, each record sorts
    the element lists of the bases afresh (`to_dict_oracle`), and each
    digest is a JSON dump of the record."""
    mw = check_mw(m)
    record = to_dict_oracle(m)
    digest = digest_oracle(record)
    comps = m.components()
    if len(comps) != 1:
        children = tuple(build_oracle(m.restrict(c)) for c in comps)
        return ProofNode(record, digest, RULE_DIRECT_SUM, mw, children)
    rule = _base_rule(m.rank, m.n - m.rank)
    if rule is not None:
        return ProofNode(record, digest, rule, mw)
    kn = recognize_minimal(m)
    if kn is not None:
        return ProofNode(record, digest, RULE_BASE_MINIMAL, mw, minimal_kn=kn)
    e = _clean_pivot(m)
    children = (build_oracle(m.delete(e)), build_oracle(m.contract(e)))
    return ProofNode(record, digest, RULE_DELETE_CONTRACT, mw, children,
                     element=e)


def trace_oracle(m) -> ProofTrace:
    """`trace` without its split check and without node sharing."""
    root = build_oracle(m)
    return ProofTrace(root, all(node.mw.mult_ok for node in root.walk()))
