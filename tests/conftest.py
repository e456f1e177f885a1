"""Shared fixtures and independent desk oracles.

The oracles here deliberately avoid the package's optimized code paths
(rank tables, column-packed basis families) so that agreement is a real
cross-check rather than the same computation twice.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from splitmw import Matroid, Multigraph, graphic
from splitmw.bitset import bits, mask_of
from splitmw.corpus import (
    doubled_doubled_4cycle,
    figure_minimal_graph,
    k4_graph,
    tutte_identity_corpus,
)
from splitmw.errors import SIZE_LIMITS
from splitmw.matroid import recognize_minimal
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


# -- deletion-contraction, one basis and one bit at a time -------------------

def canonical_order_oracle(n: int, bases: tuple[int, ...]) -> list[int]:
    """The elements in order of (basis degree, index): the labeling a
    deletion-contraction run gives its root, inherited by every node."""
    degree = [0] * n
    for b in bases:
        for e in bits(b):
            degree[e] += 1
    return sorted(range(n), key=lambda e: (degree[e], e))


def relabel_oracle(bases, order: list[int]) -> tuple[int, ...]:
    """The sorted bases with element order[i] renamed i."""
    pos = {old: new for new, old in enumerate(order)}
    return tuple(sorted(mask_of(pos[e] for e in bits(b)) for b in bases))


def canonical_oracle(n: int, bases: tuple[int, ...]) -> tuple[int, ...]:
    """The root of a run: the sorted bases relabeled in canonical order."""
    return relabel_oracle(bases, canonical_order_oracle(n, bases))


def slots_oracle(n: int, bases) -> bytes:
    """The sorted bases written one after another in native byte order,
    each in the narrowest of 1, 2, 4 or 8 bytes that holds n bits."""
    width = next(w for w in (1, 2, 4, 8, (n + 7) // 8) if 8 * w >= n)
    return b"".join(b.to_bytes(width, sys.byteorder) for b in sorted(bases))


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
    return (tuple(sorted(b for b in bases if not b & bit)),
            tuple(sorted(b ^ bit for b in bases if b & bit)))


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
    the oracles above: the root relabeled in canonical order, and below it
    no relabeling; strip, closed form for uniform minors, memo on (n, the
    family's slots), pivot n-1, deletion before contraction."""
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
        return ProofNode(m, record, digest, RULE_DIRECT_SUM, mw, children)
    rule = _base_rule(m.rank, m.n - m.rank)
    if rule is not None:
        return ProofNode(m, record, digest, rule, mw)
    kn = recognize_minimal(m)
    if kn is not None:
        return ProofNode(m, record, digest, RULE_BASE_MINIMAL, mw, minimal_kn=kn)
    e = _clean_pivot(m)
    children = (build_oracle(m.delete(e)), build_oracle(m.contract(e)))
    return ProofNode(m, record, digest, RULE_DELETE_CONTRACT, mw, children,
                     element=e)


def trace_oracle(m) -> ProofTrace:
    """`trace` without its split check and without node sharing."""
    root = build_oracle(m)
    return ProofTrace(root, all(node.mw.mult_ok for node in root.walk()))
