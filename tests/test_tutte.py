import random
import sys
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given

from splitmw import (
    InputError,
    LimitExceededError,
    Matroid,
    Multigraph,
    TutteMemo,
    TuttePolynomial,
    graphic,
    minimal,
    rank2_from_partition,
    trace,
    tutte_dc,
    tutte_from_dict,
    tutte_subset_sum,
    uniform,
)
from splitmw.corpus import (
    graphic_corpus,
    minimal_matroids,
    rank2_matroids,
    tutte_identity_corpus,
    uniform_matroids,
)
from splitmw import matroid, tutte
from splitmw.bitset import slot_width
from splitmw.errors import SIZE_LIMITS, InputError
from splitmw.tutte import (
    _canonical,
    _uniform_packed,
    _uniform_tutte,
    _unpack,
    whitney_numbers,
)

from conftest import (
    PETERSEN,
    OracleMemo,
    canonical_oracle,
    dc_node_oracle,
    dc_oracle,
    dense_to_sparse,
    derived_matroids,
    every_family,
    grown_sparse_paving,
    oracle_tutte_coeffs,
    pack_oracle,
    packed_oracle,
    pairwise_exchange_violation,
    poly_add,
    sparse_paving,
    sparse_paving_matroids,
    sparse_paving_tutte_oracle,
    strip_oracle,
    uniform_tutte_oracle,
    whitney_numbers_oracle,
    width_oracle,
    with_parallels_and_loops,
)


def both_engines(m):
    return tutte_dc(m), tutte_subset_sum(m)


K5 = Multigraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])

# the Petersen graph as perfbench's `engines` workload lists its edges, and
# that workload's seed-4711 G(9,18), written out
PETERSEN_ENGINES = Multigraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6),
                                   (2, 7), (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8),
                                   (8, 5)])
G918 = Multigraph(9, [(1, 4), (4, 3), (3, 5), (5, 2), (2, 0), (0, 8), (8, 6), (6, 7),
                      (7, 1), (8, 1), (2, 6), (5, 3), (7, 4), (7, 6), (7, 0), (0, 6),
                      (4, 7), (2, 8)])


class TestSparsePaving:
    """Both engines against T(M) = T(U(k,n)) - lam*(x + y - xy), on sparse
    paving matroids: every rank level below the top one is a size class,
    and the non-bases, the lam circuit-hyperplanes, share at most k-2
    elements pairwise, so deletion-contraction takes the closed form at the
    root, and makes no memo entry."""

    # (7, 16, 150) is the size of the perfbench `engines` input
    @pytest.mark.parametrize("k, n, hyperplanes, seed", [
        (5, 12, 20, 1), (6, 13, 30, 2), (6, 14, 40, 3), (7, 15, 50, 4),
        (7, 16, 60, 5), (7, 16, 150, 6),
    ])
    def test_engines_match_closed_form(self, k, n, hyperplanes, seed):
        m = sparse_paving(k, n, hyperplanes, seed)
        assert comb(n, k) - len(m.bases) == hyperplanes
        expected = sparse_paving_tutte_oracle(m)
        assert dense_to_sparse(tutte_subset_sum(m)) == expected
        memo = TutteMemo()
        assert dense_to_sparse(tutte_dc(m, memo=memo)) == expected
        assert not memo

    # the closed form comes before a single basis is packed, and reads
    # the non-bases off the held k-sets, with no 2^n-bit table, so it is
    # taken past the "tables" limit too
    @pytest.mark.parametrize("m", [
        sparse_paving(7, 16, 150, 6), sparse_paving(2, 6, 3, 1),
        Matroid(6, 3, uniform(3, 6).bases - {0b111}),
    ], ids=["7-16-150", "2-6-3", "u36-less-one"])
    def test_clean_root_packs_nothing(self, m, monkeypatch):
        def no_packing(*args):
            raise AssertionError("a sparse paving root packed its bases or built a table")
        for module, name in [(tutte, "to_slots"), (tutte, "column_view"),
                             (tutte, "popcount_classes"), (matroid, "table_of")]:
            monkeypatch.setattr(module, name, no_packing)
        monkeypatch.setitem(SIZE_LIMITS, "tables", 4)
        memo = TutteMemo()
        assert dense_to_sparse(tutte_dc(m, memo=memo)) == sparse_paving_tutte_oracle(m)
        assert not memo

    # U(1,5) plus a loop, k = 1: the loop's singleton is the one non-basis,
    # so it is isolated; the others' non-bases are not.  The sparse paving
    # (7,16) with one circuit-hyperplane grown into an 8-element
    # hyperplane has 7 more non-bases, each next to it; M(K5)'s triangles
    # with an edge share 3 edges; rank 2 with classes of 3 has non-bases
    # {a,b} and {a,c} in each class.  Those recurse on their bases.
    @pytest.mark.parametrize("m, closed", [
        (uniform(1, 5).direct_sum(uniform(0, 1)), True),
        (grown_sparse_paving(7, 16, 150, 6), False),
        (graphic(K5), False),
        (rank2_from_partition([3, 3, 3]), False),
    ], ids=["u15-loop", "7-16-150-grown", "k5", "rank2-333"])
    def test_root_rule_against_subset_sum(self, m, closed):
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert (not memo) == closed

    # only a root with more bases than non-bases reads its non-bases, so
    # the held k-sets of `_k_sets` are never built for the others: the tie
    # (18 of the 36 pairs), Petersen and minimal(8,16)
    @pytest.mark.parametrize("m", [
        rank2_from_partition([6, 3]), graphic(PETERSEN), minimal(8, 16),
    ], ids=["rank2-63-tie", "petersen", "minimal-8-16"])
    def test_other_roots_read_no_non_bases(self, m, monkeypatch):
        def no_k_sets(*args):
            raise AssertionError("the k-sets of a root with few bases were read")
        monkeypatch.setattr(tutte, "_k_sets", no_k_sets)
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert memo

    # dense roots at the slot-width edges: the sparse paving (8,17) takes
    # the closed form, and so do the loop beside a sparse paving (7,16) and
    # the coloop beside a sparse paving (5,9), on their cores of 16 and 9
    # elements
    @pytest.mark.parametrize("m", [
        sparse_paving(8, 17, 40, 7),
        uniform(0, 1).direct_sum(sparse_paving(7, 16, 60, 5)),
        sparse_paving(5, 9, 10, 2).direct_sum(uniform(1, 1)),
    ], ids=["17-children", "17-16-loop", "10-9-coloop"])
    def test_non_bases_across_slot_width_edges(self, m):
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert not memo

    # a dense root that is not sparse paving for its loops or coloops alone:
    # its core, relabeled onto the other elements, takes the root rules,
    # here the closed form, so no node recurses.  The root's non-bases
    # are too many to be circuit-hyperplanes, k|N| > C(n,k-1), so only the
    # core's k-sets are read
    @pytest.mark.parametrize("m, core", [
        (uniform(0, 1).direct_sum(sparse_paving(7, 16, 150, 6)), (16, 7)),
        (sparse_paving(4, 7, 3, 3).direct_sum(uniform(1, 1)), (7, 4)),
        (uniform(0, 2).direct_sum(sparse_paving(2, 8, 3, 1)), (8, 2)),
    ], ids=["loop-7-16-150", "4-7-coloop", "loops-2-8"])
    def test_dense_core_takes_the_closed_form(self, m, core, monkeypatch):
        def no_recursion(*args):
            raise AssertionError("a dense root with a sparse paving core recursed")
        read, k_sets_of = [], tutte._k_sets

        def k_sets(n, k):
            read.append((n, k))
            return k_sets_of(n, k)
        monkeypatch.setattr(tutte, "_dc", no_recursion)
        monkeypatch.setattr(tutte, "_k_sets", k_sets)
        assert 2 * len(m.bases) > comb(m.n, m.rank)
        assert m.loops() or m.coloops()
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert not memo
        assert read == [core]

    @given(sparse_paving_matroids())
    def test_engines_agree_with_loops_and_coloops(self, drawn):
        m, clean = drawn
        memo = TutteMemo()
        t = tutte_dc(m, memo=memo)
        assert t == tutte_subset_sum(m)
        if clean:
            assert dense_to_sparse(t) == sparse_paving_tutte_oracle(m)
            assert not memo

    # one circuit-hyperplane grown into a hyperplane of k+1 elements: the
    # root is paving but not sparse paving, so it recurses on its bases
    @given(sparse_paving_matroids(grow=True))
    def test_engines_agree_with_a_grown_hyperplane(self, drawn):
        m, clean = drawn
        memo = TutteMemo()
        t = tutte_dc(m, memo=memo)
        assert t == tutte_subset_sum(m)
        assert (dense_to_sparse(t) == sparse_paving_tutte_oracle(m)) == clean
        if clean:
            assert not memo


class TestClosedForms:
    def test_rank1_three_elements(self):
        # x + y + y^2
        expected = ((0, 1, 1), (1, 0, 0))
        for t in both_engines(uniform(1, 3)):
            assert t.coeffs == expected

    def test_single_coloop_is_x(self):
        for t in both_engines(uniform(1, 1)):
            assert t.coeffs == ((0,), (1,))

    def test_two_loops_is_y_squared(self):
        for t in both_engines(uniform(0, 2)):
            assert t.coeffs == ((0, 0, 1),)

    def test_triangle_polynomial(self, triangle):
        # x^2 + x + y
        expected = ((0, 1), (1, 0), (1, 0))
        for m in (minimal(2, 3), graphic(triangle)):
            for t in both_engines(m):
                assert t.coeffs == expected

    def test_k4_polynomial(self, k4):
        # x^3 + 3x^2 + 2x + 4xy + 2y + 3y^2 + y^3
        expected = ((0, 2, 3, 1), (2, 4, 0, 0), (3, 0, 0, 0), (1, 0, 0, 0))
        for t in both_engines(k4):
            assert t.coeffs == expected

    def test_empty_matroid_is_one(self):
        for t in both_engines(uniform(0, 0)):
            assert t.coeffs == ((1,),)

    def test_fano_polynomial(self, fano):
        # x^3 + 4x^2 + 3x + 7xy + 3y + 6y^2 + 3y^3 + y^4
        expected = ((0, 3, 6, 3, 1), (3, 7, 0, 0, 0),
                    (4, 0, 0, 0, 0), (1, 0, 0, 0, 0))
        for t in both_engines(fano):
            assert t.coeffs == expected
            assert t.evaluate(1, 1) == 28

    def test_against_inline_oracle(self, triangle):
        for m in (uniform(1, 3), graphic(triangle), minimal(3, 5),
                  rank2_from_partition([2, 2, 1])):
            assert dense_to_sparse(tutte_dc(m)) == oracle_tutte_coeffs(m)


class TestEvaluation:
    def test_rank1_family_points(self):
        for n in range(2, 21):
            t = tutte_dc(uniform(1, n))
            assert t.evaluate(2, 0) == 2
            assert t.evaluate(0, 2) == 2 ** n - 2
            assert t.evaluate(1, 1) == n

    def test_point_11_counts_bases(self):
        for m in minimal_matroids(9) + uniform_matroids(8) + rank2_matroids(8):
            assert tutte_dc(m).evaluate(1, 1) == len(m.bases)

    def test_minimal_47_base_count(self):
        assert tutte_dc(minimal(4, 7)).evaluate(1, 1) == 13

    def test_zero_power_zero_is_one(self):
        t = TuttePolynomial(((1,),))
        assert t.evaluate(0, 0) == 1


class TestEngineAgreement:
    def test_engines_agree_on_corpus_sample(self):
        sample = (minimal_matroids(9) + uniform_matroids(8)
                  + rank2_matroids(8) + graphic_corpus(15, 9))
        for m in sample:
            assert tutte_dc(m) == tutte_subset_sum(m)

    def test_engines_agree_on_relabeled_family(self):
        # a permuted basis family is a different input but the same matroid
        from splitmw import Matroid
        m = minimal(3, 6)
        perm = [4, 0, 5, 2, 1, 3]
        remapped = []
        for b in m.bases:
            nb = 0
            for e in range(m.n):
                if b >> e & 1:
                    nb |= 1 << perm[e]
            remapped.append(nb)
        shuffled = Matroid(6, 3, remapped)
        assert tutte_dc(shuffled) == tutte_subset_sum(shuffled)
        assert tutte_dc(shuffled) == tutte_dc(m)


class TestWhitneyNumbers:
    """Counts from the rank levels against a 2^n loop over the oracle
    rank table."""

    def test_corpus(self):
        for m in tutte_identity_corpus():
            if m.n <= 9:
                assert whitney_numbers(m) == whitney_numbers_oracle(m)

    def test_every_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if pairwise_exchange_violation(m) is None:
                    assert whitney_numbers(m) == whitney_numbers_oracle(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assert whitney_numbers(m) == whitney_numbers_oracle(m)

    def test_loops_coloops_and_empty(self):
        assert whitney_numbers(uniform(0, 0)) == [[1]]
        # a loop and a coloop: the four subsets fill the four cells, the
        # coloop deciding the corank deficit and the loop the nullity
        assert whitney_numbers(uniform(0, 1).direct_sum(uniform(1, 1))) == [[1, 1], [1, 1]]

    def test_totals(self):
        m = minimal(4, 7)
        w = whitney_numbers(m)
        assert sum(map(sum, w)) == 1 << m.n
        assert w[0][0] == len(m.bases)

    # counted over the simplification, each parallel class once
    @given(with_parallels_and_loops(10))
    def test_parallel_classes_and_loops(self, m):
        assert whitney_numbers(m) == whitney_numbers_oracle(m)

    @given(with_parallels_and_loops(14))
    def test_engines_agree_with_parallel_classes(self, m):
        assert tutte_subset_sum(m) == tutte_dc(m, memo=TutteMemo())

    # U(2,4) with every element doubled (e and e + 4 parallel): from a
    # basis {e, f}, the other two elements and their copies share
    # X = {e, f}, and only the lookups past X split them into two classes;
    # one class; all loops; all coloops; a multigraph with a self-loop and
    # a triple edge
    @pytest.mark.parametrize("m", [
        Matroid(8, 2, [1 << a | 1 << b for a, b in combinations(range(8), 2)
                       if a % 4 != b % 4]),
        uniform(1, 7), uniform(0, 6), uniform(6, 6),
        graphic(Multigraph(4, [(0, 0), (0, 1), (0, 1), (0, 1), (1, 2), (2, 3),
                               (3, 0), (1, 3)])),
    ], ids=["u24-doubled", "one-class", "loops", "coloops", "self-loop-triple-edge"])
    def test_fixed_parallel_classes(self, m):
        assert whitney_numbers(m) == whitney_numbers_oracle(m)
        assert tutte_subset_sum(m) == tutte_dc(m, memo=TutteMemo())

    # minimal(8,17) is a 9-cycle with one edge in a class of 9: its
    # simplification, U(8,9), is uniform, so no level is counted and no
    # table is built, on 9 elements or on 17; a doubled M(K4) counts on its
    # 6 elements
    @pytest.mark.parametrize("m, sizes", [
        (minimal(8, 17), set()),
        (graphic(Multigraph(4, list(combinations(range(4), 2)) * 2)), {6}),
    ], ids=["minimal-8-17", "k4-doubled"])
    def test_tables_on_the_simplification(self, m, sizes, monkeypatch):
        built = set()

        def recorded(f, at):
            def wrapper(*args):
                built.add(args[at])
                return f(*args)
            return wrapper
        for module, name, at in [(matroid, "table_of", 1), (matroid, "down_closure", 1),
                                 (matroid, "up_closure", 1),
                                 (matroid, "popcount_classes", 0),
                                 (tutte, "popcount_classes", 0)]:
            monkeypatch.setattr(module, name, recorded(getattr(module, name), at))
        assert whitney_numbers(m) == whitney_numbers_oracle(m)
        assert built == sizes


def key_masks(key, width: int) -> list[int]:
    """The masks of a memo key's packed int, read in `width`-byte slots from
    the lowest up, to the highest nonzero one."""
    packed, slot, out = key[1], (1 << 8 * width) - 1, []
    while packed:
        out.append(packed & slot)
        packed >>= 8 * width
    return out


def unpack_entry(key, packed):
    """The polynomial of a memo entry, its rank read off the key's first
    basis, in its lowest slot."""
    n, family = key
    rank = (family & ((1 << n) - 1)).bit_count()
    return _unpack(packed, rank, n - rank)


def check_column_pass(m):
    """The root's canonical packing and every node of the recursion below
    it against the one-basis-at-a-time oracles: each `_dc` call, its
    stripped family or its children of the pivot, n-1, in the root's slot
    width, equal to `dc_node_oracle`'s, call by call, and the same
    polynomial.  Stripping the canonical bases keeps its masks in order,
    with no sort, and gives the canonical family of the stripped matroid,
    so the core of a dense root recurses as its stripped root would, in
    its own slot width."""
    n, bases = m.n, tuple(sorted(m.bases))
    canon = canonical_oracle(n, bases)
    width = width_oracle(n)
    root = (packed_oracle(canon, width), packed_oracle([1] * len(canon), width))
    assert _canonical(n, bases) == root
    calls, oracle_calls = [], []
    dc = tutte._dc

    def recorded(*args):
        calls.append(args[:4])
        return dc(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tutte, "_dc", recorded)
        packed = tutte._dc(n, m.rank, *root, TutteMemo())
    expected = dc_node_oracle(n, canon, width, OracleMemo(), oracle_calls)
    assert calls == oracle_calls
    assert _unpack(packed, m.rank, n - m.rank) == expected
    stripped_first = strip_oracle(n, bases)[:2]
    family = canonical_oracle(*stripped_first)
    assert strip_oracle(n, canon)[:2] == (stripped_first[0], family)
    assert _canonical(*stripped_first)[0] == packed_oracle(family, width_oracle(stripped_first[0]))


def with_loop_and_coloop(m):
    """A loop below m's elements and a coloop above them."""
    return uniform(0, 1).direct_sum(m).direct_sum(uniform(1, 1))


class TestColumnPass:
    """The packed deletion-contraction step against the per-basis oracles:
    equal root packings, then equal calls, node by node (stripped families
    and children of the pivot, the last element of the canonical order),
    and the same memo, entry for entry, after a whole run."""

    def test_corpus(self):
        for m in tutte_identity_corpus():
            check_column_pass(m)

    def test_every_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if pairwise_exchange_violation(m) is None:
                    check_column_pass(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        check_column_pass(m)

    # n = 8 and 16, the widest ground sets of one- and two-byte slots, one
    # past each, whose nodes go on in the root's wider slots below them,
    # and the deletion-contraction limit, 24
    @pytest.mark.parametrize("m", [
        minimal(4, 8), minimal(4, 9), minimal(8, 16), minimal(8, 17),
        minimal(12, 24), uniform(3, 7).direct_sum(uniform(1, 1)),
        with_loop_and_coloop(minimal(3, 6)), with_loop_and_coloop(minimal(3, 7)),
        with_loop_and_coloop(minimal(7, 14)), with_loop_and_coloop(minimal(7, 15)),
        with_loop_and_coloop(minimal(11, 22)),
        with_loop_and_coloop(uniform(2, 4).direct_sum(minimal(5, 11))),
    ], ids=lambda m: f"n{m.n}-r{m.rank}-{len(m.bases)}")
    def test_slot_width_edges(self, m):
        check_column_pass(m)

    @given(derived_matroids())
    def test_engines_agree_across_slot_width_edges(self, m):
        # m without its loops and coloops, beside a parallel class that
        # brings it to 9 or 17 elements (or past, for a large m), so that
        # the recursion goes on in slots wider than its nodes need
        core = m.restrict(m.full_mask & ~(m.loops() | m.coloops()))
        for size in (9, 17):
            padded = with_loop_and_coloop(
                core.direct_sum(uniform(1, max(size - core.n, 2))))
            assert tutte_dc(padded, memo=TutteMemo()) == tutte_subset_sum(padded)

    # a root whose loops and coloops take it from 17 elements to 16 or
    # fewer, or from 9 to 8 or fewer: stripped, it stays in its root's
    # wider slots, so the run makes the entries of its core's run, with the
    # same n and polynomials in the same order, keyed on the same masks in
    # wider slots
    @pytest.mark.parametrize("core, loops, coloops", [
        (minimal(8, 16), 1, 0), (minimal(8, 16), 0, 1), (graphic(PETERSEN), 1, 1),
        (minimal(4, 8), 1, 0), (minimal(4, 8), 0, 1), (minimal(3, 7), 1, 1),
    ], ids=["17-16-loop", "17-16-coloop", "17-15", "9-8-loop", "9-8-coloop", "9-7"])
    def test_strip_across_slot_width_edge(self, core, loops, coloops):
        padded = uniform(0, loops).direct_sum(core).direct_sum(uniform(coloops, coloops))
        wide, narrow = slot_width(padded.n), slot_width(core.n)
        assert wide > narrow
        memo, core_memo = TutteMemo(), TutteMemo()
        assert tutte_dc(padded, memo=memo) == tutte_subset_sum(padded)
        tutte_dc(core, memo=core_memo)
        assert memo
        assert ([(key[0], key_masks(key, wide), p) for key, p in memo._data.items()]
                == [(key[0], key_masks(key, narrow), p) for key, p in core_memo._data.items()])
        assert not memo._data.keys() & core_memo._data.keys()

    # one memo across slot widths: minimal(8,16) in 2-byte slots and its
    # 17-element padding in 4-byte slots make 7 entries each, none shared,
    # and each run is what a fresh memo gives
    def test_one_memo_across_slot_widths(self):
        core = minimal(8, 16)
        padded = uniform(0, 1).direct_sum(core)
        memo = TutteMemo()
        for m in (core, padded):
            t = tutte_dc(m, memo=memo)
            assert t == tutte_subset_sum(m) == tutte_dc(m, memo=TutteMemo())
        assert len(memo) == 14

    # the default "memo-bytes" limit, one under which Petersen with a chord
    # ends with 1 of the 161 entries it makes with room for all, its root's,
    # and one under which it ends with 52.  The Fano plane, M(K4), the
    # sparse paving (5,10) and U(3,6) less a basis are sparse paving, so
    # both take the closed form and make no entry; so do the sums of a
    # sparse paving (3,7) with a loop and of a (4,7) with a coloop, which
    # have more bases than non-bases, on their cores.  M(K5) and the rank-2
    # partition (1,2,3,2) have more but are not sparse paving, and the tie
    # (18 of the 36 pairs) has as many: they and the rest recurse on their
    # bases.
    @pytest.mark.parametrize("capacity", [64 << 20, 10000, 40000])
    def test_memo_matches_oracle_recursion(self, capacity, fano, k4,
                                           monkeypatch):
        monkeypatch.setitem(SIZE_LIMITS, "memo-bytes", capacity)
        chorded = Multigraph(10, list(PETERSEN.edges) + [(0, 2)])
        u36 = uniform(3, 6)
        for m in [fano, k4, graphic(K5), graphic(PETERSEN), graphic(chorded),
                  minimal(5, 10), with_loop_and_coloop(minimal(4, 8)),
                  rank2_from_partition([1, 2, 3, 2]), sparse_paving(5, 10, 12, 1),
                  Matroid(6, 3, u36.bases - {min(u36.bases)}),
                  rank2_from_partition([6, 3]),
                  uniform(0, 1).direct_sum(sparse_paving(3, 7, 3, 2)),
                  sparse_paving(4, 7, 3, 3).direct_sum(uniform(1, 1))]:
            memo, oracle_memo = TutteMemo(), OracleMemo()
            oracle = dc_oracle(m.n, tuple(sorted(m.bases)), oracle_memo)
            assert tutte_dc(m, memo=memo) == oracle
            assert list(memo._data) == list(oracle_memo._data)
            assert ([unpack_entry(key, packed) for key, packed in memo._data.items()]
                    == list(oracle_memo._data.values()))
            assert memo._bytes == oracle_memo._bytes


class TestIdentities:
    @given(derived_matroids())
    def test_deletion_contraction(self, m):
        """T(M) = T(M\\e) + T(M/e) for every e that is not a loop or a
        coloop, with the minors' polynomials from the other engine."""
        t = tutte_dc(m)
        for e in range(m.n):
            if (m.loops() | m.coloops()) >> e & 1:
                continue
            assert t == poly_add(tutte_subset_sum(m.delete(e)),
                                 tutte_subset_sum(m.contract(e)))

    def test_duality_transposes_coefficients(self):
        for m in minimal_matroids(8) + uniform_matroids(6) + graphic_corpus(10, 8):
            assert tutte_dc(m.dual()) == tutte_dc(m).transpose()

    def test_direct_sum_multiplies(self):
        pairs = [(minimal(2, 4), uniform(1, 3)),
                 (uniform(2, 4), uniform(2, 4)),
                 (minimal(3, 5), rank2_from_partition([2, 2])),
                 (uniform(0, 2), minimal(2, 3))]
        for a, b in pairs:
            assert tutte_dc(a.direct_sum(b)) == tutte_dc(a) * tutte_dc(b)

    def test_no_constant_term_when_nonempty(self):
        for m in minimal_matroids(8) + uniform_matroids(6):
            if m.n >= 1:
                assert tutte_dc(m).coeffs[0][0] == 0

    def test_rank2_extreme_coefficients_are_one(self):
        for sizes in ([1, 1, 1], [2, 2], [3, 2, 1], [2, 2, 2, 2]):
            m = rank2_from_partition(sizes)
            t = tutte_dc(m)
            assert t.coeffs[2][0] == 1
            assert t.coeffs[0][m.n - 2] == 1
            assert t.evaluate(2, 0) * t.evaluate(0, 2) >= 2 ** m.n

    def test_orientation_oracle_consistency(self, triangle):
        from splitmw import (
            count_acyclic_orientations,
            count_spanning_trees,
            count_totally_cyclic_orientations,
        )
        t = tutte_dc(graphic(triangle))
        assert t.evaluate(1, 1) == count_spanning_trees(triangle)
        assert t.evaluate(2, 0) == count_acyclic_orientations(triangle)
        assert t.evaluate(0, 2) == count_totally_cyclic_orientations(triangle)

    def test_orientation_identities_hold_with_bridges_and_selfloops(self):
        # the evaluation identities do not need bridgelessness: a bridge
        # forces alpha* = 0 and a self-loop forces alpha = 0, matching the
        # x and y factors of the polynomial
        from splitmw import (
            count_acyclic_orientations,
            count_spanning_trees,
            count_totally_cyclic_orientations,
        )
        from splitmw.corpus import random_multigraphs
        for g in random_multigraphs(12, 9, seed=5150):
            t = tutte_dc(graphic(g))
            assert t.evaluate(1, 1) == count_spanning_trees(g)
            assert t.evaluate(2, 0) == count_acyclic_orientations(g)
            assert t.evaluate(0, 2) == count_totally_cyclic_orientations(g)


class TestMemo:
    def test_tiny_capacity_still_correct(self, monkeypatch):
        monkeypatch.setitem(SIZE_LIMITS, "memo-bytes", 1500)
        memo = TutteMemo()
        m = minimal(5, 10)
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert len(memo) <= 8  # eviction kept the table tiny

    def test_oldest_entry_goes_first(self, monkeypatch):
        keys = [(3, i) for i in range(1, 4)]
        cost = TutteMemo._entry_cost(keys[0], 1)
        monkeypatch.setitem(SIZE_LIMITS, "memo-bytes", 2 * cost)
        memo = TutteMemo()
        memo.put(keys[0], 1)
        memo.put(keys[1], 1)
        assert memo.get(keys[0]) == 1     # a hit does not renew an entry
        memo.put(keys[2], 1)
        assert list(memo._data) == keys[1:]
        assert memo._bytes == 2 * cost

    # a cold run makes the same entries every time, so a new pivot rule or
    # key shows here; the counts are those of `dc_oracle`, all on the bases
    @pytest.mark.parametrize("m, entries", [
        (graphic(PETERSEN), 155), (graphic(K5), 29), (minimal(8, 16), 7),
    ], ids=["petersen", "k5", "minimal-8-16"])
    def test_cold_entry_counts(self, m, entries):
        memo = TutteMemo()
        tutte_dc(m, memo=memo)
        assert len(memo) == entries

    # the recursion itself, node by node: the `_dc` calls and memo entries
    # of one cold run, on Petersen in two edge orders (the labels break
    # degree ties, so the orders give different recursions) and on the
    # seed-4711 perfbench G(9,18)
    @pytest.mark.parametrize("m, bases, calls, entries", [
        (graphic(PETERSEN), 2000, 411, 155),
        (graphic(PETERSEN_ENGINES), 2000, 410, 155),
        (graphic(G918), 5084, 454, 155),
    ], ids=["petersen", "petersen-engines", "g-9-18"])
    def test_cold_recursion_is_pinned(self, m, bases, calls, entries, monkeypatch):
        count = Counter()
        dc = tutte._dc

        def counted(*args):
            count["_dc"] += 1
            return dc(*args)
        monkeypatch.setattr(tutte, "_dc", counted)
        memo = TutteMemo()
        assert len(m.bases) == bases
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert (count["_dc"], len(memo)) == (calls, entries)

    # the closed form comes before a single basis is packed
    @pytest.mark.parametrize("m", [uniform(9, 18), uniform(0, 5), uniform(4, 4)],
                             ids=["U(9,18)", "U(0,5)", "U(4,4)"])
    def test_uniform_root_packs_nothing(self, m, monkeypatch):
        def no_packing(*args):
            raise AssertionError("the bases of a uniform root were packed")
        monkeypatch.setattr(tutte, "to_slots", no_packing)
        monkeypatch.setattr(tutte, "column_view", no_packing)
        assert tutte_dc(m, memo=TutteMemo()) == _uniform_tutte(m.rank, m.n)

    # a full size class's table is its popcount class: no basis is
    # scattered for the independent sets or the subset sum
    def test_uniform_table_scatters_nothing(self, monkeypatch):
        def no_scatter(*args):
            raise AssertionError("the bases of a uniform matroid were scattered")
        monkeypatch.setattr(matroid, "table_of", no_scatter)
        m = uniform(9, 18)
        table = f"{m.independent_sets():0{1 << 18}b}"[::-1]
        assert table == "".join("01"[bin(a).count("1") <= 9]
                                for a in range(1 << 18))
        assert tutte_subset_sum(m) == _uniform_tutte(9, 18)

    # the root is relabeled and sorted once per call, warm or cold, and no
    # node below it sorts
    @pytest.mark.parametrize("m", [
        graphic(PETERSEN), graphic(K5), minimal(8, 16),
        with_loop_and_coloop(minimal(7, 15)),
    ], ids=["petersen", "k5", "minimal-8-16", "minimal-7-15-padded"])
    def test_root_is_relabeled_once(self, m, monkeypatch):
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name, f in [("_canonical", tutte._canonical), ("unpack", tutte.unpack),
                        ("sorted", sorted)]:
            monkeypatch.setattr(tutte, name, counted(name, f), raising=False)
        memo = TutteMemo()
        for _ in range(2):
            assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        # each root sorts its masks once (and its columns in place)
        assert calls == {"_canonical": 2, "unpack": 2, "sorted": 2}

    @given(derived_matroids())
    def test_keys_are_sorted_families(self, m):
        """Each key a cold recursion writes, read at its root's slot width,
        is (n, one int) holding strictly ascending nonzero masks below 2^n,
        all of one size k, fewer than C(n,k), with no empty or full column:
        the bases of a matroid with no loop or coloop."""
        memo = TutteMemo()
        tutte._dc(m.n, m.rank, *_canonical(m.n, m.bases), memo)
        width = slot_width(m.n)
        for key in memo._data:
            n, masks = key[0], key_masks(key, width)
            assert all(masks)
            assert all(a < b for a, b in zip(masks, masks[1:]))
            assert masks[-1] < 1 << n
            k = masks[0].bit_count()
            assert all(b.bit_count() == k for b in masks)
            assert len(masks) < comb(n, k)
            degrees = [sum(b >> e & 1 for b in masks) for e in range(n)]
            assert all(0 < d < len(masks) for d in degrees)

    def test_shared_memo_reuse(self):
        memo = TutteMemo()
        first = tutte_dc(graphic_corpus(1, 8, seed=77)[0], memo=memo)
        size_after_first = len(memo)
        second = tutte_dc(graphic_corpus(1, 8, seed=77)[0], memo=memo)
        assert first == second
        assert len(memo) == size_after_first

    @pytest.mark.parametrize("m", [graphic(PETERSEN), minimal(8, 16)],
                             ids=["petersen", "minimal-8-16"])
    def test_charge_covers_the_keys(self, m):
        memo = TutteMemo()
        tutte_dc(m, memo=memo)
        assert len(memo) > 0
        assert memo._bytes == measured_bytes(memo)

    def test_charge_is_measured_after_traces(self, monkeypatch):
        # the process-wide memo that `trace` fills through `check_mw`: the
        # sparse paving leaves take the closed form, and the grown ones'
        # leaves make entries
        memo = TutteMemo()
        monkeypatch.setattr(tutte, "_global_memo", memo)
        for seed in range(3):
            assert trace(sparse_paving(4, 9, 6, seed)).verified
            assert trace(grown_sparse_paving(4, 9, 6, seed)).verified
        assert len(memo) > 0
        assert memo._bytes == measured_bytes(memo)

    # the arithmetic charge is what sys.getsizeof measures: over random
    # keys and packed polynomials, 0 and the digit edges included
    def test_charge_is_what_getsizeof_measures(self):
        rng = random.Random(4711)
        packed = [0, 1, (1 << 30) - 1, 1 << 30, (1 << 60) - 1, 1 << 60]
        packed += [rng.getrandbits(rng.randrange(1, 4000)) for _ in range(4000)]
        for p in packed:
            key = (rng.randint(1, 24), rng.getrandbits(rng.randrange(3200)))
            assert TutteMemo._entry_cost(key, p) == (
                sys.getsizeof(key) + sys.getsizeof(key[1]) + sys.getsizeof(p))


def measured_bytes(memo):
    """The objects a memo holds, sized one by one: each key pair, its packed
    int and its packed polynomial (n, a small int, is shared)."""
    return sum(sys.getsizeof(key) + sys.getsizeof(key[1]) + sys.getsizeof(packed)
               for key, packed in memo._data.items())


class TestPackedPolynomials:
    """One int per polynomial in both engines: fields wide enough for the
    largest coefficient at the widest shapes the limits allow, and a
    refusal past the limits the fields were sized for."""

    def test_round_trip_at_the_limit(self):
        limit = SIZE_LIMITS["deletion-contraction"]
        largest = comb(limit, limit // 2)     # the most bases, so T(1,1)
        widest = _uniform_tutte(limit // 2, limit)
        assert widest.evaluate(1, 1) == largest
        filled = [TuttePolynomial([[largest] * (limit - r + 1)] * (r + 1))
                  for r in (0, limit // 2, limit)]
        for t in [widest, *filled]:
            assert _unpack(pack_oracle(t), t.x_degree_bound, t.y_degree_bound) == t

    # the Horner expansion, coefficient by coefficient, at the widest shape,
    # against the corank-nullity sum by size: no C(24,12) bases are built
    def test_widest_closed_form_is_packed_exactly(self):
        limit = SIZE_LIMITS["deletion-contraction"]
        k, n = limit // 2, limit
        coeffs = uniform_tutte_oracle(k, n)
        t = TuttePolynomial([[coeffs.get((i, j), 0) for j in range(n - k + 1)]
                             for i in range(k + 1)])
        assert _uniform_packed(k, n) == pack_oracle(t)

    def test_ground_set_past_the_fields_is_refused(self, monkeypatch):
        # C(25,12) needs 23 bits, one more than the fields sized at import
        limit = SIZE_LIMITS["deletion-contraction"]
        monkeypatch.setitem(SIZE_LIMITS, "deletion-contraction", limit + 1)
        with pytest.raises(LimitExceededError,
                           match=f"size {limit + 1} exceeds the {limit} elements"):
            tutte_dc(minimal(limit // 2, limit + 1), memo=TutteMemo())

    def test_subset_sum_past_the_fields_is_refused(self, monkeypatch):
        # subset-sum writes the same fields, so a "tables" limit raised past
        # them is refused too, before any table is built
        fitted = max(SIZE_LIMITS["deletion-contraction"], SIZE_LIMITS["tables"])
        monkeypatch.setitem(SIZE_LIMITS, "tables", fitted + 1)

        def no_tables(m):
            raise AssertionError("tables were built past the fields")
        monkeypatch.setattr(tutte, "whitney_numbers", no_tables)
        with pytest.raises(LimitExceededError,
                           match=f"size {fitted + 1} exceeds the {fitted} elements"):
            tutte_subset_sum(uniform(1, fitted + 1))


class TestPolynomialType:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            TuttePolynomial(((1, -1),))

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValueError):
            TuttePolynomial(((1, 0), (1,)))

    @pytest.mark.parametrize("coeffs", [[[2.7, 3]], [[2, "3"]], [[True, 0]],
                                        [[1, 0], [0, 1.0]]])
    def test_rejects_coefficients_that_are_not_exact_ints(self, coeffs):
        # bool is an int subclass, and nothing is coerced with int()
        with pytest.raises(InputError, match="coefficient must be an integer"):
            TuttePolynomial(coeffs)

    def test_round_trip_with_big_integers(self):
        t = tutte_dc(uniform(1, 20))
        d = t.to_dict()
        assert d["coeffs"][0][19] == "1"
        assert tutte_from_dict(d) == t
        assert t.evaluate(0, 2) == 2 ** 20 - 2

    def test_from_dict_validates_shape(self):
        with pytest.raises(ValueError):
            tutte_from_dict({"format": "tutte-v1", "rank": 2, "corank": 0,
                             "coeffs": [["1"]]})

    @pytest.mark.parametrize("record", [
        {"format": "tutte-v1", "rank": True, "corank": 1.0,
         "coeffs": [[0, 1.9], [True, "0"]]},
        {"format": "tutte-v1", "rank": True, "corank": 1, "coeffs": [["0", "1"]]},
        {"format": "tutte-v1", "rank": 0, "corank": 1.0, "coeffs": [["0", "1"]]},
        {"format": "tutte-v1", "rank": 0, "corank": 1, "coeffs": [["0", 1]]},
        {"format": "tutte-v1", "rank": 0, "corank": 1, "coeffs": [["0", "-1"]]},
        {"format": "tutte-v1", "rank": 0, "corank": 1, "coeffs": [["0", "\u00b9"]]},
        {"format": "tutte-v1", "rank": 0, "corank": 1, "coeffs": [["0", ""]]},
        {"format": "tutte-v1", "rank": 0, "corank": 1, "coeffs": ["01"]},
        {"format": "tutte-v1", "rank": 1, "corank": 1, "coeffs": [["0", "1"], ["1"]]},
        {"format": "tutte-v1", "rank": 0, "coeffs": [["1"]]},
        {"format": "tutte-v2", "rank": 0, "corank": 0, "coeffs": [["1"]]},
        [["1"]],
        "tutte-v1",
    ], ids=["issue-example", "bool-rank", "float-corank", "int-coefficient",
            "negative-string", "superscript-digit", "empty-string", "row-not-list",
            "ragged", "missing-corank", "wrong-format", "list", "string"])
    def test_from_dict_is_strict(self, record):
        with pytest.raises(InputError):
            tutte_from_dict(record)

    def test_subset_sum_limit(self):
        with pytest.raises(LimitExceededError):
            tutte_subset_sum(uniform(1, SIZE_LIMITS["tables"] + 1))

    def test_dc_limit(self):
        with pytest.raises(LimitExceededError):
            tutte_dc(uniform(1, SIZE_LIMITS["deletion-contraction"] + 1))
