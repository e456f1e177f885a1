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
    check_mw,
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
from splitmw import bitset, matroid, tutte
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
    classes_oracle,
    dc_oracle,
    dense_to_sparse,
    derived_matroids,
    every_family,
    grown_sparse_paving,
    node_matroid,
    oracle_tutte_coeffs,
    pack_oracle,
    packed_oracle,
    pairwise_exchange_violation,
    paving_matroids,
    paving_tutte_oracle,
    poly_add,
    sparse_paving,
    sparse_paving_matroids,
    sparse_paving_tutte_oracle,
    simplification_oracle,
    strip_oracle,
    uniform_tutte_oracle,
    whitney_numbers_oracle,
    width_oracle,
    parallel_copies,
    with_parallel_classes,
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


def theta(*lengths):
    """The cycle matroid of the theta graph: paths of these lengths, each
    of two or more edges but at most one, between two vertices, so it has
    series classes and no parallel pair.  Its elements are the paths' edges
    path by path, and its spanning trees leave out one edge of each of two
    paths."""
    paths, start = [], 0
    for length in lengths:
        paths.append(range(start, start + length))
        start += length
    full = (1 << start) - 1
    return Matroid(start, start - len(lengths) + 1,
                   [full ^ 1 << e ^ 1 << f for p, q in combinations(paths, 2)
                    for e in p for f in q])


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
        for module, name in [(tutte, "to_slots"), (tutte, "popcount_classes"),
                             (matroid, "table_of")]:
            monkeypatch.setattr(module, name, no_packing)
        monkeypatch.setitem(SIZE_LIMITS, "tables", 4)
        memo = TutteMemo()
        assert dense_to_sparse(tutte_dc(m, memo=memo)) == sparse_paving_tutte_oracle(m)
        assert not memo

    # U(1,5) plus a loop, k = 1: the loop's singleton is the one non-basis,
    # so it is isolated; the others' non-bases are not.  The sparse paving
    # (7,16) with one circuit-hyperplane grown into an 8-element
    # hyperplane has 7 more non-bases, each next to it: paving, it closes
    # too.  M(K5)'s triangles with an edge share 3 edges, and those sets
    # of 4 edges are no hyperplanes, so it recurses on its bases.  Rank 2
    # with classes of 3 has non-bases {a,b} and {a,c} in each class, the
    # pairs of three hyperplanes, and closes as well.
    @pytest.mark.parametrize("m, closed", [
        (uniform(1, 5).direct_sum(uniform(0, 1)), True),
        (grown_sparse_paving(7, 16, 150, 6), True),
        (graphic(K5), False),
        (rank2_from_partition([3, 3, 3]), True),
    ], ids=["u15-loop", "7-16-150-grown", "k5", "rank2-333"])
    def test_root_rule_against_subset_sum(self, m, closed):
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert (not memo) == closed

    # only a root with more bases than non-bases reads its non-bases, so
    # the held k-sets of `matroid._k_sets` are never built for the others: the tie
    # (18 of the 36 pairs), Petersen and minimal(8,16).  Their
    # simplifications are not read for non-bases either, though those of
    # the tie and of minimal(8,16), U(2,2) and U(8,9), have more bases.
    @pytest.mark.parametrize("m", [
        rank2_from_partition([6, 3]), graphic(PETERSEN), minimal(8, 16),
    ], ids=["rank2-63-tie", "petersen", "minimal-8-16"])
    def test_other_roots_read_no_non_bases(self, m, monkeypatch):
        def no_k_sets(*args):
            raise AssertionError("the k-sets of a root with few bases were read")
        monkeypatch.setattr(matroid, "_k_sets", no_k_sets)
        assert tutte_dc(m, memo=TutteMemo()) == tutte_subset_sum(m)

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
        read, k_sets_of = [], matroid._k_sets

        def k_sets(n, k):
            read.append((n, k))
            return k_sets_of(n, k)
        # subset-sum's independent sets read the non-bases of a dense
        # family too, so it runs on a copy first
        expected = tutte_subset_sum(Matroid(m.n, m.rank, m.bases))
        monkeypatch.setattr(tutte, "_dc", no_recursion)
        monkeypatch.setattr(matroid, "_k_sets", k_sets)
        assert 2 * len(m.bases) > comb(m.n, m.rank)
        assert m.loops() or m.coloops()
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == expected
        assert not memo
        assert read == [core]

    # a root that is not dense, but whose core, less its loops and coloops,
    # is: the sparse paving (7,16) has 11,290 of C(16,7) = 11,440 7-sets, so
    # beside a coloop 11,290 of C(17,8) = 24,310 8-sets.  One column pass
    # strips them, and the core, alone, takes the closed form on its own
    # bases and k-sets, with no node
    @pytest.mark.parametrize("m", [
        sparse_paving(7, 16, 150, 6).direct_sum(uniform(1, 1)),
        uniform(0, 1).direct_sum(sparse_paving(7, 16, 150, 6)).direct_sum(uniform(1, 1)),
    ], ids=["7-16-150-coloop", "loop-7-16-150-coloop"])
    def test_dense_core_of_a_sparse_root_takes_the_closed_form(self, m, monkeypatch):
        def no_recursion(*args):
            raise AssertionError("a root with a sparse paving core recursed")
        read, rule = [], tutte._paving

        def recorded(m):
            packed = rule(m)
            if packed is not None:
                read.append((m.n, m.rank, m.bases))
            return packed
        monkeypatch.setattr(tutte, "_dc", no_recursion)
        monkeypatch.setattr(tutte, "_paving", recorded)
        assert 2 * len(m.bases) <= comb(m.n, m.rank)
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert not memo
        assert read == [(16, 7, sparse_paving(7, 16, 150, 6).bases)]

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
    # root is paving but not sparse paving, and closes all the same if it
    # has more bases than non-bases
    @given(sparse_paving_matroids(grow=True))
    def test_engines_agree_with_a_grown_hyperplane(self, drawn):
        m, clean = drawn
        memo = TutteMemo()
        t = tutte_dc(m, memo=memo)
        assert t == tutte_subset_sum(m)
        assert (dense_to_sparse(t) == sparse_paving_tutte_oracle(m)) == clean
        if 2 * len(m.bases) > comb(m.n, m.rank):
            assert dense_to_sparse(t) == paving_tutte_oracle(m)
            assert not memo


class TestPaving:
    """The root rule for paving roots with more bases than non-bases:
    T(U(k,n)) plus (xy - x - y) times each hyperplane's weight, with no
    node and no memo entry, against subset-sum, which has no such rule."""

    @given(paving_matroids(12))
    def test_rule_against_subset_sum(self, drawn):
        m, hyperplanes = drawn
        memo = TutteMemo()
        t = tutte_dc(m, memo=memo)
        assert t == tutte_subset_sum(m)
        assert _unpack(tutte._paving(m), m.rank, m.n - m.rank) == t
        assert dense_to_sparse(t) == paving_tutte_oracle(m)
        assert not memo

    # the grown root of the probe inputs: one hyperplane of 8 elements,
    # the 149 others of 7
    def test_grown_root_closes(self, monkeypatch):
        def no_recursion(*args):
            raise AssertionError("a paving root recursed")
        m = grown_sparse_paving(7, 16, 150, 6)
        expected = tutte_subset_sum(Matroid(m.n, m.rank, m.bases))
        monkeypatch.setattr(tutte, "_dc", no_recursion)
        monkeypatch.setattr(tutte, "_classes", no_recursion)
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == expected
        assert not memo
        assert Counter(map(int.bit_count, m.hyperplanes())) == {7: 149, 8: 1}

    # a hyperplane H of k or more elements weighs the sum of
    # C(|H|,s)*(y-1)^(s-k) over s = k..|H|
    def test_hyperplane_weight(self):
        z = (1 << tutte._FIELD) - 1     # y - 1, packed
        assert tutte._hyperplane_weight(3, 3) == 1
        assert tutte._hyperplane_weight(3, 4) == 4 + z
        assert tutte._hyperplane_weight(2, 5) == 10 + 10 * z + 5 * z ** 2 + z ** 3


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


def check_column_pass(m):
    """The root's packing and every node of the recursion below it against
    the one-basis-at-a-time oracles: `_canonical` on the columns of m's
    core, less its loops and coloops, gives the simplification of
    `simplification_oracle` in the slot width of its own elements, with
    its class sizes; then each `_dc` call below the class layer, its
    stripped family or its children of the pivot, n-1, equal to
    `dc_node_oracle`'s under `classes_oracle`, call by call, and the same
    polynomial."""
    core_n, core, ncoloops, _ = strip_oracle(m.n, tuple(sorted(m.bases)))
    k = m.rank - ncoloops
    n, simple, sizes = simplification_oracle(core_n, core)
    width = width_oracle(n)
    root = (n, packed_oracle(simple, width), packed_oracle([1] * len(simple), width), sizes)
    wide = width_oracle(m.n)     # the root's own columns, a bit per slot
    cols = [packed_oracle([b >> e & 1 for b in core], wide) for e in range(core_n)]
    assert _canonical(k, cols, len(core), wide) == root
    calls, oracle_calls = [], []
    dc = tutte._dc

    def recorded(*args):
        calls.append(args[:4])
        return dc(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tutte, "_dc", recorded)
        packed = tutte._classes(n, k, *root[1:], TutteMemo())
    expected = classes_oracle(n, simple, sizes, width, OracleMemo(), oracle_calls)
    assert calls == oracle_calls
    assert _unpack(packed, k, core_n - k) == expected


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
    # and the deletion-contraction limit, 24: thetas, with no parallel
    # pair, recurse on all their elements; minimal matroids, whose
    # simplifications are U(k,k+1), recurse in the slots of k+1 elements
    @pytest.mark.parametrize("m", [
        theta(3, 3, 2), theta(3, 3, 3), theta(6, 5, 5), theta(6, 6, 5), theta(8, 8, 8),
        with_loop_and_coloop(theta(3, 2, 2)), with_loop_and_coloop(theta(5, 5, 5)),
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
        # brings it to 9 or 17 elements (or past, for a large m), which the
        # simplification takes back below the slot-width edge
        core = m.restrict(m.full_mask & ~(m.loops() | m.coloops()))
        for size in (9, 17):
            padded = with_loop_and_coloop(
                core.direct_sum(uniform(1, max(size - core.n, 2))))
            assert tutte_dc(padded, memo=TutteMemo()) == tutte_subset_sum(padded)

    # a root whose loops and coloops take it from 17 elements to 16 or
    # fewer, or from 9 to 8 or fewer: the root's column pass strips them
    # before it packs, so the run recurses in its core's narrower slots and
    # makes exactly the entries of its core's run, keys included
    @pytest.mark.parametrize("core, loops, coloops", [
        (theta(6, 5, 5), 1, 0), (theta(6, 5, 5), 0, 1), (graphic(PETERSEN), 1, 1),
        (theta(3, 3, 2), 1, 0), (theta(3, 3, 2), 0, 1), (theta(3, 2, 2), 1, 1),
    ], ids=["17-16-loop", "17-16-coloop", "17-15", "9-8-loop", "9-8-coloop", "9-7"])
    def test_strip_across_slot_width_edge(self, core, loops, coloops):
        padded = uniform(0, loops).direct_sum(core).direct_sum(uniform(coloops, coloops))
        assert slot_width(padded.n) > slot_width(core.n)
        memo, core_memo = TutteMemo(), TutteMemo()
        assert tutte_dc(padded, memo=memo) == tutte_subset_sum(padded)
        tutte_dc(core, memo=core_memo)
        assert memo
        assert memo._data == core_memo._data

    # one memo across slot widths: a theta of 16 elements in 2-byte slots
    # makes 10 entries, and its 17-element padding, stripped to the same
    # core in the same slots, finds them all; each run is what a fresh
    # memo gives
    def test_one_memo_across_slot_widths(self):
        core = theta(6, 5, 5)
        padded = uniform(0, 1).direct_sum(core)
        memo = TutteMemo()
        for m in (core, padded):
            t = tutte_dc(m, memo=memo)
            assert t == tutte_subset_sum(m) == tutte_dc(m, memo=TutteMemo())
        assert len(memo) == 10

    # the default "memo-bytes" limit, one under which Petersen with a chord
    # ends with 1 of the 161 entries it makes with room for all, its root's,
    # and one under which it ends with 52.  The Fano plane, M(K4), the
    # sparse paving (5,10), U(3,6) less a basis and the rank-2 partition
    # (1,2,3,2) are paving, so both take the closed form and make no entry;
    # so do the sums of a sparse paving (3,7) with a loop and of a (4,7)
    # with a coloop, which have more bases than non-bases, on their cores.
    # M(K5) has more but is not paving, and the tie (18 of the 36 pairs)
    # has as many: they and the rest recurse on their simplifications'
    # bases, the tie, minimal(5,10) and the padded minimal(4,8) over their
    # parallel classes first.
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
            assert list(memo._data.values()) == list(oracle_memo._data.values())
            assert memo._bytes == oracle_memo._bytes


class TestParallelClasses:
    """Deletion-contraction over the root's parallel classes: one weighted
    step per class of two or more, on the simplification's bases, against
    subset-sum and the oracle's own class layer."""

    @given(with_parallel_classes(13))
    def test_engines_and_oracle_agree(self, m):
        t = tutte_dc(m, memo=TutteMemo())
        assert t == tutte_subset_sum(m)
        assert t == dc_oracle(m.n, tuple(sorted(m.bases)), OracleMemo())
        check_column_pass(m)

    # a class of 3 beside U(2,4); three pairs, each a coloop of the
    # simplification, U(3,3); a class of 4 beside a pair; a theta of two
    # paths of one edge and one of two; a triangle with every edge doubled,
    # sparse paving at the root; a loop beside a class of 4
    @pytest.mark.parametrize("m", [
        uniform(1, 3).direct_sum(uniform(2, 4)),
        uniform(1, 2).direct_sum(uniform(1, 2)).direct_sum(uniform(1, 2)),
        minimal(3, 7).direct_sum(uniform(1, 2)),
        graphic(Multigraph(3, [(0, 1), (0, 1), (0, 2), (2, 1)])),
        graphic(Multigraph(3, [(0, 1), (1, 2), (2, 0)] * 2)),
        uniform(0, 1).direct_sum(minimal(3, 7)),
    ], ids=["u13-u24", "u12-cubed", "minimal-3-7-u12", "theta-4", "triangle-doubled",
            "loop-minimal-3-7"])
    def test_fixed_classes(self, m):
        t = tutte_dc(m, memo=TutteMemo())
        assert t == tutte_subset_sum(m)
        assert t == dc_oracle(m.n, tuple(sorted(m.bases)), OracleMemo())
        check_column_pass(m)

    # a class takes the root below a slot-width edge: Petersen with two
    # edges doubled from 17 elements in 4-byte slots to 15 in 2-byte ones,
    # a theta with one edge doubled from 9 to 8 in 1-byte slots, and that
    # theta beside a loop and a coloop from 11; the root packs its
    # simplification in the narrower slots (`check_column_pass`), and
    # every key is a family in them
    @pytest.mark.parametrize("m, n", [
        (graphic(Multigraph(10, list(PETERSEN.edges) + [(0, 1), (5, 7)])), 15),
        (parallel_copies(theta(3, 3, 2), 0, 1), 8),
        (with_loop_and_coloop(parallel_copies(theta(3, 3, 2), 0, 1)), 8),
    ], ids=["17-15", "9-8", "11-8"])
    def test_class_across_slot_width_edge(self, m, n):
        assert slot_width(m.n) > slot_width(n)
        check_column_pass(m)
        memo = TutteMemo()
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert memo
        for key in memo._data:
            masks = key_masks(key, slot_width(n))
            assert key[0] < n and masks[-1] < 1 << key[0]

    # deletion-contraction finds the classes in its own root columns, and
    # never takes subset-sum's path through the fundamental circuits
    @pytest.mark.parametrize("m", [
        graphic(G918), minimal(8, 16), rank2_from_partition([3, 3, 3]),
        uniform(0, 1).direct_sum(minimal(3, 7)),
    ], ids=["g-9-18", "minimal-8-16", "rank2-333", "loop-minimal-3-7"])
    def test_no_simplification_is_read(self, m, monkeypatch):
        expected = tutte_subset_sum(m)

        def no_simplification(self):
            raise AssertionError("deletion-contraction read Matroid.simplification")
        monkeypatch.setattr(Matroid, "simplification", no_simplification)
        fresh = Matroid(m.n, m.rank, m.bases)
        assert tutte_dc(fresh, memo=TutteMemo()) == expected


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


class TestRootSlots:
    """A root read off the slots its constructor kept, in the caller's order,
    or off its set: the same polynomial and the same memo keys either way."""

    @pytest.mark.parametrize("m", [
        graphic(PETERSEN_ENGINES), graphic(G918),
        graphic(PETERSEN).direct_sum(uniform(0, 1)).direct_sum(uniform(1, 1)),
    ], ids=["petersen", "g-9-18", "loop-and-coloop"])
    def test_any_order_or_iterable(self, m):
        masks = sorted(m.bases)
        random.Random(7).shuffle(masks)
        expected = tutte_subset_sum(m)
        keys = []
        for given, kept in [(masks, True), (masks + masks[:3], False),
                            ((b for b in masks), False), (frozenset(masks), False)]:
            built = Matroid(m.n, m.rank, given)
            assert ("slots" in built._cache) == kept
            memo = TutteMemo()
            assert tutte_dc(built, memo=memo) == expected
            keys.append(list(memo._data))
        assert keys[0] and all(k == keys[0] for k in keys)

    def test_list_built_root_packs_nothing_again(self, monkeypatch):
        def no_view(*args):
            raise AssertionError("the root's columns were packed from its set")
        monkeypatch.setattr(bitset, "column_view", no_view)
        packed = []
        real = tutte.to_slots
        monkeypatch.setattr(tutte, "to_slots",
                            lambda masks, width: packed.append(masks) or real(masks, width))
        m = graphic(PETERSEN_ENGINES)
        assert "slots" in m._cache
        assert tutte_dc(m, memo=TutteMemo()) == tutte_subset_sum(m)
        assert packed and not any(masks is m.bases for masks in packed)


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
    # key shows here; the counts are those of `dc_oracle`, all on the bases.
    # minimal(8,16) makes none: its class of 8 is one weighted step, and
    # both minors of its simplification, U(8,8) and U(7,8), are closed forms
    @pytest.mark.parametrize("m, entries", [
        (graphic(PETERSEN), 155), (graphic(K5), 29), (minimal(8, 16), 0),
    ], ids=["petersen", "k5", "minimal-8-16"])
    def test_cold_entry_counts(self, m, entries):
        memo, oracle_memo = TutteMemo(), OracleMemo()
        tutte_dc(m, memo=memo)
        dc_oracle(m.n, tuple(sorted(m.bases)), oracle_memo)
        assert len(memo) == len(oracle_memo) == entries

    # the recursion itself, node by node: the `_dc` calls and memo entries
    # of one cold run, on Petersen in two edge orders (the labels break
    # degree ties, so the orders give different recursions) and on the
    # seed-4711 perfbench G(9,18), whose three parallel pairs leave a
    # simplification of 15 elements and 1,275 bases, pivoted pair by pair
    # first; the counts are those of `dc_oracle`
    @pytest.mark.parametrize("m, bases, calls, entries", [
        (graphic(PETERSEN), 2000, 411, 155),
        (graphic(PETERSEN_ENGINES), 2000, 410, 155),
        (graphic(G918), 5084, 177, 57),
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
        oracle_calls, oracle_memo = [], OracleMemo()
        dc_oracle(m.n, tuple(sorted(m.bases)), oracle_memo, oracle_calls)
        assert (len(oracle_calls), len(oracle_memo)) == (calls, entries)

    # the closed form comes before a single basis is packed
    @pytest.mark.parametrize("m", [uniform(9, 18), uniform(0, 5), uniform(4, 4)],
                             ids=["U(9,18)", "U(0,5)", "U(4,4)"])
    def test_uniform_root_packs_nothing(self, m, monkeypatch):
        def no_packing(*args):
            raise AssertionError("the bases of a uniform root were packed")
        monkeypatch.setattr(tutte, "to_slots", no_packing)
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

    # a family with more bases than non-bases scatters only those, off its
    # size class: the sparse paving (7,16) its 150 non-bases, not its
    # 11,290 bases, with no closure, since it is paving; M(K5) its 85, then
    # closes the table, since its triangles are circuits
    @pytest.mark.parametrize("m, scattered, closed", [
        (sparse_paving(7, 16, 150, 6), 150, False), (graphic(K5), 85, True),
    ], ids=["7-16-150", "k5"])
    def test_dense_table_scatters_the_non_bases(self, m, scattered, closed,
                                                 monkeypatch):
        expected = bitset.down_closure(bitset.table_of(m.bases, m.n), m.n)
        counts, closures = [], []

        def recorded(masks, n):
            counts.append(len(masks))
            return bitset.table_of(masks, n)

        def closure(table, n):
            closures.append(n)
            return bitset.down_closure(table, n)
        monkeypatch.setattr(matroid, "table_of", recorded)
        monkeypatch.setattr(matroid, "down_closure", closure)
        assert m.independent_sets() == expected
        assert counts == [scattered] and bool(closures) == closed

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
        """Each key a cold recursion from the root's column pass writes,
        read at the slot width of the root's simplification, is (n, one int)
        holding strictly ascending nonzero masks below 2^n, all of one size
        k, fewer than C(n,k), with no empty or full column: the bases of a
        matroid with no loop or coloop."""
        memo = TutteMemo()
        tutte._root(m.n, m.rank, m.bases, memo)
        width = slot_width(simplification_oracle(*strip_oracle(m.n, tuple(m.bases))[:2])[0])
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

    @pytest.mark.parametrize("m", [graphic(PETERSEN), graphic(G918)],
                             ids=["petersen", "g-9-18"])
    def test_charge_covers_the_keys(self, m):
        memo = TutteMemo()
        tutte_dc(m, memo=memo)
        assert len(memo) > 0
        assert memo._bytes == measured_bytes(memo)

    def test_charge_is_measured_after_traces(self, monkeypatch):
        # the process-wide memo that `check_mw` fills on the matroids that
        # `trace` certifies and on their leaves (the trace itself runs no
        # engine): the sparse paving and grown roots take the closed form,
        # and the grown ones' duals, which are not paving, make entries
        memo = TutteMemo()
        monkeypatch.setattr(tutte, "_global_memo", memo)
        for seed in range(3):
            grown = grown_sparse_paving(4, 9, 6, seed)
            for m in (sparse_paving(4, 9, 6, seed), grown, grown.dual()):
                t = trace(m)
                assert t.verified and check_mw(m) == t.root.mw
                for node in t.walk():
                    if not node.children:
                        assert check_mw(node_matroid(node)) == node.mw
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
