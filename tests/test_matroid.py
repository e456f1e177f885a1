import random
import sys
import time
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitmw import (
    EmptyBasesError,
    ExchangeViolationError,
    InputError,
    LimitExceededError,
    Matroid,
    Multigraph,
    SplitMWError,
    WrongBasisSizeError,
    cyclic_flats,
    from_bases,
    graphic,
    matroid_from_dict,
    minimal,
    rank2_from_partition,
    recognize_minimal,
    trace,
    tutte_subset_sum,
    uniform,
)
from splitmw import matroid as matroid_module
from splitmw.bitset import (bits, checked_slots, columns, element_masks, lex_order,
                            mask_of, place, popcount_classes, slot_ones, slot_width,
                            table_of, to_slots, unpack, up_closure)
from splitmw.corpus import (
    graphic_corpus,
    minimal_matroids,
    tutte_identity_corpus,
    uniform_matroids,
)
from splitmw.errors import SIZE_LIMITS, require_int
from splitmw.flats import _by_size, _flat_table, is_paving

from conftest import (
    PETERSEN,
    brute_isomorphic,
    closure_oracle,
    coloops_oracle,
    components_oracle,
    connected_by_partition_oracle,
    contract_oracle,
    delete_oracle,
    derived_matroids,
    every_family,
    independence_table_oracle,
    is_exchange_witness,
    is_paving_oracle,
    loops_oracle,
    pairwise_exchange_violation,
    parallel_classes_oracle,
    rank_oracle,
    rank_table_oracle,
    restrict_oracle,
    sparse_paving,
    to_dict_oracle,
    trace_oracle,
    with_parallels_and_loops,
)


class TestConstructors:
    def test_from_bases_smallest_clean_matroid(self):
        m = from_bases(2, 1, [[0], [1]])
        assert m == uniform(1, 2)

    def test_from_bases_allows_loops(self):
        m = from_bases(3, 1, [[0], [1]])
        assert bits(m.loops()) == [2]

    def test_from_bases_exchange_violation_with_witness(self):
        with pytest.raises(ExchangeViolationError) as exc:
            from_bases(4, 2, [[0, 1], [2, 3]])
        err = exc.value
        assert sorted([err.basis1, err.basis2]) == [(0, 1), (2, 3)]
        assert err.element in err.basis1

    def test_from_bases_rejects_empty(self):
        with pytest.raises(EmptyBasesError):
            from_bases(3, 1, [])

    def test_from_bases_rejects_wrong_size(self):
        with pytest.raises(WrongBasisSizeError):
            from_bases(3, 2, [[0, 1], [2]])

    def test_from_bases_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_bases(3, 1, [[5]])

    @pytest.mark.parametrize("n, rank, bases", [
        (True, 1, [[0]]),
        (2, 1.0, [[0]]),
        (2, 1, [[0.0]]),
        (2, 1, [[False], [1]]),
        (2, 2, [[0, 0]]),
        (2, 1, [[0], [0], [1]]),
        (3, 2, [[0, 1], [1, 0], [1, 2]]),
    ])
    def test_from_bases_rejects_malformed(self, n, rank, bases):
        with pytest.raises(InputError):
            from_bases(n, rank, bases)

    @pytest.mark.parametrize("bases, message", [
        ([[0, 1], [1, 2], [2, True]], "element must be an integer, got True"),
        ([[0, 1], [0, 5], [1, 2.0]], "element 5 outside ground set of size 4"),
        ([[0, 1], [2, -1], [1, "x"]], "element -1 outside ground set of size 4"),
        ([[0, 1], [1, 1], [7, 1]], "basis [1, 1] repeats an element"),
        ([[0, 1], [1, 0], [0, 9]], "basis [0, 1] is listed more than once"),
        ([[0, 1], [1, 2], [3, 3, 0]], "basis [3, 3, 0] repeats an element"),
        # only ints, and every basis of size 2
        ([[0, 1], [2, -1], [1, 3]], "element -1 outside ground set of size 4"),
        ([[0, 1], [1, 2], [3, 4]], "element 4 outside ground set of size 4"),
        ([[0, 1], [2, 2], [1, 3]], "basis [2, 2] repeats an element"),
        ([[0, 1], [2, 1], [1, 2]], "basis [1, 2] is listed more than once"),
    ])
    def test_from_bases_names_the_first_offender(self, bases, message):
        with pytest.raises(InputError) as exc:
            from_bases(4, 2, bases)
        assert str(exc.value) == message

    @given(st.integers(0, 5), st.integers(0, 3),
           st.lists(st.lists(st.one_of(st.integers(-1, 5), st.sampled_from(
               [True, False, 1.0, "1", None])), max_size=3), max_size=6))
    def test_from_bases_agrees_with_the_element_loop(self, n, rank, bases):
        assert outcome(from_bases, n, rank, bases) == \
            outcome(reference_from_bases, n, rank, bases)

    def test_uniform_small(self):
        assert uniform(1, 2).bases == frozenset({0b01, 0b10})
        assert len(uniform(2, 4).bases) == 6
        m = uniform(0, 3)
        assert m.bases == frozenset({0})
        assert bits(m.loops()) == [0, 1, 2]

    def test_uniform_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            uniform(3, 2)

    def test_minimal_basis_count(self):
        assert len(minimal(4, 7).bases) == 4 * 3 + 1
        for n in range(2, 10):
            for k in range(1, n):
                assert len(minimal(k, n).bases) == k * (n - k) + 1

    def test_minimal_degenerate_is_uniform(self):
        assert minimal(1, 2) == uniform(1, 2)

    def test_minimal_2_3_isomorphic_to_uniform(self):
        assert brute_isomorphic(minimal(2, 3), uniform(2, 3))

    def test_minimal_rejects_bad_range(self):
        with pytest.raises(ValueError):
            minimal(0, 3)
        with pytest.raises(ValueError):
            minimal(3, 3)

    def test_rank2_partition_pair_counts(self):
        # (n^2 - sum a_i^2) / 2 cross-pair count
        for sizes in ([2, 2], [3, 1, 1], [2, 2, 1], [4, 3, 2]):
            n = sum(sizes)
            expected = (n * n - sum(a * a for a in sizes)) // 2
            assert len(rank2_from_partition(sizes).bases) == expected

    def test_rank2_partition_coloop_pattern(self):
        m = rank2_from_partition([1, 1])
        assert m == uniform(2, 2)
        assert bits(m.coloops()) == [0, 1]
        assert rank2_from_partition([3, 1]).coloops() != 0
        assert rank2_from_partition([3, 1, 1]).coloops() == 0

    def test_rank2_partition_rejects_single_class(self):
        with pytest.raises(ValueError):
            rank2_from_partition([4])

    def test_graphic_triangle(self, triangle):
        assert graphic(triangle) == uniform(2, 3)

    def test_graphic_figure_graph_is_minimal(self, figure_graph):
        m = graphic(figure_graph)
        assert len(m.bases) == 13
        assert brute_isomorphic(m, minimal(4, 7))

    def test_graphic_self_loop(self):
        m = graphic(Multigraph(1, [(0, 0)]))
        assert m.rank == 0
        assert bits(m.loops()) == [0]

    def test_graphic_edge_limit(self):
        g = Multigraph(2, [(0, 1)] * (SIZE_LIMITS["spanning-forests"] + 1))
        from splitmw import LimitExceededError
        with pytest.raises(LimitExceededError):
            graphic(g)


def relabel(m, perm):
    """m with element e renamed perm[e]."""
    return Matroid(m.n, m.rank, (mask_of(perm[e] for e in bits(b))
                                 for b in m.bases))


class TestRecognizeMinimal:
    def test_agrees_with_brute_force_sweep(self):
        # every family of equal-size subsets on at most 5 elements, most of
        # them not matroids: recognized exactly when isomorphic to T_{k,n}
        for n in range(1, 6):
            for m in every_family(n):
                k = m.rank
                expected = (1 <= k <= n - 1
                            and brute_isomorphic(m, minimal(k, n)))
                assert recognize_minimal(m) == ((k, n) if expected else None), m

    def test_minimal_dual_is_minimal(self):
        for n in range(2, 9):
            for k in range(1, n):
                assert recognize_minimal(minimal(k, n).dual()) == (n - k, n)

    def test_recognize_minimal_family(self):
        for m in minimal_matroids(9):
            assert recognize_minimal(m) == (m.rank, m.n)

    def test_recognize_minimal_after_relabeling(self):
        m = relabel(minimal(3, 7), [6, 2, 4, 0, 5, 1, 3])
        assert recognize_minimal(m) == (3, 7)

    def test_recognize_minimal_rejects_uniform_with_extra_bases(self):
        assert recognize_minimal(uniform(2, 4)) is None
        assert recognize_minimal(uniform(2, 5)) is None

    def test_recognize_minimal_accepts_extreme_uniforms(self):
        # U_{1,n} and U_{n-1,n} are the degenerate minimal matroids
        assert recognize_minimal(uniform(1, 5)) == (1, 5)
        assert recognize_minimal(uniform(4, 5)) == (4, 5)
        assert recognize_minimal(uniform(1, 1)) is None

    def test_recognize_minimal_rejects_disconnected(self):
        s = minimal(1, 2).direct_sum(minimal(1, 2))
        assert recognize_minimal(s) is None


def level_rank(m, a: int) -> int:
    """The rank of `a` as the program reads it: the number of rank levels
    past level 0 that hold it."""
    return sum(level >> a & 1 for level in m.rank_levels()[1:])


def smallest_flat_holding(m, a: int) -> int:
    """The closure of `a` from the flat table: flats are closed under
    intersection, so the first flat in (size, mask) order that holds `a`
    lies in every other."""
    return next(f for f in _by_size(_flat_table(m), m.n) if f & a == a)


def table_oracle(masks) -> int:
    """The table (see `bitset`) holding exactly the given masks."""
    return sum(1 << a for a in masks)


class TestRankAndClosure:
    def test_parallel_class_has_rank_one(self):
        m = minimal(4, 7)
        assert level_rank(m, mask_of([4, 5, 6])) == 1
        assert rank_oracle(m, mask_of([4, 5, 6])) == 1

    def test_empty_set_rank_zero(self):
        for m in (minimal(4, 7), uniform(2, 4), uniform(0, 0)):
            assert level_rank(m, 0) == rank_oracle(m, 0) == 0

    def test_rank_capped_at_matroid_rank(self):
        assert level_rank(uniform(2, 4), mask_of([0, 1, 2])) == 2

    def test_closure_of_parallel_element(self):
        m = minimal(4, 7)
        assert smallest_flat_holding(m, 1 << 4) == mask_of([4, 5, 6])
        assert closure_oracle(m, 1 << 4) == mask_of([4, 5, 6])

    def test_closure_trivial_cases(self):
        assert smallest_flat_holding(uniform(2, 4), 1 << 0) == 1 << 0
        m = minimal(3, 6)
        assert smallest_flat_holding(m, m.full_mask) == m.full_mask

    def test_rank_monotone_and_submodular(self):
        rng = random.Random(97)
        for m in (minimal(4, 7), uniform(3, 7), rank2_from_partition([3, 2, 2])):
            oracle = rank_table_oracle(m)
            for _ in range(60):
                a = rng.randrange(1 << m.n)
                b = rng.randrange(1 << m.n)
                ra, rb = level_rank(m, a), level_rank(m, b)
                assert (ra, rb) == (rank_oracle(m, a), rank_oracle(m, b))
                assert (ra, rb) == (oracle[a], oracle[b])
                if a & b == a:
                    assert ra <= rb
                assert level_rank(m, a | b) + level_rank(m, a & b) <= ra + rb

    def test_rank_table_matches_rank_oracle(self):
        for m in (minimal(3, 6), rank2_from_partition([2, 2, 1]), uniform(3, 5)):
            table = m.rank_table()
            for a in range(1 << m.n):
                assert table[a] == rank_oracle(m, a)


def assert_tables_match_oracles(m):
    """The bit-parallel independent-set table and rank levels, the rank
    table, components and paving test give what the one-mask-at-a-time
    oracles give."""
    indep = independence_table_oracle(m)
    assert m.independent_sets() == table_oracle(
        a for a in range(1 << m.n) if indep[a])
    ranks = rank_table_oracle(m)
    assert m.rank_levels() == tuple(
        table_oracle(a for a in range(1 << m.n) if ranks[a] >= k)
        for k in range(m.rank + 1))
    assert m.rank_table() == ranks
    assert m.components() == components_oracle(m)
    assert is_paving(m) == is_paving_oracle(m)


class TestTableKernel:
    def test_corpus(self):
        for m in tutte_identity_corpus():
            if m.n <= 9:
                assert_tables_match_oracles(m)

    def test_every_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if pairwise_exchange_violation(m) is None:
                    assert_tables_match_oracles(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assert_tables_match_oracles(m)

    def test_empty_ground_set(self):
        m = uniform(0, 0)
        assert (m.independent_sets(), m.rank_levels()) == (1, (1,))
        assert m.rank_table() == bytearray([0])
        assert (m.components(), is_paving(m)) == ([], True)
        assert_tables_match_oracles(m)

    def test_loops_and_coloops(self):
        # loops 0,1; a coloop 2; U(2,4) on 3..6; another loop 7
        m = (uniform(0, 2).direct_sum(uniform(1, 1)).direct_sum(uniform(2, 4))
             .direct_sum(uniform(0, 1)))
        assert [bits(c) for c in m.components()] == [[0], [1], [2], [3, 4, 5, 6], [7]]
        indep = m.independent_sets()
        assert [e for e in range(m.n) if not indep >> (1 << e) & 1] == [0, 1, 7]
        assert_tables_match_oracles(m)

    def test_table_limit(self):
        limit = SIZE_LIMITS["tables"]
        m = uniform(1, limit)
        table = m.rank_table()
        assert len(table) == 1 << limit
        assert table[0] == 0 and sum(table) == (1 << limit) - 1
        big = uniform(1, limit + 1)
        for query in (big.independent_sets, big.rank_levels, big.rank_table,
                      lambda: is_paving(big), lambda: cyclic_flats(big),
                      lambda: tutte_subset_sum(big)):
            with pytest.raises(LimitExceededError):
                query()


# the n of each `engines` benchmark pass, in job order
ENGINES_ORDER = (15, 16, 17, 18, 14, 16, 16, 17, 18)


class TestTableBuilders:
    def test_table_of_matches_oracle(self):
        rng = random.Random(2424)
        for n in range(13):
            # n < 3 leaves some of the eight strided slices empty
            for count in (0, 1, (1 << n) // 3, 1 << n):
                masks = rng.sample(range(1 << n), count)
                assert table_of(masks, n) == table_oracle(masks)
        limit = SIZE_LIMITS["tables"]
        masks = [0, 1, 7, 8, (1 << limit) - 1, 1 << (limit - 1), 0x5A5A5]
        assert table_of(masks, limit) == table_oracle(masks)

    def test_small_tables_match_oracles(self):
        for tables in (element_masks, popcount_classes):
            tables.cache_clear()
        for n in range(10):
            every = range(1 << n)
            assert element_masks(n) == tuple(
                table_oracle(a for a in every if a >> i & 1) for i in range(n))
            assert popcount_classes(n) == tuple(
                table_oracle(a for a in every if a.bit_count() == k)
                for k in range(n + 1))

    def test_engines_cycle_builds_each_n_once(self):
        for tables in (element_masks, popcount_classes):
            tables.cache_clear()
            for _ in range(2):      # two passes
                for n in ENGINES_ORDER:
                    assert tables(n) == tables.__wrapped__(n)     # a fresh build
            info = tables.cache_info()
            assert (info.misses, info.currsize) == (len(set(ENGINES_ORDER)),) * 2


def count_closures(monkeypatch, m) -> int:
    """How many up-closures the rank levels of a fresh copy of m make."""
    calls = []

    def counted(table, n):
        calls.append(n)
        return up_closure(table, n)
    monkeypatch.setattr(matroid_module, "up_closure", counted)
    Matroid(m.n, m.rank, m.bases).rank_levels()
    return len(calls)


class TestRankLevelShortcut:
    """Levels below the girth are size classes and take no closure."""

    @pytest.mark.parametrize("m, closures", [
        (uniform(9, 18), 0),
        (sparse_paving(5, 11, 12, 7), 1),
        (graphic(PETERSEN), 5),     # rank 9, girth 5: 9 - 5 + 1
        (minimal(8, 17), 7),
    ], ids=["uniform-9-18", "sparse-paving-5-11", "petersen", "minimal-8-17"])
    def test_closure_count(self, monkeypatch, m, closures):
        assert count_closures(monkeypatch, m) == closures

    @pytest.mark.parametrize("n", range(10, 17))
    def test_levels_equal_closures_of_independent_sets(self, n):
        m = sparse_paving(n // 2, n, 3 * n, n)
        assert len(m.bases) < comb(n, n // 2)
        indep, pop = m.independent_sets(), popcount_classes(n)
        assert m.rank_levels() == ((1 << (1 << n)) - 1,) + tuple(
            up_closure(indep & pop[k], n) for k in range(1, m.rank + 1))


class TestMinorsDualsSums:
    def test_contract_parallel_element_creates_loops(self):
        c = minimal(4, 7).contract(4)
        assert bits(c.loops()) == [4, 5]
        ref = uniform(0, 2).direct_sum(uniform(3, 4))
        assert brute_isomorphic(c, ref)

    def test_delete_to_coloop(self):
        d = uniform(1, 2).delete(0)
        assert d == uniform(1, 1)
        assert bits(d.coloops()) == [0]

    def test_delete_uniform(self):
        assert uniform(2, 4).delete(3) == uniform(2, 3)

    def test_minor_index_errors(self):
        with pytest.raises(IndexError):
            minimal(2, 4).delete(4)
        with pytest.raises(IndexError):
            minimal(2, 4).contract(-1)

    def test_deletion_never_creates_loops(self):
        for m in minimal_matroids(7) + uniform_matroids(6):
            old_loops = set(bits(m.loops()))
            for e in range(m.n):
                d = m.delete(e)
                for new in bits(d.loops()):
                    assert new + (new >= e) in old_loops

    def test_contraction_never_creates_coloops(self):
        for m in minimal_matroids(7) + uniform_matroids(6):
            old = set(bits(m.coloops()))
            for e in range(m.n):
                c = m.contract(e)
                for new in bits(c.coloops()):
                    assert new + (new >= e) in old

    def test_dual_basics(self):
        d = minimal(4, 7).dual()
        assert d.rank == 3
        assert d.bases == frozenset(minimal(4, 7).full_mask ^ b
                                    for b in minimal(4, 7).bases)
        assert uniform(2, 4).dual() == uniform(2, 4)

    def test_dual_is_involution(self):
        for m in minimal_matroids(8) + uniform_matroids(6) + graphic_corpus(10, 8):
            assert m.dual().dual() == m

    def test_direct_sum_sizes(self):
        s = uniform(0, 2).direct_sum(uniform(3, 4))
        assert (s.n, s.rank, len(s.bases)) == (6, 3, 4)

    def test_direct_sum_identity(self):
        m = minimal(2, 3)
        empty = uniform(0, 0)
        assert m.direct_sum(empty) == m
        assert empty.direct_sum(m) == m

    def test_direct_sum_basis_product(self):
        s = minimal(2, 3).direct_sum(minimal(2, 3))
        assert len(s.bases) == 9

    def test_restriction_of_separator(self):
        s = uniform(1, 2).direct_sum(minimal(2, 3))
        r = s.restrict(mask_of([2, 3, 4]))
        assert r == minimal(2, 3)


def lift(minor, kept) -> set[int]:
    """The minor's bases with index i read as old element kept[i]."""
    return {mask_of(kept[i] for i in bits(b)) for b in minor.bases}


def assert_relabeled(m, e, minor):
    """M\\e or M/e, index i read as old element i + (i >= e), is the part
    of m's family that holds e iff the rank dropped, e taken out."""
    dropped = minor.rank < m.rank
    kept = [i + (i >= e) for i in range(m.n - 1)]
    assert {b | dropped << e for b in lift(minor, kept)} == \
        {b for b in m.bases if (b >> e & 1) == dropped}


def assert_restriction_relabeled(m, a, r):
    """M|a, index i read as old element bits(a)[i], holds the largest
    intersections of m's bases with a."""
    inter = {b & a for b in m.bases}
    assert r.rank == max(map(int.bit_count, inter))
    assert lift(r, bits(a)) == {x for x in inter if x.bit_count() == r.rank}


def assert_minors_pass_checked_constructor(m):
    """Every single-element minor and every restriction (a spread of them
    past eight elements), built without the constructor's checks, equals
    the matroid the checked constructor builds from its family, and is
    relabeled by the fixed rule."""
    step = max(1, (1 << m.n) >> 8)
    minors = []
    for a in [*range(0, 1 << m.n, step), m.full_mask]:
        minors.append(m.restrict(a))
        assert_restriction_relabeled(m, a, minors[-1])
    for e in range(m.n):
        minors += [m.delete(e), m.contract(e)]
        assert_relabeled(m, e, minors[-2])
        assert_relabeled(m, e, minors[-1])
    for minor in minors:
        assert type(minor.bases) is frozenset
        assert Matroid(minor.n, minor.rank, list(minor.bases)) == minor


class TestTrustedMinors:
    def test_corpus(self):
        for m in tutte_identity_corpus():
            if m.n <= 12:
                assert_minors_pass_checked_constructor(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assert_minors_pass_checked_constructor(m)

    def test_checked_constructor_still_rejects_bad_masks(self):
        family = list(minimal(3, 6).delete(0).bases)
        with pytest.raises(ValueError, match="has elements >= n=5"):
            Matroid(5, 3, family + [0b111 << 3])
        with pytest.raises(WrongBasisSizeError):
            Matroid(5, 3, family + [0b11])


    @pytest.mark.parametrize("n, rank", [(4, 2.0), (4.0, 2), (4, True),
                                         (True, 1)])
    def test_checked_constructor_rejects_inexact_n_and_rank(self, n, rank):
        with pytest.raises(InputError, match="must be an integer"):
            Matroid(n, rank, [3, 5] if rank == 2 else [1])

    @pytest.mark.parametrize("mask", [1.5, 2.0, "1", None],
                             ids=["float", "integral-float", "str", "None"])
    def test_checked_constructor_rejects_a_mask_that_is_no_int(self, mask):
        with pytest.raises(InputError) as exc:
            Matroid(3, 1, [mask])
        assert str(exc.value) == f"basis mask {mask!r} is not an int"
        with pytest.raises(InputError):
            Matroid(3, 1, [1, mask, 4])

    def test_a_bool_mask_counts_as_the_int_it_equals(self):
        m = Matroid(2, 1, [True, 2])
        assert m == uniform(1, 2)
        assert m.to_dict()["bases"] == [[0], [1]]


class TestSimplification:
    """`Matroid.simplification` against the parallel classes of "no basis
    holds both": the same classes, those of two or more last, and the
    restriction to one element of each, in that order.  Parallel elements
    are interchangeable, so that restriction is the same whichever element
    stands for each class."""

    def check(self, m):
        si, classes = m.simplification()
        expected, loops = parallel_classes_oracle(m)
        assert sorted(classes) == sorted(expected)
        big = [c.bit_count() > 1 for c in classes]
        assert big == sorted(big)
        reps = [c & -c for c in classes]
        assert (si.n, si.rank) == (len(classes), m.rank)
        assert si.bases == {mask_of(i for i, e in enumerate(reps) if b & e)
                            for b in m.bases if not b & ~sum(reps)}
        if not loops and len(classes) == m.n:
            assert si is m

    def test_corpus(self):
        for m in tutte_identity_corpus() + graphic_corpus(10, 8):
            self.check(m)

    def test_every_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if pairwise_exchange_violation(m) is None:
                    self.check(m)

    @given(with_parallels_and_loops(12))
    def test_parallel_copies_and_loops(self, m):
        self.check(m)

    # from a basis {e, f}, the other two elements and their copies share
    # X = {e, f}: the lookups past X split them into two classes
    def test_classes_that_share_their_circuit(self):
        m = Matroid(8, 2, [1 << a | 1 << b for a, b in combinations(range(8), 2)
                           if a % 4 != b % 4])
        self.check(m)
        assert sorted(m.simplification()[1]) == [0x11, 0x22, 0x44, 0x88]


class TestConnectivity:
    def test_minimal_is_connected_and_clean(self):
        for m in minimal_matroids(8):
            assert m.is_connected()
            assert m.loops() == 0 and m.coloops() == 0

    def test_loops_are_singleton_components(self):
        s = uniform(0, 2).direct_sum(uniform(3, 4))
        assert [bits(c) for c in s.components()] == [[0], [1], [2, 3, 4, 5]]

    def test_coloop_detection(self):
        assert bits(uniform(1, 1).coloops()) == [0]

    def test_connectivity_matches_partition_oracle(self):
        sample = (minimal_matroids(8) + uniform_matroids(5)
                  + [rank2_from_partition(p) for p in ([2, 2], [1, 1, 1], [3, 2])]
                  + graphic_corpus(10, 7))
        for m in sample:
            assert m.is_connected() == connected_by_partition_oracle(m)

    def test_component_ranks_add_up(self):
        for m in graphic_corpus(15, 8):
            assert sum(rank_oracle(m, c) for c in m.components()) == m.rank

    def test_empty_matroid_not_connected(self):
        assert not uniform(0, 0).is_connected()
        assert uniform(0, 0).components() == []


class TestExchangeProperty:
    def test_constructed_families_satisfy_exchange(self):
        sample = (minimal_matroids(7) + uniform_matroids(5)
                  + [rank2_from_partition(p) for p in ([2, 2], [3, 1, 1], [2, 2, 2])]
                  + graphic_corpus(10, 7))
        for m in sample:
            m.check_exchange()

    def test_duals_and_minors_satisfy_exchange(self):
        m = minimal(3, 6)
        m.dual().check_exchange()
        m.delete(2).check_exchange()
        m.contract(4).check_exchange()
        m.direct_sum(uniform(1, 2)).check_exchange()

    def test_every_family_up_to_five_elements(self):
        # Labeled matroids on n points, OEIS A058673.
        known = [1, 2, 5, 16, 68, 406]
        for n, count in enumerate(known):
            accepted = sum(agree_with_pairwise_oracle(m) for m in every_family(n))
            assert accepted == count

    @pytest.mark.parametrize("n, rank, family", [
        (6, 3, [[0, 1, 2], [3, 4, 5]]),
        # every basis of U(4,5) on 0..4 except 0123 lies at distance 3 from
        # 4567, and 0123, at distance 4, is no witness for any element
        (8, 4, [list(c) for c in combinations(range(5), 4)] + [[4, 5, 6, 7]]),
    ])
    def test_disconnected_basis_graph_without_distance_two_pairs(
            self, n, rank, family):
        m = Matroid(n, rank, [mask_of(b) for b in family])
        assert not agree_with_pairwise_oracle(m)

    @given(st.data())
    def test_near_matroids(self, data):
        m = data.draw(st.sampled_from(NEAR_SOURCES))
        agree_with_pairwise_oracle(near_matroid(data, m))

    @given(st.data())
    def test_high_rank_near_matroids(self, data):
        # rank above corank: the check runs on the complements of the bases
        m = data.draw(st.sampled_from(HIGH_RANK_SOURCES))
        agree_with_pairwise_oracle(near_matroid(data, m))

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("drop", [0, 1234, -1])
    def test_wide_rank2_minus_one_basis(self, drop, dual):
        m = rank2_from_partition([30, 20, 50])
        family = set(m.bases) - {sorted(m.bases)[drop]}
        near = Matroid(m.n, m.rank, family)
        if dual:
            near = near.dual()
        with pytest.raises(ExchangeViolationError) as exc:
            near.check_exchange()
        err = exc.value
        assert is_exchange_witness(near, err.basis1, err.basis2, err.element)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("k, n", [(6, 12), (7, 14)])
    def test_disjoint_uniform_copies(self, k, n, dual):
        # every link is complete multipartite but the basis graph has two
        # components: the witness comes from a walk between them, not from
        # a search over all pairs (3 s for U(7,14) that way)
        u = uniform(k, n)
        m = Matroid(2 * n, k, set(u.bases) | {b << n for b in u.bases})
        if dual:
            m = m.dual()    # the complements are checked, the walk redone
        start = time.perf_counter()
        with pytest.raises(ExchangeViolationError) as exc:
            m.check_exchange()
        assert time.perf_counter() - start < 1
        err = exc.value
        assert is_exchange_witness(m, err.basis1, err.basis2, err.element)

    @pytest.mark.parametrize("n, complements", [
        # two sets, and U(4,6) on 1,2,3,6,7,8 with 2 parallel to 3: the walk
        # stops at 0345, 1267 and 0, and 1267 - 2 + 3 is a member too
        (9, [(0, 3, 4, 5), (0, 4, 5, 7)]
         + [c for c in combinations([1, 2, 3, 6, 7, 8], 4) if not {2, 3} <= set(c)]),
        # U(4,5) on 1,2,4,5,9, and U(4,6) on 0,3,5,6,7,8 with 3 parallel to
        # 5: the walk stops at 1245, 0367 and 1, and 0367 - 3 + 5 is a member
        (10, list(combinations([1, 2, 4, 5, 9], 4))
         + [c for c in combinations([0, 3, 5, 6, 7, 8], 4) if not {3, 5} <= set(c)]),
    ])
    def test_cut_witness_of_the_complements(self, n, complements):
        # rank n - 4 is above half of n, so the complements are checked.
        # They fall into two components, and for the walk's witness
        # (b1, b2, e), another element of b1 - b2 gives no witness for the
        # bases themselves
        full = (1 << n) - 1
        m = Matroid(n, n - 4, {full ^ mask_of(c) for c in complements})
        assert not agree_with_pairwise_oracle(m)

    def test_loops_taken_out_of_the_corank(self):
        # U(3,5) on the non-loops 0, 2, 3, 5, 6: its corank within them, 2,
        # is below the rank, so the complements within them are checked,
        # though n - rank is 4
        support = [0, 2, 3, 5, 6]
        family = {mask_of(c) for c in combinations(support, 3)}
        assert agree_with_pairwise_oracle(Matroid(7, 3, family))
        # without one basis it is still a matroid (sparse paving); without
        # two that share two elements it is not
        for b in family:
            assert agree_with_pairwise_oracle(Matroid(7, 3, family - {b}))
        for pair in combinations(sorted(family), 2):
            near = Matroid(7, 3, family.difference(pair))
            assert bits(near.loops()) == [1, 4]
            accepted = agree_with_pairwise_oracle(near)
            assert accepted == ((pair[0] & pair[1]).bit_count() < 2)


def reference_from_bases(n, rank, bases):
    """`from_bases` as one loop over the elements in record order."""
    require_int("n", n)
    require_int("rank", rank)
    masks = set()
    for b in bases:
        for e in b:
            require_int("element", e)
            if not 0 <= e < n:
                raise InputError(f"element {e} outside ground set of size {n}")
        mask = mask_of(b)
        if mask.bit_count() != len(b):
            raise InputError(f"basis {list(b)} repeats an element")
        if mask in masks:
            raise InputError(f"basis {bits(mask)} is listed more than once")
        masks.add(mask)
    m = Matroid(n, rank, masks)
    m.check_exchange()
    return m


def outcome(read, n, rank, bases):
    """What `read` gives: the matroid's fields, or the error and its
    message (the witness of an exchange error may differ between calls of
    the same check, so only its type is kept)."""
    try:
        m = read(n, rank, bases)
    except ExchangeViolationError as exc:
        return type(exc)
    except (SplitMWError, ValueError) as exc:
        return type(exc), str(exc)
    return m.n, m.rank, m.bases


def near_matroid(data, m):
    """m with one r-set added or one or two bases removed."""
    family = set(m.bases)
    if data.draw(st.booleans()):
        outside = [mask_of(c) for c in combinations(range(m.n), m.rank)
                   if mask_of(c) not in family]
        if outside:
            family.add(data.draw(st.sampled_from(outside)))
    else:
        for _ in range(data.draw(st.integers(1, 2))):
            if len(family) > 1:
                family.discard(data.draw(st.sampled_from(sorted(family))))
    return Matroid(m.n, m.rank, family)


NEAR_SOURCES = [m for m in tutte_identity_corpus() if m.n <= 9]
HIGH_RANK_SOURCES = [d for m in NEAR_SOURCES
                     for d in (m, m.dual()) if d.rank > d.n - d.rank]


def agree_with_pairwise_oracle(m) -> bool:
    """Assert that check_exchange and the pairwise oracle give the same
    verdict on m, and that a rejection carries a valid witness; return
    whether m was accepted."""
    expected = pairwise_exchange_violation(m)
    try:
        m.check_exchange()
    except ExchangeViolationError as err:
        assert expected is not None
        assert is_exchange_witness(m, err.basis1, err.basis2, err.element)
        return False
    assert expected is None
    return True


@st.composite
def dense_families(draw):
    """(n, k, masks in a drawn record order) of a family of k-sets, n <= 10:
    one with fewer than half of the k-sets missing at random; or a sparse
    paving family, whose missing k-sets, drawn in turn, each share at most
    k-2 elements with those before; or that family less one more k-set, or
    less two that share k-1 elements with one missing one (never a
    matroid: two non-bases of a paving matroid that share k-1 elements lie
    in one hyperplane, whose k+1 k-sets are all missing)."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, n))
    ksets = [mask_of(c) for c in combinations(range(n), k)]
    kind = draw(st.sampled_from(["random", "sparse-paving", "less-one", "less-two"]))
    if kind == "random":
        missing = draw(st.sets(st.sampled_from(ksets), max_size=(len(ksets) - 1) // 2))
    else:
        missing = set()
        for c in draw(st.lists(st.sampled_from(ksets), max_size=12)):
            if (len(missing) + 1 < len(ksets)
                    and all((c & h).bit_count() <= k - 2 for h in missing)):
                missing.add(c)
        near = sorted({b for b in ksets if b not in missing
                       and any((b & h).bit_count() == k - 1 for h in missing)})
        if kind == "less-one" and len(missing) + 1 < len(ksets):
            missing.add(draw(st.sampled_from([b for b in ksets if b not in missing])))
        elif kind == "less-two" and len(near) >= 2 and len(missing) + 2 < len(ksets):
            missing.update(draw(st.lists(st.sampled_from(near), min_size=2,
                                         max_size=2, unique=True)))
    family = [b for b in ksets if b not in missing]
    return n, k, draw(st.permutations(family))


class TestDenseAcceptance:
    """`from_bases` takes a family whose non-bases, fewer than its bases,
    are circuit-hyperplanes (`Matroid.circuit_hyperplanes`) without
    Maurer's pass, and every other family through it."""

    @settings(max_examples=300)
    @given(dense_families())
    def test_agrees_with_the_exchange_check(self, drawn):
        n, k, masks = drawn
        lists = [bits(b) for b in masks]
        m = Matroid(n, k, set(masks))
        non_bases = {b for b in map(mask_of, combinations(range(n), k))
                     if b not in m.bases}
        dense = 2 * len(m.bases) > comb(n, k)
        assert m.non_bases() == (non_bases if dense else None)
        stable = all((a & b).bit_count() <= k - 2
                     for a, b in combinations(non_bases, 2))
        assert m.circuit_hyperplanes() == (non_bases if dense and stable else None)
        if m.circuit_hyperplanes() is not None:     # accepted only if a matroid
            assert pairwise_exchange_violation(m) is None
        # the same matroid, or the same error text, witness included, as
        # the set read and checked by Maurer's pass alone
        try:
            expected = reference_from_bases(n, k, lists)
        except SplitMWError as exc:
            with pytest.raises(type(exc)) as got:
                from_bases(n, k, lists)
            assert str(got.value) == str(exc)
        else:
            assert from_bases(n, k, lists) == expected

    @pytest.mark.parametrize("m", [uniform(6, 12), sparse_paving(5, 12, 20, 1)],
                             ids=["U(6,12)", "sparse-paving(5,12)"])
    def test_skips_maurers_pass(self, m, monkeypatch):
        def no_pass(family):
            raise AssertionError("Maurer's pass ran on a dense sparse paving family")
        monkeypatch.setattr(matroid_module, "_exchange_witness", no_pass)
        assert matroid_from_dict(m.to_dict()) == m

    def test_past_the_tables_limit_takes_maurers_pass(self, monkeypatch):
        def no_test(self):
            raise AssertionError("the circuit-hyperplane test ran past the tables limit")
        monkeypatch.setattr(Matroid, "circuit_hyperplanes", no_test)
        n = SIZE_LIMITS["tables"] + 1
        assert from_bases(n, 1, [[e] for e in range(n)]) == uniform(1, n)

    def test_non_bases_read_once(self):
        m = sparse_paving(4, 9, 6, 2)
        assert m.non_bases() is m.non_bases()
        assert len(m.non_bases()) == 6 and not m.non_bases() & m.bases
        assert uniform(3, 6).non_bases() == frozenset()
        # a tie keeps the bases: 10 of the 20 3-sets of 6 elements
        tie = Matroid(6, 3, sorted(uniform(3, 6).bases)[:10])
        assert tie.non_bases() is None and tie.circuit_hyperplanes() is None

    def test_reader_keeps_the_slots_and_the_sets_order(self):
        # the list is checked in C and its slots kept for the
        # deletion-contraction root; the family iterates as the set of
        # the masks in record order does, which the exchange witness follows
        m = graphic(PETERSEN)
        record = m.to_dict()
        masks = [mask_of(b) for b in record["bases"]]
        read = matroid_from_dict(record)
        assert read._cache["slots"] == to_slots(masks, slot_width(m.n))
        assert list(read.bases) == list(frozenset(set(masks)))


class TestSerialization:
    def test_round_trip(self):
        for m in (minimal(4, 7), uniform(2, 4), uniform(0, 3),
                  rank2_from_partition([2, 2, 1])):
            assert matroid_from_dict(m.to_dict()) == m

    def test_canonical_basis_order(self):
        d = minimal(3, 5).to_dict()
        assert d["bases"] == sorted(d["bases"])
        assert all(b == sorted(b) for b in d["bases"])

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            matroid_from_dict({"format": "nope", "n": 2, "rank": 1, "bases": [[0]]})

    def test_loaded_input_is_validated(self):
        bad = {"format": "matroid-bases-v1", "n": 4, "rank": 2,
               "bases": [[0, 1], [2, 3]]}
        with pytest.raises(ExchangeViolationError):
            matroid_from_dict(bad)


def assert_columns_match_oracles(m):
    """Loops, coloops, every single-element minor, a spread of
    restrictions and the record, read from the packed columns, equal what
    the one-basis-at-a-time oracles give."""
    assert m.loops() == loops_oracle(m)
    assert m.coloops() == coloops_oracle(m)
    for e in range(m.n):
        for minor, oracle in ((m.delete(e), delete_oracle(m, e)),
                              (m.contract(e), contract_oracle(m, e))):
            assert (minor.n, minor.rank, minor.bases) == oracle
            assert_relabeled(m, e, minor)
    step = max(1, (1 << m.n) // 16)
    for a in [*range(0, 1 << m.n, step), m.full_mask, *m.components()]:
        r = m.restrict(a)
        assert (r.n, r.rank, r.bases) == restrict_oracle(m, a)
        assert_restriction_relabeled(m, a, r)
    assert m.to_dict() == to_dict_oracle(m)


def with_loop_and_coloop(m):
    """A loop below m's elements and a coloop above them."""
    return uniform(0, 1).direct_sum(m).direct_sum(uniform(1, 1))


class TestPackedColumns:
    def test_corpus(self):
        for m in tutte_identity_corpus():
            if m.n <= 12:
                assert_columns_match_oracles(m)

    def test_every_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if pairwise_exchange_violation(m) is None:
                    assert_columns_match_oracles(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assert_columns_match_oracles(m)

    # n = 0; 8 and 16, the last ground sets that fit one and two bytes of
    # element tables, and one past each; 24, the deletion-contraction limit
    @pytest.mark.parametrize("m", [
        uniform(0, 0), minimal(4, 8), with_loop_and_coloop(minimal(3, 6)),
        minimal(4, 9), with_loop_and_coloop(minimal(3, 7)), minimal(8, 16),
        uniform(2, 16), with_loop_and_coloop(minimal(7, 14)), minimal(8, 17),
        uniform(15, 17), with_loop_and_coloop(minimal(7, 15)), minimal(12, 24),
        uniform(2, 24), with_loop_and_coloop(minimal(11, 22)),
        with_loop_and_coloop(uniform(2, 4).direct_sum(minimal(5, 11))),
    ], ids=lambda m: f"n{m.n}-r{m.rank}-{len(m.bases)}")
    def test_byte_table_edges(self, m):
        assert m.to_dict() == to_dict_oracle(m)
        assert m.loops() == loops_oracle(m) and m.coloops() == coloops_oracle(m)
        for e in (0, m.n // 2, m.n - 1)[:m.n]:
            assert (m.delete(e).n, m.delete(e).rank, m.delete(e).bases) == \
                delete_oracle(m, e)
            assert (m.contract(e).n, m.contract(e).rank, m.contract(e).bases) == \
                contract_oracle(m, e)

    # every pair of machine-type slot widths: masks that fit the narrow
    # width held in the low slots of the wide one, as a deletion-contraction
    # family keeps its root's slots below it, are read whole from their
    # columns over the narrow bits, and each slot's bit 0 is set in the full
    # column
    @pytest.mark.parametrize("width, narrow", [
        (2, 1), (4, 1), (4, 2), (8, 1), (8, 2), (8, 4),
    ])
    def test_low_slots_and_slot_ones(self, width, narrow):
        rng = random.Random(16 * width + narrow)
        masks = [rng.getrandbits(8 * narrow) for _ in range(37)] + [0, (1 << 8 * narrow) - 1]
        packed = int.from_bytes(to_slots(masks, width), sys.byteorder)
        ones = slot_ones(len(masks), width)
        assert ones == sum(1 << 8 * width * i for i in range(len(masks)))
        assert place(columns(packed, ones, 8 * narrow)) == packed
        assert list(unpack(packed, len(masks), width)) == masks

    def test_records_do_not_share_lists(self):
        # the last: one byte position of a wide slot holds every element
        for m in (minimal(2, 4), minimal(4, 9), Matroid(70, 1, [1, 2, 4])):
            first = m.to_dict()
            for basis in first["bases"]:
                basis.append(99)
            assert m.to_dict() == to_dict_oracle(m)

    # 64, the widest machine-type slot, and past it, where slots are
    # (n+7)//8 bytes: 65, 72 and 73 on either side of a byte edge, and 100
    @pytest.mark.parametrize("m", [
        uniform(1, 64), minimal(3, 64), with_loop_and_coloop(minimal(2, 63)),
        uniform(1, 65), minimal(2, 65), with_loop_and_coloop(minimal(3, 70)),
        minimal(4, 72), uniform(2, 73), rank2_from_partition([30, 20, 50]),
        # byte positions that no basis touches: all of them, and all but
        # the first and the last
        uniform(0, 100), Matroid(100, 1, [1, 1 << 99]),
    ], ids=lambda m: f"n{m.n}-r{m.rank}-{len(m.bases)}")
    def test_wide_slots(self, m):
        assert m.to_dict() == to_dict_oracle(m)
        assert m.loops() == loops_oracle(m) and m.coloops() == coloops_oracle(m)
        for e in (0, m.n // 2, m.n - 1):
            assert (m.delete(e).n, m.delete(e).rank, m.delete(e).bases) == \
                delete_oracle(m, e)
            assert (m.contract(e).n, m.contract(e).rank, m.contract(e).bases) == \
                contract_oracle(m, e)
        for a in (m.full_mask, m.full_mask >> 1, (1 << m.n) // 3):
            r = m.restrict(a)
            assert (r.n, r.rank, r.bases) == restrict_oracle(m, a)

    def test_reader_takes_wide_ground_sets(self):
        m = uniform(1, 65)
        assert matroid_from_dict(m.to_dict()) == m
        # the reader asks for the loops, which must not build the columns:
        # those cost n shifts of the packed int, n^2 in all
        big = from_bases(100_000, 1, [[0], [99_999]])
        assert big.loops() == big.full_mask ^ (1 | 1 << 99_999)
        assert "columns" not in big._cache

    @pytest.mark.parametrize("n, rank, bases, error, message", [
        (3, 1, [0b1, 0b11], WrongBasisSizeError,
         "basis (0, 1) has 2 elements, expected rank 1"),
        (2, 1, [0b1, 0b100], ValueError, "basis mask 0x4 has elements >= n=2"),
        (2, 1, [0b1, -1], ValueError, "basis mask -0x1 has elements >= n=2"),
    ])
    def test_constructor_names_the_offending_basis(self, n, rank, bases, error,
                                                   message):
        with pytest.raises(error) as exc:
            Matroid(n, rank, bases)
        assert str(exc.value) == message

    def test_first_offending_basis_in_iteration_order_decides(self):
        kinds = set()
        for n, rank, bases in [(2, 1, [0b11, 0b100]), (3, 1, [0b111, 0b1000]),
                               (3, 2, [0b1, -2, 0b11]), (4, 2, [0b1, 0b10000])]:
            full = (1 << n) - 1
            first = next(b for b in frozenset(bases)
                         if b & ~full or b.bit_count() != rank)
            if first & ~full:
                error = ValueError
                message = f"basis mask {first:#x} has elements >= n={n}"
            else:
                error = WrongBasisSizeError
                message = (f"basis {tuple(bits(first))} has "
                           f"{first.bit_count()} elements, expected rank {rank}")
            with pytest.raises(error) as exc:
                Matroid(n, rank, bases)
            assert str(exc.value) == message
            kinds.add(error)
        assert kinds == {ValueError, WrongBasisSizeError}

    # a list or tuple is checked as the caller gave it, and a generator
    # through the set; either way the family is the set, and the one bad
    # mask is named as the set's scan names it
    @pytest.mark.parametrize("make", [
        tuple, lambda masks: masks + masks[:2], lambda masks: (b for b in masks),
    ], ids=["tuple", "list-with-duplicates", "generator"])
    @pytest.mark.parametrize("bad, error, message", [
        (0b10001, ValueError, "basis mask 0x11 has elements >= n=4"),
        (0b111, WrongBasisSizeError, "basis (0, 1, 2) has 3 elements, expected rank 2"),
        (0b1000, WrongBasisSizeError, "basis (3,) has 1 elements, expected rank 2"),
        ("0b11", InputError, "basis mask '0b11' is not an int"),
    ], ids=["outside", "too-many", "too-few", "not-an-int"])
    def test_sequence_or_generator_names_the_bad_mask(self, make, bad, error, message):
        masks = [0b0011, 0b0101, 0b0110, 0b1001, 0b1010]
        with pytest.raises(error) as exc:
            Matroid(4, 2, make(masks[:2] + [bad] + masks[2:]))
        assert str(exc.value) == message
        assert Matroid(4, 2, make(masks)).bases == frozenset(masks)


class Index:
    """A mask that `array` packs, through `__index__`, but that is no int."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


class AndOnly:
    """A mask that takes `&` but has no `bit_count`."""

    def __and__(self, other):
        return 0

    def __repr__(self):
        return "AndOnly()"


def checked_slots_oracle(masks, n: int, k: int):
    """`checked_slots` one basis at a time: the masks' slots if n <= 64 and
    each is an int (a bool counts) in [0, 2^n) with k bits, else None."""
    if n > 64 or not all(isinstance(b, int) and 0 <= b < 1 << n and b.bit_count() == k
                         for b in masks):
        return None
    return b"".join(int(b).to_bytes(slot_width(n), sys.byteorder) for b in masks)


@st.composite
def faulty_families(draw, n: int):
    """(masks, k): a list or tuple of k-element masks below 2^n, repeats
    allowed, with up to two faults put in: an element moved to bit n or
    up (past the slot width too, as far as bit 35), one too few or too
    many elements, negative, past 64 bits, a float, a str, None, a bool or
    an `Index`."""
    k, count = draw(st.integers(0, n)), draw(st.integers(1, 12))
    rnd = draw(st.randoms(use_true_random=False))
    valid = [mask_of(rnd.sample(range(n), k)) for _ in range(count)]
    masks, top = list(valid), max(8 * slot_width(n) - 1, 35)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(masks) - 1))
        b = valid[i]
        fault = draw(st.sampled_from(["wide", "size", "negative", "past-64", "float",
                                      "str", "None", "bool", "index"]))
        if fault == "wide":     # an element at or past n, in place of b's lowest
            b = (b & (b - 1)) | 1 << draw(st.integers(n, max(n, top)))
        elif fault == "size" and n:
            b ^= 1 << draw(st.integers(0, n - 1))
        elif fault == "negative":
            b = -b - 1
        elif fault == "past-64":
            b |= 1 << draw(st.integers(64, 70))
        else:
            b = {"float": float(b), "str": str(b), "None": None, "index": Index(b),
                 "bool": draw(st.booleans()), "size": b}[fault]
        masks[i] = b
    return draw(st.sampled_from([list, tuple]))(masks), k


class TestCheckedSlots:
    """`bitset.checked_slots`, the constructor's check of a list or tuple,
    against one basis at a time, and the slots the constructor keeps."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 32, 33, 64])
    @settings(max_examples=50)
    @given(data=st.data())
    def test_against_the_per_basis_oracle(self, n, data):
        masks, k = data.draw(faulty_families(n))
        assert checked_slots(masks, n, k) == checked_slots_oracle(masks, n, k)

    # bytes of eight elements: the table's count of 0xFF
    @pytest.mark.parametrize("n, k, masks", [
        (8, 8, [0xFF]), (16, 16, [0xFFFF]), (64, 64, [(1 << 64) - 1]),
        (16, 8, [0x00FF, 0xFF00, 0x0F0F]), (24, 9, [0x01FF00, 0xFF0001]),
    ])
    def test_full_bytes(self, n, k, masks):
        assert checked_slots(masks, n, k) == checked_slots_oracle(masks, n, k) is not None
        assert checked_slots(masks, n, k - 1) is None

    # packed at 4 bytes and cut down to the slot width: an element between
    # the two is refused, not cut off
    @pytest.mark.parametrize("n", [1, 7, 9, 16])
    def test_elements_past_the_slot_width(self, n):
        for e in (8 * slot_width(n), 31):
            bad = 1 << e | 1
            assert checked_slots([1, bad], n, 1) is None
            with pytest.raises(ValueError) as exc:
                Matroid(n, 1, [1, bad])
            assert str(exc.value) == f"basis mask {bad:#x} has elements >= n={n}"

    def test_no_slot_type_past_64_bits(self):
        assert checked_slots([1, 1 << 64], 65, 1) is None
        m = Matroid(65, 1, [1, 1 << 64])
        assert m.bases == {1, 1 << 64} and "slots" not in m._cache
        with pytest.raises(ValueError, match="has elements >= n=65"):
            Matroid(65, 1, [1, 1 << 65])
        with pytest.raises(WrongBasisSizeError):
            Matroid(65, 1, (1, 3 << 63))
        with pytest.raises(InputError, match="is not an int"):
            Matroid(65, 1, [1, Index(2)])

    # whatever the path, a mask that is no int raises InputError naming it
    @pytest.mark.parametrize("make", [list, tuple, set, iter],
                             ids=["list", "tuple", "set", "generator"])
    @pytest.mark.parametrize("bad", [Index(0b101), AndOnly(), 0.5, None],
                             ids=["index", "and-only", "float", "None"])
    def test_a_mask_that_is_no_int(self, make, bad):
        with pytest.raises(InputError) as exc:
            Matroid(3, 2, make([0b011, bad, 0b110]))
        assert str(exc.value) == f"basis mask {bad!r} is not an int"

    def test_kept_slots(self):
        masks = [0b0110, 0b0011, 0b1001, 0b0101, 0b1010]
        for given in (masks, tuple(masks)):
            m = Matroid(4, 2, given)
            assert m._cache["slots"] == to_slots(masks, 1)
        assert Matroid(2, 1, [True, 2])._cache["slots"] == to_slots([1, 2], 1)
        # repeats, other iterables and minors keep none
        for given in (masks + masks[:1], set(masks), iter(masks)):
            assert "slots" not in Matroid(4, 2, given)._cache
        assert "slots" not in Matroid(2, 1, [True, 1, 2])._cache
        m = Matroid(4, 2, masks)
        for minor in (m.delete(0), m.contract(3), m.restrict(0b0111), m.dual()):
            assert "slots" not in minor._cache


def assert_minors_inherit_lex_order(m, depth: int = 1):
    """Each single-element minor's record slots, taken over from m's
    columns, are the slots a fresh lex sort gives, and its own columns
    unpack to them; to `depth` levels of minors."""
    for e in range(m.n):
        for minor in (m.delete(e), m.contract(e)):
            assert "lex" in minor._cache
            slots = minor._lex_slots()
            assert slots == lex_order(minor.bases, minor.n)
            cols, _, width = minor.columns()
            assert to_slots(unpack(place(cols), len(minor.bases), width),
                            width) == slots
            if depth > 1:
                assert_minors_inherit_lex_order(minor, depth - 1)


class TestInheritedLexOrder:
    """`_minor` stores its family's slots as the minor's record order
    instead of sorting them again."""

    def test_corpus(self):
        for m in tutte_identity_corpus():
            if m.n <= 9:
                assert_minors_inherit_lex_order(m, depth=2)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assert_minors_inherit_lex_order(m, depth=2)

    # a loop and a coloop as pivots; slot widths 2 -> 1 and 4 -> 2 bytes
    # (9 -> 8 and 17 -> 16 elements); past 64 bits: 65 -> 64, 9 -> 8
    # bytes, and wide on both sides
    @pytest.mark.parametrize("m", [
        with_loop_and_coloop(minimal(3, 6)), with_loop_and_coloop(uniform(2, 5)),
        minimal(4, 9), uniform(3, 9), with_loop_and_coloop(minimal(3, 7)),
        minimal(8, 17), uniform(2, 17), with_loop_and_coloop(minimal(7, 15)),
        uniform(1, 65), minimal(2, 65), rank2_from_partition([30, 20, 20]),
        Matroid(70, 1, [1, 2, 4]),
    ], ids=lambda m: f"n{m.n}-r{m.rank}-{len(m.bases)}")
    def test_slot_width_edges(self, m):
        assert_minors_inherit_lex_order(m)
        assert m.delete(m.n - 1).to_dict() == to_dict_oracle(m.delete(m.n - 1))
        assert m.contract(0).to_dict() == to_dict_oracle(m.contract(0))


class TestRestrictionCache:
    def test_repeat_returns_the_same_minor(self):
        for m in tutte_identity_corpus():
            if m.n > 12:
                continue
            for a in [*m.components(), m.full_mask, m.full_mask >> 1]:
                r = m.restrict(a)
                assert m.restrict(a) is r
                assert r == Matroid(m.n, m.rank, m.bases).restrict(a)
                assert_restriction_relabeled(m, a, r)
                assert (r.n, r.rank, r.bases) == restrict_oracle(m, a)

    def test_bad_subset_raises_before_the_cache_is_read(self):
        m = minimal(2, 4)
        for bad in (-1, 1 << 4, 0b10001):
            m._cache[("restrict", bad)] = m
            with pytest.raises(ValueError, match="not within ground set"):
                m.restrict(bad)


def test_changing_a_record_changes_no_later_record():
    for m in (minimal(2, 4), uniform(3, 6), minimal(4, 9)):
        expected = to_dict_oracle(m)
        for basis in m.to_dict()["bases"]:
            basis.append(99)
        assert m.to_dict() == expected
        root = trace(m).root
        assert root.record == expected
        assert [node.record for node in root.walk()] == [
            node.record for node in trace_oracle(m).walk()]
