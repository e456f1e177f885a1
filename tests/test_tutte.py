import pytest
from hypothesis import given

from splitmw import (
    InputError,
    LimitExceededError,
    Multigraph,
    TutteMemo,
    TuttePolynomial,
    graphic,
    minimal,
    rank2_from_partition,
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
from splitmw.bitset import column_view, minor_families, place, unpack
from splitmw.errors import SIZE_LIMITS
from splitmw.tutte import (
    _key_and_pivot,
    _strip,
    whitney_numbers,
)

from conftest import (
    canonical_key_oracle,
    children_oracle,
    dc_oracle,
    dense_to_sparse,
    derived_matroids,
    every_family,
    oracle_tutte_coeffs,
    pairwise_exchange_violation,
    pivot_oracle,
    strip_oracle,
    whitney_numbers_oracle,
)


def both_engines(m):
    return tutte_dc(m), tutte_subset_sum(m)


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


def check_column_pass(m):
    """Keys, pivots, the stripped family and the children of the column
    pass against the one-basis-at-a-time oracles, before and after
    stripping loops and coloops."""
    n, bases = m.n, tuple(sorted(m.bases))
    count = len(bases)
    cols, ones, width = column_view(n, bases)
    if n:
        assert _key_and_pivot(cols, count, width) == (
            canonical_key_oracle(n, bases), pivot_oracle(n, bases))
    kept, ncoloops, nloops = _strip(cols, ones)
    family = tuple(sorted(unpack(place(kept), count, width)))
    n, stripped, *dropped = strip_oracle(n, bases)
    assert (len(kept), family, ncoloops, nloops) == (n, stripped, *dropped)
    if n:
        key, e = _key_and_pivot(kept, count, width)
        assert (key, e) == (canonical_key_oracle(n, stripped),
                            pivot_oracle(n, stripped))
        deleted, contracted = minor_families(kept, e, ones, count, width)
        assert (tuple(sorted(deleted)), tuple(sorted(contracted))) == \
            children_oracle(stripped, e)


def with_loop_and_coloop(m):
    """A loop below m's elements and a coloop above them."""
    return uniform(0, 1).direct_sum(m).direct_sum(uniform(1, 1))


class TestColumnPass:
    """The column-packed deletion-contraction step against the per-basis
    oracles: equal keys, pivots, stripped families and children, and the
    same memo, entry for entry, after a whole run."""

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
    # past each, and the deletion-contraction limit, 24
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

    # the default capacity, and one that keeps 25 of Petersen's 65 entries
    @pytest.mark.parametrize("capacity", [64 << 20, 100000])
    def test_memo_matches_oracle_recursion(self, capacity, fano, k4):
        k5 = Multigraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        petersen = Multigraph(10, [(i, (i + 1) % 5) for i in range(5)]
                              + [(i, i + 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        for m in [fano, k4, graphic(k5), graphic(petersen), minimal(5, 10),
                  with_loop_and_coloop(minimal(4, 8)),
                  rank2_from_partition([1, 2, 3, 2])]:
            memo, oracle_memo = TutteMemo(capacity), TutteMemo(capacity)
            oracle = dc_oracle(m.n, tuple(sorted(m.bases)), oracle_memo)
            assert tutte_dc(m, memo=memo) == oracle
            assert list(memo._data.items()) == list(oracle_memo._data.items())
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
            assert t == tutte_subset_sum(m.delete(e)) + tutte_subset_sum(m.contract(e))

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
    def test_tiny_capacity_still_correct(self):
        memo = TutteMemo(capacity_bytes=1500)
        m = minimal(5, 10)
        assert tutte_dc(m, memo=memo) == tutte_subset_sum(m)
        assert len(memo) <= 8  # eviction kept the table tiny

    def test_shared_memo_reuse(self):
        memo = TutteMemo()
        first = tutte_dc(graphic_corpus(1, 8, seed=77)[0], memo=memo)
        size_after_first = len(memo)
        second = tutte_dc(graphic_corpus(1, 8, seed=77)[0], memo=memo)
        assert first == second
        assert len(memo) == size_after_first

    def test_set_capacity_evicts(self):
        memo = TutteMemo()
        tutte_dc(minimal(5, 10), memo=memo)
        memo.set_capacity(1)
        assert len(memo) <= 1


class TestPolynomialType:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            TuttePolynomial(((1, -1),))

    def test_rejects_ragged_matrix(self):
        with pytest.raises(ValueError):
            TuttePolynomial(((1, 0), (1,)))

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
