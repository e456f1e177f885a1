import sys
from collections import Counter
from math import comb

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
from splitmw import tutte
from splitmw.bitset import (column_view, from_slots, low_slots, place, slot_ones,
                            slot_width, unpack)
from splitmw.errors import SIZE_LIMITS, InputError
from splitmw.tutte import (
    _canonical,
    _children,
    _pack,
    _strip,
    _uniform_tutte,
    _unpack,
    whitney_numbers,
)

from conftest import (
    PETERSEN,
    OracleMemo,
    canonical_oracle,
    children_oracle,
    dc_oracle,
    dense_to_sparse,
    derived_matroids,
    every_family,
    oracle_tutte_coeffs,
    pack_oracle,
    pairwise_exchange_violation,
    pivot_oracle,
    poly_add,
    slots_oracle,
    sparse_paving,
    sparse_paving_tutte_oracle,
    strip_oracle,
    whitney_numbers_oracle,
)


def both_engines(m):
    return tutte_dc(m), tutte_subset_sum(m)


class TestSparsePaving:
    """Both engines against T(M) = T(U(k,n)) - lam*(x + y - xy), on sparse
    paving matroids: every rank level below the top one is a size class."""

    @pytest.mark.parametrize("k, n, hyperplanes, seed", [
        (5, 12, 20, 1), (6, 13, 30, 2), (6, 14, 40, 3), (7, 15, 50, 4),
        (7, 16, 60, 5),
    ])
    def test_engines_match_closed_form(self, k, n, hyperplanes, seed):
        m = sparse_paving(k, n, hyperplanes, seed)
        assert comb(n, k) - len(m.bases) == hyperplanes
        expected = sparse_paving_tutte_oracle(m)
        assert dense_to_sparse(tutte_subset_sum(m)) == expected
        assert dense_to_sparse(tutte_dc(m, memo=TutteMemo())) == expected


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


def check_children(n, bases):
    """The slots of the children of element n-1 from a sorted family on n
    elements against the oracle's: the same families, sorted, with no bit
    at n-1 or above, each in (n-1)'s slot width."""
    count, width = len(bases), slot_width(n)
    packed = int.from_bytes(slots_oracle(n, bases), sys.byteorder)
    pivot = (packed >> pivot_oracle(n)) & slot_ones(count, width)
    assert _children(n, packed, pivot, count) == tuple(
        slots_oracle(n - 1, child) for child in children_oracle(n, bases))


def unpack_entry(key, packed):
    """The polynomial of a memo entry, its rank read off the key's first
    basis."""
    n, slots = key
    rank = from_slots(slots, slot_width(n))[0].bit_count()
    return _unpack(packed, rank, n - rank)


def check_column_pass(m):
    """The root's canonical slots, the stripped family and the children of
    a node against the one-basis-at-a-time oracles.  Stripping the
    canonical family keeps its masks in order, with no sort, and gives the
    canonical family of the stripped matroid, so roots coalesce as they
    would if they were stripped before they were relabeled."""
    n, bases = m.n, tuple(sorted(m.bases))
    canon = canonical_oracle(n, bases)
    assert _canonical(n, bases) == slots_oracle(n, canon)
    cols, ones, width = column_view(n, canon)
    kept, ncoloops, nloops = _strip(cols, ones)
    family = tuple(unpack(place(kept), len(bases), width))
    stripped_n, stripped, *dropped = strip_oracle(n, canon)
    assert (len(kept), family, ncoloops, nloops) == (stripped_n, stripped, *dropped)
    stripped_first = strip_oracle(n, bases)[:2]
    assert (slots_oracle(stripped_n, family)
            == slots_oracle(stripped_n, canonical_oracle(*stripped_first))
            == _canonical(*stripped_first))
    if n:
        check_children(n, canon)
    if stripped_n:
        check_children(stripped_n, stripped)


K5 = Multigraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])


def with_loop_and_coloop(m):
    """A loop below m's elements and a coloop above them."""
    return uniform(0, 1).direct_sum(m).direct_sum(uniform(1, 1))


class TestColumnPass:
    """The column-packed deletion-contraction step against the per-basis
    oracles: equal keys, stripped families and children of the pivot, the
    last element of the canonical order, and the same memo, entry for
    entry, after a whole run."""

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
    # past each, where the children are repacked into narrower slots, and
    # the deletion-contraction limit, 24
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
        # the recursion repacks children into narrower slots there
        core = m.restrict(m.full_mask & ~(m.loops() | m.coloops()))
        for size in (9, 17):
            padded = with_loop_and_coloop(
                core.direct_sum(uniform(1, max(size - core.n, 2))))
            assert tutte_dc(padded, memo=TutteMemo()) == tutte_subset_sum(padded)

    # a root whose loops and coloops take it from 17 elements to 16 or
    # fewer, or from 9 to 8 or fewer: stripped, it is keyed in its own
    # narrower slots, so the run writes the keys of its core's run, the
    # root's last, of its core's bases in the core's slot width
    @pytest.mark.parametrize("core, loops, coloops", [
        (minimal(8, 16), 1, 0), (minimal(8, 16), 0, 1), (graphic(PETERSEN), 1, 1),
        (minimal(4, 8), 1, 0), (minimal(4, 8), 0, 1), (minimal(3, 7), 1, 1),
    ], ids=["17-16-loop", "17-16-coloop", "17-15", "9-8-loop", "9-8-coloop", "9-7"])
    def test_strip_across_slot_width_edge(self, core, loops, coloops):
        padded = uniform(0, loops).direct_sum(core).direct_sum(uniform(coloops, coloops))
        assert slot_width(padded.n) > slot_width(core.n)
        memo, core_memo = TutteMemo(), TutteMemo()
        assert tutte_dc(padded, memo=memo) == tutte_subset_sum(padded)
        tutte_dc(core, memo=core_memo)
        assert list(memo._data) == list(core_memo._data)
        n, slots = list(memo._data)[-1]
        assert (n, len(slots)) == (core.n, len(core.bases) * slot_width(core.n))

    # the default "memo-bytes" limit, one under which Petersen with a chord
    # ends with 1 of the 161 entries it makes with room for all, its root's,
    # and one under which it ends with 52
    @pytest.mark.parametrize("capacity", [64 << 20, 10000, 40000])
    def test_memo_matches_oracle_recursion(self, capacity, fano, k4,
                                           monkeypatch):
        monkeypatch.setitem(SIZE_LIMITS, "memo-bytes", capacity)
        chorded = Multigraph(10, list(PETERSEN.edges) + [(0, 2)])
        for m in [fano, k4, graphic(K5), graphic(PETERSEN), graphic(chorded),
                  minimal(5, 10), with_loop_and_coloop(minimal(4, 8)),
                  rank2_from_partition([1, 2, 3, 2])]:
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

    # a cold run makes the same entries every time, so a new pivot rule or
    # key shows here; the counts are those of `dc_oracle`
    @pytest.mark.parametrize("m, entries", [
        (graphic(PETERSEN), 155), (graphic(K5), 29), (minimal(8, 16), 7),
    ], ids=["petersen", "k5", "minimal-8-16"])
    def test_cold_entry_counts(self, m, entries):
        memo = TutteMemo()
        tutte_dc(m, memo=memo)
        assert len(memo) == entries

    # the closed form comes before a single basis is packed
    @pytest.mark.parametrize("m", [uniform(9, 18), uniform(0, 5), uniform(4, 4)],
                             ids=["U(9,18)", "U(0,5)", "U(4,4)"])
    def test_uniform_root_packs_nothing(self, m, monkeypatch):
        def no_packing(*args):
            raise AssertionError("the bases of a uniform root were packed")
        monkeypatch.setattr(tutte, "to_slots", no_packing)
        monkeypatch.setattr(tutte, "column_view", no_packing)
        assert tutte_dc(m, memo=TutteMemo()) == _uniform_tutte(m.rank, m.n)

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
        """Each key a cold run writes holds strictly ascending masks below
        2^n, all of one size k, with no loop or coloop and fewer than C(n,k)
        of them, in slots of n's width."""
        memo = TutteMemo()
        tutte_dc(m, memo=memo)
        for n, slots in memo._data:
            width = slot_width(n)
            assert len(slots) % width == 0
            masks = list(from_slots(slots, width))
            assert all(a < b for a, b in zip(masks, masks[1:]))
            assert masks[-1] < 1 << n
            k = masks[0].bit_count()
            assert all(b.bit_count() == k for b in masks)
            assert len(masks) < comb(n, k)
            union, inter = 0, masks[0]
            for b in masks:
                union |= b
                inter &= b
            assert (union, inter) == ((1 << n) - 1, 0)

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
        # the process-wide memo that `trace` fills through `check_mw`
        memo = TutteMemo()
        monkeypatch.setattr(tutte, "_global_memo", memo)
        for seed in range(3):
            assert trace(sparse_paving(4, 9, 6, seed)).verified
        assert len(memo) > 0
        assert memo._bytes == measured_bytes(memo)


def measured_bytes(memo):
    """The objects a memo holds, sized one by one: each key pair, its byte
    string and its packed polynomial (n, a small int, is shared)."""
    return sum(sys.getsizeof(key) + sys.getsizeof(key[1]) + sys.getsizeof(packed)
               for key, packed in memo._data.items())


class TestPackedPolynomials:
    """One int per polynomial inside deletion-contraction: fields wide
    enough for the largest coefficient at the widest shapes the limit
    allows, and a refusal past the limit the fields were sized for."""

    def test_round_trip_at_the_limit(self):
        limit = SIZE_LIMITS["deletion-contraction"]
        largest = comb(limit, limit // 2)     # the most bases, so T(1,1)
        widest = _uniform_tutte(limit // 2, limit)
        assert widest.evaluate(1, 1) == largest
        filled = [TuttePolynomial([[largest] * (limit - r + 1)] * (r + 1))
                  for r in (0, limit // 2, limit)]
        for t in [widest, *filled]:
            assert _pack(t) == pack_oracle(t)
            assert _unpack(_pack(t), t.x_degree_bound, t.y_degree_bound) == t

    def test_ground_set_past_the_fields_is_refused(self, monkeypatch):
        # C(25,12) needs 24 bits, two more than the fields sized at import
        limit = SIZE_LIMITS["deletion-contraction"]
        monkeypatch.setitem(SIZE_LIMITS, "deletion-contraction", limit + 1)
        with pytest.raises(LimitExceededError, match="packed"):
            tutte_dc(minimal(limit // 2, limit + 1), memo=TutteMemo())


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
