import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitmw import (
    LimitExceededError,
    Matroid,
    cyclic_flats,
    is_connected_split,
    is_copaving,
    is_paving,
    is_split,
    minimal,
    rank2_from_partition,
    recognize_minimal,
    uniform,
)
from splitmw import flats
from splitmw.bitset import bits, mask_of
from splitmw.corpus import (
    graphic_corpus,
    minimal_matroids,
    split_trace_corpus,
    tutte_identity_corpus,
    uniform_matroids,
)
from splitmw.errors import SIZE_LIMITS
from splitmw.flats import _by_size, _flat_table, _is_antichain, _proper

from conftest import (
    closure_oracle,
    cyclic_flats_oracle,
    derived_matroids,
    every_family,
    flats_oracle,
    pairwise_exchange_violation,
    sparse_paving,
    sparse_paving_matroids,
)


def flats_of(m) -> list[int]:
    """All flats from the table `_cyclic_flat_ranks` starts from, sorted by
    (size, mask)."""
    return _by_size(_flat_table(m), m.n)


class TestFlats:
    def test_uniform_2_3_flats(self):
        assert flats_of(uniform(2, 3)) == [0, 1, 2, 4, 7]

    def test_minimal_2_3_flats_match_uniform(self):
        assert flats_of(minimal(2, 3)) == flats_of(uniform(2, 3))

    def test_all_loops_single_flat(self):
        assert flats_of(uniform(0, 2)) == [3]

    def test_flats_limit(self):
        limit = SIZE_LIMITS["tables"]
        assert is_split(minimal(limit // 2, limit))
        assert cyclic_flats(minimal(limit // 2, limit)).is_split
        with pytest.raises(LimitExceededError):
            flats_of(uniform(1, limit + 1))
        with pytest.raises(LimitExceededError):
            is_split(uniform(1, limit + 1))

    def test_every_flat_is_closed(self):
        for m in (minimal(3, 6), rank2_from_partition([2, 2, 1])):
            for f in flats_of(m):
                assert closure_oracle(m, f) == f


class TestCyclicFlats:
    def test_minimal_47_unique_proper_cyclic_flat(self):
        report = cyclic_flats(minimal(4, 7))
        assert report.proper_flats == (mask_of([4, 5, 6]),)
        assert report.is_antichain

    def test_uniform_has_no_proper_cyclic_flats(self):
        report = cyclic_flats(uniform(2, 4))
        assert report.flats == (0, 0b1111)
        assert report.proper_flats == ()

    def test_empty_flat_requires_looplessness(self):
        assert 0 not in cyclic_flats(uniform(0, 2)).flats
        assert 0 in cyclic_flats(uniform(2, 4)).flats

    def test_ground_set_requires_cooplessness(self):
        full = uniform(2, 2).full_mask
        assert full not in cyclic_flats(uniform(2, 2)).flats
        assert full in cyclic_flats(uniform(1, 2)).flats

    def test_doubled_doubled_4cycle_chain(self, dd4):
        report = cyclic_flats(dd4)
        assert set(report.proper_flats) == {0b000011, 0b001100, 0b001111}
        assert not report.is_antichain
        assert not report.is_split

    def test_restrictions_have_no_coloops(self):
        for m in (minimal(4, 7), uniform(2, 5), rank2_from_partition([3, 2])):
            for f in cyclic_flats(m).flats:
                if f:
                    assert m.restrict(f).coloops() == 0

    def test_cyclic_flats_dualize_to_complements(self):
        sample = (minimal_matroids(7) + uniform_matroids(6)
                  + graphic_corpus(10, 7))
        for m in sample:
            ours = set(cyclic_flats(m).flats)
            full = m.full_mask
            theirs = {full ^ f for f in cyclic_flats(m.dual()).flats}
            assert ours == theirs


class TestSplitClassification:
    def test_minimal_is_connected_split(self):
        assert is_connected_split(minimal(4, 7))

    def test_chain_is_not_connected_split(self, dd4):
        assert dd4.is_connected()
        assert not is_connected_split(dd4)

    def test_uniform_is_connected_split(self):
        assert is_connected_split(uniform(2, 4))

    def test_split_with_uniform_summand(self):
        assert is_split(minimal(4, 7).direct_sum(uniform(1, 3)))

    def test_two_nonuniform_summands_not_split(self):
        assert not is_split(minimal(2, 4).direct_sum(minimal(2, 4)))

    def test_all_loops_is_split(self):
        assert is_split(uniform(0, 3))

    def test_empty_matroid_is_split(self):
        assert is_split(uniform(0, 0))

    def test_minimal_family_connected_split_through_12(self):
        for n in range(2, 13):
            for k in range(1, n):
                assert is_connected_split(minimal(k, n))

    def test_split_closed_under_duality(self, dd4, k4):
        sample = (minimal_matroids(7) + uniform_matroids(6)
                  + graphic_corpus(12, 7) + [dd4, k4])
        for m in sample:
            assert is_split(m) == is_split(m.dual())


class TestPaving:
    def test_minimal_47_neither_paving_nor_copaving(self):
        m = minimal(4, 7)
        assert not is_paving(m)
        assert not is_copaving(m)

    def test_uniform_both(self):
        assert is_paving(uniform(2, 4))
        assert is_copaving(uniform(2, 4))

    def test_k4_is_paving(self, k4):
        assert is_paving(k4)

    def test_fano_is_paving_hence_split(self, fano):
        assert is_paving(fano)
        assert is_copaving(fano)
        assert is_split(fano)

    def test_paving_implies_split_on_clean_corpus(self):
        sample = (minimal_matroids(7) + uniform_matroids(7)
                  + graphic_corpus(15, 7))
        for m in sample:
            if m.loops() or m.coloops():
                continue
            if is_paving(m):
                assert is_split(m)
            if is_copaving(m):
                assert is_split(m)

    def test_copaving_is_dual_paving_over_corpora(self):
        sample = (tutte_identity_corpus() + minimal_matroids(8)
                  + uniform_matroids(7) + graphic_corpus(15, 8))
        for m in sample:
            for x in (m, m.dual()):
                assert is_copaving(x) == is_paving(x.dual())

    @given(derived_matroids())
    def test_copaving_is_dual_paving_on_duals_minors_and_sums(self, m):
        assert is_copaving(m) == is_paving(m.dual())


def test_report_serialization(dd4):
    d = cyclic_flats(dd4).to_dict()
    assert d["format"] == "cyclic-flats-v1"
    assert d["split"] is False
    assert d["proper_antichain"] is False
    assert {"set": [0, 1], "rank": 1} in d["flats"]
    assert all(f["set"] == sorted(f["set"]) for f in d["flats"])


def assert_flats_match_oracles(m):
    """The table passes give the flats, and the cyclic flats with their
    ranks, in (size, mask) order, as one rank-table sweep does."""
    assert flats_of(m) == flats_oracle(m)
    report = cyclic_flats(m)
    assert list(zip(report.flats, report.ranks)) == cyclic_flats_oracle(m)


class TestFlatTablePasses:
    def test_corpus(self):
        for m in tutte_identity_corpus():
            if m.n <= 9:
                assert_flats_match_oracles(m)

    def test_every_matroid_up_to_five_elements(self):
        for n in range(6):
            for m in every_family(n):
                if pairwise_exchange_violation(m) is None:
                    assert_flats_match_oracles(m)

    @given(derived_matroids())
    def test_duals_minors_and_sums(self, m):
        assert_flats_match_oracles(m)

    def test_cyclic_flats_are_found_once(self, monkeypatch, dd4):
        calls = []
        monkeypatch.setattr("splitmw.flats._flat_table",
                            lambda m: calls.append(m) or _flat_table(m))
        for m in (minimal(4, 7), dd4):
            calls.clear()
            cyclic_flats(m)
            is_split(m)
            assert calls == [m]


def relabeled(m, perm):
    """m with element e renamed perm[e]."""
    return Matroid(m.n, m.rank, (mask_of(perm[e] for e in bits(b)) for b in m.bases))


class TestSplitProperties:
    @given(st.data())
    def test_invariant_under_relabeling(self, data):
        m = data.draw(derived_matroids())
        perm = data.draw(st.permutations(range(m.n)))
        assert is_split(relabeled(m, perm)) == is_split(m)

    @given(derived_matroids())
    def test_closed_under_minors(self, m):
        if is_split(m):
            for e in range(m.n):
                assert is_split(m.delete(e)) and is_split(m.contract(e))


def connected_split_by_antichain(m) -> bool:
    """The definition, with no class shortcut: connected, with proper
    cyclic flats that form an antichain."""
    return m.is_connected() and _is_antichain(_proper(m))


def split_by_antichain(m) -> bool:
    """At most one non-uniform component, and that one connected split by
    `connected_split_by_antichain`."""
    non_uniform = [r for r in map(m.restrict, m.components()) if not r.is_uniform()]
    return len(non_uniform) <= 1 and all(map(connected_split_by_antichain, non_uniform))


def assert_split_by_antichain(m):
    assert is_connected_split(m) == connected_split_by_antichain(m)
    assert is_split(m) == split_by_antichain(m)


@st.composite
def split_candidates(draw):
    """A minimal, sparse paving or rank-2 matroid, or a `derived_matroids`
    draw, maybe dualized, maybe summed with a second such draw when the sum
    has at most 12 elements.  The dual of a connected rank-2 matroid with a
    parallel class of three or more is copaving but not paving."""
    def one():
        kind = draw(st.sampled_from(("minimal", "sparse paving", "rank 2", "derived")))
        if kind == "minimal":
            n = draw(st.integers(2, 9))
            m = minimal(draw(st.integers(min(3, n - 1), n - 1)), n)
        elif kind == "sparse paving":
            clean = draw(st.booleans())
            m, _ = draw(sparse_paving_matroids().filter(lambda mc: mc[1] or not clean))
        elif kind == "rank 2":
            m = rank2_from_partition(draw(st.lists(st.integers(1, 4), min_size=2,
                                                   max_size=4)))
        else:
            m = draw(derived_matroids())
        return m.dual() if draw(st.booleans()) else m

    m = one()
    if draw(st.booleans()):
        other = one()
        if m.n + other.n <= 12:
            m = m.direct_sum(other)
    return m


def refuse(m):
    raise AssertionError("the cyclic flats were found")


class TestSplitByClass:
    """A connected minimal, paving or copaving matroid is split before any
    cyclic flat is found; the answers are the antichain test's."""

    def test_corpus(self):
        for m in tutte_identity_corpus() + split_trace_corpus():
            assert_split_by_antichain(m)

    @given(split_candidates())
    def test_minimal_sparse_paving_duals_and_sums(self, m):
        assert_split_by_antichain(m)

    def test_disconnected_paving_is_not_connected_split(self):
        for m in (uniform(1, 2).direct_sum(uniform(1, 2)), uniform(0, 2),
                  minimal(3, 5).direct_sum(uniform(1, 1))):
            assert not m.is_connected()
            assert not is_connected_split(m)

    def test_copaving_not_paving(self, monkeypatch):
        m = rank2_from_partition([3, 1, 1]).dual()
        assert m.is_connected() and is_copaving(m) and not is_paving(m)
        monkeypatch.setattr(flats, "_cyclic_flat_ranks", refuse)
        assert is_connected_split(m) and is_split(m)

    def test_paving_and_minimal_components_find_no_cyclic_flat(self, monkeypatch, k4, fano, dd4):
        sample = [minimal(4, 7), sparse_paving(4, 9, 8, 4), k4, fano,
                  minimal(5, 9).direct_sum(uniform(1, 3)).direct_sum(uniform(2, 3)),
                  minimal(4, 7).direct_sum(uniform(1, 3))]
        monkeypatch.setattr(flats, "_cyclic_flat_ranks", refuse)
        for m in sample:
            assert is_split(m)
        # neither minimal, paving nor copaving: the antichain test runs
        with pytest.raises(AssertionError, match="cyclic flats"):
            is_split(dd4)

    def test_hub_test_runs_once_per_matroid(self):
        # the split test asks first; a later question, the trace's, takes
        # the kept answer, which no longer reads the bases
        m = minimal(5, 9).direct_sum(uniform(1, 3)).direct_sum(uniform(2, 3))
        assert is_split(m)
        component = m.restrict(m.components()[0])
        object.__setattr__(component, "bases", frozenset())
        assert recognize_minimal(component) == (5, 9)
