import pytest

from splitmw import (
    ColoopsPresentError,
    LimitExceededError,
    LoopsPresentError,
    check_mw,
    graphic,
    minimal,
    rank2_census_partitions,
    rank2_from_partition,
    rank2_threshold_check,
    uniform,
    verify_rank2_exhaustive,
)
from splitmw.corpus import graphic_corpus, minimal_matroids, uniform_matroids
from splitmw.errors import SIZE_LIMITS
from splitmw.merino_welsh import report_from_evaluations
from splitmw.tutte import tutte_subset_sum

from math import comb


class TestCheckMW:
    def test_rank1_four_elements(self):
        r = check_mw(uniform(1, 4))
        assert (r.t20, r.t02, r.t11) == (2, 14, 4)
        assert r.mult_ok and r.add_ok and r.max_ok

    def test_equality_boundary(self):
        r = check_mw(uniform(1, 2))
        assert (r.t20, r.t02, r.t11) == (2, 2, 2)
        assert r.mult_ok  # 4 >= 4 with equality

    def test_minimal_47(self):
        r = check_mw(minimal(4, 7))
        assert r.t11 == 13
        assert r.mult_ok

    def test_rejects_loops(self):
        with pytest.raises(LoopsPresentError) as exc:
            check_mw(uniform(0, 3))
        assert exc.value.elements == (0, 1, 2)

    def test_rejects_coloops(self):
        with pytest.raises(ColoopsPresentError) as exc:
            check_mw(uniform(1, 1))
        assert exc.value.elements == (0,)

    def test_checks_size_before_loops(self):
        # every element is a loop, and none is listed
        with pytest.raises(LimitExceededError):
            check_mw(uniform(0, SIZE_LIMITS["deletion-contraction"] + 1))

    def test_engines_give_identical_reports(self):
        for m in (minimal(3, 6), rank2_from_partition([3, 2]), uniform(2, 5)):
            t = tutte_subset_sum(m)
            assert check_mw(m) == report_from_evaluations(
                m.n, m.rank, t.evaluate(2, 0), t.evaluate(0, 2), t.evaluate(1, 1))

    def test_dualization_swaps_evaluations(self):
        for m in (minimal(4, 7), uniform(2, 5), rank2_from_partition([2, 2, 1])):
            r, rd = check_mw(m), check_mw(m.dual())
            assert (rd.t20, rd.t02, rd.t11) == (r.t02, r.t20, r.t11)
            assert (rd.max_ok, rd.add_ok, rd.mult_ok) == (r.max_ok, r.add_ok, r.mult_ok)

    def test_implication_chain_on_every_report(self):
        reports = []
        for census in verify_rank2_exhaustive(8):
            reports.extend(census.reports)
        for m in minimal_matroids(8) + uniform_matroids(8, clean_only=True):
            reports.append(check_mw(m))
        for g in graphic_corpus(20, 8):
            if g.loops() == 0 and g.coloops() == 0:
                reports.append(check_mw(g))
        assert reports
        for r in reports:
            if r.mult_ok:
                assert r.add_ok
            if r.add_ok:
                assert r.max_ok
            assert r.t11 >= 1 and r.t20 >= 0 and r.t02 >= 0

    def test_basis_count_bounds_t11(self):
        for m in minimal_matroids(8) + uniform_matroids(8, clean_only=True):
            r = check_mw(m)
            assert r.t11 <= comb(m.n, m.rank)

    def test_rank1_and_corank1_families_pass(self):
        for n in range(2, 21):
            assert check_mw(uniform(1, n)).mult_ok
            assert check_mw(uniform(n - 1, n)).mult_ok

    def test_direct_sums_of_passing_matroids_pass(self):
        pairs = [(minimal(2, 4), uniform(1, 3)),
                 (minimal(4, 7), minimal(2, 3)),
                 (uniform(2, 5), uniform(3, 5))]
        for a, b in pairs:
            assert check_mw(a).mult_ok and check_mw(b).mult_ok
            assert check_mw(a.direct_sum(b)).mult_ok

    def test_fabricated_violation_is_reported_not_raised(self):
        r = report_from_evaluations(2, 1, t20=1, t02=1, t11=5)
        assert not r.max_ok and not r.add_ok and not r.mult_ok
        assert not r.all_ok

    def test_report_serialization_uses_decimal_strings(self):
        d = check_mw(uniform(1, 20)).to_dict()
        assert d["format"] == "mw-v1"
        assert d["t02"] == str(2 ** 20 - 2)
        assert d["mult"] is True


class TestRank2Census:
    def test_partitions_for_n4(self):
        assert rank2_census_partitions(4) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_n2_census_is_vacuous(self):
        censuses = verify_rank2_exhaustive(2)
        assert censuses[0].partitions == ()
        assert censuses[0].all_pass

    def test_partitions_exclude_exactly_the_coloop_pattern(self):
        for n in range(2, 10):
            for p in rank2_census_partitions(n):
                assert len(p) >= 2
                assert not (len(p) == 2 and p[1] == 1)
                assert rank2_from_partition(p).coloops() == 0
                assert rank2_from_partition(p).loops() == 0

    def test_all_pass_through_10(self):
        for census in verify_rank2_exhaustive(10):
            assert census.all_pass
            assert len(census.reports) == len(census.partitions)

    def test_rejects_tiny_n_max(self):
        with pytest.raises(ValueError):
            verify_rank2_exhaustive(1)


class TestThreshold:
    def test_flip_at_13(self):
        assert not rank2_threshold_check(12)  # 4356 > 4096
        assert rank2_threshold_check(13)      # 6084 <= 8192

    def test_exact_values_at_boundary(self):
        assert comb(12, 2) ** 2 == 4356 and 2 ** 12 == 4096
        assert comb(13, 2) ** 2 == 6084 and 2 ** 13 == 8192

    def test_large_n(self):
        assert rank2_threshold_check(100)

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            rank2_threshold_check(1)
