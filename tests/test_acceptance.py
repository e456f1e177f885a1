"""Acceptance suite: one test per criterion, each printing its pass/fail line."""

import pytest

from splitmw import acceptance


def _run(number, capsys):
    result = acceptance.run_criterion(number)
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, result.detail


def test_criterion_1_rank1_closed_form(capsys):
    _run(1, capsys)


def test_criterion_2_minimal_basis_counts(capsys):
    _run(2, capsys)


def test_criterion_3_rank2_computer_check(capsys):
    _run(3, capsys)


def test_criterion_4_rank2_coefficients(capsys):
    _run(4, capsys)


def test_criterion_5_duality_and_direct_sums(capsys):
    _run(5, capsys)


def test_criterion_6_engine_equivalence(capsys):
    _run(6, capsys)


def test_criterion_7_orientation_oracles(capsys):
    _run(7, capsys)


def test_criterion_8_certificate_trees(capsys):
    _run(8, capsys)


def test_criterion_9_split_recognition_fixtures(capsys):
    _run(9, capsys)


# a defect in the one decoder both engines share makes them agree on a
# wrong polynomial, T plus 1: criterion 6 fails on its identities
def test_criterion_6_fails_on_a_shared_decoder_defect(monkeypatch):
    from splitmw import tutte

    decode = tutte._unpack
    monkeypatch.setattr(tutte, "_unpack",
                        lambda packed, rank, corank: decode(packed + 1, rank, corank))
    tutte._uniform_tutte.cache_clear()
    try:
        result = acceptance.run_criterion(6)
    finally:
        tutte._uniform_tutte.cache_clear()
    assert not result.passed
    assert result.detail.startswith("T(1,1) is not the basis count or T(2,2) is not 2^n for ")


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        acceptance.run_criterion(10)
