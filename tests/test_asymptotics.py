import math
from fractions import Fraction

import pytest
from pbc import (
    CONSISTENT,
    INCONCLUSIVE,
    NOT_DECREASING,
    DecayReport,
    DecaySeries,
    EqualityReport,
    PBCError,
    PBCTypeError,
    TupleSpec,
    bools,
    coin,
    distance_series,
    lemma_demo,
    negligibility_report,
    newton_bound_check,
    report_to_csv,
)
from pbc.combinators import (
    newton_discard_instance,
    newton_flip_instance,
    vn_lhs,
    vn_rhs,
)


def halving(k_hi):
    return DecaySeries(
        tuple((k, Fraction(1, 2 ** k)) for k in range(k_hi + 1)), "f", "g")


# ---------------------------------------------------------------------------
# Series construction.

def test_series_requires_increasing_sizes():
    with pytest.raises(PBCError):
        DecaySeries(((1, Fraction(1, 2)), (1, Fraction(1, 4))), "f", "g")


def test_series_requires_probability_range():
    with pytest.raises(PBCError):
        DecaySeries(((0, Fraction(3, 2)),), "f", "g")


def test_series_distances_are_exact():
    with pytest.raises(TypeError):
        DecaySeries(((0, 0.5),), "f", "g")
    series = DecaySeries(((0, 1), (1, "1/2"), (2, Fraction(1, 4))), "f", "g")
    assert series.pairs == ((0, 1), (1, Fraction(1, 2)), (2, Fraction(1, 4)))


def test_series_sizes_are_ints():
    for k in (0.5, Fraction(3, 2), 2.0):
        with pytest.raises(TypeError):
            DecaySeries(((k, Fraction(1, 2)),), "f", "g")


def test_distance_series_on_the_extractor_pair():
    p = Fraction(3, 5)
    series = distance_series(vn_lhs(p), vn_rhs(), 1, 6)
    for k, d in series.pairs:
        assert d == Fraction(1, 5) ** k


def test_distance_series_labels_default_to_the_terms():
    series = distance_series(coin("1/2"), coin("1/4"), 0, 0)
    assert "coin" in series.f_label


# ---------------------------------------------------------------------------
# Verdicts and witnesses on a known-negligible series.

def test_quadratic_scaling_keeps_the_strict_witness():
    report = negligibility_report(halving(12), 2, Fraction(1, 10))
    assert report.verdict == CONSISTENT
    assert report.threshold_witness == (Fraction(1, 10), 10)


def test_cubic_scaling_falls_back_to_the_decay_onset():
    # k^3 / 2^k never gets under 1/10 by k = 12, but decreases from
    # k = 4 on, so the witness marks the onset instead.
    report = negligibility_report(halving(12), 3, Fraction(1, 10))
    assert report.verdict == CONSISTENT
    assert report.threshold_witness == (Fraction(1, 10), 4)


def test_scaled_column_is_exact():
    report = negligibility_report(halving(4), 2, Fraction(1, 10))
    assert report.scaled == (
        (0, Fraction(0)), (1, Fraction(1, 2)), (2, Fraction(1)),
        (3, Fraction(9, 8)), (4, Fraction(1)))


def test_all_zero_series_is_consistent():
    series = DecaySeries(((0, 0), (1, 0), (2, 0)), "f", "g")
    report = negligibility_report(series, 3, Fraction(1, 100))
    assert report.verdict == CONSISTENT
    assert report.fitted_rate is None


def test_single_nonzero_sample_is_inconclusive():
    series = DecaySeries(((2, Fraction(1, 4)),), "f", "g")
    report = negligibility_report(series, 0, Fraction(1, 100))
    assert report.verdict == INCONCLUSIVE


def test_zero_tail_is_consistent_from_its_first_zero():
    # The von Neumann law at p = 1/2: |2p - 1|^k is exactly 0 from k = 1.
    series = DecaySeries(((0, 1), (1, 0), (2, 0), (3, 0)), "f", "g")
    report = negligibility_report(series, 0, Fraction(1, 100))
    assert report.verdict == CONSISTENT
    assert report.threshold_witness == (Fraction(1, 100), 1)


def test_flat_tail_is_not_decreasing():
    series = DecaySeries(
        tuple((k, Fraction(1, 3)) for k in range(6)), "f", "g")
    report = negligibility_report(series, 0, Fraction(1, 100))
    assert report.verdict == NOT_DECREASING


def test_fitted_rate_matches_the_halving_slope():
    report = negligibility_report(halving(8), 0, Fraction(1, 100))
    assert report.fitted_rate == pytest.approx(-math.log(2))


def test_threshold_is_exact():
    with pytest.raises(TypeError):
        negligibility_report(halving(4), 0, 0.01)
    for epsilon in ("1/100", Fraction(1, 100)):
        report = negligibility_report(halving(4), 0, epsilon)
        assert report.threshold_witness == (Fraction(1, 100), 0)


def test_scaling_exponent_is_an_int():
    for a in (0.5, Fraction(1, 2), 2.0):
        with pytest.raises(PBCError):
            negligibility_report(halving(4), a, Fraction(1, 10))


def test_fitted_rate_reads_distances_below_the_float_range():
    # 2^-1100 is 0.0 as a float; the slope is still ln(1/2).
    series = DecaySeries(
        tuple((k, Fraction(1, 2 ** (1100 * k))) for k in range(1, 4)),
        "f", "g")
    report = negligibility_report(series, 0, Fraction(1, 100))
    assert report.fitted_rate == pytest.approx(-1100 * 0.6931471805599453)


def test_fitted_rate_reads_subnormal_distances_in_full():
    # 3^-k is subnormal from k = 645 and 0.0 from k = 678; a subnormal
    # float keeps too few bits to give the slope ln(1/3).
    series = DecaySeries(
        tuple((k, Fraction(1, 3 ** k)) for k in range(600, 720, 5)),
        "f", "g")
    report = negligibility_report(series, 0, Fraction(1, 100))
    assert report.fitted_rate == pytest.approx(-math.log(3), rel=1e-12)


def test_fitted_rate_absent_below_three_points():
    series = DecaySeries(((0, Fraction(1, 2)), (1, 0), (2, 0)), "f", "g")
    report = negligibility_report(series, 0, Fraction(1, 2))
    assert report.fitted_rate is None


# ---------------------------------------------------------------------------
# Newton-style bound transfer.

def test_discard_naturality_has_a_zero_premise_and_zero_conclusions():
    f, g, h, spec = newton_discard_instance()
    report = newton_bound_check(f, g, h, spec, k_max=6)
    assert report.premise_distance == 0
    for k, c_k, cap in report.rows:
        assert c_k == 0 and cap == 0


def test_flipped_instance_stays_under_k_times_the_gap():
    f, g, h, spec = newton_flip_instance()
    report = newton_bound_check(f, g, h, spec, k_max=6)
    assert report.premise_distance == Fraction(1, 4)
    for k, c_k, cap in report.rows:
        assert c_k == 1 - Fraction(3, 4) ** k
        assert cap == k * Fraction(1, 4)
        assert c_k <= cap
    assert report.rows[2][1] == Fraction(7, 16)


# ---------------------------------------------------------------------------
# Packaged demos.

def test_pad_demo_reports_exact_equality():
    report = lemma_demo("otp", k_max=3)
    assert isinstance(report, EqualityReport)
    assert all(d == 0 for _, d in report.series.pairs)


def test_conjunction_demo_attains_its_bound():
    report = lemma_demo("all1", k_max=6, p=Fraction(3, 4))
    assert isinstance(report, DecayReport)
    assert report.verdict == CONSISTENT
    for k, d in report.series.pairs:
        assert d == Fraction(3, 4) ** k


def test_extractor_demo_follows_the_closed_form():
    report = lemma_demo("vonneumann", k_max=5, p=Fraction(3, 5))
    for k, d in report.series.pairs:
        assert d == Fraction(1, 5) ** k


def test_keyguess_demo_halves_each_step():
    # By default the demo runs every size up to 10, and it runs up to
    # its cap of 12 when asked for more.
    report = lemma_demo("keyguess")
    pairs = dict(report.series.pairs)
    assert list(pairs) == list(range(11))
    assert report.verdict == CONSISTENT
    capped = dict(lemma_demo("keyguess", k_max=14).series.pairs)
    assert list(capped) == list(range(13))
    for k in range(1, 13):
        assert capped[k] == Fraction(1, 2) ** k
    assert {k: capped[k] for k in pairs} == pairs


def test_demo_rejects_bad_parameters():
    with pytest.raises(PBCError):
        lemma_demo("nosuch", k_max=3)
    with pytest.raises(PBCError):
        lemma_demo("all1", k_max=3, p=Fraction(7, 4))
    with pytest.raises(PBCError):
        lemma_demo("otp", k_max=3, p=Fraction(1, 2))


# ---------------------------------------------------------------------------
# CSV rendering.

def test_csv_golden():
    report = negligibility_report(halving(3), 1, Fraction(1, 2))
    assert report_to_csv(report) == (
        "k,d_num,d_den,scaled_num,scaled_den\n"
        "0,1,1,0,1\n"
        "1,1,2,1,2\n"
        "2,1,4,1,2\n"
        "3,1,8,3,8\n"
        "verdict=ConsistentWithNegligible\n"
        "witness_N=3\n"
        "fitted_rate=-0.6931471805599452\n"
    )


def test_csv_spells_out_missing_fields():
    series = DecaySeries(((0, 0), (1, 0)), "f", "g")
    text = report_to_csv(negligibility_report(series, 0, Fraction(1, 2)))
    assert "fitted_rate=none" in text
    assert "witness_N=0" in text


def test_an_instance_unfit_for_its_signature_is_a_type_error():
    # f: B -> I, g: B -> B and h: B^2 -> B^2 at state B; the state,
    # then f, g and h in turn take the wrong type.
    f, g, h, spec = newton_discard_instance()
    wide = TupleSpec(bools(2), spec.inputs, spec.outputs)
    for args in ((f, g, h, wide), (h, g, h, spec), (f, h, h, spec),
                 (f, g, g, spec)):
        with pytest.raises(PBCTypeError):
            newton_bound_check(*args, k_max=2)


def test_a_state_map_off_the_state_is_blamed_on_f():
    # h : B^2 -> B^2 passed as f does not start at the state B: the error
    # names f and its type, not the loop of g that f would feed.
    f, g, h, spec = newton_discard_instance()
    with pytest.raises(PBCTypeError, match=r"state map f .* f : B\^2 -> B\^2"):
        newton_bound_check(h, g, h, spec, 2)
