"""Auxiliary chain: endpoint identities, derivative structure, critical points."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from seiffert_bounds import (
    BlendGapFamily,
    BracketError,
    DomainError,
    blend_alpha_closed,
    counterexample_witness,
    ladder_proof,
    locate_critical_points,
)
from seiffert_bounds import auxiliary, means, oracle

SHARP = blend_alpha_closed()

# Frozen from 60-digit evaluation.
CHAIN3_AT_1_SHARP = -0.2704220486917679  # 18/pi - 6
LEAD_COEFF_SHARP = 0.37714056243239186  # (36 + 18 pi - 9 pi^2)/pi^2
PI_MINUS_3 = 0.14159265358979323
# The largest double whose square is finite.
SQUARE_EDGE = math.sqrt(np.finfo(float).max)

# Independent root-finding (mpmath.findroot on the printed polynomials,
# development-time oracle) froze the expected ladder at the sharp parameter:
T0_REF = 2.07554878324807
T1_REF = 3.4444307019363785
T2_REF = 4.793669301769289
T3_REF = 6.1393103891675604


def _rational_coeff_lists(p: Fraction):
    """Ascending t-power coefficient lists exactly as printed, in Fractions."""
    c1 = 4 * p**4 - 8 * p**3 + 18 * p**2 - 14 * p + 1
    c2 = 4 * p**4 - 8 * p**3 + 9 * p**2 - 5 * p + 1
    c3 = 4 * p**4 - 8 * p**3 + 6 * p**2 - 2 * p + 1
    return {
        1: [c1, -4 * c2, 6 * c3, -4 * c2, c1],
        2: [-c2, 3 * c3, -3 * c2, c1],
        3: [c3, -2 * c2, c1],
        4: [-c2, c1],
    }


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def _poly_eval(coeffs, t: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _shifted_eval(level: int, p: Fraction, t: Fraction) -> Fraction:
    """The library's shifted forms, replayed in exact rational arithmetic."""
    coeffs = _rational_coeff_lists(p)
    c1 = coeffs[4][1]
    u = p * p - p
    s = t - 1
    if level == 1:
        return 36 * u * (s**2 + s**3) + c1 * s**4
    if level == 2:
        return 18 * u * s + 27 * u * s**2 + c1 * s**3
    if level == 3:
        return 6 * u + 18 * u * s + c1 * s**2
    return 9 * u + c1 * s


class TestChainPolynomials:
    def test_scalar_chain_is_the_array_chain(self):
        # chain computes in floats, chain_values in numpy: the same bits, and
        # where s⁴ leaves the double range (t beyond ~1.3e77) the same -inf
        fam = BlendGapFamily(0.8)
        ts = [1.0 + 1e-9, 1.5, 2.0, 6.14, 1e4, 1e70]
        for level in (1, 2, 3, 4):
            assert [fam.chain(t, level) for t in ts] == fam.chain_values(ts, level).tolist()
        with np.errstate(over="ignore"):
            assert fam.chain(1e150, 1) == -math.inf == fam.chain_values(1e150, 1)

    def test_shifted_equals_printed_exactly(self):
        # degree <= 4: agreement at 5 rational points per level is identity
        rng = np.random.default_rng(0)
        pts = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3), Fraction(10)]
        for _ in range(100):
            p = Fraction(int(rng.integers(501, 1000)), 1000)  # p in (1/2, 1)
            lists = _rational_coeff_lists(p)
            for level in (1, 2, 3, 4):
                for t in pts:
                    assert _shifted_eval(level, p, t) == _poly_eval(lists[level], t)

    def test_derivative_chain_exact(self):
        # chain2 = chain1'/4, chain3 = chain2'/3, chain4 = chain3'/2
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = Fraction(int(rng.integers(501, 1000)), 1000)
            lists = _rational_coeff_lists(p)
            for level, divisor in ((1, 4), (2, 3), (3, 2)):
                derived = [k * c for k, c in enumerate(lists[level]) if k > 0]
                assert [c / divisor for c in derived] == lists[level + 1]

    def test_endpoint_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = float(rng.uniform(0.5 + 1e-6, 1.0))
            fam = BlendGapFamily(p)
            assert fam.chain(1.0, 1) == 0.0
            assert fam.chain(1.0, 2) == 0.0
            assert fam.chain(1.0, 3) == pytest.approx(6 * p * p - 6 * p, rel=1e-13)
            assert fam.chain(1.0, 4) == pytest.approx(9 * p * p - 9 * p, rel=1e-13)

    def test_chain3_at_sharp(self):
        fam = BlendGapFamily(SHARP)
        assert fam.chain(1.0, 3) == pytest.approx(CHAIN3_AT_1_SHARP, rel=1e-13)
        assert fam.chain(1.0, 4) == pytest.approx(1.5 * CHAIN3_AT_1_SHARP, rel=1e-13)

    def test_leading_coefficient_at_sharp(self):
        # the ladder proof's exact interval for c₁ at the sharp p holds its
        # closed form, and is positive
        lo, hi = ladder_proof()["c1"]
        assert 0 < lo <= Fraction(LEAD_COEFF_SHARP) <= hi

    def test_unit_parameter_quartic(self):
        fam = BlendGapFamily(1.0)
        assert fam.chain(3.0, 1) == 16.0
        ts = 1.0 + np.geomspace(1e-9, 99.0, 10_000)
        got = fam.chain_values(ts, 1)
        ref = (ts - 1.0) ** 4
        assert np.max(np.abs(got - ref) / ref) < 1e-13

    def test_level_validation(self):
        fam = BlendGapFamily(0.9)
        for level in (0, 5, -1):
            with pytest.raises(DomainError):
                fam.chain(2.0, level)

    def test_level_must_be_an_integer(self):
        # a bool or a float is no level, even where it equals one; a numpy
        # integer is
        fam = BlendGapFamily(0.8)
        for level in (True, 1.0, 2.0, np.float64(3.0)):
            with pytest.raises(DomainError):
                fam.chain(3.0, level)
            with pytest.raises(DomainError):
                fam.chain_values([3.0], level)
        assert fam.chain(3.0, np.int64(2)) == fam.chain(3.0, 2)
        assert fam.chain_values([3.0, 7.0], np.int64(2)).tolist() == fam.chain_values([3.0, 7.0], 2).tolist()

    @pytest.mark.parametrize("p", [0.8, SHARP])
    def test_scalar_chain_beyond_the_float_power_range_warns_nothing(self, p):
        # s⁴ raises OverflowError in floats; numpy's ±inf (or nan, where the
        # two infinite terms meet) comes back without a RuntimeWarning
        fam = BlendGapFamily(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [fam.chain(t, 1) for t in (1e100, 1e200)]
        assert values[0] == (-math.inf if p == 0.8 else math.inf)
        assert not math.isfinite(values[1])

    def test_scalar_chain_reads_an_int_beyond_the_double_range_as_inf(self):
        fam = BlendGapFamily(0.9)
        values = [fam.chain(10**400, level) for level in range(1, 5)]
        assert values == [fam.chain(math.inf, level) for level in range(1, 5)] == [-math.inf] * 4


class TestFamilyBasics:
    @pytest.mark.parametrize("p", [0.5, 0.4, 1.2, -1.0, math.nan])
    def test_parameter_validation(self, p):
        with pytest.raises(DomainError):
            BlendGapFamily(p)

    def test_unit_parameter_allowed(self):
        assert BlendGapFamily(1.0).p == 1.0

    def test_gap_domain(self):
        fam = BlendGapFamily(0.8)
        for t in (1.0, 0.5, -2.0, math.inf):
            with pytest.raises(DomainError):
                fam.gap(t)

    def test_gap_vanishes_at_diagonal_limit(self):
        fam = BlendGapFamily(SHARP)
        assert abs(fam.gap(1.0 + 1e-9)) < 1e-8

    def test_gap_limit_unit_parameter(self):
        fam = BlendGapFamily(1.0)
        assert abs(fam.gap(1e8) - PI_MINUS_3) < 1e-6
        assert fam.limit_at_infinity() == pytest.approx(PI_MINUS_3, rel=1e-13)

    def test_gap_limit_sharp_parameter(self):
        fam = BlendGapFamily(SHARP)
        assert abs(fam.gap(1e8)) < 1e-6

    def test_gap_limit_generic(self):
        fam = BlendGapFamily(0.8)
        assert abs(fam.gap(1e9) - fam.limit_at_infinity()) < 1e-6

    def test_gap_branch_continuity(self):
        # the two evaluation branches must agree where they meet (t = 2);
        # |gap'| <= ~0.1 there, so the true change over the 4e-13 straddle is < 5e-14
        for p in (0.6, 0.8, SHARP, 1.0):
            fam = BlendGapFamily(p)
            assert fam.gap(2.0 * (1 - 1e-13)) == pytest.approx(fam.gap(2.0 * (1 + 1e-13)), abs=2e-13)

    def test_gap_vs_oracle(self):
        for p in (0.7, SHARP, 1.0):
            fam = BlendGapFamily(p)
            with mp.workdps(40):
                for t in (1.001, 1.7, 2.0, 6.14, 55.0, 1e4):
                    tm, pm = mp.mpf(t), mp.mpf(p)
                    u1 = pm * tm + 1 - pm
                    u2 = pm + (1 - pm) * tm
                    q = u1 * u1 + u1 * u2 + u2 * u2
                    ref = 4 * mp.atan((tm - 1) / (tm + 1)) - 3 * (tm * tm - 1) / q
                    assert abs(fam.gap(t) - float(ref)) < 1e-14 + 1e-13 * abs(float(ref))

    def test_gap_family_over_the_whole_double_range(self):
        # one expression for every t: finite and warning-free up to the
        # largest double, the float and array paths within one ulp of 4·atan
        # (math.atan against np.arctan), the factorization still exact where
        # Q(t) would overflow, and gap within 1e-15 of 50 digits at t - 1
        # log-uniform from 1e-6 to 1e300
        rng = np.random.default_rng(29)
        sample = 1.0 + np.exp(rng.uniform(math.log(1e-6), math.log(1e300), 300))
        t = np.concatenate([
            1.0 + np.geomspace(1e-12, 1e12, 20_001),
            [2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)],
            2.0 + np.linspace(-1e-6, 1e-6, 101),
            [1e150, SQUARE_EDGE],
            np.geomspace(1e12, 1e308, 297), [1e200, np.finfo(float).max],
        ])
        for p in (0.6, 0.8, SHARP, 1.0):
            fam = BlendGapFamily(p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bulk = fam.gap_values(t)
                scalar = np.array([fam.gap(x) for x in t.tolist()])
                factor = fam.difference_factor(t)
            assert np.all(np.isfinite(bulk)) and np.all(np.isfinite(factor)) and np.all(factor > 0.0)
            assert np.max(np.abs(bulk - scalar)) <= 4.5e-16
            for x in (1e200, float(np.finfo(float).max)):
                lhs = means.blend_values(p, x, 1.0) - means.seiffert_values(x, 1.0)
                rhs = float(fam.difference_factor(x)) * fam.gap(x)
                assert abs(lhs - rhs) <= 1e-15 * means.seiffert_values(x, 1.0)
            with mp.workdps(50):
                pm = mp.mpf(p)
                for x in sample.tolist():
                    tm = mp.mpf(x)
                    u1 = pm * tm + 1 - pm
                    u2 = pm + (1 - pm) * tm
                    q = u1 * u1 + u1 * u2 + u2 * u2
                    ref = 4 * mp.atan((tm - 1) / (tm + 1)) - 3 * (tm * tm - 1) / q
                    assert abs(fam.gap(x) - ref) <= 1e-15

    @pytest.mark.parametrize("p", [0.8, SHARP, 1.0])
    def test_gap_finite_where_t_squared_overflows(self, p):
        # beyond t ≈ 1.34e154 t·t overflows; gap lies within 1e-150 of its
        # limit there, and both forms must say so without a warning
        above = np.nextafter(SQUARE_EDGE, math.inf)
        assert math.isfinite(SQUARE_EDGE * SQUARE_EDGE) and math.isinf(float(above) * float(above))
        fam = BlendGapFamily(p)
        t = np.array([above, 1e155, 1e300, np.finfo(float).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [fam.gap(float(x)) for x in t]
            bulk = fam.gap_values(t)
        assert np.array_equal(bulk, scalar)
        assert np.all(np.isfinite(bulk))
        assert np.all(np.abs(bulk - fam.limit_at_infinity()) <= 1e-15)


class TestFactorization:
    def test_identity_bulk(self):
        # blend(p) - seiffert = difference_factor * gap, to 1e-12 of the mean scale
        rng = np.random.default_rng(5)
        p = rng.uniform(0.55, 0.999, 2000)
        t = np.exp(rng.uniform(math.log(1.2), math.log(200.0), 2000))
        worst = 0.0
        for pi, ti in zip(p, t):
            fam = BlendGapFamily(pi)
            lhs = float(means.blend_values(pi, ti, 1.0) - means.seiffert_values(ti, 1.0))
            rhs = float(fam.difference_factor(ti)) * fam.gap(ti)
            scale = max(
                float(means.seiffert_values(ti, 1.0)), float(means.blend_values(pi, ti, 1.0))
            )
            worst = max(worst, abs(lhs - rhs) / scale)
        assert worst < 1e-12

    def test_identity_high_precision_spots(self):
        # the factorization is exact algebra: mpmath agreement to ~working precision
        with mp.workdps(50):
            for pv, tv in [(0.6, 1.5), (0.8, 3.0), (0.97, 40.0), (SHARP, 6.14), (0.999, 1.01)]:
                p, t = mp.mpf(pv), mp.mpf(tv)
                u1 = p * t + 1 - p
                u2 = p + (1 - p) * t
                q = u1 * u1 + u1 * u2 + u2 * u2
                blend = 2 * (u1 * u1 + u1 * u2 + u2 * u2) / (3 * (u1 + u2))
                seif = (t - 1) / (2 * mp.atan((t - 1) / (t + 1)))
                gap = 4 * mp.atan((t - 1) / (t + 1)) - 3 * (t * t - 1) / q
                factor = q / (6 * (1 + t) * mp.atan((t - 1) / (t + 1)))
                assert abs((blend - seif) - factor * gap) < mp.mpf("1e-30")

    def test_factor_positive(self):
        fam = BlendGapFamily(0.77)
        ts = np.geomspace(1.0 + 1e-8, 1e8, 100)
        assert np.all(fam.difference_factor(ts) > 0.0)


class TestDerivativeIdentity:
    def test_wrong_chain_is_caught(self, monkeypatch):
        # a chain₁ off by s⁴ (its leading coefficient off by one) breaks the identity
        chain = auxiliary._shifted_chain
        monkeypatch.setattr(auxiliary, "_shifted_chain", lambda s, u, level: chain(s, u, level) + s**4)
        assert ladder_proof()["identity_exact"] is False


class TestCriticalPoints:
    def test_ladder_at_sharp(self):
        report = locate_critical_points(BlendGapFamily(SHARP))
        assert 1.0 < report.t0 < report.t1 < report.t2 < report.t3
        assert max(report.residuals) < 1e-10
        assert report.t0 == pytest.approx(T0_REF, rel=1e-9)
        assert report.t1 == pytest.approx(T1_REF, rel=1e-9)
        assert report.t2 == pytest.approx(T2_REF, rel=1e-9)
        assert report.t3 == pytest.approx(T3_REF, rel=1e-9)

    def test_brackets_verified_post_hoc(self):
        fam = BlendGapFamily(SHARP)
        report = locate_critical_points(fam)
        for root, level in zip((report.t0, report.t1, report.t2, report.t3), (4, 3, 2, 1)):
            lo, hi = root * (1 - 1e-9), root * (1 + 1e-9)
            assert fam.chain(lo, level) < 0.0 < fam.chain(hi, level)

    def test_gap_negative_on_wide_grid(self):
        fam = BlendGapFamily(SHARP)
        ts = 1.0 + np.geomspace(1e-5, 1e8 - 1.0, 10_000)
        assert np.all(fam.gap_values(ts) < 0.0)

    def test_chain_limits_grow(self):
        # every chain level is positive and increasing between t = 1e7 and 1e8
        fam = BlendGapFamily(SHARP)
        for level in (1, 2, 3, 4):
            left, right = fam.chain(1e7, level), fam.chain(1e8, level)
            assert 0.0 < left < right

    def test_unit_parameter_gap_increasing_positive(self):
        # grid floor 2e-3: below it the true value ~s^5/90 sinks under the
        # ~4e-19 evaluation noise; 300 log points keep consecutive increments
        # (~20% of the value) well above that noise too
        fam = BlendGapFamily(1.0)
        ts = 1.0 + np.geomspace(2e-3, 99.0, 300)
        vals = fam.gap_values(ts)
        assert np.all(vals > 0.0)
        assert np.all(np.diff(vals) > 0.0)

    def test_bracket_failure_far_from_sharp(self):
        # at p = 0.8 the quartic's leading coefficient is negative: no ladder
        with pytest.raises(BracketError):
            locate_critical_points(BlendGapFamily(0.8))


class TestClosedFormLadder:
    def _mp_roots(self, p: float):
        """Roots of the printed t-power chains at the double p, 50 digits."""
        lists = _rational_coeff_lists(Fraction(p))
        with mp.workdps(50):
            return [
                mp.findroot(lambda t, c=lists[level]: mp.polyval([_mpf(x) for x in reversed(c)], t), guess)
                for level, guess in zip((4, 3, 2, 1), (T0_REF, T1_REF, T2_REF, T3_REF))
            ]

    def test_roots_within_one_ulp(self):
        report = locate_critical_points(BlendGapFamily(SHARP))
        got = (report.t0, report.t1, report.t2, report.t3)
        with mp.workdps(50):
            for t, ref in zip(got, self._mp_roots(SHARP)):
                assert abs(mp.mpf(t) - ref) <= np.spacing(t)

    def test_proof_intervals(self):
        proof = ladder_proof()
        assert proof["pi_bounds"] == (Fraction(223, 71), Fraction(22, 7))
        assert proof["u"] == (Fraction(-1, 22), Fraction(-10, 223))
        assert proof["c1"] == (Fraction(45, 121), Fraction(18909, 49729))
        with mp.workdps(50):
            p = (1 + mp.sqrt(12 / mp.pi - 3)) / 2
            u = p * p - p
            c1 = 4 * p**4 - 8 * p**3 + 18 * p**2 - 14 * p + 1
            assert abs(u - (3 / mp.pi - 1)) < mp.mpf("1e-45")
            for value, (lo, hi) in ((u, proof["u"]), (c1, proof["c1"])):
                assert _mpf(lo) < value < _mpf(hi)
        assert proof["signs"] is True
        assert proof["identity_exact"] is True


class TestWitnesses:
    def test_above_alpha(self):
        w = counterexample_witness(0.97, "above_alpha")
        assert 1.0 < w.t < 1e12
        assert w.blend_value > w.seiffert_value
        assert oracle.blend(0.97, w.t, 1.0, dps=40) > oracle.seiffert(w.t, 1.0, dps=40)

    def test_below_one_near_diagonal(self):
        w = counterexample_witness(0.99, "below_one")
        assert 1.0 < w.t < 1.5
        assert w.seiffert_value > w.blend_value
        assert oracle.seiffert(w.t, 1.0, dps=40) > oracle.blend(0.99, w.t, 1.0, dps=40)

    def test_below_one_mid_parameter(self):
        w = counterexample_witness(0.75, "below_one")
        assert 1.0 < w.t < 1.01

    @pytest.mark.parametrize(
        "p", [*np.linspace(0.501, 0.999, 24), *(1.0 - np.geomspace(1e-6, 1e-3, 6))]
    )
    def test_below_one_means_are_4_ulp_apart(self, p):
        # the reported doubles show the violation instead of a rounding tie
        w = counterexample_witness(float(p), "below_one")
        assert w.seiffert_value - w.blend_value >= 4.0 * np.spacing(w.blend_value)
        assert oracle.seiffert(w.t, 1.0, dps=40) > oracle.blend(float(p), w.t, 1.0, dps=40)

    @pytest.mark.parametrize(
        "side, p",
        [
            *(("above_alpha", SHARP + d) for d in np.geomspace(1e-7, 4e-2, 20)),
            *(("below_one", p) for p in np.linspace(0.501, 0.999, 10)),
            *(("below_one", 1.0 - d) for d in np.geomspace(1e-7, 1e-3, 10)),
        ],
    )
    def test_scalar_scan_finds_the_bulk_scans_witness(self, side, p):
        # the bulk scan on the same grid, on numpy arrays: the first ratio
        # where the bound fails, with the blend mean bit for bit and the
        # Seiffert mean within 1 ulp (math.atan against np.arctan)
        p = float(p)
        if side == "above_alpha":
            ts = np.array(means._geomspace(1.5, 1e12, 1200))
        else:
            ts = 1.0 + np.array(means._geomspace(1e-9, 10.0, 800))
        am, t = means._profile(ts, 1.0)
        blend = am * means._blend_factor(p, t)
        seif = am * means._ratio(t)[2]
        fails = blend > seif if side == "above_alpha" else seif - blend >= 4.0 * np.spacing(blend)
        k = int(np.flatnonzero(fails)[0])
        w = counterexample_witness(p, side)
        assert w.t == ts[k]
        assert w.blend_value == blend[k]
        assert abs(w.seiffert_value - seif[k]) <= np.spacing(seif[k])

    def test_below_one_has_no_4_ulp_witness_next_to_one(self):
        # the relative gap peaks near 5(1-p)², below 4 ulp once 1-p < ~1.3e-8
        with pytest.raises(BracketError):
            counterexample_witness(1.0 - 1e-10, "below_one")

    def test_side_validation(self):
        with pytest.raises(DomainError):
            counterexample_witness(0.94, "above_alpha")  # below the sharp constant
        with pytest.raises(DomainError):
            counterexample_witness(1.0, "below_one")
        with pytest.raises(DomainError):
            counterexample_witness(0.8, "sideways")
