"""Sharp constants, the excess ratio, and the bulk verifiers."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import seiffert_bounds as sb
from seiffert_bounds import (
    DomainError,
    PositivePair,
    RATIO_LOWER,
    RATIO_UPPER,
    blend_alpha_closed,
    blend_alpha_numeric,
    constants_report,
    excess_ratio,
    excess_ratio_taylor,
    excess_ratio_upper_margin,
    mean,
    ratio_grid_scan,
    ratio_series,
    sample_ratios,
    verify_blend_bounds,
    verify_ordering_chain,
    verify_prior_bounds,
    verify_ratio_bounds,
)
from seiffert_bounds import means, oracle, series, sharp
from seiffert_bounds.auxiliary import BlendGapFamily

LAMBDA_REF = 0.9526915711070529  # (1 + sqrt(12/pi - 3))/2, 60-digit oracle


class TestBlendAlpha:
    def test_closed_form(self):
        lam = blend_alpha_closed()
        assert lam == pytest.approx(LAMBDA_REF, rel=1e-15)
        assert 0.5 < lam < 1.0

    def test_defining_equation(self):
        # the closed form rearranges the vanishing infinity limit: p²-p+1 = 3/π
        lam = blend_alpha_closed()
        assert abs(lam * lam - lam + 1.0 - 3.0 / math.pi) < 1e-15

    def test_numeric_matches_closed(self):
        assert abs(blend_alpha_numeric() - blend_alpha_closed()) < 1e-12

    def test_numeric_kills_gap_limit(self):
        fam = BlendGapFamily(blend_alpha_numeric())
        assert abs(fam.gap(1e10)) < 1e-8

    def test_perturbed_limit_positive(self):
        fam = BlendGapFamily(blend_alpha_closed() + 1e-3)
        assert fam.limit_at_infinity() > 0.0


class TestExcessRatio:
    def test_small_t_limit(self):
        assert abs(excess_ratio(1e-8) - 1.0 / 3.0) < 1e-10

    def test_large_t_limit(self):
        assert abs(excess_ratio(1.0 - 1e-10) - RATIO_LOWER) < 1e-8

    def test_theta_form_agreement(self):
        theta = 0.5
        assert abs(excess_ratio(math.tan(theta)) - ratio_series(theta, 40)) < 1e-12

    def test_matches_mean_composite(self):
        for x in (1.25, 2.0, 10.0, 1e3):
            pair = PositivePair(x, 1.0)
            t = (x - 1.0) / (x + 1.0)
            comp = (mean("seiffert", pair) - mean("arithmetic", pair)) / (
                mean("contra-harmonic", pair) - mean("arithmetic", pair)
            )
            assert excess_ratio(t) == pytest.approx(comp, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 1.5])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            excess_ratio(t)

    def test_taylor_coefficients(self):
        # long division of the arctan series, first four terms by hand
        assert excess_ratio_taylor(4) == (
            Fraction(1, 3),
            Fraction(-4, 45),
            Fraction(44, 945),
            Fraction(-428, 14175),
        )

    @pytest.mark.parametrize("order", [True, 2.5, 3.0, None, "3", 0, -1])
    def test_taylor_order_is_an_integer(self, order):
        # the package's one integer rule: a bool, a float or None is no order
        with pytest.raises(DomainError, match="order must be an integer >= 1"):
            excess_ratio_taylor(order)

    def test_taylor_order_is_capped(self):
        # the cap of every series order; 10**400 took no end of time
        assert len(excess_ratio_taylor(series.N_MAX)) == series.N_MAX
        for order in (series.N_MAX + 1, 10**400):
            with pytest.raises(DomainError, match=r"order must lie in \[1, 60\]"):
                excess_ratio_taylor(order)

    def test_taylor_takes_a_numpy_integer(self):
        assert excess_ratio_taylor(np.int64(3)) == excess_ratio_taylor(3)

    def test_accuracy_over_the_whole_domain(self):
        # from the smallest t whose t² is normal up to 1 - 2⁻⁵³, on the array
        # path (the public functions) and the float path (means._ratio),
        # against the exact Taylor series up to the switch (no fixed-digit
        # quotient resolves 1/3 - r down to t ≈ 1.5e-154; at t = 1/2 the
        # series' 60th term is 3e-38 of the margin) and the 60-digit quotient
        # beyond it; the bounds are the docstrings', measured worst 1.4e-16
        # and 1.1e-15 up to the switch, 1.8e-15 and 2.1e-14 beyond
        t_min = math.sqrt(2.0**-1022)
        ts = np.unique(np.concatenate([
            np.geomspace(t_min, 0.5, 1600), 1.0 - np.geomspace(2.0**-53, 0.5, 1600), [np.nextafter(0.5, 1.0)],
        ]))
        assert ts[0] == t_min and t_min * t_min == 2.0**-1022 and ts[-1] == 1.0 - 2.0**-53
        paths = [
            (excess_ratio(ts), excess_ratio_upper_margin(ts)),
            tuple(zip(*(means._ratio(float(t))[:2] for t in ts))),
        ]
        with mp.workdps(60):
            coeffs = [mp.mpf(c.numerator) / c.denominator for c in excess_ratio_taylor(60)]
            exact = []
            for t in map(mp.mpf, ts):
                if t <= 0.5:
                    upper = -mp.fsum(c * (t * t) ** k for k, c in enumerate(coeffs[1:], 1))
                    exact.append((coeffs[0] - upper, upper))
                else:
                    r = (t / mp.atan(t) - 1) / (t * t)
                    exact.append((r, mp.mpf(1) / 3 - r))
            for r, upper in paths:
                for t, got_r, got_upper, (want_r, want_upper) in zip(ts, r, upper, exact):
                    below = t <= 0.5
                    assert abs(got_r - want_r) <= (5e-16 if below else 6e-15) * want_r, t
                    assert abs(got_upper - want_upper) <= (4e-15 if below else 8e-14) * want_upper, t

    def test_series_direct_switch(self):
        for t in (0.5 * (1 - 1e-9), 0.5 * (1 + 1e-9)):
            direct = (t / math.atan(t) - 1.0) / (t * t)
            assert excess_ratio(t) == pytest.approx(direct, rel=5e-14)

    def test_strictly_decreasing_and_in_range(self):
        grid = np.linspace(1e-6, 1.0 - 1e-6, 100_000)
        vals = excess_ratio(grid)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all((vals > RATIO_LOWER) & (vals < RATIO_UPPER))

    def test_margins_positive_and_consistent(self):
        for t in (1e-9, 1e-4, 0.3, 0.9, 1.0 - 1e-9):
            um, lm = excess_ratio_upper_margin(t), excess_ratio(t) - RATIO_LOWER
            assert um > 0.0 and lm > 0.0
            assert um + lm == pytest.approx(RATIO_UPPER - RATIO_LOWER, rel=1e-12)

    def test_reparametrization_consistency_sample(self):
        # raw-mean form (60-digit oracle), t-form, theta-form: pairwise 1e-12
        rng = np.random.default_rng(9)
        xs = np.exp(rng.uniform(0.0, math.log(1e6), 500))
        xs = xs[xs > 1.0]
        for x in xs:
            t = (x - 1.0) / (x + 1.0)
            raw = float(oracle.excess_ratio_from_means(float(x), dps=40))
            rt = excess_ratio(t)
            rtheta = ratio_series(math.atan(t), 40)
            assert abs(rt - raw) <= 1e-12 * abs(raw)
            assert abs(rtheta - raw) <= 1e-12 * abs(raw)
            assert abs(rt - rtheta) <= 1e-12 * abs(raw)


class TestSampling:
    def test_range_and_boundary(self):
        rng = np.random.default_rng(0)
        x = sample_ratios(rng, 1000, ratio_max=1e8)
        assert np.all((x > 1.0) & (x <= 1e8))
        for pt in (1.0 + 1e-9, 1e8, 10.0):
            assert pt in x
        # the draws spread over (1, ratio_max] however close ratio_max is to 1
        for ratio_max in (1.0 + 2.0**-52, 1.0 + 1e-13, 1.0 + 1e-12, 1.0 + 1e-11, 1.00001, 1.5, 1e300):
            drawn = sample_ratios(np.random.default_rng(0), 1000, ratio_max, include_boundary=False)
            assert np.all((drawn > 1.0) & (drawn <= ratio_max)), ratio_max
        drawn = sample_ratios(np.random.default_rng(0), 1000, 1.0 + 1e-13, include_boundary=False)
        assert len(np.unique(drawn)) > 100
        drawn = sample_ratios(np.random.default_rng(0), 1000, 1.0 + 1e-11, include_boundary=False)
        assert np.count_nonzero(drawn == drawn.min()) < 10

    def test_determinism(self):
        a = sample_ratios(np.random.default_rng(5), 100)
        b = sample_ratios(np.random.default_rng(5), 100)
        assert np.array_equal(a, b)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DomainError):
            sample_ratios(rng, 0)
        with pytest.raises(DomainError):
            sample_ratios(rng, 10, ratio_max=1.0)


class TestVerifyBlend:
    def test_sharp_statement_passes(self):
        res = verify_blend_bounds(100_000, seed=0)
        assert res.passed and res.witness is None
        assert res.suite == "thm1"
        assert res.min_slack_left > 0.0 and res.min_slack_right > 0.0
        # right slack bottoms out at the near-diagonal boundary point 1 + 1e-9
        assert res.min_slack_right < 1e-10
        assert res.arg_right == pytest.approx(1.0 + 1e-9, rel=1e-12)
        # left slack bottoms out at the largest sampled ratio
        assert res.arg_left == pytest.approx(1e8, rel=1e-6)
        assert res.min_slack_left == pytest.approx(1.676e-9, rel=0.1)

    def test_alpha_shift_outward_fails_at_large_ratio(self):
        res = verify_blend_bounds(20_000, seed=0, alpha=blend_alpha_closed() + 1e-4)
        assert not res.passed
        assert res.witness is not None and res.witness["side"] == "lower"
        assert res.witness["ratio"] > 1e3
        assert res.witness["lhs"] > res.witness["rhs"]

    def test_alpha_shift_inward_passes(self):
        assert verify_blend_bounds(20_000, seed=0, alpha=blend_alpha_closed() - 1e-4).passed

    def test_beta_shift_inward_fails_near_diagonal(self):
        res = verify_blend_bounds(20_000, seed=0, beta=1.0 - 1e-6)
        assert not res.passed
        assert res.witness is not None and res.witness["side"] == "upper"
        assert res.witness["ratio"] < 1.01

    def test_beta_above_one_rejected(self):
        with pytest.raises(DomainError):
            verify_blend_bounds(100, beta=1.0 + 1e-6)

    def test_determinism(self):
        r1 = verify_blend_bounds(5_000, seed=123)
        r2 = verify_blend_bounds(5_000, seed=123)
        assert r1 == r2


class TestVerifyRatio:
    def test_sharp_statement_passes(self):
        res = verify_ratio_bounds(100_000, seed=0)
        assert res.passed and res.witness is None
        assert res.stats["inf"] == pytest.approx(RATIO_LOWER, abs=1e-6)
        assert res.stats["sup"] == pytest.approx(RATIO_UPPER, abs=1e-6)
        assert res.stats["inf"] > RATIO_LOWER
        assert res.stats["sup"] < RATIO_UPPER + 1e-16

    def test_alpha1_shift_outward_fails(self):
        res = verify_ratio_bounds(20_000, seed=0, alpha1=RATIO_LOWER + 1e-6)
        assert not res.passed and res.witness["side"] == "lower"

    def test_alpha1_shift_inward_passes(self):
        assert verify_ratio_bounds(20_000, seed=0, alpha1=RATIO_LOWER - 1e-6).passed

    def test_beta1_shift_outward_fails(self):
        res = verify_ratio_bounds(20_000, seed=0, beta1=RATIO_UPPER - 1e-6)
        assert not res.passed and res.witness["side"] == "upper"

    def test_beta1_shift_inward_passes(self):
        assert verify_ratio_bounds(20_000, seed=0, beta1=RATIO_UPPER + 1e-6).passed


class TestTwoSidedSharpness:
    # for every eps in {1e-3, 1e-4, 1e-5}: shifted past the optimum -> some
    # sampled argument violates; shifted inside by the same amount -> none
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_blend_alpha_eps_sweep(self, eps):
        lam = blend_alpha_closed()
        assert not verify_blend_bounds(50_000, seed=4, alpha=lam + eps).passed
        assert verify_blend_bounds(50_000, seed=4, alpha=lam - eps).passed

    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_ratio_bounds_eps_sweep(self, eps):
        assert not verify_ratio_bounds(50_000, seed=4, alpha1=RATIO_LOWER + eps).passed
        assert verify_ratio_bounds(50_000, seed=4, alpha1=RATIO_LOWER - eps).passed
        assert not verify_ratio_bounds(50_000, seed=4, beta1=RATIO_UPPER - eps).passed
        assert verify_ratio_bounds(50_000, seed=4, beta1=RATIO_UPPER + eps).passed


class TestSharpBlendAsymptote:
    def test_blend_over_seiffert_ratio_tends_to_one(self):
        # at a/b = 1e10 the sharp blend sits within 1e-8 of the Seiffert mean
        lam = blend_alpha_closed()
        x = 1e10
        pair = PositivePair(x, 1.0)
        ratio = mean("blend", pair, lam) / mean("seiffert", pair)
        assert abs(ratio - 1.0) < 1e-8
        assert ratio < 1.0  # still strictly below


class TestVerifyPriorsAndChain:
    def test_priors_pass(self):
        res = verify_prior_bounds(100_000, seed=0)
        assert res.passed
        assert all(v > 0.0 for v in res.stats.values())

    def test_chain_passes(self):
        res = verify_ordering_chain(100_000, seed=0)
        assert res.passed
        assert res.min_slack_left > 0.0 and res.min_slack_right > 0.0

    @staticmethod
    def chain_slacks(x):
        """The chain's relative slacks at the pair (x, 1) in 50 digits: the
        minima of (A-G, Cbar-A, T-A)/A and of (S-Cbar, C-S, S-T)/A."""
        with mp.workdps(50):
            g, a, cb, s, c, t = (fn(x, 1.0, dps=50) for fn in (
                oracle.geometric, oracle.arithmetic, oracle.centroidal,
                oracle.root_square, oracle.contra_harmonic, oracle.seiffert,
            ))
            return min(a - g, cb - a, t - a) / a, min(s - cb, c - s, s - t) / a

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("ratio_max", [1.00001, 1.5, 1e8, 1e300])
    def test_chain_slacks_match_the_oracle(self, ratio_max, seed):
        # the slacks are formed in profile form, not as differences of
        # rounded means, so they keep full relative accuracy however close
        # to the diagonal their minimum lies
        res = verify_ordering_chain(20_000, seed=seed, ratio_max=ratio_max)
        assert res.passed
        assert 1.0 < min(res.arg_left, res.arg_right) and max(res.arg_left, res.arg_right) <= ratio_max
        left, right = self.chain_slacks(res.arg_left)[0], self.chain_slacks(res.arg_right)[1]
        assert abs(res.min_slack_left - left) <= 1e-14 * left
        assert abs(res.min_slack_right - right) <= 1e-14 * right

    def test_every_chain_slack_matches_the_oracle(self, monkeypatch):
        # not only the minima: the chain row's slacks at each ratio of a block
        # from 1 + 1e-12 to 1e300, near the diagonal and at the far end
        x = np.concatenate([1.0 + np.geomspace(1e-12, 1.0, 60), np.geomspace(2.5, 1e300, 60)])
        monkeypatch.setattr(sharp, "sample_ratios", lambda rng, n, ratio_max, include_boundary, **kw: x)
        monkeypatch.setattr(sharp, "_BLOCK", len(x))
        (blk,) = sharp._ratio_blocks(0, len(x), 2.0, 0, len(x))
        folds, checks = sharp._ROWS["chain"]().block(*blk[:4])
        slacks = folds["left"][0].tolist(), folds["right"][0].tolist()  # the checks overwrite their rows
        tally = sharp._Tally()
        tally.add(blk, folds, checks)
        assert len(checks) == 2 and tally.found is None
        for xi, got_left, got_right in zip(x.tolist(), *slacks):
            left, right = self.chain_slacks(xi)
            assert abs(got_left - left) <= 1e-14 * left, xi
            assert abs(got_right - right) <= 1e-14 * right, xi


class TestGridScan:
    def test_monotone_scan(self):
        # a numpy integer is a count too
        scan = ratio_grid_scan(np.int64(200_000))
        assert scan["n"] == 200_000 and type(scan["n"]) is int
        assert scan["monotone_decreasing"]
        assert scan["inf"] == pytest.approx(RATIO_LOWER, abs=1e-6)
        assert scan["sup"] == pytest.approx(RATIO_UPPER, abs=1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            ratio_grid_scan(100, t_min=0.0)

    @pytest.mark.parametrize("n", [0, 1, 1e4, 2.5, True])
    def test_needs_two_points(self, n):
        # one point cannot show monotonicity; zero has no extremes; and the
        # count is an integer, which numpy's linspace would refuse with its
        # own TypeError
        with pytest.raises(DomainError):
            ratio_grid_scan(n)


class TestConstantsReport:
    def test_all_constants(self):
        reports = {r.name: r for r in constants_report()}
        assert set(reports) == {"blend_alpha", "blend_beta", "ratio_alpha", "ratio_beta"}
        for rep in reports.values():
            assert rep.abs_gap <= sb.CONSTANT_GAP_LIMIT
            assert rep.witness is not None
            assert rep.witness.lhs > rep.witness.rhs
        assert reports["blend_alpha"].abs_gap <= 1e-12
        assert reports["ratio_alpha"].closed_form == pytest.approx(0.2732395447351627, rel=1e-15)
        assert reports["ratio_beta"].closed_form == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert reports["blend_beta"].closed_form == 1.0

    def test_scalar_scans_match_a_bulk_reference(self):
        # the report's stdlib scans against the kernel pass on the same grids:
        # the series branch (t <= 1/2) bit for bit, the direct one within a
        # few ulp of r (math.atan against np.arctan), and each ratio witness
        # at the grid's first violation
        from seiffert_bounds import means

        def r(t):
            return means._ratio(np.array(t))[0]

        reports = {rep.name: rep for rep in constants_report()}
        r_small = r(means._geomspace(1e-8, 1e-2, 400))
        assert reports["ratio_beta"].discovered == np.max(r_small)
        assert reports["blend_beta"].discovered == np.max(0.5 * (1.0 + np.sqrt(3.0 * r_small)))
        inf_ref = np.min(r(1.0 - np.array(means._geomspace(1e-10, 1e-2, 400))))
        assert abs(reports["ratio_alpha"].discovered - inf_ref) <= 8 * np.spacing(inf_ref)
        upper_ts = np.array(means._geomspace(1e-6, 1.0 - 1e-10, 2000))
        lower_ts = 1.0 - np.array(means._geomspace(1e-10, 0.5, 2000))
        for name, ts, fails in (
            ("ratio_beta", upper_ts, lambda v: v >= RATIO_UPPER - 1e-6),
            ("ratio_alpha", lower_ts, lambda v: v <= RATIO_LOWER + 1e-6),
        ):
            k = int(np.flatnonzero(fails(r(ts)))[0])
            assert reports[name].witness.ratio == (1.0 + ts[k]) / (1.0 - ts[k])

    def test_witnesses_violate_under_oracle(self):
        reports = {r.name: r for r in constants_report()}
        w = reports["blend_alpha"].witness
        lam = blend_alpha_closed()
        assert oracle.blend(lam + w.shift, w.ratio, 1.0, dps=40) > oracle.seiffert(w.ratio, 1.0, dps=40)
        w = reports["blend_beta"].witness
        assert oracle.seiffert(w.ratio, 1.0, dps=40) > oracle.blend(1.0 + w.shift, w.ratio, 1.0, dps=40)
        w = reports["ratio_alpha"].witness
        assert float(oracle.excess_ratio_from_means(w.ratio, dps=40)) < RATIO_LOWER + w.shift
        w = reports["ratio_beta"].witness
        assert float(oracle.excess_ratio_from_means(w.ratio, dps=40)) > RATIO_UPPER + w.shift
