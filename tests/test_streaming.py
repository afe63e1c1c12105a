"""The blocked sweep engine: block-size invariance, witness precedence, memory."""

import math
import tracemalloc

import numpy as np
import pytest

from seiffert_bounds import DomainError, kernels, means, sharp
from seiffert_bounds.sharp import (
    RATIO_LOWER,
    RATIO_UPPER,
    blend_alpha_closed,
    sample_ratios,
    verify_blend_bounds,
    verify_ordering_chain,
    verify_prior_bounds,
    verify_ratio_bounds,
)

SMALL_BLOCK = 1_000

CASES = {
    "thm1": (verify_blend_bounds, {}),
    "thm1-alpha-out": (verify_blend_bounds, {"alpha": blend_alpha_closed() + 1e-4}),
    "thm1-beta-out": (verify_blend_bounds, {"beta": 1.0 - 1e-6}),
    "thm2": (verify_ratio_bounds, {}),
    "thm2-alpha1-out": (verify_ratio_bounds, {"alpha1": RATIO_LOWER + 1e-6}),
    "thm2-beta1-out": (verify_ratio_bounds, {"beta1": RATIO_UPPER - 1e-6}),
    "priors": (verify_prior_bounds, {}),
    # far-end ties: both lower margins fail, the first in margin order is named
    "priors-far-end": (verify_prior_bounds, {"ratio_max": 1e300}),
    "chain": (verify_ordering_chain, {}),
}


def _run(monkeypatch, block, fn, n, **kw):
    monkeypatch.setattr(sharp, "_BLOCK", block)
    return fn(n, seed=3, **kw)


@pytest.mark.parametrize("n", [SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_independent_of_block_size(monkeypatch, case, n):
    fn, kw = CASES[case]
    blocked = _run(monkeypatch, SMALL_BLOCK, fn, n, **kw)
    whole = _run(monkeypatch, 10 * n, fn, n, **kw)
    assert blocked == whole
    assert blocked.as_report() == whole.as_report()
    if case.endswith("-out") or case == "priors-far-end":
        assert not blocked.passed


@pytest.mark.parametrize("ratio_max", [1e8, 1e300])
@pytest.mark.parametrize("case", sorted(case for case in CASES if "ratio_max" not in CASES[case][1]))
def test_report_independent_of_block_size_at_the_default_block(monkeypatch, case, ratio_max):
    # every block of a sweep reuses one workspace: three blocks at the real
    # block size, the short last one carrying the boundary points, must
    # report what one whole-sample block reports
    fn, kw = CASES[case]
    n = 2 * sharp._BLOCK + 7
    blocked = _run(monkeypatch, sharp._BLOCK, fn, n, ratio_max=ratio_max, **kw)
    whole = _run(monkeypatch, 10 * n, fn, n, ratio_max=ratio_max, **kw)
    assert blocked == whole
    assert blocked.as_report() == whole.as_report()
    if case.endswith("-out"):
        assert not blocked.passed


def test_chain_tie_in_a_later_block_is_its_witness(monkeypatch):
    # G planted equal to A at one sample of the second block: the chain's
    # ordering, read from the signs of its slack minima, must fail there
    original = kernels._geometric
    planted = {}

    def tied(a, b, *rows):
        g = original(a, b, *rows)
        planted["calls"] = planted.get("calls", 0) + 1
        if planted["calls"] == 2:
            i = len(a) // 3
            planted["pair"] = (float(a[i]), float(b[i]))
            g[i] = means.arithmetic_values(float(a[i]), float(b[i]))
        return g

    monkeypatch.setattr(kernels, "_geometric", tied)
    n = 2 * sharp._BLOCK + 7
    res = verify_ordering_chain(n, seed=5)
    a, b = planted["pair"]
    assert not res.passed
    assert res.witness == {"ratio": res.witness["ratio"], "side": "chain", "lhs": a, "rhs": b}
    assert res.witness["ratio"] == pytest.approx(a / b, rel=1e-15)
    assert res.min_slack_left == 0.0 and res.arg_left == res.witness["ratio"]


@pytest.mark.parametrize("ratio_max", [1.5, 10.0, 1e3])
@pytest.mark.parametrize("case", sorted(case for case in CASES if "ratio_max" not in CASES[case][1]))
def test_reported_ratios_stay_in_range(case, ratio_max):
    fn, kw = CASES[case]
    res = fn(2_000, seed=4, ratio_max=ratio_max, **kw)
    ratios = [res.arg_left, res.arg_right]
    ratios += [res.stats[key] for key in ("arg_inf", "arg_sup") if key in res.stats]
    if res.witness is not None:
        ratios.append(res.witness["ratio"])
    assert all(1.0 < x <= ratio_max for x in ratios), ratios


class TestUnchangedStream:
    """Reports at 70k samples (two default blocks) match a single full-length scan."""

    def test_chain_reads_scales_after_all_ratios(self):
        res = verify_ordering_chain(70_000, seed=11)
        assert res.passed and res.n_samples == 70_000
        # (seiffert - A)/A at the arg sample is 8.1152815077968362e-10 (mpmath,
        # 50 digits); the double slack carries ~1e-7 relative cancellation
        # noise, so it is pinned together with its distance from that value
        assert res.min_slack_left == 8.115282212714605e-10
        assert abs(res.min_slack_left - 8.1152815077968362e-10) <= 4.5e-16
        assert res.min_slack_right == 4.057640077483373e-10
        assert res.arg_left == res.arg_right == 1.0000986878862645

    def test_thm1_shifted_witness(self):
        res = verify_blend_bounds(70_000, seed=11, alpha=blend_alpha_closed() + 1e-4)
        assert res.n_samples == 70_018
        assert res.witness == {
            "ratio": 9867.858186837222, "side": "lower",
            "lhs": 6282.759326260579, "rhs": 6282.247604801329,
        }
        assert res.min_slack_left == -0.00012072940944812816

    def test_thm2_shifted_witness_and_stats(self):
        res = verify_ratio_bounds(70_000, seed=11, beta1=RATIO_UPPER - 1e-6)
        assert res.n_samples == 70_018
        assert res.witness == {
            "ratio": 1.0055302745730754, "side": "upper",
            "lhs": 0.3333326574360645, "rhs": 0.33333233333333334,
        }
        assert res.stats == {
            "inf": 0.273239546411343, "sup": 0.3333333333333333,
            "arg_inf": 100000000.0, "arg_sup": 1.00000001,
        }

    def test_priors_margin_order(self):
        res = verify_prior_bounds(70_000, seed=11, ratio_max=1e300)
        assert res.witness == {
            "ratio": 2115183919509234.5, "side": "lower_S_combination",
            "lhs": -1.1102230246251565e-16, "rhs": 0.0,
        }
        assert res.arg_left == 3715998804182975.5


def _inflated_seiffert(monkeypatch, factor):
    # the suites build the raw Seiffert mean as A·q from the kernel's q
    original = sharp._ratio_kernel

    def inflated(t, **kw):
        r, upper, q = original(t, **kw)
        return r, upper, q * factor

    monkeypatch.setattr(sharp, "_ratio_kernel", inflated)


class TestRawMeanWitness:
    """The raw-mean check reports the broken side's own pair of means."""

    def test_thm2_upper_side_names_seiffert_and_upper_mean(self, monkeypatch):
        _inflated_seiffert(monkeypatch, 1.0 + 1e-9)
        res = verify_ratio_bounds(5_000, seed=0)
        w = res.witness
        assert not res.passed and w["side"] == "upper"
        x = w["ratio"]
        contra, arith = means.contra_harmonic_values(x, 1.0), (x + 1.0) / 2.0
        upper_mean = RATIO_UPPER * contra + (1.0 - RATIO_UPPER) * arith
        q = kernels._ratio_kernel(kernels._profile(x, 1.0)[1])[2]
        assert w["lhs"] == float(arith * (q * (1.0 + 1e-9)))
        assert w["lhs"] >= w["rhs"]
        assert w["rhs"] == pytest.approx(float(upper_mean), rel=1e-15)

    def test_thm2_lower_side_names_lower_mean_and_seiffert(self, monkeypatch):
        _inflated_seiffert(monkeypatch, 1.0 - 1e-6)
        w = verify_ratio_bounds(5_000, seed=0).witness
        assert w["side"] == "lower" and w["lhs"] >= w["rhs"]

    def test_margin_witness_outranks_earlier_raw_mean_witness(self, monkeypatch):
        # beta just below 1 breaks the upper margin only at the near-diagonal
        # boundary points, which close the last block; the inflated Seiffert
        # mean breaks the raw-mean check at a sampled ratio in the first block.
        # That is shown at beta = 1, where no margin breaks; beta below 1 only
        # lowers the upper mean, so the raw-mean check breaks there too.
        n, beta = 3 * SMALL_BLOCK + 7, 1.0 - 1e-8
        x = sample_ratios(np.random.default_rng(0), n)
        _inflated_seiffert(monkeypatch, 1.0 + 1e-9)
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        raw = verify_blend_bounds(n, seed=0)
        assert raw.min_slack_left > 0.0 and raw.min_slack_right > 0.0
        assert np.flatnonzero(x == raw.witness["ratio"])[0] < SMALL_BLOCK
        res = verify_blend_bounds(n, seed=0, beta=beta)
        assert np.flatnonzero(x == res.witness["ratio"])[0] >= n
        assert res.witness["side"] == "upper" and res.witness["ratio"] < 1.001
        monkeypatch.setattr(sharp, "_BLOCK", 10 * n)
        assert verify_blend_bounds(n, seed=0, beta=beta) == res


@pytest.mark.parametrize(
    "fn", [verify_blend_bounds, verify_ratio_bounds, verify_prior_bounds, verify_ordering_chain]
)
def test_memory_bounded_at_1e6_samples(fn):
    fn(1_000)  # first-call caches are not part of the sweep's footprint
    tracemalloc.start()
    try:
        res = fn(10**6, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 4 * 2**20  # cache-sized blocks; was 32 MiB at blocks of 1 << 16


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(np.size(args[0]))
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkOncePerBlock:
    """Each block runs the r(t) kernel once, which gives its margins and its
    Seiffert mean, and builds no profile besides chain's own and the blended
    pairs of priors."""

    N = 3 * SMALL_BLOCK + 7

    @pytest.mark.parametrize("fn", [verify_blend_bounds, verify_ratio_bounds, verify_prior_bounds])
    def test_kernel_and_seiffert_core_once(self, monkeypatch, fn):
        # the Seiffert mean is A times the kernel's q
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        kernel = _counting(monkeypatch, sharp, "_ratio_kernel")
        res = fn(self.N, seed=2)
        assert res.passed
        assert len(kernel) == 4
        assert sum(kernel) == res.n_samples

    @pytest.mark.parametrize(
        "fn", [verify_blend_bounds, verify_ratio_bounds, verify_prior_bounds, verify_ordering_chain]
    )
    def test_one_quotient_per_block(self, monkeypatch, fn):
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        arctan = _counting(monkeypatch, np, "arctan")
        profile = _counting(monkeypatch, kernels, "_profile")
        seiffert = _counting(monkeypatch, means, "seiffert_values")
        assert fn(self.N, seed=2).passed
        arctans, profiles = {
            verify_blend_bounds: (4, 0),
            verify_ratio_bounds: (4, 0),
            verify_prior_bounds: (4, 2 * 4),
            verify_ordering_chain: (4, 4),
        }[fn]
        assert len(arctan) == arctans
        assert len(profile) == profiles
        assert seiffert == []


def test_block_profile_means_equal_the_cores(monkeypatch):
    # the raw-mean checks build A·f(t) from the block's own t with the bulk
    # kernels; that must be the scalar cores' value at (x, 1), bit for bit
    # for the rational factors and the series branch of t/arctan t, and
    # within 1 ulp for its quotient (np.arctan against math.atan), across the
    # whole ratio range and on both sides of the t = 1e-3 floor of the
    # raw-mean check and of the series switch at t = 1/2 (x = 3)
    floor_x = (1.0 + 1e-3) / (1.0 - 1e-3)
    x = np.concatenate([
        1.0 + np.geomspace(1e-12, 1e-2, 5_000),
        np.geomspace(1.01, 1e300, 5_000),
        floor_x + np.arange(-8, 9) * np.spacing(floor_x),
        3.0 + np.arange(-8, 9) * np.spacing(3.0),
    ])
    monkeypatch.setattr(sharp, "sample_ratios", lambda rng, n, ratio_max, include_boundary, **kw: x)
    monkeypatch.setattr(sharp, "_BLOCK", len(x))
    (xb, t, _, _), = sharp._ratio_blocks(0, len(x), 2.0, 1, 0)
    assert np.array_equal(t, kernels._profile(x, 1.0)[1])
    assert np.any(t[-34:-17] < 1e-3) and np.any(t[-34:-17] >= 1e-3)
    assert np.any(t[-17:] == 0.5) and np.any(t[-17:] > 0.5)
    am = sharp._half_sum(xb, np.empty(len(x)))

    def cores(fn, *param):
        return np.array([fn(*param, xi, 1.0) for xi in x.tolist()])

    for p in (0.5, blend_alpha_closed(), 0.99, 1.0):
        assert np.array_equal(am * kernels._blend_factor(p, t), cores(means.blend_values, p))
    # the sweeps take t² from the kernel pass
    tt, *rest = np.empty((4, len(t)))
    q = kernels._ratio_kernel(t, out=(tt, *rest))[2]
    assert np.array_equal(tt, t * t)
    assert np.array_equal(am * kernels._contra_harmonic_factor(tt), cores(means.contra_harmonic_values))
    assert np.array_equal(am * kernels._root_square_factor(tt), cores(means.root_square_values))
    assert np.array_equal(am * kernels._centroidal_factor(tt), cores(means.centroidal_values))
    bulk, scalar = am * q, cores(means.seiffert_values)
    series = t <= 0.5
    assert np.array_equal(bulk[series], scalar[series])
    assert np.all(np.abs(bulk - scalar) <= np.spacing(scalar))
    # the chain's G, pair by pair, the diagonal included
    b = np.concatenate([np.ones(len(x)), x])
    a = np.concatenate([x, x])
    g = kernels._geometric(a, b, np.empty(len(a)), np.empty(len(a)), np.empty(len(a), dtype=bool))
    assert np.array_equal(g, [means.geometric_values(ai, bi) for ai, bi in zip(a.tolist(), b.tolist())])


class TestRatioKernel:
    def test_matches_two_branch_evaluation(self):
        # series (full Horner from zero) below the switch, direct quotient above
        t = np.concatenate([
            np.geomspace(1e-12, 1.0 - 1e-12, 20_001),
            [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
        ])
        u = t * t
        series = np.zeros_like(u)
        for c in kernels._RATIO_COEFFS[::-1]:
            series = series * u + c
        tail = np.zeros_like(u)
        for c in kernels._RATIO_COEFFS[:0:-1]:
            tail = tail * u + c
        direct = (t / np.arctan(t) - 1.0) / (t * t)
        small = t <= 0.5
        r, upper, q = kernels._ratio_kernel(t)
        assert np.array_equal(r, np.where(small, series, direct))
        assert np.array_equal(upper, np.where(small, -u * tail, RATIO_UPPER - direct))
        # q = t/arctan t is 1 + u·r(t) below the switch
        assert np.array_equal(q, np.where(small, 1.0 + u * series, t / np.arctan(t)))

    def test_scalar_and_shaped_input(self):
        grid = np.array([[0.1, 0.6], [0.3, 0.9]])
        parts = kernels._ratio_kernel(grid)
        for flat, part in zip(kernels._ratio_kernel(grid.ravel()), parts):
            assert part.shape == (2, 2)
            assert np.array_equal(part.ravel(), flat)
        assert kernels._ratio_kernel(0.3)[2] == parts[2][1, 0]
        vals = sharp.excess_ratio(grid)
        assert vals.shape == (2, 2)
        assert vals[1, 0] == sharp.excess_ratio(0.3)
        assert isinstance(sharp.excess_ratio_upper_margin(np.float64(0.2)), float)


class TestSamplingInputs:
    @pytest.mark.parametrize("ratio_max", [math.inf, math.nan])
    def test_non_finite_ratio_max_rejected(self, ratio_max):
        with pytest.raises(DomainError):
            sample_ratios(np.random.default_rng(0), 10, ratio_max=ratio_max)
        with pytest.raises(DomainError):
            verify_ratio_bounds(10, ratio_max=ratio_max)

    def test_chain_needs_a_sample(self):
        with pytest.raises(DomainError):
            verify_ordering_chain(0)

    @pytest.mark.parametrize(
        "fn", [verify_blend_bounds, verify_ratio_bounds, verify_prior_bounds, verify_ordering_chain]
    )
    def test_negative_seed_rejected(self, fn):
        with pytest.raises(DomainError, match="seed"):
            fn(10, seed=-1)

    @pytest.mark.parametrize("ratio_max", [math.nan, math.inf, 0.5, 1.0])
    def test_chain_ratio_max_must_exceed_one(self, ratio_max):
        with pytest.raises(DomainError, match="ratio_max"):
            verify_ordering_chain(10, ratio_max=ratio_max)

    @pytest.mark.parametrize("ratio_max", [1.00001, 1.0 + 2e-5])
    def test_chain_ratio_max_must_exceed_its_floor(self, ratio_max):
        # the chain draws x in [1 + 2e-5, ratio_max]; at or below the floor
        # that range is empty and the draws would land above ratio_max
        with pytest.raises(DomainError, match="1 \\+ 2e-5"):
            verify_ordering_chain(100, ratio_max=ratio_max)

    def test_chain_just_above_its_floor_stays_in_range(self):
        ratio_max = 1.0000201
        res = verify_ordering_chain(100, ratio_max=ratio_max)
        assert res.passed
        assert 1.0 + 2e-5 <= min(res.arg_left, res.arg_right)
        assert max(res.arg_left, res.arg_right) <= ratio_max
