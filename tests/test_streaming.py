"""The blocked sweep engine: block-size invariance, witness precedence, memory."""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from seiffert_bounds import DomainError, means, sharp
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
    # T planted equal to A at one sample of the second block (r = 0 there,
    # so (T - A)/A = t²·r is 0): the chain's left slack must fail there
    original = sharp._ratio
    planted = {}

    def tied(t, **kw):
        r, upper, q = original(t, **kw)
        planted["calls"] = planted.get("calls", 0) + 1
        if planted["calls"] == 2:
            i = len(t) // 3
            planted["t"] = float(t[i])
            r[i] = 0.0
        return r, upper, q

    monkeypatch.setattr(sharp, "_ratio", tied)
    n = 2 * sharp._BLOCK + 7
    res = verify_ordering_chain(n, seed=5)
    assert not res.passed
    assert res.witness == {"ratio": res.witness["ratio"], "side": "lower", "lhs": 0.0, "rhs": 0.0}
    x = res.witness["ratio"]
    assert (x - 1.0) / (x + 1.0) == planted["t"]
    assert res.min_slack_left == 0.0 and res.arg_left == x


@pytest.mark.parametrize(
    "case, side", [("thm1", "lower"), ("thm2", "lower"), ("priors", "lower_S_combination"), ("chain", "lower")],
)
def test_nan_margin_is_its_witness(monkeypatch, case, side):
    # r(t) planted NaN at one sample: a margin that is not positive fails,
    # NaN included, and names that sample
    original = sharp._ratio
    planted = {}

    def nan_at_one(t, **kw):
        r, upper, q = original(t, **kw)
        i = len(t) // 3
        planted["t"] = float(t[i])
        r[i] = math.nan
        return r, upper, q

    monkeypatch.setattr(sharp, "_ratio", nan_at_one)
    fn, kw = CASES[case]
    res = fn(2_989, seed=2, **kw)
    assert res.n_samples == 3_007
    assert not res.passed
    assert res.witness["side"] == side
    x = res.witness["ratio"]
    assert (x - 1.0) / (x + 1.0) == planted["t"]
    assert math.isnan(res.min_slack_left)


@pytest.mark.parametrize("ratio_max", [1.00001, 1.5, 10.0, 1e3])
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
        # the chain reads the ratios of the other suites, the boundary points
        # included, and its slacks are within one ulp of their mpmath values
        # (50 digits) at the arg sample 1 + 1e-9: (T - A)/A on the left and
        # (S - Cbar)/A on the right
        res = verify_ordering_chain(70_000, seed=11)
        assert res.passed and res.n_samples == 70_018
        assert res.min_slack_left == 8.333334704006239e-20
        assert abs(res.min_slack_left - 8.3333347040062383051e-20) <= math.ulp(res.min_slack_left)
        assert res.min_slack_right == 4.166667352003119e-20
        assert abs(res.min_slack_right - 4.166667352003119152e-20) <= math.ulp(res.min_slack_right)
        assert res.arg_left == res.arg_right == 1.000000001

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
    # each block forms the raw Seiffert mean T = A·q from the kernel's q
    original = sharp._ratio

    def inflated(t, **kw):
        r, upper, q = original(t, **kw)
        return r, upper, q * factor

    monkeypatch.setattr(sharp, "_ratio", inflated)


class TestFirstBroken:
    """The one check rule of every suite: the first sample where some lo < hi fails."""

    @staticmethod
    def first(pairs, t=None):
        # every row of these tests holds six samples
        return sharp._first_broken(pairs, [np.empty(6, dtype=bool), np.empty(6, dtype=bool)], t)

    def test_every_pair_holds(self):
        lo = np.arange(6.0)
        assert self.first([(lo, lo + 1.0), (0.0, lo + 0.5), (-lo - 1.0, lo)]) is None

    @pytest.mark.parametrize(
        "lo_at, hi_at", [(1.0, 1.0), (math.nan, 2.0), (0.0, math.nan), (math.nan, math.nan)],
        ids=["tie", "nan-lo", "nan-hi", "nan-both"],
    )
    def test_ties_and_nan_fail(self, lo_at, hi_at):
        lo, hi = np.zeros(6), np.ones(6)
        lo[4], hi[4] = lo_at, hi_at
        assert self.first([(lo, hi)]) == 4
        assert self.first([(hi - 2.0, hi), (lo, hi)]) == 4

    def test_margin_enters_against_zero(self):
        margin = np.array([1.0, 2e-300, 3.0, 0.0, -1.0, math.nan])
        assert self.first([(0.0, margin)]) == 3
        assert self.first([(0.0, np.abs(margin))]) == 3
        margin[3] = 1.0
        assert self.first([(0.0, margin)]) == 4

    def test_the_first_sample_over_all_pairs_wins(self):
        ones = np.ones(6)
        late, early = ones.copy(), ones.copy()
        late[1], early[4] = 0.0, 0.0
        # the pair that breaks later comes first, and the other breaks earlier
        assert self.first([(0.0, early), (0.0, late)]) == 1
        assert self.first([(0.0, late), (0.0, early)]) == 1

    def test_floor_of_t(self):
        below = np.nextafter(sharp._DIRECT_T_FLOOR, 0.0)
        t = np.array([0.5, below, sharp._DIRECT_T_FLOOR, 0.5, 0.5, 0.5])
        lo, hi = np.zeros(6), np.ones(6)
        lo[1] = math.nan
        assert self.first([(lo, hi)], t) is None
        assert self.first([(lo, hi)]) == 1
        lo[2] = 1.0
        assert self.first([(lo, hi)], t) == 2

    def test_a_generator_that_reuses_one_row(self):
        # every pair is written into the same row before it is compared
        row, hi = np.empty(6), np.full(6, 10.0)

        def pairs(*shifts):
            for shift in shifts:
                np.add(np.arange(6.0), shift, out=row)
                yield row, hi

        # arange + 9 ties 10 at sample 1 and arange + 5 first at sample 5;
        # arange + 0 holds everywhere, so a pair compared only after the
        # next one overwrote the row would go unseen
        assert self.first(pairs(9.0, 0.0)) == 1
        assert self.first(pairs(0.0, 5.0, 0.0)) == 5
        assert self.first(pairs(0.0, 4.0)) is None


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
        q = means._ratio(means._profile(x, 1.0)[1])[2]
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
    assert peak < 2 * 2**20  # one core's L2 (see sharp._BLOCK); was 32 MiB at blocks of 1 << 16


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(np.size(args[0]))
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _workspace_sizes(monkeypatch):
    """The (float, bool) row counts of the workspace of every block stream
    run from now on: the arrays that its blocks' rows are views of."""
    sizes = []
    original = sharp._ratio_blocks

    def blocks(*args):
        floats, flags = {}, {}
        for blk in original(*args):
            x, t, shared, pool, bits = blk
            floats.update((id(row.base), row.base) for row in (x, t, *shared, *pool))
            flags.update((id(row.base), row.base) for row in bits)
            yield blk
        sizes.append((len(floats), len(flags)))

    monkeypatch.setattr(sharp, "_ratio_blocks", blocks)
    return sizes


def _plant_shared_nan(monkeypatch, index):
    """Every block stream from now on fills its shared row ``index`` with NaN
    as it yields each block."""
    original = sharp._ratio_blocks

    def planted(*args):
        for blk in original(*args):
            blk[2][index][:] = np.nan
            yield blk

    monkeypatch.setattr(sharp, "_ratio_blocks", planted)


class TestWorkOncePerBlock:
    """Each block runs the r(t) kernel once, which gives its margins and its
    Seiffert mean, and builds no profile besides the blended pairs of
    priors."""

    N = 3 * SMALL_BLOCK + 7

    @pytest.mark.parametrize(
        "fn", [verify_blend_bounds, verify_ratio_bounds, verify_prior_bounds, verify_ordering_chain]
    )
    def test_kernel_and_seiffert_core_once(self, monkeypatch, fn):
        # the Seiffert mean is A times the kernel's q
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        kernel = _counting(monkeypatch, sharp, "_ratio")
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
        profile = _counting(monkeypatch, means, "_profile")
        seiffert = _counting(monkeypatch, means, "seiffert_values")
        assert fn(self.N, seed=2).passed
        arctans, profiles = {
            verify_blend_bounds: (4, 0),
            verify_ratio_bounds: (4, 0),
            verify_prior_bounds: (4, 2 * 4),
            verify_ordering_chain: (4, 0),
        }[fn]
        assert len(arctan) == arctans
        assert len(profile) == profiles
        assert seiffert == []

    @pytest.mark.parametrize("index", [0, 4], ids=["A", "T"])
    @pytest.mark.parametrize(
        "name, side", [("thm1", "lower"), ("thm2", "lower"), ("priors", "raw-mean"), ("chain", "chain")]
    )
    def test_every_raw_mean_check_reads_the_block_a_and_t(self, monkeypatch, index, name, side):
        # a NaN planted in the block's A or T row after the kernel pass
        # breaks every suite's raw-mean check, and no margin: no row forms A
        # or A·q of its own
        _plant_shared_nan(monkeypatch, index)
        res = sharp._run([(name, {})], 3_000, 2, 1e8)[0]
        assert res.min_slack_left > 0.0 and res.min_slack_right > 0.0
        assert res.witness is not None and res.witness["side"] == side


def test_block_profile_means_equal_the_cores(monkeypatch):
    # the raw-mean checks read the block's A and T = A·q and build A·f(t)
    # from its own t with the bulk twins; that must be the scalar cores'
    # value at (x, 1), bit for bit for A, the rational factors and the series
    # branch of t/arctan t, and within 1 ulp for its quotient (np.arctan
    # against math.atan), across the whole ratio range and on both sides of
    # the t = 1e-3 floor of the raw-mean check and of the series switch at
    # t = 1/2 (x = 3)
    floor_x = (1.0 + 1e-3) / (1.0 - 1e-3)
    x = np.concatenate([
        1.0 + np.geomspace(1e-12, 1e-2, 5_000),
        np.geomspace(1.01, 1e300, 5_000),
        floor_x + np.arange(-8, 9) * np.spacing(floor_x),
        3.0 + np.arange(-8, 9) * np.spacing(3.0),
    ])
    monkeypatch.setattr(sharp, "sample_ratios", lambda rng, n, ratio_max, include_boundary, **kw: x)
    monkeypatch.setattr(sharp, "_BLOCK", len(x))
    (_, t, (am, tt, _, _, seif), _, _), = sharp._ratio_blocks(0, len(x), 2.0, 0, len(x))
    assert np.array_equal(t, means._profile(x, 1.0)[1])
    assert np.any(t[-34:-17] < 1e-3) and np.any(t[-34:-17] >= 1e-3)
    assert np.any(t[-17:] == 0.5) and np.any(t[-17:] > 0.5)

    def cores(fn, *param):
        return np.array([fn(*param, xi, 1.0) for xi in x.tolist()])

    # A = fl(x + 1)/2 is the core's x/2 + 1/2, and T is A·q, formed once
    assert np.array_equal(am, cores(means.arithmetic_values))
    assert np.array_equal(seif, am * means._ratio(t)[2])
    for p in (0.5, blend_alpha_closed(), 0.99, 1.0):
        assert np.array_equal(am * means._blend_factor(p, t), cores(means.blend_values, p))
    # the sweeps take t² from the kernel pass
    assert np.array_equal(tt, t * t)
    assert np.array_equal(am * means._contra_harmonic_factor(tt), cores(means.contra_harmonic_values))
    assert np.array_equal(am * means._root_square_factor(tt), cores(means.root_square_values))
    assert np.array_equal(am * means._centroidal_factor(tt), cores(means.centroidal_values))
    bulk, scalar = seif, cores(means.seiffert_values)
    series = t <= 0.5
    assert np.array_equal(bulk[series], scalar[series])
    assert np.all(np.abs(bulk - scalar) <= np.spacing(scalar))
    # the chain's G is sqrt(x)
    assert np.array_equal(np.sqrt(x), cores(means.geometric_values))
    # the profile's three forms on pairs (x, 1) and on the diagonal (x, x),
    # both ways round: per float, on the arrays, and in place
    b = np.concatenate([np.ones(len(x)), x])
    a = np.concatenate([x, x])
    for lhs, rhs in ((a, b), (b, a)):
        per_float = np.array([means._profile(ai, bi) for ai, bi in zip(lhs.tolist(), rhs.tolist())]).T
        on_arrays = means._profile(lhs, rhs)
        in_place = means._profile(lhs.copy(), rhs, out=(np.empty(len(a)), np.empty(len(a))))
        for form in (on_arrays, in_place):
            assert all(np.array_equal(f, p) for f, p in zip(form, per_float))


class TestRatioKernel:
    def test_matches_two_branch_evaluation(self):
        # series (full Horner from zero) below the switch, direct quotient above
        t = np.concatenate([
            np.geomspace(1e-12, 1.0 - 1e-12, 20_001),
            [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
        ])
        u = t * t
        series = np.zeros_like(u)
        for c in means._RATIO_COEFFS[::-1]:
            series = series * u + c
        tail = np.zeros_like(u)
        for c in means._RATIO_COEFFS[:0:-1]:
            tail = tail * u + c
        direct = (t / np.arctan(t) - 1.0) / (t * t)
        small = t <= 0.5
        r, upper, q = means._ratio(t)
        assert np.array_equal(r, np.where(small, series, direct))
        assert np.array_equal(upper, np.where(small, -u * tail, RATIO_UPPER - direct))
        # q = t/arctan t is 1 + u·r(t) below the switch
        assert np.array_equal(q, np.where(small, 1.0 + u * series, t / np.arctan(t)))

    def test_coefficient_table_is_the_long_division(self):
        # the literal table is the correctly rounded double of every exact
        # coefficient, bit for bit
        exact = means.excess_ratio_taylor(32)
        assert [c.hex() for c in means._RATIO_COEFFS] == [float(c).hex() for c in exact]

    def test_ratio_takes_the_same_steps_on_floats_and_arrays(self):
        # means._ratio on one float, behind the stdlib scans, takes the steps
        # of its array pass: the series branch bit for bit, down to the
        # smallest subnormal and past 1e-160, where t² underflows to 0, and
        # the direct one too wherever math.atan and np.arctan round
        # t/arctan t alike (q within 1 ulp everywhere, 1 - 2⁻⁵³ included);
        # NaN gives NaN on both paths
        t = np.concatenate([
            [0.0, 5e-324, 1e-160], np.geomspace(1e-12, 0.5, 2_000), np.linspace(0.5, 1.0 - 1e-12, 2_000),
            0.5 + np.arange(-8, 9) * np.spacing(0.5), [1.0 - 2.0**-53, math.nan],
        ])
        bulk = means._ratio(t)
        scalar = np.array([means._ratio(x) for x in t.tolist()]).T
        nan = np.isnan(t)
        series = t <= 0.5
        for b, s in zip(bulk, scalar):
            assert np.array_equal(b[series], s[series])
            assert np.isnan(b[nan]).all() and np.isnan(s[nan]).all()
        assert np.all(np.abs(bulk[2] - scalar[2])[~nan] <= np.spacing(bulk[2][~nan]))
        same_q = bulk[2] == scalar[2]
        assert np.count_nonzero(same_q & ~series) > 1_000
        for b, s in zip(bulk, scalar):
            assert np.array_equal(b[same_q], s[same_q])

    @pytest.mark.parametrize(
        "start, stop, num",
        [(1e-8, 1e-2, 400), (1e-6, 1.0 - 1e-10, 2000), (1.5, 1e12, 1200), (1e-5, 1e8 - 1.0, 10**4)],
    )
    def test_stdlib_geomspace(self, start, stop, num):
        # numpy's grid up to libm's rounding of 10**y: exact ends, inner
        # points within 1 ulp
        grid, ref = np.array(means._geomspace(start, stop, num)), np.geomspace(start, stop, num)
        assert len(grid) == num and grid[0] == start and grid[-1] == stop
        assert np.all(np.abs(grid - ref) <= np.spacing(ref))

    def test_scalar_and_shaped_input(self):
        grid = np.array([[0.1, 0.6], [0.3, 0.9]])
        parts = means._ratio(grid)
        for flat, part in zip(means._ratio(grid.ravel()), parts):
            assert part.shape == (2, 2)
            assert np.array_equal(part.ravel(), flat)
        assert means._ratio(0.3)[2] == parts[2][1, 0]
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
        # and a seed or a sample count that is no integer, or is a bool, which
        # numpy would refuse with its own TypeError or take as 1
        for name, value in (("seed", -1), ("seed", 1.5), ("seed", True),
                            ("samples", 1e4), ("samples", True), ("samples", np.True_)):
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                fn(**{"samples": 10, name: value})
        with pytest.raises(DomainError, match="samples must be an integer"):
            sample_ratios(np.random.default_rng(0), 10.0)
        # numpy integers are integers
        assert fn(np.int64(10), seed=np.uint8(2)) == fn(10, seed=2)

    @pytest.mark.parametrize("ratio_max", [math.nan, math.inf, 0.5, 1.0])
    def test_chain_ratio_max_must_exceed_one(self, ratio_max):
        with pytest.raises(DomainError, match="ratio_max"):
            verify_ordering_chain(10, ratio_max=ratio_max)



def _serial(n, seed, ratio_max, keywords):
    """Each suite of ``verify all`` run alone through its public verifier."""
    return [
        verify_blend_bounds(n, seed=seed, ratio_max=ratio_max, **keywords.get("thm1", {})),
        verify_ratio_bounds(n, seed=seed, ratio_max=ratio_max, **keywords.get("thm2", {})),
        verify_prior_bounds(n, seed=seed, ratio_max=ratio_max),
        verify_ordering_chain(n, seed=seed, ratio_max=ratio_max),
    ]


def _shared(n, cpus, seed, ratio_max, keywords):
    """``verify all``'s shared pass in this process: each lane's range in
    turn; returns the ranges, the lanes' tallies and the merged results."""
    rows = [sharp._ROWS[name](**keywords.get(name, {})) for name in ("thm1", "thm2", "priors", "chain")]
    ranges = sharp._lane_ranges(n, cpus)
    lanes = [sharp._lane(rows, seed, n, ratio_max, *r) for r in ranges]
    return ranges, lanes, sharp._finish_lanes(rows, lanes)


def _plant_nan(monkeypatch, x_at):
    """r(t) reads NaN at the sample with ratio ``x_at``, in every pass."""
    original = sharp._ratio
    t_at = (x_at - 1.0) / (x_at + 1.0)

    def planted(t, **kw):
        r, upper, q = original(t, **kw)
        r[t == t_at] = math.nan
        return r, upper, q

    monkeypatch.setattr(sharp, "_ratio", planted)


class TestRangeMerge:
    """Tallies of consecutive sample ranges merge into the serial reports."""

    SEED = 3

    @staticmethod
    def assert_same(shared, serial):
        # repr shows every field, NaN included, which == would not match
        assert [repr(r) for r in shared] == [repr(r) for r in serial]
        for a, b in zip(shared, serial):
            assert json.dumps(a.as_report(), sort_keys=True) == json.dumps(b.as_report(), sort_keys=True)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [3 * SMALL_BLOCK + 7, 4 * SMALL_BLOCK])
    @pytest.mark.parametrize("case", ["sharp", "shifted", "far-end"])
    def test_ranges_merge_into_the_serial_reports(self, monkeypatch, case, n, cpus):
        # n a multiple of the block or not; shifted and far-end fail with
        # witnesses, in the lanes they fall in
        keywords, ratio_max = {}, 1e8
        if case == "shifted":
            keywords = {"thm1": {"alpha": blend_alpha_closed() + 1e-4}, "thm2": {"beta1": RATIO_UPPER - 1e-6}}
        elif case == "far-end":
            ratio_max = 1e300
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        ranges, lanes, shared = _shared(n, cpus, self.SEED, ratio_max, keywords)
        assert len(ranges) == cpus
        self.assert_same(shared, _serial(n, self.SEED, ratio_max, keywords))
        if case != "sharp":
            assert not all(r.passed for r in shared)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_higher_ranked_check_in_a_later_range(self, monkeypatch, cpus):
        # as in test_margin_witness_outranks_earlier_raw_mean_witness: beta
        # just below 1 breaks thm1's margin only at the near-diagonal boundary
        # points, in the last range, and the inflated Seiffert mean breaks its
        # raw-mean check in the first block
        n, keywords = 3 * SMALL_BLOCK + 7, {"thm1": {"beta": 1.0 - 1e-8}}
        _inflated_seiffert(monkeypatch, 1.0 + 1e-9)
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        ranges, lanes, shared = _shared(n, cpus, 0, 1e8, keywords)
        self.assert_same(shared, _serial(n, 0, 1e8, keywords))
        assert shared[0].witness["side"] == "upper" and shared[0].witness["ratio"] < 1.001
        assert lanes[-1][0].found[0] == 0
        if cpus > 1:
            assert lanes[0][0].found[0] == 1  # the raw-mean check fired in the first range

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_nan_fold_in_a_later_range(self, monkeypatch, cpus):
        # a NaN r(t) in the third block: every fold that reads r keeps it
        # over the smaller margins of the earlier ranges, the chain's left
        # slack (T - A)/A = t²·r too
        n = 3 * SMALL_BLOCK + 7
        x = sample_ratios(np.random.default_rng(self.SEED), n)
        _plant_nan(monkeypatch, float(x[2 * SMALL_BLOCK + 5]))
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        _, _, shared = _shared(n, cpus, self.SEED, 1e8, {})
        self.assert_same(shared, _serial(n, self.SEED, 1e8, {}))
        thm1, thm2, priors, chain = shared
        for res in (thm1, thm2, priors, chain):
            assert math.isnan(res.min_slack_left) and res.arg_left == x[2 * SMALL_BLOCK + 5]
        assert math.isnan(thm2.stats["inf"]) and math.isnan(thm2.stats["sup"])

    @pytest.mark.parametrize("cpus", [3, 4, 8])
    def test_more_lanes_than_blocks(self, monkeypatch, cpus):
        n = SMALL_BLOCK + 1
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        ranges, _, shared = _shared(n, cpus, self.SEED, 1e8, {})
        assert ranges == [(0, SMALL_BLOCK), (SMALL_BLOCK, n)]
        self.assert_same(shared, _serial(n, self.SEED, 1e8, {}))

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_boundary_points_only_in_the_last_range(self, monkeypatch, cpus):
        n = 4 * SMALL_BLOCK
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        ranges, lanes, shared = _shared(n, cpus, self.SEED, 1e8, {})
        extra = len(sharp._boundary_points(1e8))
        assert [tallies[0].n for tallies in lanes] == [
            stop - start + (extra if stop == n else 0) for start, stop in ranges
        ]
        assert all(len({tally.n for tally in tallies}) == 1 for tallies in lanes)
        assert [r.n_samples for r in shared] == [n + extra] * 4

    def test_ranges_are_block_aligned_and_cover_the_stream(self, monkeypatch):
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        for n in (1, SMALL_BLOCK, 5 * SMALL_BLOCK + 3, 125 * SMALL_BLOCK):
            for cpus in (1, 2, 3, 4, 64):
                ranges = sharp._lane_ranges(n, cpus)
                assert len(ranges) == min(cpus, -(-n // SMALL_BLOCK))
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
                assert all(start % SMALL_BLOCK == 0 and start < stop for start, stop in ranges)
                sizes = [stop - start for start, stop in ranges[:-1]]
                assert not sizes or max(sizes) - min(sizes) <= SMALL_BLOCK


class TestSharedPass:
    """One lane draws each block once and runs one kernel pass on it for
    thm1, thm2, priors and the chain, in one pool."""

    N = 3 * SMALL_BLOCK + 7

    def test_one_draw_and_one_kernel_pass_per_block(self, monkeypatch):
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        draws = _counting(monkeypatch, sharp, "sample_ratios")
        kernel = _counting(monkeypatch, sharp, "_ratio")
        arctan = _counting(monkeypatch, np, "arctan")
        _, _, shared = _shared(self.N, 1, 2, 1e8, {})
        assert all(r.passed for r in shared)
        # sample_ratios' first argument is the generator
        assert len(draws) == 4
        # four blocks of ratios, one kernel pass each for all four rows
        assert len(kernel) == len(arctan) == 4
        assert sum(kernel) == shared[0].n_samples

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify_blend_bounds(3_000, seed=2),
            lambda: verify_ratio_bounds(3_000, seed=2),
            lambda: verify_prior_bounds(3_000, seed=2),
            lambda: verify_ordering_chain(3_000, seed=2),
            lambda: _shared(10**4, 1, 2, 1e8, {})[2][0],
        ],
        ids=["verify_blend_bounds", "verify_ratio_bounds", "verify_prior_bounds", "verify_ordering_chain", "shared"],
    )
    def test_one_pool_for_every_row_and_the_chain(self, monkeypatch, run):
        # x, t, the five shared rows (A, t², r, 1/3 - r and T) and the six
        # pool rows that priors writes (the chain five), whatever runs, and
        # reused by every block
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        sizes = _workspace_sizes(monkeypatch)
        assert run().passed
        assert sizes == [(13, 2)]  # one call

    @pytest.mark.parametrize(
        "name, keywords",
        [
            ("thm1", {}),
            ("thm1", {"beta": 1.0 - 1e-12}),
            ("thm2", {}),
            ("thm2", {"beta1": RATIO_UPPER + 1e-3}),
            ("priors", {}),
            ("chain", {}),
        ],
        ids=["thm1", "thm1-beta", "thm2", "thm2-beta1", "priors", "chain"],
    )
    def test_rows_leave_the_shared_block_as_it_is(self, monkeypatch, name, keywords):
        # a row reads x, t and the shared rows (A, the kernel's t², r and
        # 1/3 - r, and T = A·q), which the rows after it read too, and
        # writes only its pool and flags; on a passing block the one check
        # loop runs every check, the raw-mean one included, and none fires
        # (the first block of two, as beta < 1 fails at the boundary points)
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        (blk,) = sharp._ratio_blocks(0, 2 * SMALL_BLOCK, 1e8, 0, SMALL_BLOCK)
        x, t, shared, pool, _ = blk
        assert len(shared) == 5
        # no shared row is a pool row
        assert not any(np.shares_memory(row, spare) for row in (x, t, *shared) for spare in pool)
        before = [row.tobytes() for row in (x, t, *shared)]
        tally = sharp._Tally()
        tally.add(blk, *sharp._ROWS[name](**keywords).block(*blk[:4]))
        assert tally.found is None
        assert [row.tobytes() for row in (x, t, *shared)] == before

    @pytest.mark.parametrize("index", range(5), ids=["A", "tt", "r", "upper", "T"])
    def test_every_shared_row_is_read(self, monkeypatch, index):
        # a NaN planted in any shared row after the block stream yields it
        # changes the report of the four suites: the block holds no row that
        # no suite reads
        def run():
            return [r.as_report() for r in sharp._run([(name, {}) for name in sharp._ROWS], 3_000, 2, 1e8)]

        clean = run()
        _plant_shared_nan(monkeypatch, index)
        assert repr(run()) != repr(clean)

    def test_memory_bounded_at_1e6_samples(self):
        rows = [sharp._ROWS[name]() for name in sharp._ROWS]
        sharp._lane(rows, 0, 1_000, 1e8, 0, 1_000)
        tracemalloc.start()
        try:
            tallies = sharp._lane(rows, 0, 10**6, 1e8, 0, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in sharp._finish_lanes(rows, [tallies]))
        assert peak < 2 * 2**20  # one core's L2 (see sharp._BLOCK)


class TestOneDriver:
    """Every suite reaches its rows through ``sharp._run``, which checks its
    arguments before any lane forks."""

    @pytest.mark.parametrize(
        "fn, suites",
        [
            (verify_blend_bounds, ["thm1"]),
            (verify_ratio_bounds, ["thm2"]),
            (verify_prior_bounds, ["priors"]),
            (verify_ordering_chain, ["chain"]),
        ],
    )
    def test_each_verifier_is_one_run_in_one_lane(self, monkeypatch, fn, suites):
        calls = []
        original = sharp._run

        def run(suites, *args, **kw):
            calls.append(([name for name, _ in suites], args, kw))
            return original(suites, *args, **kw)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(sharp, "_run", run)
        monkeypatch.setattr(os, "fork", no_fork)
        lanes = _counting(monkeypatch, sharp, "_lane")
        assert fn(3_000, seed=2).passed
        assert calls == [(suites, (3_000, 2, 1e8), {})]
        assert len(lanes) == 1

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"seed": -1}, "seed"),
            ({"samples": 0}, "samples"),
            ({"ratio_max": math.inf}, "ratio_max"),
            ({"ratio_max": 1.0}, "ratio_max"),
            ({"alpha": 2.0}, "alpha"),
            ({}, "forked"),
        ],
        ids=["seed", "samples", "ratio-max-inf", "ratio-max-one", "alpha", "valid"],
    )
    def test_arguments_checked_before_any_fork(self, monkeypatch, bad, match):
        # the valid case shows that two lanes fork
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(sharp, "_LANE_MIN_SAMPLES", 1)
        monkeypatch.setattr(sharp, "_cpus", lambda: 2)
        args = {"samples": 4 * SMALL_BLOCK, "seed": 0, "ratio_max": 1e8, "alpha": None, **bad}
        suites = [(name, {"alpha": args["alpha"]} if name == "thm1" else {}) for name in sharp._ROWS]
        with pytest.raises(AssertionError if not bad else DomainError, match=match):
            sharp._run(suites, args["samples"], args["seed"], args["ratio_max"])
        assert sharp._lanes == []


#: The modules that ``import seiffert_bounds.sharp`` may add to a fresh
#: interpreter, on any supported Python: its own package and the stdlib that
#: its imports load.  No lane machinery (pickle, atexit, threading, signal)
#: and no numpy loads at import.
_SHARP_IMPORTS = {
    "__future__", "_collections", "_functools", "_operator", "collections", "collections.abc", "functools",
    "importlib", "importlib._bootstrap", "importlib._bootstrap_external", "itertools", "keyword", "math",
    "numbers", "operator", "reprlib", "types", "warnings",
    "seiffert_bounds", "seiffert_bounds.errors", "seiffert_bounds.means", "seiffert_bounds.sharp",
}


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)


def test_probe_set_up_loads_and_forks_nothing_new():
    # the set-up of a long-lived caller: the import, a 1e4-sample warm-up
    # and calls just below the lane threshold fork no lane, even with two
    # CPUs; at the threshold a call forks one
    code = (
        "import os, sys\n"
        "before = set(sys.modules)\n"
        "from seiffert_bounds import sharp\n"
        "print(sorted(set(sys.modules) - before))\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "sharp._cpus = lambda: 2\n"
        "assert sharp.verify_blend_bounds(10_000).passed\n"
        "for fn in (sharp.verify_blend_bounds, sharp.verify_ratio_bounds, sharp.verify_prior_bounds,\n"
        "           sharp.verify_ordering_chain):\n"
        "    assert fn(sharp._LANE_MIN_SAMPLES - 1).passed\n"
        "print(len(forks))\n"
        "assert sharp.verify_ratio_bounds(sharp._LANE_MIN_SAMPLES).passed\n"
        "print(len(forks))\n"
    )
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    added, below, at = proc.stdout.splitlines()
    assert set(eval(added)) <= _SHARP_IMPORTS
    assert (below, at) == ("0", "1")


class TestStandingLanes:
    """Lanes forked once per process and reused by every run that needs them."""

    N = 4 * SMALL_BLOCK + 7

    @pytest.fixture
    def forks(self, monkeypatch):
        """Two lanes from one sample on; returns the pids forked so far."""
        monkeypatch.setattr(sharp, "_BLOCK", SMALL_BLOCK)
        monkeypatch.setattr(sharp, "_LANE_MIN_SAMPLES", 1)
        monkeypatch.setattr(sharp, "_cpus", lambda: 2)
        pids, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @staticmethod
    def one_lane(monkeypatch, call):
        """``repr`` of ``call()`` in one lane, which forks nothing."""
        with monkeypatch.context() as patch:
            patch.setattr(sharp, "_cpus", lambda: 1)
            return repr(call())

    @staticmethod
    def assert_reaped(pid):
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    CALLS = [
        lambda n: verify_blend_bounds(n, seed=1),
        lambda n: verify_ratio_bounds(n, seed=2, alpha1=RATIO_LOWER + 1e-6),
        lambda n: verify_prior_bounds(n, seed=3, ratio_max=1e300),
        lambda n: verify_ordering_chain(n, seed=4),
        lambda n: verify_blend_bounds(n, seed=5, alpha=blend_alpha_closed() + 1e-4),
        lambda n: sharp._run([(name, {}) for name in sharp._ROWS], n, 6, 1e13),
    ]

    def test_consecutive_runs_fork_once(self, monkeypatch, forks):
        # different suites and constants; each report is the one-lane one
        reports = [repr(call(self.N)) for call in self.CALLS]
        assert len(forks) == 1 and [lane.pid for lane in sharp._lanes] == forks
        assert reports == [self.one_lane(monkeypatch, lambda: call(self.N)) for call in self.CALLS]
        assert not all("passed=True" in r for r in reports)

    def test_a_killed_lane_is_reported_once_and_replaced(self, monkeypatch, forks):
        verify_ratio_bounds(self.N)
        (dead,) = forks
        os.kill(dead, signal.SIGKILL)
        if hasattr(os, "waitid"):  # dead, not reaped: the request meets a closed pipe
            os.waitid(os.P_PID, dead, os.WEXITED | os.WNOWAIT)
        with pytest.raises(ChildProcessError, match=rf"^the lane over samples \[2000, {self.N}\) ended without "
                                                    rf"a result \(wait status {int(signal.SIGKILL)}\)$"):
            verify_ratio_bounds(self.N, seed=1)
        self.assert_reaped(dead)
        assert sharp._lanes == [] and len(forks) == 1
        report = repr(verify_ratio_bounds(self.N, seed=1))
        assert len(forks) == 2 and [lane.pid for lane in sharp._lanes] == forks[1:]
        assert report == self.one_lane(monkeypatch, lambda: verify_ratio_bounds(self.N, seed=1))

    def test_a_lane_exception_is_raised_and_the_lane_kept(self, monkeypatch, forks):
        # the lane's range fails for seed 1 only
        original = sharp._ratio_blocks

        def planted(seed, samples, ratio_max, start, stop):
            if seed == 1 and start > 0:
                raise DomainError(f"planted error over [{start}, {stop})")
            return original(seed, samples, ratio_max, start, stop)

        monkeypatch.setattr(sharp, "_ratio_blocks", planted)
        with pytest.raises(DomainError, match=rf"^planted error over \[2000, {self.N}\)$"):
            verify_prior_bounds(self.N, seed=1)
        assert len(forks) == 1 and [lane.pid for lane in sharp._lanes] == forks
        report = repr(verify_prior_bounds(self.N, seed=2))
        assert len(forks) == 1 and [lane.pid for lane in sharp._lanes] == forks
        assert report == self.one_lane(monkeypatch, lambda: verify_prior_bounds(self.N, seed=2))

    def test_a_forked_child_makes_its_own_lane(self, monkeypatch, forks):
        verify_ordering_chain(self.N)
        (owned,) = sharp._lanes
        owned_fds = (owned.requests, owned.replies.fileno())
        expected = self.one_lane(monkeypatch, lambda: verify_ordering_chain(self.N, seed=7))
        pid = os.fork()
        if pid == 0:  # the child reports through its exit code alone
            code = 1
            try:
                closed = []
                for fd in owned_fds:
                    try:
                        os.fstat(fd)
                    except OSError:
                        closed.append(fd)
                inherited = sharp._lanes == [] and len(closed) == 2
                same = repr(verify_ordering_chain(self.N, seed=7)) == expected
                (own,) = sharp._lanes
                sharp._close_lanes()
                code = 0 if inherited and same and own.pid != owned.pid and sharp._lanes == [] else 2
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        assert repr(verify_ordering_chain(self.N, seed=7)) == expected
        assert sharp._lanes == [owned] and len(forks) == 2  # the child's fork and ours

    def test_a_fork_while_a_thread_waits_for_a_reply(self, forks):
        # a thread blocked on the idle lane's reply pipe holds the lock of its
        # reader; the forked child, which lacks that thread, must not wait
        # for the lock to drop the reader
        verify_ordering_chain(self.N)
        (lane,) = sharp._lanes
        waiting = threading.Thread(target=lane.replies.peek)  # returns when the lane ends
        waiting.start()
        time.sleep(0.2)  # for the thread to block in the read
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        deadline = time.monotonic() + 30
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in the at-fork hook")
            time.sleep(0.01)
        sharp._close_lanes()
        waiting.join()

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, DomainError])
    def test_an_interrupted_run_closes_its_lanes(self, monkeypatch, forks, exc):
        # the lane is forked first, so only this process's own range fails
        verify_ratio_bounds(self.N)
        (lane,) = sharp._lanes
        original = sharp._ratio_blocks

        def planted(seed, samples, ratio_max, start, stop):
            if start == 0:
                raise exc("planted")
            return original(seed, samples, ratio_max, start, stop)

        monkeypatch.setattr(sharp, "_ratio_blocks", planted)
        with pytest.raises(exc, match="planted"):
            verify_ratio_bounds(self.N, seed=1)
        assert sharp._lanes == []
        self.assert_reaped(lane.pid)
        monkeypatch.setattr(sharp, "_ratio_blocks", original)
        # a stale reply would be seed 1's tallies
        report = repr(verify_ratio_bounds(self.N, seed=2, beta1=RATIO_UPPER - 1e-6))
        assert len(forks) == 2
        assert report == self.one_lane(monkeypatch, lambda: verify_ratio_bounds(self.N, seed=2,
                                                                                 beta1=RATIO_UPPER - 1e-6))

    @pytest.mark.parametrize("end", ["close", "end-of-pipe", "exit"])
    def test_three_lanes_end_without_hanging(self, end):
        # closed by _close_lanes, by the end of their request pipes alone,
        # closed and reaped lane by lane (no lane holds an earlier one's
        # ends), or at exit by the atexit handler; the timeout turns a hang
        # into a failure
        code = (
            "import os\n"
            "from seiffert_bounds import sharp\n"
            "sharp._cpus, sharp._LANE_MIN_SAMPLES, sharp._BLOCK = (lambda: 3), 1, 1_000\n"
            "assert sharp.verify_blend_bounds(3_000).passed\n"
            "print(*(lane.pid for lane in sharp._lanes))\n"
            f"end = {end!r}\n"
            "if end == 'close':\n"
            "    sharp._close_lanes()\n"
            "elif end == 'end-of-pipe':\n"
            "    for lane in sharp._lanes:  # one by one\n"
            "        os.close(lane.requests)\n"
            "        lane.replies.close()\n"
            "        print(os.waitpid(lane.pid, 0)[1])\n"
            "    sharp._lanes.clear()\n"
            "if end != 'exit':\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('no child left')\n"
        )
        proc = _python(code)
        assert proc.returncode == 0 and proc.stderr == ""
        pids, *rest = proc.stdout.splitlines()
        assert len(pids.split()) == 2
        assert rest == {"close": ["no child left"], "end-of-pipe": ["0", "0", "no child left"], "exit": []}[end]
        for pid in map(int, pids.split()):  # reaped before the process ended
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
