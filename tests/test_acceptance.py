"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or
``-v -rA``); assertions carry the same tolerances, so the suite is the gate.
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np

import seiffert_bounds as sb
from seiffert_bounds import oracle
from seiffert_bounds.auxiliary import BlendGapFamily


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_blend_constant_recovery():
    """Root-finder recovers (1/2)(1+sqrt(12/pi-3)) to 1e-12 in under a second."""
    start = time.perf_counter()
    numeric = sb.blend_alpha_numeric()
    elapsed = time.perf_counter() - start
    closed = 0.5 * (1.0 + math.sqrt(12.0 / math.pi - 3.0))
    gap = abs(numeric - closed)
    _report(
        "criterion 1 (blend-constant recovery)",
        gap <= 1e-12 and elapsed < 1.0,
        f"gap={gap:.3e}, runtime={elapsed:.3f}s",
    )


def test_criterion_2_ratio_constant_recovery():
    """1e6-point grid on t in [1e-7, 1-1e-7]: extremes within 1e-6, monotone."""
    start = time.perf_counter()
    scan = sb.ratio_grid_scan(10**6, t_min=1e-7, t_max=1.0 - 1e-7)
    elapsed = time.perf_counter() - start
    inf_gap = abs(scan["inf"] - sb.RATIO_LOWER)
    sup_gap = abs(scan["sup"] - sb.RATIO_UPPER)
    ok = (
        inf_gap <= 1e-6
        and sup_gap <= 1e-6
        and scan["monotone_decreasing"]
        and elapsed < 10.0
    )
    _report(
        "criterion 2 (ratio-constant recovery)",
        ok,
        f"inf_gap={inf_gap:.3e}, sup_gap={sup_gap:.3e}, "
        f"monotone={scan['monotone_decreasing']}, runtime={elapsed:.2f}s",
    )


def test_criterion_3_bulk_double_inequalities():
    """Both double inequalities over 1e6 log-uniform samples + boundary points."""
    blend = sb.verify_blend_bounds(10**6, seed=2026)
    ratio = sb.verify_ratio_bounds(10**6, seed=2026)
    ok = blend.passed and ratio.passed
    _report(
        "criterion 3 (bulk verification)",
        ok,
        f"thm1 pass={blend.passed} (n={blend.n_samples}), "
        f"thm2 pass={ratio.passed} (n={ratio.n_samples})",
    )


def test_criterion_4_sharpness_probes():
    """Outward shifts violate; inward shifts never do."""
    lam = sb.blend_alpha_closed()
    out1 = sb.verify_blend_bounds(10**5, seed=3, alpha=lam + 1e-4)
    in1 = sb.verify_blend_bounds(10**5, seed=3, alpha=lam - 1e-4)
    out2 = sb.verify_ratio_bounds(10**5, seed=3, alpha1=sb.RATIO_LOWER + 1e-6)
    in2 = sb.verify_ratio_bounds(10**5, seed=3, alpha1=sb.RATIO_LOWER - 1e-6)
    out3 = sb.verify_ratio_bounds(10**5, seed=3, beta1=sb.RATIO_UPPER - 1e-6)
    in3 = sb.verify_ratio_bounds(10**5, seed=3, beta1=sb.RATIO_UPPER + 1e-6)
    ok = (
        (not out1.passed) and in1.passed
        and (not out2.passed) and in2.passed
        and (not out3.passed) and in3.passed
    )
    _report(
        "criterion 4 (sharpness)",
        ok,
        "thm1 alpha+1e-4 violated / alpha-1e-4 clean; "
        "thm2 alpha1+1e-6 violated / -1e-6 clean; beta1-1e-6 violated / +1e-6 clean",
    )


def test_criterion_5_critical_point_ladder():
    """Ladder order, root residuals < 1e-10, gap < 0 on (1, 1e8), gap(1e8) -> 0."""
    fam = BlendGapFamily(sb.blend_alpha_closed())
    report = sb.locate_critical_points(fam)
    ordered = 1.0 < report.t0 < report.t1 < report.t2 < report.t3
    res_ok = max(report.residuals) < 1e-10
    # 1e4 log-spaced points with t-1 in [1e-5, 1e8-1]; below 1e-6 the true
    # magnitude ~0.03(t-1)^3 sinks under the ~1e-20 evaluation noise
    grid = 1.0 + np.geomspace(1e-5, 1e8 - 1.0, 10**4)
    negative = bool(np.all(fam.gap_values(grid) < 0.0))
    tail = abs(fam.gap(1e8))
    ok = ordered and res_ok and negative and tail <= 1e-6
    _report(
        "criterion 5 (proof-structure certification)",
        ok,
        f"ladder=({report.t0:.6f}, {report.t1:.6f}, {report.t2:.6f}, {report.t3:.6f}), "
        f"max residual={max(report.residuals):.2e}, gap<0 on grid={negative}, "
        f"|gap(1e8)|={tail:.2e}",
    )


def test_criterion_6_unit_parameter_quartic():
    """chain_1 equals (t-1)^4 at p = 1 to 1e-13 relative on (1, 100]."""
    fam = BlendGapFamily(1.0)
    ts = 1.0 + np.geomspace(1e-9, 99.0, 10**4)
    ref = (ts - 1.0) ** 4
    rel = np.max(np.abs(fam.chain_values(ts, 1) - ref) / ref)
    _report(
        "criterion 6 (p = 1 quartic identity)",
        rel < 1e-13,
        f"max relative deviation={rel:.3e}",
    )


def test_criterion_7_series_suite():
    """Series expansions, sign law, zeta oracle, exact coefficient identity."""
    xs = np.linspace(0.01, math.pi / 2, 300)
    worst_cot = worst_csc2 = 0.0
    with mp.workdps(30):
        for x in xs:
            xm = mp.mpf(float(x))
            worst_cot = max(worst_cot, abs(sb.cot_series(float(x), 40) - float(mp.cos(xm) / mp.sin(xm))))
            worst_csc2 = max(worst_csc2, abs(sb.csc2_series(float(x), 40) - float(1 / mp.sin(xm) ** 2)))
    sign_ok = all((-1) ** (n - 1) * sb.bernoulli_even(n) > 0 for n in range(1, 61))

    def zeta_oracle(s: int, n_terms: int = 100_000) -> float:
        head = math.fsum(k ** -float(s) for k in range(1, n_terms + 1))
        n = float(n_terms)
        return head + n ** (1 - s) / (s - 1) - 0.5 * n**-s + s / 12.0 * n ** -(s + 1)

    zeta_ok = all(abs(sb.zeta_even(q) - zeta_oracle(2 * q)) < 1e-10 for q in range(1, 6))
    comb_ok = all(
        sb.ratio_coefficient(n) == sb.cot_coefficient(n) + sb.csc2_coefficient(n)
        and sb.ratio_coefficient(n) == Fraction(n * 2 ** (2 * n + 1)) * abs(sb.bernoulli_even(n)) / math.factorial(2 * n)
        for n in range(1, 41)
    )
    ok = worst_cot <= 1e-12 and worst_csc2 <= 1e-12 and sign_ok and zeta_ok and comb_ok
    _report(
        "criterion 7 (series suite)",
        ok,
        f"max |cot err|={worst_cot:.2e}, max |csc2 err|={worst_csc2:.2e}, "
        f"sign law={sign_ok}, zeta oracle={zeta_ok}, coefficient identity={comb_ok}",
    )


def test_criterion_8_reparametrization_equivalence():
    """Raw-mean, t-form, theta-form agree pairwise to 1e-12 on 1e4 ratios."""
    rng = np.random.default_rng(88)
    xs = 1.0 + (np.exp(rng.uniform(0.0, math.log(1e6), 10**4)) - 1.0)
    xs = np.maximum(xs, 1.0 + 1e-9)
    worst = 0.0
    for x in xs:
        t = (x - 1.0) / (x + 1.0)
        raw = float(oracle.excess_ratio_from_means(float(x), dps=40))
        rt = sb.excess_ratio(t)
        rtheta = sb.ratio_series(math.atan(t), 40)
        worst = max(
            worst,
            abs(rt - raw) / abs(raw),
            abs(rtheta - raw) / abs(raw),
            abs(rt - rtheta) / abs(raw),
        )
    _report(
        "criterion 8 (reparametrization equivalence)",
        worst <= 1e-12,
        f"worst pairwise relative deviation={worst:.3e} over {len(xs)} ratios",
    )


def test_criterion_9_near_diagonal_stability():
    """Seiffert value at |a-b|/(a+b) = 1e-12 matches the 100-digit oracle."""
    t = 1e-12
    a = (1.0 + t) / (1.0 - t)
    got = sb.mean("seiffert", sb.PositivePair(a, 1.0))
    ref = oracle.seiffert(a, 1.0, dps=100)
    rel = abs((got - ref) / ref)
    _report(
        "criterion 9 (near-diagonal stability)",
        rel <= 1e-12,
        f"relative error vs 100-digit oracle={float(rel):.3e}",
    )
