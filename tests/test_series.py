"""Bernoulli table, zeta values, and the three trigonometric expansions."""

import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from seiffert_bounds import (
    N_MAX,
    bernoulli_even,
    cot_coefficient,
    cot_series,
    csc2_coefficient,
    csc2_series,
    default_table,
    ratio_coefficient,
    ratio_series,
    truncated_series,
    zeta_even,
)
from seiffert_bounds.errors import DomainError

# Frozen from 60-digit evaluation of cos/sin.
COT_HALF = 1.830487721712452
CSC2_HALF = 4.350685299340043


def zeta_partial_sum_oracle(s: int, n_terms: int = 100_000) -> float:
    """Direct partial summation plus an Euler-Maclaurin integral tail.

    sum_{n>N} n^-s = N^(1-s)/(s-1) - N^-s/2 + s N^-(s+1)/12 - ...; the first
    omitted correction is O(N^-(s+3)), far below the 1e-10 comparisons here.
    """
    head = math.fsum(n ** -float(s) for n in range(1, n_terms + 1))
    n = float(n_terms)
    tail = n ** (1 - s) / (s - 1) - 0.5 * n**-s + s / 12.0 * n ** -(s + 1)
    return head + tail


class TestBernoulli:
    def test_first_values_from_recurrence(self):
        # recurrence solved by hand: m=2 gives B_2, continued for B_4, B_6
        assert bernoulli_even(1) == Fraction(1, 6)
        assert bernoulli_even(2) == Fraction(-1, 30)
        assert bernoulli_even(3) == Fraction(1, 42)

    def test_against_mpmath_bernfrac(self):
        for n in range(1, N_MAX + 1):
            p, q = mp.bernfrac(2 * n)
            assert bernoulli_even(n) == Fraction(int(p), int(q))

    def test_sign_law(self):
        for n in range(1, N_MAX + 1):
            assert (-1) ** (n - 1) * bernoulli_even(n) > 0

    @pytest.mark.parametrize("n", [0, -1, 61, 2.0, True])
    def test_range_errors(self, n):
        with pytest.raises(DomainError):
            bernoulli_even(n)

    def test_numpy_integers_are_integers(self):
        # a numpy integer passes as the int it equals; a float or a bool does not
        n = np.int64(3)
        assert bernoulli_even(n) == bernoulli_even(3)
        assert cot_series(0.5, n) == cot_series(0.5, 3)
        assert truncated_series("cot", n) == truncated_series("cot", 3)
        assert type(truncated_series("cot", n).truncation_order) is int
        for bad in (2.0, True):
            with pytest.raises(DomainError):
                cot_series(0.5, bad)
            with pytest.raises(DomainError):
                truncated_series("cot", bad)

    def test_defining_recurrence(self):
        # the table against the definition it is not built from:
        # sum_{k=0}^{m} binom(m+1, k) B_k = 0 for m >= 1, with B_1 = -1/2
        # and every other odd B_k = 0
        full = [Fraction(0)] * (2 * N_MAX + 1)
        full[1] = Fraction(-1, 2)
        full[::2] = default_table()
        for m in range(1, 2 * N_MAX + 1):
            assert sum(math.comb(m + 1, k) * full[k] for k in range(m + 1)) == 0, m

    def test_table(self):
        # one cached tuple of the 61 exact values B_0, B_2, …, B_120
        table = default_table()
        assert default_table() is table
        assert type(table) is tuple and len(table) == N_MAX + 1 == 61
        assert all(type(value) is Fraction for value in table)
        assert table[0] == 1
        assert bernoulli_even(5) == table[5] == Fraction(5, 66)


class TestZeta:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_partial_sum_oracle(self, q):
        assert abs(zeta_even(q) - zeta_partial_sum_oracle(2 * q)) < 1e-10

    def test_known_closed_forms(self):
        assert zeta_even(1) == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert zeta_even(2) == pytest.approx(math.pi**4 / 90, rel=1e-14)

    def test_monotone_decreasing_above_one(self):
        vals = [zeta_even(q) for q in range(1, N_MAX + 1)]
        # strictly resolvable in binary64 up to q = 26 (zeta(2q)-1 > eps/2)
        for a, b in zip(vals[:25], vals[1:26]):
            assert a > b > 1.0
        for a, b in zip(vals[25:], vals[26:]):
            assert a >= b >= 1.0

    def test_large_q_limit_high_precision(self):
        # zeta(60) lies in (1, 1+1e-17]; not representable as a double > 1,
        # so the check runs at 50 digits straight from the closed form.
        b = abs(bernoulli_even(30))
        with mp.workdps(50):
            val = (2 * mp.pi) ** 60 / (2 * mp.factorial(60)) * mp.mpf(b.numerator) / mp.mpf(b.denominator)
            assert 1 < val <= 1 + mp.mpf("1e-17")
        assert zeta_even(30) == 1.0

    @pytest.mark.parametrize("q", [0, 61])
    def test_range(self, q):
        with pytest.raises(DomainError):
            zeta_even(q)


class TestCotSeries:
    def test_quarter_pi(self):
        assert abs(cot_series(math.pi / 4, 30) - 1.0) < 1e-13

    def test_half(self):
        assert cot_series(0.5, 30) == pytest.approx(COT_HALF, rel=1e-13)

    def test_odd(self):
        assert cot_series(-0.5, 30) == -cot_series(0.5, 30)

    def test_vs_trig_on_grid(self):
        xs = np.linspace(0.01, math.pi / 2, 200)
        with mp.workdps(30):
            for x in xs:
                ref = float(mp.cos(mp.mpf(x)) / mp.sin(mp.mpf(x)))
                assert abs(cot_series(float(x), 40) - ref) < 1e-12

    @pytest.mark.parametrize("x", [0.0, math.pi, -math.pi, 3.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            cot_series(x, 10)


class TestCsc2Series:
    def test_quarter_pi(self):
        assert abs(csc2_series(math.pi / 4, 30) - 2.0) < 1e-13

    def test_half(self):
        assert csc2_series(0.5, 30) == pytest.approx(CSC2_HALF, rel=1e-13)

    def test_small_x_laurent(self):
        # 1/x² + 1/3 + x²/15 + O(x⁴)
        x = 1e-3
        ref = 1.0 / x**2 + 1.0 / 3.0 + x**2 / 15.0
        assert abs(csc2_series(x, 5) - ref) < 1e-9

    def test_vs_trig_on_grid(self):
        xs = np.linspace(0.01, math.pi / 2, 200)
        with mp.workdps(30):
            for x in xs:
                ref = float(1 / mp.sin(mp.mpf(x)) ** 2)
                assert abs(csc2_series(float(x), 40) - ref) < 1e-12


def _exact_points() -> list[float]:
    """About 100 arguments in 0 < |x| < π: a grid to π/2, fixed random points
    in (1e-6, 3), and the named corners."""
    rng = random.Random(20120131)
    grid = [0.01 + k * (math.pi / 2 - 0.01) / 59 for k in range(60)]
    return grid + [rng.uniform(1e-6, 3.0) for _ in range(36)] + [math.pi / 2, -0.5, 3.0, 1e-6]


class TestExactPartialSums:
    """cot, csc² and ratio partial sums equal the correctly rounded exact partial sum."""

    POINTS = _exact_points()

    @staticmethod
    def _references(n: int, x: float) -> tuple[float, float, float]:
        # built apart from the package: mpmath's own Bernoulli numbers at 80 digits
        with mp.workdps(80):
            xm = mp.mpf(x)
            cot = 1 / xm
            csc2 = 1 / xm**2
            ratio = mp.mpf(1)
            for k in range(1, n + 1):
                c = 4**k * abs(mp.bernoulli(2 * k)) / mp.factorial(2 * k)
                cot -= c * xm ** (2 * k - 1)
                csc2 += (2 * k - 1) * c * xm ** (2 * k - 2)
                ratio -= 2 * k * c * xm ** (2 * k - 2)
            return float(cot), float(csc2), float(ratio)

    @pytest.mark.parametrize("n", [1, 5, 20, 40, 60])
    def test_correctly_rounded(self, n):
        for x in self.POINTS:
            cot, csc2, ratio = self._references(n, x)
            assert (cot_series(x, n), csc2_series(x, n)) == (cot, csc2), x
            if 0.0 < x <= math.pi / 4:  # the ratio series' domain
                assert ratio_series(x, n) == ratio, x

    @pytest.mark.parametrize("n", [1, 20])
    def test_symmetry(self, n):
        for x in self.POINTS:
            assert cot_series(-x, n) == -cot_series(x, n)
            assert csc2_series(-x, n) == csc2_series(x, n)

    @pytest.mark.parametrize(
        "fn, x, n, want",
        [
            (cot_series, 5e-324, 3, math.inf),
            (cot_series, -5e-324, 3, -math.inf),
            (csc2_series, 1e-300, 5, math.inf),
            (csc2_series, -1e-300, 5, math.inf),
        ],
    )
    def test_beyond_the_double_range(self, fn, x, n, want):
        assert fn(x, n) == want


class TestRatioSeries:
    def test_leading_coefficient(self):
        # n=1 term: 1·2³/2!·|B_2| = 2/3, so R(0⁺) = 1 - 2/3 = 1/3
        assert ratio_coefficient(1) == Fraction(2, 3)
        assert abs(ratio_series(1e-8, 40) - 1.0 / 3.0) < 1e-14

    def test_endpoint_value(self):
        # R(π/4) = (tanθ/θ - 1)/tan²θ at θ = π/4, i.e. 4/π - 1
        theta = math.pi / 4
        direct = (math.tan(theta) / theta - 1.0) / math.tan(theta) ** 2
        assert abs(ratio_series(theta, 40) - (4.0 / math.pi - 1.0)) < 1e-14
        assert ratio_series(theta, 40) == pytest.approx(direct, rel=1e-13)

    def test_closed_form_cross_check(self):
        theta = 0.3
        ref = math.cos(theta) / math.sin(theta) / theta - 1.0 / math.sin(theta) ** 2 + 1.0
        assert abs(ratio_series(theta, 40) - ref) < 1e-13

    def test_strictly_decreasing(self):
        thetas = np.linspace(1e-3, math.pi / 4, 2000)
        vals = [ratio_series(float(t), 40) for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [0.0, -0.1, math.pi / 4 + 1e-6])
    def test_domain(self, theta):
        with pytest.raises(DomainError):
            ratio_series(theta, 10)


class TestCoefficientIdentities:
    def test_derivative_link(self):
        # csc² coefficient of x^{2(n-1)} = (2n-1)·(cot coefficient of x^{2n-1})
        for n in range(1, 41):
            assert csc2_coefficient(n) == (2 * n - 1) * cot_coefficient(n)

    def test_ratio_combination(self):
        # the θ-ratio coefficient is the exact sum of the two: n·2^{2n+1} = 2^{2n}·(1 + (2n-1))
        for n in range(1, 41):
            assert ratio_coefficient(n) == cot_coefficient(n) + csc2_coefficient(n)


class TestTruncated:
    def _true_remainder(self, kind, order, x):
        """Exact |closed form - partial sum| at 40 digits."""
        with mp.workdps(40):
            xm = mp.mpf(x)
            if kind == "cot":
                closed = mp.cos(xm) / mp.sin(xm)
                part = 1 / xm - sum(
                    mp.mpf(cot_coefficient(n).numerator)
                    / cot_coefficient(n).denominator
                    * xm ** (2 * n - 1)
                    for n in range(1, order + 1)
                )
            elif kind == "csc2":
                closed = 1 / mp.sin(xm) ** 2
                part = 1 / xm**2 + sum(
                    mp.mpf(csc2_coefficient(n).numerator)
                    / csc2_coefficient(n).denominator
                    * xm ** (2 * n - 2)
                    for n in range(1, order + 1)
                )
            else:
                closed = mp.cos(xm) / mp.sin(xm) / xm - 1 / mp.sin(xm) ** 2 + 1
                part = 1 - sum(
                    mp.mpf(ratio_coefficient(n).numerator)
                    / ratio_coefficient(n).denominator
                    * xm ** (2 * n - 2)
                    for n in range(1, order + 1)
                )
            return float(abs(closed - part))

    @pytest.mark.parametrize("kind", ["cot", "csc2", "ratio"])
    @pytest.mark.parametrize("order", [5, 12])
    def test_tail_bound_dominates_remainder(self, kind, order):
        ts = truncated_series(kind, order)
        for frac in (0.25, 0.6, 1.0):
            x = ts.radius * frac
            assert self._true_remainder(kind, order, x) <= ts.tail_bound

    def test_default_order_bound_is_tiny(self):
        # order 40 on (0, π/4]: bound below 1e-16 for every kind
        for kind in ("cot", "csc2", "ratio"):
            ts = truncated_series(kind, 40, radius=math.pi / 4)
            assert ts.tail_bound < 1e-16

    def test_evaluate_matches_series(self):
        # the record carries the series' own coefficients, each rounded once
        ts = truncated_series("ratio", 20)
        assert ts.coefficients == tuple(float(ratio_coefficient(n)) for n in range(1, 21))

    def test_validation(self):
        with pytest.raises(DomainError):
            truncated_series("nope", 10)
        with pytest.raises(DomainError):
            truncated_series("cot", 10, radius=math.pi)
        with pytest.raises(DomainError):
            truncated_series("cot", 61)

    @pytest.mark.parametrize("n", [0, 61])
    def test_series_order_range(self, n):
        with pytest.raises(DomainError):
            cot_series(0.5, n)
