"""Means: frozen examples, invariants, and stability against the oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seiffert_bounds import DomainError, PositivePair, mean
from seiffert_bounds import means, oracle

# Frozen from the high-precision oracles (mpmath, 60 digits, rounded to double).
SEIFFERT_1_3 = 2.15681043229161  # = 1/arctan(1/2)


def test_frozen_value_matches_oracle():
    ref = oracle.seiffert(1, 3, dps=60)
    assert abs(float(ref) - SEIFFERT_1_3) < 1e-15


class TestSeiffert:
    def test_diagonal_extension(self):
        assert mean("seiffert", PositivePair(1.0, 1.0)) == 1.0
        assert mean("seiffert", PositivePair(3.7, 3.7)) == 3.7

    def test_example_1_3(self):
        assert mean("seiffert", PositivePair(1, 3)) == pytest.approx(SEIFFERT_1_3, rel=1e-15)

    def test_symmetry_example(self):
        assert mean("seiffert", PositivePair(3, 1)) == pytest.approx(
            mean("seiffert", PositivePair(1, 3)), rel=1e-15
        )

    def test_between_arguments(self):
        v = mean("seiffert", PositivePair(2, 5))
        assert 2 < v < 5

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (-1.0, 2.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, -3.0)])
    def test_rejects_bad_pairs(self, bad):
        with pytest.raises(DomainError):
            PositivePair(*bad)

    def test_stability_vs_oracle(self):
        # relative agreement <= 1e-12 down to |a-b|/(a+b) = 1e-14
        for t in 10.0 ** np.linspace(-14, -3, 34):
            a = (1.0 + t) / (1.0 - t)
            got = mean("seiffert", PositivePair(a, 1.0))
            ref = oracle.seiffert(a, 1.0, dps=100)
            assert abs((got - ref) / ref) < 1e-12

    def test_series_switch_continuity(self):
        # a = 3b puts t = (a-b)/(a+b) on the kernel's series/quotient switch at 1/2
        below, above = PositivePair(3.0, 1.0), PositivePair(math.nextafter(3.0, 4.0), 1.0)
        assert means._profile(below.a, below.b)[1] == 0.5 < means._profile(above.a, above.b)[1]
        lo = mean("seiffert", below)
        hi = mean("seiffert", above)
        assert lo == pytest.approx(hi, rel=1e-13)
        assert mean("seiffert", PositivePair(1.0, 1.0)) == 1.0


@pytest.mark.parametrize("a", [5e-324, 1.5e-323, 2.2250738585072014e-308, 1.0, 3.7, 1.7976931348623157e308])
def test_every_mean_returns_a_on_the_diagonal(a):
    # down to the smallest subnormal, where both halves of the pair round to 0
    pair = PositivePair(a, a)
    for name in means.MEANS:
        params = {"power": (-3.0, 0.0, 1e-3, 0.1, 2.0), "blend": (0.5, 0.75, 1.0)}.get(name, (None,))
        for param in params:
            assert mean(name, pair, param) == a, (name, param)


class TestCentroidal:
    def test_diagonal(self):
        assert mean("centroidal", PositivePair(1, 1)) == 1.0

    def test_example_1_2(self):
        assert mean("centroidal", PositivePair(1, 2)) == pytest.approx(14 / 9, rel=1e-15)

    def test_homogeneity_k7(self):
        k = 7.0
        assert mean("centroidal", PositivePair(k * 1, k * 2)) == pytest.approx(
            k * mean("centroidal", PositivePair(1, 2)), rel=1e-14
        )


class TestClassical:
    def test_arithmetic(self):
        assert mean("arithmetic", PositivePair(1, 3)) == 2.0

    def test_contra_harmonic(self):
        assert mean("contra-harmonic", PositivePair(1, 3)) == 2.5

    def test_power_two_equals_root_square(self):
        pair = PositivePair(1, 3)
        p2 = mean("power", pair, 2.0)
        s = mean("root-square", pair)
        assert p2 == pytest.approx(math.sqrt(5.0), rel=1e-14)
        assert p2 == pytest.approx(s, rel=1e-14)

    def test_power_zero_is_geometric(self):
        pair = PositivePair(2, 9)
        assert mean("power", pair, 0.0) == mean("geometric", pair)

    def test_power_requires_exponent(self):
        with pytest.raises(DomainError):
            mean("power", PositivePair(1, 2))
        with pytest.raises(DomainError):
            mean("arithmetic", PositivePair(1, 2), 2.0)
        with pytest.raises(DomainError):
            mean("power", PositivePair(1, 2), math.inf)

    def test_rejects_unknown_name(self):
        with pytest.raises(DomainError):
            mean("harmonic", PositivePair(1, 2))

    def test_power_overflow_guard(self):
        pair = PositivePair(1e-8, 1e8)
        hi = mean("power", pair, 600.0)
        lo = mean("power", pair, -600.0)
        assert math.isfinite(hi) and math.isfinite(lo)
        assert 1e-8 <= lo < hi <= 1e8
        assert hi == pytest.approx(1e8, rel=1e-2)
        assert lo == pytest.approx(1e-8, rel=1e-2)

    def test_power_monotone_in_p(self):
        pair = PositivePair(2, 5)
        ps = np.linspace(-10, 10, 41)
        vals = [mean("power", pair, p) for p in ps]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_mean_value_dispatch(self):
        pair = PositivePair(1, 3)
        assert mean("seiffert", pair) == means.seiffert_values(1.0, 3.0)
        assert mean("centroidal", pair) == means.centroidal_values(1.0, 3.0)
        assert mean("power", pair, 2.0) == means.power_values(1.0, 3.0, 2.0)
        assert mean("blend", pair, 0.75) == means.blend_values(0.75, 1.0, 3.0)


class TestBlend:
    def test_half_is_arithmetic(self):
        assert mean("blend", PositivePair(1, 3), 0.5) == 2.0

    def test_one_is_centroidal(self):
        assert mean("blend", PositivePair(1, 2), 1.0) == mean("centroidal", PositivePair(1, 2))

    def test_example_three_quarters(self):
        # = centroidal(2.5, 1.5) = 49/24
        assert mean("blend", PositivePair(1, 3), 0.75) == pytest.approx(49 / 24, rel=1e-15)

    @pytest.mark.parametrize("x", [0.49, 1.01, -0.5, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            mean("blend", PositivePair(1, 3), x)

    def test_monotone_in_x(self):
        for a, b in [(1.0, 3.0), (2.0, 3.0), (1.0, 100.0)]:
            xs = np.linspace(0.5, 1.0, 101)
            vals = [mean("blend", PositivePair(a, b), x) for x in xs]
            assert all(u < v for u, v in zip(vals, vals[1:]))


def _sample_pairs(n, seed, lo=1.0 + 1e-5, hi=1e6):
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    k = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    return x * k, k


def _each(fn, *args):
    """``fn`` at each pair: array arguments are walked in step, scalars repeat."""
    cols = [np.broadcast_to(arg, np.broadcast(*args).shape).tolist() for arg in args]
    return np.array([fn(*row) for row in zip(*cols)])


_ALL_VALUE_FNS = [
    means.seiffert_values,
    means.centroidal_values,
    means.arithmetic_values,
    means.geometric_values,
    means.root_square_values,
    means.contra_harmonic_values,
]


class TestInvariants:
    def test_symmetry_bulk(self):
        # >= 1e5 random pairs per mean
        a, b = _sample_pairs(100_000, seed=42)
        for fn in _ALL_VALUE_FNS:
            lhs, rhs = _each(fn, a, b), _each(fn, b, a)
            assert np.max(np.abs(lhs - rhs) / lhs) < 1e-15
        for p in (2.5, -3.0):
            lhs, rhs = _each(means.power_values, a, b, p), _each(means.power_values, b, a, p)
            assert np.max(np.abs(lhs - rhs) / lhs) < 1e-15
        lhs, rhs = _each(means.blend_values, 0.8, a, b), _each(means.blend_values, 0.8, b, a)
        assert np.max(np.abs(lhs - rhs) / lhs) < 1e-15

    def test_homogeneity(self):
        a, b = _sample_pairs(50, seed=7, lo=1.1, hi=1e3)
        for k in 10.0 ** np.arange(-6, 7):
            for fn in _ALL_VALUE_FNS:
                base = _each(fn, a, b)
                assert np.max(np.abs(_each(fn, k * a, k * b) - k * base) / (k * base)) < 1e-12
            for p in (3.0, -2.0):
                base = _each(means.power_values, a, b, p)
                assert np.max(np.abs(_each(means.power_values, k * a, k * b, p) - k * base) / (k * base)) < 1e-12

    def test_mean_property_strict(self):
        a, b = _sample_pairs(100_000, seed=3)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for fn in _ALL_VALUE_FNS:
            v = _each(fn, a, b)
            assert np.all((lo < v) & (v < hi))

    def test_ordering_chain(self):
        # G < A < centroidal < S < C and the sandwich A < seiffert < S
        a, b = _sample_pairs(100_000, seed=11)
        g, am, cb, s, c, t = (
            _each(fn, a, b)
            for fn in (
                means.geometric_values,
                means.arithmetic_values,
                means.centroidal_values,
                means.root_square_values,
                means.contra_harmonic_values,
                means.seiffert_values,
            )
        )
        assert np.all((g < am) & (am < cb) & (cb < s) & (s < c))
        assert np.all((am < t) & (t < s))


@given(
    a=st.floats(min_value=1e-100, max_value=1e100, allow_nan=False),
    b=st.floats(min_value=1e-100, max_value=1e100, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_mean_property_hypothesis(a, b):
    pair = PositivePair(a, b)
    lo, hi = min(a, b), max(a, b)
    for v in (
        mean("seiffert", pair),
        mean("centroidal", pair),
        mean("geometric", pair),
        mean("blend", pair, 0.75),
    ):
        assert lo <= v <= hi


#: Exponents for the power core held to 4 ulp; 0 < |p| < 1/2 takes another
#: form, held to 16 ulp at ratios up to 1e6 below.
_CORE_EXPONENTS = (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def _ulps(got, ref) -> float:
    return float(abs(mp.mpf(float(got)) - ref) / mp.mpf(math.ulp(float(ref))))


@given(
    a=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
    b=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
    x=st.floats(min_value=0.5, max_value=1.0),
    p=st.sampled_from(_CORE_EXPONENTS),
)
@settings(max_examples=300, deadline=None)
def test_cores_match_oracle_to_4_ulp(a, b, x, p):
    # a and b log-uniform over [1e-300, 1e300]: no raw square may overflow
    for name, fn in means.MEANS.items():
        ref_fn = getattr(oracle, name.replace("-", "_"))
        if name == "blend":
            got, ref = fn(x, a, b), ref_fn(x, a, b, dps=40)
        elif name == "power":
            got, ref = fn(a, b, p), ref_fn(a, b, p, dps=40)
        else:
            got, ref = fn(a, b), ref_fn(a, b, dps=40)
        assert _ulps(got, ref) <= 4.0, (name, a, b, x, p)


@given(
    a=st.floats(min_value=-300.0, max_value=294.0).map(lambda e: 10.0**e),
    ratio=st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0**e),
    swap=st.booleans(),
    p=st.tuples(st.floats(min_value=-300.0, max_value=math.log10(0.4999)), st.sampled_from((-1.0, 1.0)))
    .map(lambda e: e[1] * 10.0 ** e[0]),
)
@settings(max_examples=300, deadline=None)
def test_power_near_zero_exponent_to_16_ulp(a, ratio, swap, p):
    # 0 < |p| < 1/2 at ratios up to 1e6; the oracle's bracket cancels about
    # log10(1/|p|) digits, which its precision makes up for
    b = a * ratio
    if swap:
        a, b = b, a
    ref = oracle.power(a, b, p, dps=40 + math.ceil(-math.log10(abs(p))))
    assert _ulps(means.power_values(a, b, p), ref) <= 16.0, (a, b, p)


@pytest.mark.parametrize("p", [1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1])
@pytest.mark.parametrize(
    "a, b, bound",
    [
        (3.0, 1e300, 110.0),  # ratio below 1e300
        (1.0, 1e305, 530.0),
        (1e-8, 1e300, 530.0),  # min/max underflows to a subnormal
        (1e-300, 1e300, 530.0),  # max/min overflows: ln(max) - ln(min) stands in
    ],
)
def test_power_small_exponent_far_from_the_diagonal(a, b, bound, p):
    # the README's accuracy bounds for small |p| at ratios up to 1e300 and beyond
    ref = oracle.power(a, b, p, dps=60)
    assert _ulps(means.power_values(a, b, p), ref) <= bound, (a, b, p)
    assert _ulps(means.power_values(b, a, p), ref) <= bound, (b, a, p)


def test_oracle_power_keeps_every_digit_far_from_one():
    # the bracket is factored by the larger entry (smaller for p < 0), so the
    # rounded 1/p costs no digit at any magnitude
    for a, b in ((1e250, 3e250), (1e-250, 3e-250), (2e300, 1e-300)):
        for p in (3.0, -3.0, 7.0):
            got = oracle.power(a, b, p, dps=30)
            with mp.workdps(60):
                am, bm, pm = mp.mpf(a), mp.mpf(b), mp.mpf(p)
                ref = ((am**pm + bm**pm) / 2) ** (1 / pm)
                assert abs(got - ref) / ref <= mp.mpf(10) ** (1 - 30), (a, b, p)


@given(st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=200, deadline=None)
def test_pair_validation_hypothesis(v):
    if math.isfinite(v) and v > 0.0:
        assert PositivePair(v, 1.0).a == v
    else:
        with pytest.raises(DomainError):
            PositivePair(v, 1.0)
