"""Bivariate means of two positive numbers.

Every mean here is symmetric, homogeneous of degree 1, and sits between
``min(a, b)`` and ``max(a, b)`` (strictly so for ``a != b``).  The diagonal
``a == b`` is handled by continuous extension: every mean returns ``a``.

The main cast:

* Seiffert mean      ``T(a,b) = (a-b) / (2 arctan((a-b)/(a+b)))``
* centroidal mean    ``Cbar(a,b) = 2(a² + ab + b²) / (3(a+b))``
* arithmetic ``A``, geometric ``G``, root-square ``S``, contra-harmonic ``C``
* power mean         ``M_p(a,b) = ((aᵖ + bᵖ)/2)^(1/p)`` with ``M_0 := G``
* blend mean         ``J(x) = Cbar(xa+(1-x)b, xb+(1-x)a)`` for x in [1/2, 1],
  which interpolates from ``A`` (x = 1/2) to ``Cbar`` (x = 1).

Every mean except ``G`` and ``M_p`` is evaluated on the profile ``A·f(t)``
with ``A = a/2 + b/2`` and ``t = |a/2 - b/2|/A`` in [0, 1):

    seiffert     t/arctan t          centroidal        1 + t²/3
    arithmetic   1                   contra-harmonic   1 + t²
    root-square  sqrt(1 + t²)        blend(x)          1 + (2x-1)²t²/3

(the x-blend multiplies the pair difference by 2x-1 and keeps the sum).  No
raw square or sum is formed, so nothing overflows or underflows and the
cores are accurate to a few ulp over all normal doubles; subnormal inputs
lose bits in the halving, but ``a == b`` returns ``a`` exactly down to the
smallest subnormal.  ``G`` is ``sqrt(a)·sqrt(b)`` and ``M_p`` is factored by
its larger (p > 0) or smaller (p < 0) entry for the same reason.

``t/arctan t`` is piecewise: the direct quotient beyond t = 1/2 and, up to
it, ``1 + t²·r(t)`` from the exact-coefficient series of the excess ratio
``r(t) = (t/arctan t - 1)/t²`` of :mod:`seiffert_bounds.sharp`.  One
function, ``_ratio``, gives r, 1/3 - r and t/arctan t.

The cores (``*_values``) take one pair of floats, without validation, and
use only :mod:`math`, so evaluating a mean loads no numpy.  The one public
entry, :func:`mean`, takes a validated :class:`PositivePair` and looks the
core up in :data:`MEANS`.

The sweeps of :mod:`seiffert_bounds.sharp` run the cores' steps on whole
numpy blocks, in the same order of operations.  ``_profile`` and
``_ratio`` serve floats and arrays alike (an array in place, with ``out``);
each factor of the other means has a private bulk twin, ``_*_factor``,
beside its core.  The rational factors and the series branch of r give the
same bits on both paths; the direct quotient, and so the Seiffert mean, may
differ by one ulp (``math.atan`` against ``np.arctan``).  numpy loads on
the first call on an array, so importing this module loads none.
``_ratio`` and ``_geomspace`` also serve the stdlib scans of ``constants``
and ``certify``, and the Seiffert and blend cores the witness scans of
:mod:`seiffert_bounds.auxiliary`.  All functions are pure.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _OnFirstUse
from .errors import DomainError, _as_float, _is_integer

__all__ = [
    "MEANS",
    "PositivePair",
    "mean",
    "excess_ratio_taylor",
    "seiffert_values",
    "centroidal_values",
    "blend_values",
    "arithmetic_values",
    "geometric_values",
    "root_square_values",
    "contra_harmonic_values",
    "power_values",
]

# Imported on the first call on an array: importing this module, and every
# scalar core, loads no numpy.  No mean or sweep divides Fractions, so
# only ``excess_ratio_taylor`` loads fractions.
np = _OnFirstUse("numpy", globals(), "np")
fractions = _OnFirstUse("fractions", globals(), "fractions")

#: r(t) switches from the exact-coefficient series to the direct quotient here.
_SERIES_SWITCH = 0.5
#: The first 32 Taylor coefficients of r(t) in powers of t², each the
#: correctly rounded double of ``excess_ratio_taylor(32)``'s exact value (a
#: test pins them bit for bit), written out so that no run divides Fractions.
_RATIO_COEFFS = (
    0.3333333333333333, -0.08888888888888889, 0.04656084656084656,
    -0.030194003527336862, 0.021796804019026242, -0.016787551856334924,
    0.013502765051265932, -0.011203745637718733, 0.009516073194527899,
    -0.008231206567350501, 0.007224464737393906, -0.006417063031397296,
    0.005756954446288888, -0.005208475658374312, 0.004746430692874202,
    -0.004352550122988381, 0.004013287468010989, -0.0037184010824199377,
    0.003460014667462103, -0.0032319788547818702, 0.003029427541561364,
    -0.0028484633560942837, 0.002685930651641578, -0.0025392490144042017,
    0.002406289362268139, -0.002285280508802515, 0.0021747378429786955,
    -0.0020734082816406844, 0.001980227344909481, -0.001894285366846039,
    0.0018148006632013015, -0.001741098049677998,
)
#: power_values takes its geometric-mean form where |p|·ln(max/min) is below
#: this (the measured point where the two forms' errors cross).
_POWER_SWITCH = 1.5
#: 1/3!, 1/5!, …, 1/15!: sinh's Taylor series to double precision for |x| <= 3/8.
_SINH_COEFFS = tuple(1.0 / math.factorial(2 * k + 1) for k in range(1, 8))


class PositivePair(namedtuple("PositivePair", "a b")):
    """An ordered pair of strictly positive, finite reals.

    Raises :class:`DomainError` on non-finite or non-positive entries; ``a == b``
    is allowed (means extend continuously to the diagonal).
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float) -> "PositivePair":
        fa, fb = _as_float(a), _as_float(b)
        if not (math.isfinite(fa) and math.isfinite(fb)):
            raise DomainError(f"pair entries must be finite, got ({a!r}, {b!r})")
        if fa <= 0.0 or fb <= 0.0:
            raise DomainError(f"pair entries must be strictly positive, got ({fa}, {fb})")
        return super().__new__(cls, fa, fb)

    @classmethod
    def _make(cls, iterable) -> "PositivePair":
        # ``_replace`` builds through ``_make``: both check as the constructor does
        return cls(*iterable)


def excess_ratio_taylor(order: int) -> tuple[fractions.Fraction, ...]:
    """Exact Taylor coefficients of r(t) in powers of t², by long division.

    Reciprocal of arctan(t)/t = Σ (-1)^k t^{2k}/(2k+1):  r(t) = Σ_k coef[k]·t^{2k}
    with coef = (1/3, -4/45, 44/945, -428/14175, …).  The order is at most
    ``series.N_MAX``, the cap of every series order.
    """
    from . import series

    if not _is_integer(order) or order < 1:
        raise DomainError(f"order must be an integer >= 1, got {order!r}")
    if order > series.N_MAX:
        raise DomainError(f"order must lie in [1, {series.N_MAX}], got {order}")
    a = [fractions.Fraction((-1) ** k, 2 * k + 1) for k in range(order + 1)]
    b = [fractions.Fraction(1)]
    for n in range(1, order + 1):
        b.append(-sum(a[j] * b[n - j] for j in range(1, n + 1)))
    return tuple(b[1:])


def _profile(a, b, out=None):
    """A = a/2 + b/2 and t = |a/2 - b/2|/A; halving first keeps both finite.

    A > 0 for a != b, however small the pair.  Floats or float arrays, with
    the same operations; ``out``, if given, is two float arrays shaped like a
    and b that receive A and t, and ``a`` must then be a float array too,
    which is overwritten.
    """
    if out is None:
        a, b = 0.5 * a, 0.5 * b
        am = a + b
        return am, abs(a - b) / am
    am, t = out
    a *= 0.5
    np.multiply(b, 0.5, out=am)
    np.subtract(a, am, out=t)
    np.add(a, am, out=am)
    np.abs(t, out=t)
    t /= am
    return am, t


def _ratio_series(u):
    """r, 1/3 - r and q = 1 + u·r from the series at u = t² (t up to the switch).

    With the Horner tail Σ_{k>=1} coef[k]·u^{k-1}: 1/3 - r = -u·tail, r =
    tail·u + coef[0] and q = r·u + 1.  A float or an array, with the same
    operations in the same order; an array is updated in place, so the
    Horner pass makes no temporary per step.
    """
    coeffs = _RATIO_COEFFS
    tail = u * coeffs[-1]
    tail += coeffs[-2]
    for c in coeffs[-3:0:-1]:
        tail *= u
        tail += c
    upper = -u * tail
    tail *= u
    tail += coeffs[0]
    q = tail * u
    q += 1.0
    return tail, upper, q


def _ratio(t, out=None):
    """r(t), the upper margin 1/3 - r(t) and q(t) = t/arctan t for t in [0, 1).

    Beyond the switch all three come from the direct quotient q, up to it
    from :func:`_ratio_series`.  A float takes :mod:`math` and loads no
    numpy; NaN takes the series and gives NaN.  An array of any shape gives
    three arrays of its shape: the direct quotient runs over the whole array
    and the series then overwrites the subset up to the switch.
    (Overwriting beats gathering the large-t subset: most sampled t lie
    above the switch.)  So the series branch gives the same bits on both
    paths, and the direct one may differ by an ulp (``math.atan`` against
    ``np.arctan``).

    ``out``, if given, is four float arrays shaped like a 1-d ``t`` that
    receive t², r, 1/3 - r and q: a sweep passes one set for every block and
    reads t² from the first.
    """
    if isinstance(t, float):
        if t > _SERIES_SWITCH:
            q = t / math.atan(t)
            r = (q - 1.0) / (t * t)
            return r, _RATIO_COEFFS[0] - r, q
        return _ratio_series(t * t)
    shape = np.shape(t)
    t = np.reshape(t, -1)
    tt, r, upper, q = (np.empty(t.shape) for _ in range(4)) if out is None else out
    np.multiply(t, t, out=tt)
    # t = 0 divides by zero; t² underflows below ~1e-154
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(t, np.arctan(t, out=q), out=q)
        np.subtract(q, 1.0, out=r)
        r /= tt
    np.subtract(_RATIO_COEFFS[0], r, out=upper)
    small = np.flatnonzero(t <= _SERIES_SWITCH)
    r[small], upper[small], q[small] = _ratio_series(tt[small])
    return r.reshape(shape), upper.reshape(shape), q.reshape(shape)


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.geomspace(start, stop, num)`` for 0 < start, stop and num >= 2.

    The same steps in log10 with the ends kept exact; ``10.0**y`` comes from
    libm, which rounds a few percent of the inner points an ulp away from
    numpy's power.
    """
    lo, hi = math.log10(start), math.log10(stop)
    step = (hi - lo) / (num - 1)
    return [start, *(10.0 ** (k * step + lo) for k in range(1, num - 1)), stop]


def seiffert_values(a, b):
    """Seiffert mean A·t/arctan t (no validation)."""
    if a == b:
        return a
    am, t = _profile(a, b)
    return am * _ratio(t)[2]


def centroidal_values(a, b):
    """Centroidal mean A·(1 + t²/3) (no validation)."""
    if a == b:
        return a
    am, t = _profile(a, b)
    return am * (t * t / 3.0 + 1.0)


# The bulk twins of the cores: the factor f(t) of A·f(t) on numpy arrays,
# taken of t² (the blend's of t), for profiles the sweeps already hold and
# written into ``out`` if given.  Each takes its core's operations in its
# order, so A·f(t) is the core's value bit for bit.


def _centroidal_factor(tt, out=None):
    f = np.divide(tt, 3.0, out=out)
    f += 1.0
    return f


def blend_values(x, a, b):
    """Centroidal mean of the blended pair (xa+(1-x)b, xb+(1-x)a).

    The blend keeps the pair sum and scales the difference, hence t, by
    2x-1, which is exact for x in [1/2, 1].
    """
    if a == b:
        return a
    am, t = _profile(a, b)
    s = t * (2.0 * x - 1.0)
    return am * (s * s / 3.0 + 1.0)


def _blend_factor(x, t, out=None):
    s = np.multiply(t, 2.0 * x - 1.0, out=out)
    s *= s
    return _centroidal_factor(s, out)


def arithmetic_values(a, b):
    return a if a == b else 0.5 * a + 0.5 * b


def geometric_values(a, b):
    """sqrt(a)·sqrt(b), and a itself on the diagonal (sqrt(a)² may round)."""
    return a if a == b else math.sqrt(a) * math.sqrt(b)


def root_square_values(a, b):
    if a == b:
        return a
    am, t = _profile(a, b)
    return am * math.sqrt(t * t + 1.0)


def _root_square_factor(tt, out=None):
    return np.sqrt(np.add(tt, 1.0, out=out), out=out)


def contra_harmonic_values(a, b):
    if a == b:
        return a
    am, t = _profile(a, b)
    return am * (t * t + 1.0)


def _contra_harmonic_factor(tt, out=None):
    return np.add(tt, 1.0, out=out)


def _sinh(x: float) -> float:
    """sinh x for |x| <= 3/8 within 0.54 ulp (libm's is off by up to 1.6 ulp
    there; the power core's exponent multiplies that about p·L²/4-fold)."""
    xx = x * x
    acc = 0.0
    for c in reversed(_SINH_COEFFS):
        acc = acc * xx + c
    return x + x * (xx * acc)


def power_values(a, b, p):
    """Power mean M_p in max- (or min-) factored form to dodge overflow.

    M_p = max·((1+rᵖ)/2)^(1/p) with r = min/max for p > 0, and the
    min-factored mirror for p < 0; p = 0 short-circuits to the geometric mean.

    Raising the rounded bracket to 1/p costs about 1/|p| ulp.  So for
    0 < |p| < 1/2, with L = ln(max/min), M_p is G·exp(log1p(2·sinh²(p·L/4))/p)
    wherever |p|·L is below :data:`_POWER_SWITCH`; this is exact algebra,
    (aᵖ + bᵖ)/2 = Gᵖ·cosh(p·L/2) and cosh x = 1 + 2·sinh²(x/2), and its error
    grows with the exponent, about p·L²/8.  Beyond the switch the factored form
    stays, with r^|p| taken as exp(-|p|·L): min/max underflows beyond ratios of
    ~4.5e307, where r^|p| is still far from negligible for small |p|.
    """
    if p == 0.0 or a == b:
        return geometric_values(a, b)
    hi, lo = max(a, b), min(a, b)
    if abs(p) >= 0.5:
        r = lo / hi
        if p > 0.0:
            return hi * (0.5 * (1.0 + r**p)) ** (1.0 / p)
        return lo * (0.5 * (1.0 + r ** (-p))) ** (1.0 / p)
    # max/min overflows beyond ratios of ~1.8e308, where the log difference
    # stands in
    log_ratio = math.log(hi / lo) if hi / lo < math.inf else math.log(hi) - math.log(lo)
    if abs(p) * log_ratio < _POWER_SWITCH:
        s = _sinh(p * log_ratio / 4.0)
        return geometric_values(a, b) * math.exp(math.log1p(2.0 * s * s) / p)
    return (hi if p > 0.0 else lo) * (0.5 * (1.0 + math.exp(-abs(p) * log_ratio))) ** (1.0 / p)


#: The core of each mean, by its CLI name.  ``power`` takes the
#: exponent after the pair, ``blend`` the blend parameter before it.
MEANS = {
    "seiffert": seiffert_values,
    "centroidal": centroidal_values,
    "blend": blend_values,
    "arithmetic": arithmetic_values,
    "geometric": geometric_values,
    "root-square": root_square_values,
    "contra-harmonic": contra_harmonic_values,
    "power": power_values,
}


def mean(name: str, pair: PositivePair, param: float | None = None) -> float:
    """The mean ``name`` (a key of :data:`MEANS`) of ``pair``.

    ``param`` is the exponent p of ``power`` (finite) and the parameter x of
    ``blend`` (in [1/2, 1]); it is required for those two and rejected for
    every other mean.
    """
    fn = MEANS.get(name)
    if fn is None:
        raise DomainError(f"unknown mean {name!r}; choose from {', '.join(sorted(MEANS))}")
    if not isinstance(pair, PositivePair):
        raise DomainError(f"expected PositivePair, got {type(pair).__name__}")
    if name not in ("power", "blend"):
        if param is not None:
            raise DomainError(f"the {name} mean takes no parameter, got {param!r}")
        return float(fn(pair.a, pair.b))
    if param is None:
        raise DomainError(f"the {name} mean requires a parameter")
    param = _as_float(param)
    if name == "power":
        if not math.isfinite(param):
            raise DomainError(f"power exponent must be finite, got {param!r}")
        return float(fn(pair.a, pair.b, param))
    if not (math.isfinite(param) and 0.5 <= param <= 1.0):
        raise DomainError(f"blend parameter must lie in [1/2, 1], got {param!r}")
    return float(fn(param, pair.a, pair.b))
