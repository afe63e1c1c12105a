"""Exact Bernoulli numbers and the even-order trigonometric expansions.

Everything is anchored on the Bernoulli numbers B_n defined by
``x/(e^x - 1) = sum_i B_i x^i / i!``, generated here by the defining
recurrence ``sum_{k=0}^{m} binom(m+1, k) B_k = 0`` with ``B_0 = 1`` in exact
rational arithmetic (``fractions.Fraction``).  The even-index values satisfy
the sign law ``(-1)^(n-1) B_{2n} = |B_{2n}| > 0``.

On top of the table:

* ``zeta_even(q)``:  ζ(2q) = (2π)^{2q} |B_{2q}| / (2 (2q)!)
* ``cot_series``:    cot x    = 1/x  - Σ_{n≥1} 2^{2n}|B_{2n}|/(2n)! · x^{2n-1}
* ``csc2_series``:   1/sin²x  = 1/x² + Σ_{n≥1} 2^{2n}(2n-1)|B_{2n}|/(2n)! · x^{2n-2}
  (term by term the negated derivative of the cot expansion)
* ``ratio_series``:  R(θ) = cotθ/θ - 1/sin²θ + 1
                          = 1 - Σ_{n≥1} n·2^{2n+1}|B_{2n}|/(2n)! · θ^{2n-2}

Truncation error is controlled through the identity
``2^{2n}|B_{2n}|/(2n)! = 2 ζ(2n)/π^{2n} < 2 ζ(2)/π^{2n}``, which bounds every
remainder by an explicit geometric (or arithmetico-geometric) tail; see
:func:`truncated_series`.

The default table covers B_2 … B_120 (``N_MAX = 60``); it is built once and is
immutable afterwards, so concurrent reads are safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, RangeError

__all__ = [
    "N_MAX",
    "BernoulliTable",
    "default_table",
    "bernoulli_even",
    "zeta_even",
    "cot_coefficient",
    "csc2_coefficient",
    "ratio_coefficient",
    "cot_series",
    "csc2_series",
    "ratio_series",
    "TruncatedSeries",
    "truncated_series",
]

#: Largest supported n for B_{2n} and series order.  |B_120| is astronomically
#: large but exact; 60 terms are far more than any tail bound here needs.
N_MAX = 60

_PI = math.pi
#: ζ(2) = π²/6, the constant in the coefficient bound 2ζ(2)/π^{2n}.
_ZETA2 = _PI * _PI / 6.0


@dataclass(frozen=True)
class BernoulliTable:
    """Even-index Bernoulli numbers ``B_0, B_2, …, B_{2·n_max}``, exact.

    ``B_1`` participates in the generating recurrence internally but is not
    stored (the table holds even indices only).
    """

    values: tuple[Fraction, ...]

    @classmethod
    def build(cls, n_max: int = N_MAX) -> "BernoulliTable":
        if n_max < 1:
            raise RangeError(f"table order must be >= 1, got {n_max}")
        full = [Fraction(1)]
        for m in range(1, 2 * n_max + 1):
            acc = Fraction(0)
            for k in range(m):
                if full[k]:
                    acc += math.comb(m + 1, k) * full[k]
            full.append(-acc / (m + 1))
        evens = tuple(full[2 * n] for n in range(n_max + 1))
        for n in range(1, n_max + 1):
            if (-1) ** (n - 1) * evens[n] <= 0:
                raise AssertionError(f"Bernoulli sign law failed at n={n}")
        return cls(values=evens)

    @property
    def n_max(self) -> int:
        return len(self.values) - 1

    def even(self, n: int) -> Fraction:
        """Return B_{2n} (n = 0 gives B_0 = 1)."""
        if not 0 <= n <= self.n_max:
            raise RangeError(f"B_{{2n}} available for 0 <= n <= {self.n_max}, got n={n}")
        return self.values[n]


@functools.lru_cache(maxsize=1)
def default_table() -> BernoulliTable:
    """The shared immutable table up to ``N_MAX``."""
    return BernoulliTable.build(N_MAX)


def bernoulli_even(n: int) -> Fraction:
    """B_{2n} as an exact Fraction, 1 <= n <= N_MAX.

    Computed by the defining recurrence, independent of any zeta evaluation
    (so :func:`zeta_even` is a genuine cross-check, not a circular one).
    """
    _check_order(n, what="Bernoulli index")
    return default_table().even(n)


def zeta_even(q: int) -> float:
    """ζ(2q) through the Bernoulli closed form, as a float.

    Evaluated from the exact B_{2q} at 50 significant digits before the final
    rounding, so the result is the correctly rounded double of the true value.
    Note the binary64 horizon: ζ(2q) - 1 < 2^-53 for q >= 27, where the float
    collapses to exactly 1.0.
    """
    import mpmath as mp  # here only, so importing the package does not load mpmath

    _check_order(q, what="zeta argument")
    b = abs(bernoulli_even(q))
    with mp.workdps(50):
        val = (
            (2 * mp.pi) ** (2 * q)
            / (2 * mp.factorial(2 * q))
            * mp.mpf(b.numerator)
            / mp.mpf(b.denominator)
        )
        return float(val)


@functools.lru_cache(maxsize=None)
def cot_coefficient(n: int) -> Fraction:
    """Exact coefficient 2^{2n}|B_{2n}|/(2n)! of x^{2n-1} in the cot tail."""
    _check_order(n, what="series term index")
    return Fraction(4**n) * abs(bernoulli_even(n)) / math.factorial(2 * n)


@functools.lru_cache(maxsize=None)
def csc2_coefficient(n: int) -> Fraction:
    """Exact coefficient 2^{2n}(2n-1)|B_{2n}|/(2n)! of x^{2n-2} in the 1/sin² tail."""
    _check_order(n, what="series term index")
    return Fraction(4**n * (2 * n - 1)) * abs(bernoulli_even(n)) / math.factorial(2 * n)


@functools.lru_cache(maxsize=None)
def ratio_coefficient(n: int) -> Fraction:
    """Exact coefficient n·2^{2n+1}|B_{2n}|/(2n)! of θ^{2n-2} in the ratio tail.

    Equals cot_coefficient(n) + csc2_coefficient(n): the two expansions merge
    term by term when forming cotθ/θ - 1/sin²θ + 1.
    """
    _check_order(n, what="series term index")
    return Fraction(n * 2 ** (2 * n + 1)) * abs(bernoulli_even(n)) / math.factorial(2 * n)


@functools.lru_cache(maxsize=4)
def _float_coeffs(kind: str) -> tuple[float, ...]:
    fns = {"cot": cot_coefficient, "csc2": csc2_coefficient, "ratio": ratio_coefficient}
    return tuple(float(fns[kind](n)) for n in range(1, N_MAX + 1))


@functools.lru_cache(maxsize=4)
def _extended_coeffs(kind: str) -> tuple:
    """Coefficients as 80-bit extended floats (hi+lo split of the exact value)."""
    import numpy as np

    fns = {"cot": cot_coefficient, "csc2": csc2_coefficient, "ratio": ratio_coefficient}
    out = []
    for n in range(1, N_MAX + 1):
        c = fns[kind](n)
        hi = float(c)
        lo = float(c - Fraction(hi))
        out.append(np.longdouble(hi) + np.longdouble(lo))
    return tuple(out)


def _horner_extended(kind: str, n: int, x: float) -> tuple:
    """x as an 80-bit extended float and the sum of the first n coefficients
    times powers of x², in that precision.  numpy provides the type; this
    helper and ``_extended_coeffs`` import it, and nothing else here does."""
    import numpy as np

    xl = np.longdouble(x)
    u = xl * xl
    acc = u * 0.0
    for c in _extended_coeffs(kind)[n - 1 :: -1]:
        acc = acc * u + c
    return xl, acc


def cot_series(x: float, n: int) -> float:
    """Partial sum of the cot expansion: 1/x - Σ_{k=1..n} c_k x^{2k-1}.

    Valid pointwise for 0 < |x| < π; see :func:`truncated_series` for the
    remainder bound on |x| <= r < π.  Accumulated in 80-bit extended
    precision: near the pole the 1/x term dwarfs one double ulp, and plain
    double evaluation could not match the true partial sum to 1e-12 absolute.
    """
    x = _check_x(x)
    _check_order(n, what="truncation order")
    xl, acc = _horner_extended("cot", n, x)
    return float(1.0 / xl - xl * acc)


def csc2_series(x: float, n: int) -> float:
    """Partial sum of the 1/sin² expansion: 1/x² + Σ_{k=1..n} (2k-1)c_k x^{2k-2}.

    Extended-precision accumulation, as in :func:`cot_series` (the 1/x² term
    reaches 10⁴ on the test interval, where a double ulp alone is ~2e-12).
    """
    x = _check_x(x)
    _check_order(n, what="truncation order")
    xl, acc = _horner_extended("csc2", n, x)
    return float(1.0 / (xl * xl) + acc)


def ratio_series(theta: float, n: int) -> float:
    """Partial sum of R(θ) = cotθ/θ - 1/sin²θ + 1 on 0 < θ <= π/4.

    Every coefficient beyond the constant 1 is strictly negative, so the
    partial sum is strictly decreasing in θ for every n >= 1.  The n = 1 term
    is 2/3, hence R(0⁺) = 1/3; at the right endpoint R(π/4) = 4/π - 1.
    Plain double arithmetic suffices here: the 1/θ² singularities of the two
    parent expansions cancel exactly in the combination, every term is O(1).
    """
    theta = float(theta)
    if not (0.0 < theta <= _PI / 4.0):
        raise DomainError(f"ratio series argument must lie in (0, π/4], got {theta!r}")
    _check_order(n, what="truncation order")
    u = theta * theta
    acc = 0.0
    for c in _float_coeffs("ratio")[n - 1 :: -1]:
        acc = acc * u + c
    return 1.0 - acc


@dataclass(frozen=True)
class TruncatedSeries:
    """A truncated expansion plus a proven remainder bound on an interval.

    ``coefficients[k]`` is the float value of the exact term-k+1 coefficient;
    ``tail_bound`` dominates the absolute truncation remainder everywhere on
    ``(0, radius]``.
    """

    kind: str
    coefficients: tuple[float, ...]
    truncation_order: int
    radius: float
    tail_bound: float

    def evaluate(self, x: float) -> float:
        fn = {"cot": cot_series, "csc2": csc2_series, "ratio": ratio_series}[self.kind]
        return fn(x, self.truncation_order)


_DEFAULT_RADIUS = {"cot": _PI / 2.0, "csc2": _PI / 2.0, "ratio": _PI / 4.0}


def truncated_series(kind: str, order: int, radius: float | None = None) -> TruncatedSeries:
    """Build a :class:`TruncatedSeries` for ``kind`` in {cot, csc2, ratio}.

    Tail bounds: with y = (radius/π)² < 1 and c_n < 2ζ(2)/π^{2n},

    * cot:   Σ_{n>N} c_n r^{2n-1}        < (2ζ(2)/r)  Σ_{n>N} yⁿ
    * csc2:  Σ_{n>N} (2n-1) c_n r^{2n-2} < (2ζ(2)/r²) Σ_{n>N} (2n-1) yⁿ
    * ratio: Σ_{n>N} 2n c_n θ^{2n-2}     < (2ζ(2)/θ²) Σ_{n>N} 2n yⁿ

    with the geometric sums closed by Σ_{n>N} yⁿ = y^{N+1}/(1-y) and
    Σ_{n>N} n yⁿ = y^{N+1}((N+1) - N y)/(1-y)².  Each remainder term grows
    with |x|, so the bound at ``radius`` covers the whole interval.
    """
    if kind not in _DEFAULT_RADIUS:
        raise DomainError(f"unknown series kind {kind!r}")
    _check_order(order, what="truncation order")
    r = _DEFAULT_RADIUS[kind] if radius is None else float(radius)
    hi = _PI / 4.0 if kind == "ratio" else _PI
    if not (0.0 < r <= hi) or (kind != "ratio" and r == _PI):
        raise DomainError(f"radius for {kind!r} must lie in (0, {hi}), got {r!r}")
    y = (r / _PI) ** 2
    geo = y ** (order + 1) / (1.0 - y)
    lin = y ** (order + 1) * ((order + 1) - order * y) / (1.0 - y) ** 2
    if kind == "cot":
        bound = (2.0 * _ZETA2 / r) * geo
    elif kind == "csc2":
        bound = (2.0 * _ZETA2 / (r * r)) * (2.0 * lin - geo)
    else:
        bound = (2.0 * _ZETA2 / (r * r)) * 2.0 * lin
    return TruncatedSeries(
        kind=kind,
        coefficients=tuple(_float_coeffs(kind)[:order]),
        truncation_order=order,
        radius=r,
        tail_bound=bound,
    )


def _check_order(n: int, *, what: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise RangeError(f"{what} must be an integer, got {n!r}")
    if not 1 <= n <= N_MAX:
        raise RangeError(f"{what} must lie in [1, {N_MAX}], got {n}")


def _check_x(x: float) -> float:
    x = float(x)
    if not (0.0 < abs(x) < _PI):
        raise DomainError(f"series argument must satisfy 0 < |x| < π, got {x!r}")
    return x
