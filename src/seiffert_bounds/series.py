"""Exact Bernoulli numbers and the even-order trigonometric expansions.

Everything is anchored on the Bernoulli numbers B_n defined by
``x/(e^x - 1) = sum_i B_i x^i / i!``.  The even-index values come from the
tangent numbers T_n of ``tan x = sum_n T_n x^(2n-1) / (2n-1)!``, which the
in-place integer loop of D. E. Knuth and T. J. Buckholtz ("Computation of
tangent, Euler, and Bernoulli numbers", Math. Comp. 21, 1967) yields, through
``B_{2n} = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))``: one exact
``fractions.Fraction`` per entry.  They satisfy the sign law
``(-1)^(n-1) B_{2n} = |B_{2n}| > 0``; the tests check the table against the
defining recurrence ``sum_{k=0}^{m} binom(m+1, k) B_k = 0``.

On top of the table:

* ``zeta_even(q)``:  ζ(2q) = (2π)^{2q} |B_{2q}| / (2 (2q)!)
* ``cot_series``:    cot x    = 1/x  - Σ_{n≥1} 2^{2n}|B_{2n}|/(2n)! · x^{2n-1}
* ``csc2_series``:   1/sin²x  = 1/x² + Σ_{n≥1} 2^{2n}(2n-1)|B_{2n}|/(2n)! · x^{2n-2}
  (term by term the negated derivative of the cot expansion)
* ``ratio_series``:  R(θ) = cotθ/θ - 1/sin²θ + 1
                          = 1 - Σ_{n≥1} n·2^{2n+1}|B_{2n}|/(2n)! · θ^{2n-2}

All three partial sums are formed exactly from the Fraction coefficients and
rounded once, so they are correctly rounded on every platform.

Truncation error is controlled through the identity
``2^{2n}|B_{2n}|/(2n)! = 2 ζ(2n)/π^{2n} < 2 ζ(2)/π^{2n}``, which bounds every
remainder by an explicit geometric (or arithmetico-geometric) tail; see
:func:`truncated_series`.

There is one table, ``default_table()``: the tuple B_0, B_2, …, B_120
(``N_MAX = 60``) of exact Fractions.  It is built whole, in about a
millisecond, on first use and is immutable afterwards, so concurrent reads
are safe.  An order or index outside [1, N_MAX], or one that is not an
integer, raises :class:`~seiffert_bounds.errors.DomainError`.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError, _as_float, _is_integer

__all__ = [
    "N_MAX",
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


@functools.lru_cache(maxsize=1)
def default_table() -> tuple[Fraction, ...]:
    """The shared immutable tuple B_0, B_2, …, B_{2·N_MAX}, exact."""
    # T_1 … T_N in place (t[0] unused): start from (k-1)! and sweep
    # the Knuth-Buckholtz recurrence, integers only
    t = [0, 1]
    for k in range(2, N_MAX + 1):
        t.append((k - 1) * t[k - 1])
    for k in range(2, N_MAX + 1):
        for j in range(k, N_MAX + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    evens = (Fraction(1),) + tuple(
        Fraction((-1) ** (n - 1) * 2 * n * t[n], 4**n * (4**n - 1)) for n in range(1, N_MAX + 1)
    )
    for n in range(1, N_MAX + 1):
        if (-1) ** (n - 1) * evens[n] <= 0:
            raise AssertionError(f"Bernoulli sign law failed at n={n}")
    return evens


def bernoulli_even(n: int) -> Fraction:
    """B_{2n} as an exact Fraction, 1 <= n <= N_MAX.

    Computed from the integer tangent numbers, independent of any zeta evaluation
    (so :func:`zeta_even` is a genuine cross-check, not a circular one).
    """
    n = _check_order(n, what="Bernoulli index")
    return default_table()[n]


def zeta_even(q: int) -> float:
    """ζ(2q) through the Bernoulli closed form, as a float.

    Evaluated from the exact B_{2q} at 50 significant digits before the final
    rounding, so the result is the correctly rounded double of the true value.
    Note the binary64 horizon: ζ(2q) - 1 < 2^-53 for q >= 27, where the float
    collapses to exactly 1.0.
    """
    import mpmath as mp  # here only, so importing the package does not load mpmath

    q = _check_order(q, what="zeta argument")
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
    n = _check_order(n, what="series term index")
    return Fraction(4**n) * abs(bernoulli_even(n)) / math.factorial(2 * n)


@functools.lru_cache(maxsize=None)
def csc2_coefficient(n: int) -> Fraction:
    """Exact coefficient 2^{2n}(2n-1)|B_{2n}|/(2n)! of x^{2n-2} in the 1/sin² tail."""
    n = _check_order(n, what="series term index")
    return Fraction(4**n * (2 * n - 1)) * abs(bernoulli_even(n)) / math.factorial(2 * n)


@functools.lru_cache(maxsize=None)
def ratio_coefficient(n: int) -> Fraction:
    """Exact coefficient n·2^{2n+1}|B_{2n}|/(2n)! of θ^{2n-2} in the ratio tail.

    Equals cot_coefficient(n) + csc2_coefficient(n): the two expansions merge
    term by term when forming cotθ/θ - 1/sin²θ + 1.
    """
    n = _check_order(n, what="series term index")
    return Fraction(n * 2 ** (2 * n + 1)) * abs(bernoulli_even(n)) / math.factorial(2 * n)


def _exact_sum(kind: str, n: int, x: float) -> tuple[Fraction, Fraction, Fraction]:
    """x, x² and Σ_{k=1..n} c_k x^{2k-2} over the exact coefficients of ``kind``,
    all as exact Fractions (Horner in x², no rounding anywhere)."""
    coefficient = _KINDS[kind][0]
    xq = Fraction(x)
    u = xq * xq
    acc = Fraction(0)
    for k in range(n, 0, -1):
        acc = acc * u + coefficient(k)
    return xq, u, acc


def cot_series(x: float, n: int) -> float:
    """Partial sum of the cot expansion: 1/x - Σ_{k=1..n} c_k x^{2k-1}.

    Valid pointwise for 0 < |x| < π; see :func:`truncated_series` for the
    remainder bound on |x| <= r < π.  The sum is formed exactly in rationals
    and rounded once, so the result is the correctly rounded double of the
    true partial sum on every platform, or ±inf where that lies beyond the
    double range (x next to 0, where 1/x does).
    """
    x = _check_x(x)
    n = _check_order(n, what="truncation order")
    xq, _, acc = _exact_sum("cot", n, x)
    return _as_float(1 / xq - xq * acc)


def csc2_series(x: float, n: int) -> float:
    """Partial sum of the 1/sin² expansion: 1/x² + Σ_{k=1..n} (2k-1)c_k x^{2k-2}.

    Summed exactly and rounded once, as in :func:`cot_series`.
    """
    x = _check_x(x)
    n = _check_order(n, what="truncation order")
    _, u, acc = _exact_sum("csc2", n, x)
    return _as_float(1 / u + acc)


def ratio_series(theta: float, n: int) -> float:
    """Partial sum of R(θ) = cotθ/θ - 1/sin²θ + 1 on 0 < θ <= π/4.

    Every coefficient beyond the constant 1 is strictly negative, so the
    partial sum is strictly decreasing in θ for every n >= 1.  The n = 1 term
    is 2/3, hence R(0⁺) = 1/3; at the right endpoint R(π/4) = 4/π - 1.
    Summed exactly and rounded once, as in :func:`cot_series`.
    """
    theta = _as_float(theta)
    if not (0.0 < theta <= _PI / 4.0):
        raise DomainError(f"ratio series argument must lie in (0, π/4], got {theta!r}")
    n = _check_order(n, what="truncation order")
    _, _, acc = _exact_sum("ratio", n, theta)
    return _as_float(1 - acc)


class TruncatedSeries(namedtuple("TruncatedSeries", "kind coefficients truncation_order radius tail_bound")):
    """A truncated expansion plus a proven remainder bound on an interval.

    ``coefficients[k]`` is the float value of the exact term-k+1 coefficient;
    ``tail_bound`` dominates the absolute truncation remainder everywhere on
    ``(0, radius]``.
    """

    __slots__ = ()


#: Each series kind: its exact coefficient and its default radius.
_KINDS = {
    "cot": (cot_coefficient, _PI / 2.0),
    "csc2": (csc2_coefficient, _PI / 2.0),
    "ratio": (ratio_coefficient, _PI / 4.0),
}


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
    if kind not in _KINDS:
        raise DomainError(f"unknown series kind {kind!r}")
    order = _check_order(order, what="truncation order")
    r = _KINDS[kind][1] if radius is None else _as_float(radius)
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
        coefficients=tuple(float(_KINDS[kind][0](n)) for n in range(1, order + 1)),
        truncation_order=order,
        radius=r,
        tail_bound=bound,
    )


def _check_order(n: int, *, what: str) -> int:
    """``n`` as an int in [1, N_MAX]."""
    if not _is_integer(n):
        raise DomainError(f"{what} must be an integer, got {n!r}")
    if not 1 <= n <= N_MAX:
        raise DomainError(f"{what} must lie in [1, {N_MAX}], got {n}")
    return int(n)


def _check_x(x: float) -> float:
    x = _as_float(x)
    if not (0.0 < abs(x) < _PI):
        raise DomainError(f"series argument must satisfy 0 < |x| < π, got {x!r}")
    return x
