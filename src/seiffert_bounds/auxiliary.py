"""Auxiliary-function chain certifying the sharp blend-mean bound.

For a blend parameter p in (1/2, 1] and the normalized pair (t, 1), t > 1, let

    Q(t) = [pt+(1-p)]² + [pt+(1-p)][p+(1-p)t] + [p+(1-p)t]²
    gap(t) = 4·arctan((t-1)/(t+1)) - 3(t²-1)/Q(t).

The blend/Seiffert difference factorizes through it:

    blend_values(p, t, 1) - seiffert_values(t, 1) = difference_factor(t)·gap(t)

with ``difference_factor = Q / (6(1+t)·arctan((t-1)/(t+1))) > 0`` on t > 1, so
the sign of ``gap`` decides the inequality.  gap(1⁺) = 0 and
gap(t) → π - 3/(p²-p+1) as t → ∞, which vanishes exactly at the sharp
parameter p = (1 + sqrt(12/π - 3))/2.

Both are evaluated on the pair's profile τ = (t-1)/(t+1) in [0, 1), with
A = t/2 + 1/2 and k = (2p-1)·τ: Q = A²(3 + k²) and 3(t²-1) = 12A²τ, so

    gap = 4·(arctan τ - τ) + 4τ·k²/(3 + k²),
    difference_factor = A·((3 + k²)/(12·arctan τ)).

No square of t is formed, so both stay finite up to the largest double, and
one expression serves every t.  With q = τ/arctan τ = 1 + τ²·r(τ), the
excess ratio r of :mod:`seiffert_bounds.sharp`,

    gap = 4τ³((2p-1)²/3 - r(τ)) / (q·(1 + k²/3)),

so gap < 0 exactly where thm1's lower margin r - (2p-1)²/3 is positive.

Differentiating, ``gap'(t) = chain₁(t) / (Q(t)²(1+t²))`` where chain₁ is an
explicit quartic, and the scaled derivatives

    chain₂ = chain₁'/4,   chain₃ = chain₂'/3,   chain₄ = chain₃'/2

are a cubic, a quadratic and a linear polynomial in t whose t-power
coefficients are built from

    c₁(p) = 4p⁴-8p³+18p²-14p+1,
    c₂(p) = 4p⁴-8p³+9p²-5p+1,
    c₃(p) = 4p⁴-8p³+6p²-2p+1.

Endpoint values: chain₁(1) = chain₂(1) = 0, chain₃(1) = 6p²-6p,
chain₄(1) = 9p²-9p.  For numerical conditioning the polynomials are evaluated
in the shifted variable s = t-1; with u = p²-p (so c₁ = 4u²+14u+1)

    chain₄ = c₁s + 9u                 chain₃ = c₁s² + 18us + 6u
    chain₂ = s·(c₁s² + 27us + 18u)    chain₁ = s²·(c₁s² + 36us + 36u),

which reduce chain₁ to (t-1)⁴ bit-exactly at p = 1.  The shifted forms are
algebraically identical to the t-power forms; the test suite checks that
identity in exact rational arithmetic.

When u < 0 < c₁ every bracketed factor has coefficient signs (+, -, -), so by
Descartes' rule each has exactly one positive root, in closed form: t₀ =
1 - 9u/c₁ and the positive roots of the three quadratics.  As chain₃' =
2chain₄, chain₂' = 3chain₃ and chain₁' = 4chain₂, each chainₖ falls while
chainₖ₊₁ < 0 and rises after; with chain₃(1) = 6u < 0 and chain₂(1) =
chain₁(1) = 0 this orders the roots 1 < t₀ < t₁ < t₂ < t₃.  gap' has the sign
of chain₁, so gap falls from gap(1) = 0 to its minimum at t₃ and then rises to
its limit, which is 0 at the sharp parameter: there gap < 0 on (1, ∞).
:func:`locate_critical_points` returns the closed-form roots and
:func:`ladder_proof` proves the signs and the derivative identity in exact
arithmetic.

Importing this module loads no numpy and no :mod:`fractions`.  The scalar
methods (``gap``, ``chain``), the ladder, the proof and
:func:`counterexample_witness` compute on floats with :mod:`math` or on
Fractions, whose module the exact routines load on first use, so ``constants``
(families and witness scans only) loads none.  The witness scans take both
means from the float cores of :mod:`seiffert_bounds.means`
(``blend_values``, ``seiffert_values``).  numpy loads on the first call that
works on arrays (``gap_values`` or ``chain_values`` on an array,
``difference_factor``).  ``gap`` and ``gap_values`` share the one expression
above, evaluated with ``math.atan`` on a float and ``np.arctan`` on an array.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _OnFirstUse
from .errors import BracketError, DomainError, _as_float, _is_integer
from .means import _geomspace, _profile, blend_values, seiffert_values

__all__ = [
    "BlendGapFamily",
    "CriticalPointReport",
    "CounterexampleWitness",
    "ladder_proof",
    "locate_critical_points",
    "counterexample_witness",
]

np = _OnFirstUse("numpy", globals(), "np")
fractions = _OnFirstUse("fractions", globals(), "fractions")


def _gap_at(p, t, atan):
    """gap at p for a float t with math.atan or an array t with np.arctan."""
    _, tau = _profile(t, 1.0)
    k = (2.0 * p - 1.0) * tau
    return 4.0 * (atan(tau) - tau) + 4.0 * tau * (k * k) / (3.0 + k * k)


def _shifted_chain(s, u, level: int):
    """chain_level in s = t-1 from u = p²-p (floats, arrays or Fractions)."""
    c1 = 4 * u * u + 14 * u + 1
    if level == 1:
        return 36 * u * (s * s) * (1 + s) + c1 * s**4
    if level == 2:
        return s * (18 * u + 27 * u * s + c1 * s * s)
    if level == 3:
        return 6 * u + 18 * u * s + c1 * s * s
    return 9 * u + c1 * s


class BlendGapFamily(namedtuple("BlendGapFamily", "p")):
    """The gap function and its derivative chain for one blend parameter p."""

    __slots__ = ()

    def __new__(cls, p: float) -> "BlendGapFamily":
        fp = _as_float(p)
        if not (math.isfinite(fp) and 0.5 < fp <= 1.0):
            raise DomainError(f"blend parameter must lie in (1/2, 1], got {p!r}")
        return super().__new__(cls, fp)

    @classmethod
    def _make(cls, iterable) -> "BlendGapFamily":
        # ``_replace`` builds through ``_make``: both check as the constructor does
        return cls(*iterable)

    # -- building blocks ----------------------------------------------------

    def limit_at_infinity(self) -> float:
        """lim_{t→∞} gap(t) = π - 3/(p²-p+1)."""
        p = self.p
        return math.pi - 3.0 / (p * p - p + 1.0)

    # -- gap ------------------------------------------------------------------

    def gap_values(self, t):
        """gap(t) on arrays, no domain validation; a float t gives a float,
        computed with :mod:`math`.

        One expression in τ = (t-1)/(t+1) (module docstring) for every t, with
        no branch: near the diagonal its error is about that of rounding
        arctan τ (1e-16·τ), and beyond t ≈ 2⁵³, where τ rounds to 1, it
        returns the limit π - 3/(p²-p+1) within rounding.
        """
        if isinstance(t, float):
            return _gap_at(self.p, t, math.atan)
        return _gap_at(self.p, np.asarray(t, dtype=float), np.arctan)

    def gap(self, t: float) -> float:
        """gap(t) for scalar t > 1 (domain-checked)."""
        t = _as_float(t)
        if not (math.isfinite(t) and t > 1.0):
            raise DomainError(f"gap is defined for t > 1, got {t!r}")
        return self.gap_values(t)

    def difference_factor(self, t):
        """Strictly positive F(t) with blend(p) - seiffert = F·gap on t > 1.

        A·((3 + k²)/(12·arctan τ)) in the profile (module docstring), with A
        multiplied last: A·(3 + k²) would overflow at the largest double.
        """
        am, tau = _profile(np.asarray(t, dtype=float), 1.0)
        k = (2.0 * self.p - 1.0) * tau
        return am * ((3.0 + k * k) / (12.0 * np.arctan(tau)))

    # -- derivative chain -----------------------------------------------------

    def chain_values(self, t, level: int):
        """chain_level(t) on arrays (shifted-form evaluation), no t validation."""
        return self._chain(np.asarray(t, dtype=float), level)

    def chain(self, t: float, level: int) -> float:
        """Scalar chain polynomial at level 1..4, in floats; an int or
        Fraction t beyond the double range reads as ±inf."""
        t = _as_float(t)
        try:
            return self._chain(t, level)
        except OverflowError:  # a float power beyond the double range: numpy's ±inf or nan
            with np.errstate(over="ignore", invalid="ignore"):
                return float(self.chain_values(t, level))

    def _chain(self, t, level: int):
        if not _is_integer(level) or not 1 <= level <= 4:
            raise DomainError(f"chain level must be an integer in 1..4, got {level!r}")
        return _shifted_chain(t - 1.0, self.p * self.p - self.p, level)


class CriticalPointReport(namedtuple("CriticalPointReport", "t0 t1 t2 t3 residuals")):
    """The ladder 1 < t₀ < t₁ < t₂ < t₃; ``residuals[k]`` is |chain_{4-k}(t_k)|."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {**self._asdict(), "residuals": list(self.residuals)}


class CounterexampleWitness(namedtuple("CounterexampleWitness", "side t blend_value seiffert_value")):
    """A ratio t = a/b at which a perturbed bound demonstrably fails."""

    __slots__ = ()


def _identity_residual(p: fractions.Fraction, t: fractions.Fraction) -> fractions.Fraction:
    """gap'(t)·Q(t)²(1+t²) - chain₁(t), exactly.

    With gap = 4·arctan((t-1)/(t+1)) - 3(t²-1)/Q and d/dt arctan((t-1)/(t+1))
    = 1/(1+t²), the left side is 4Q² - 3(1+t²)(2tQ - (t²-1)Q'); chain₁ is the
    library's own shifted form replayed in Fractions.
    """
    u1, u2 = p * t + 1 - p, p + (1 - p) * t
    q = u1 * u1 + u1 * u2 + u2 * u2
    dq = (2 * u1 + u2) * p + (u1 + 2 * u2) * (1 - p)
    lhs = 4 * q * q - 3 * (1 + t * t) * (2 * t * q - (t * t - 1) * dq)
    return lhs - _shifted_chain(t - 1, p * p - p, 1)


def locate_critical_points(family: BlendGapFamily) -> CriticalPointReport:
    """The ladder t₀ < t₁ < t₂ < t₃ in closed form (see the module docstring).

    Requires u = p²-p < 0 < c₁, checked exactly at the family's p; otherwise
    the ladder does not exist and :class:`BracketError` is raised.  u and c₁
    are the exact values rounded once; t₀ = 1 - 9u/c₁, and t₁, t₂, t₃ are
    1 + (-k₁u + sqrt((k₁u)² - 4c₁k₀u))/(2c₁) for the quadratic factors
    c₁s² + k₁us + k₀u, where -k₁u > 0 leaves no cancellation.
    """
    p = fractions.Fraction(family.p)
    u_exact = p * p - p
    c1_exact = 4 * u_exact * u_exact + 14 * u_exact + 1
    if not u_exact < 0 < c1_exact:
        raise BracketError(f"no ladder at p={family.p}: needs p²-p < 0 < c₁ = {float(c1_exact):.6g}")
    u, c1 = float(u_exact), float(c1_exact)
    s = [-9.0 * u / c1]
    for k0, k1 in ((6, 18), (18, 27), (36, 36)):  # chain₃, chain₂/s, chain₁/s²
        b = k1 * u
        s.append((-b + math.sqrt(b * b - 4.0 * c1 * (k0 * u))) / (2.0 * c1))
    t0, t1, t2, t3 = roots = [1.0 + sk for sk in s]
    residuals = tuple(abs(family.chain(t, level)) for t, level in zip(roots, (4, 3, 2, 1)))
    return CriticalPointReport(t0=t0, t1=t1, t2=t2, t3=t3, residuals=residuals)


def ladder_proof() -> dict:
    """Exact facts that prove gap < 0 on (1, ∞) at the sharp parameter.

    * At p = (1 + sqrt(12/π - 3))/2, u = p²-p = 3/π - 1; Archimedes' bounds
      on π put u in an interval, and c₁ = (2u + 7/2)² - 45/4, increasing for
      u > -7/4, in the interval of its endpoint values.
    * ``signs``: u < 0 < c₁ on those intervals, so the ladder exists (module
      docstring) and gap, 0 at t = 1 and at t = ∞, is negative in between.
    * ``identity_exact``: gap'·Q²(1+t²) = chain₁ holds on the 5 × 6 grid
      p ∈ {1/2, 5/8, 3/4, 7/8, 1}, t ∈ {3/2, 2, …, 4}.  The residual is a
      polynomial of degree ≤ 4 in p and ≤ 5 in t, so vanishing on that grid
      makes it zero, which ties the sign of gap' to chain₁ for every p.
    """
    # Archimedes' bounds 223/71 < π < 22/7
    pi_lo, pi_hi = fractions.Fraction(223, 71), fractions.Fraction(22, 7)
    u = (3 / pi_hi - 1, 3 / pi_lo - 1)
    c1 = tuple(4 * x * x + 14 * x + 1 for x in u)
    grid_p = [fractions.Fraction(k, 8) for k in range(4, 9)]
    grid_t = [fractions.Fraction(k, 2) for k in range(3, 9)]
    return {
        "pi_bounds": (pi_lo, pi_hi),
        "u": u,
        "c1": c1,
        "signs": u[1] < 0 < c1[0],
        "identity_exact": all(_identity_residual(p, t) == 0 for p in grid_p for t in grid_t),
    }


def counterexample_witness(p: float, side: str) -> CounterexampleWitness:
    """Exhibit a ratio where the blend bound with parameter p fails.

    * ``above_alpha`` (sharp-lower-constant < p < 1): the t→∞ limit of gap is
      then positive, so blend(p) exceeds the Seiffert mean for every large
      enough ratio; the scan returns the first such ratio found on (1, 1e12].
    * ``below_one`` (1/2 < p < 1): chain₃(1) = 6p²-6p < 0 forces gap < 0 just
      above the diagonal, so the Seiffert mean exceeds blend(p) there; the
      scan walks t = 1+s upward from s = 1e-9 and returns the first t where
      the two doubles differ by at least 4 ulp of the blend mean.  (The true
      gap, about (1 - (2p-1)²)·s²/12 relative, stays below one ulp for the
      smallest s, where rounding alone would decide the comparison.)  Its
      largest relative value is about 5(1-p)², so a witness exists only for
      p up to about 1 - 1.3e-8; closer to 1 the scan raises BracketError.

    Each scan walks a geometric grid of ratios one float at a time, with the
    blend and Seiffert cores of :mod:`seiffert_bounds.means`, and stops at the
    first violation.  The witness carries both mean values so the violated
    inequality can be re-checked directly.  A failed search raises
    :class:`BracketError`.
    """
    p = _as_float(p)
    if side == "above_alpha":
        family = BlendGapFamily(p)
        if p >= 1.0 or family.limit_at_infinity() <= 0.0:
            raise DomainError(
                "above_alpha requires the gap limit π - 3/(p²-p+1) to be positive "
                f"with p < 1, got p={p}"
            )
        ts = _geomspace(1.5, 1e12, 1200)
    elif side == "below_one":
        if not 0.5 < p < 1.0:
            raise DomainError(f"below_one requires 1/2 < p < 1, got p={p}")
        ts = [1.0 + s for s in _geomspace(1e-9, 10.0, 800)]
    else:
        raise DomainError(f"unknown side {side!r}")

    for x in ts:
        blend, seif = blend_values(p, x, 1.0), seiffert_values(x, 1.0)
        if blend > seif if side == "above_alpha" else seif - blend >= 4.0 * math.ulp(blend):
            return CounterexampleWitness(side=side, t=x, blend_value=blend, seiffert_value=seif)
    raise BracketError(f"no witness found on the {side} scan up to t={ts[-1]:.3g}")
