"""Auxiliary-function chain certifying the sharp blend-mean bound.

For a blend parameter p in (1/2, 1] and the normalized pair (t, 1), t > 1, let

    Q(t) = [pt+(1-p)]² + [pt+(1-p)][p+(1-p)t] + [p+(1-p)t]²
    gap(t) = 4·arctan((t-1)/(t+1)) - 3(t²-1)/Q(t).

The blend/Seiffert difference factorizes through it:

    blend_mean(p,(t,1)) - seiffert_mean((t,1)) = difference_factor(t)·gap(t)

with ``difference_factor = Q / (6(1+t)·arctan((t-1)/(t+1))) > 0`` on t > 1, so
the sign of ``gap`` decides the inequality.  gap(1⁺) = 0 and
gap(t) → π - 3/(p²-p+1) as t → ∞, which vanishes exactly at the sharp
parameter p = (1 + sqrt(12/π - 3))/2.

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
in the shifted variable s = t-1 (e.g. chain₁ = 36(p²-p)(s²+s³) + c₁s⁴, which
reduces to (t-1)⁴ bit-exactly at p = 1); the shifted forms are algebraically
identical to the t-power forms and the test suite checks that identity in
exact rational arithmetic.

At the sharp parameter, chain₄ is increasing with chain₄(1) < 0, which forces
the sign-change ladder 1 < t₀ < t₁ < t₂ < t₃ (roots of chain₄ … chain₁, with
t₃ the minimizer of gap).  :func:`locate_critical_points` reconstructs that
ladder by scan+bisection and verifies every structural claim post hoc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import BracketError, DomainError
from .means import blend_values, seiffert_values

__all__ = [
    "BlendGapFamily",
    "CriticalPointReport",
    "CounterexampleWitness",
    "derivative_identity_residual",
    "locate_critical_points",
    "counterexample_witness",
]

_PI = math.pi


@dataclass(frozen=True)
class BlendGapFamily:
    """The gap function and its derivative chain for one blend parameter p."""

    p: float

    def __post_init__(self) -> None:
        p = float(self.p)
        if not (math.isfinite(p) and 0.5 < p <= 1.0):
            raise DomainError(f"blend parameter must lie in (1/2, 1], got {self.p!r}")
        object.__setattr__(self, "p", p)

    # -- building blocks ----------------------------------------------------

    def chain_coefficients(self) -> tuple[float, float, float]:
        """(c₁, c₂, c₃) as printed above."""
        p = self.p
        base = 4 * p**4 - 8 * p**3
        return (
            base + 18 * p**2 - 14 * p + 1,
            base + 9 * p**2 - 5 * p + 1,
            base + 6 * p**2 - 2 * p + 1,
        )

    def quadratic_form(self, t):
        """Q(t): the symmetric quadratic form of the blended pair (array-ok)."""
        t = np.asarray(t, dtype=float)
        p = self.p
        u1 = p * t + (1.0 - p)
        u2 = p + (1.0 - p) * t
        return u1 * u1 + u1 * u2 + u2 * u2

    def limit_at_infinity(self) -> float:
        """lim_{t→∞} gap(t) = π - 3/(p²-p+1)."""
        p = self.p
        return _PI - 3.0 / (p * p - p + 1.0)

    # -- gap ------------------------------------------------------------------

    def gap_values(self, t):
        """gap(t) on arrays, no domain validation.

        Two branches keep the evaluation fully accurate:

        * t < 2:  4·arctan(s/(t+1)) - 3s(t+1)/Q with s = t-1, so both terms
          vanish with s and no t²-1 cancellation occurs near the diagonal;
        * t >= 2: with w = p²-p+1 and m = 1+2p(1-p), Q = wt² + mt + w and
          4·arctan((t-1)/(t+1)) = π - 4·arctan(1/t), giving
          gap = [(πw-3)t² + πm·t + (πw+3)]/Q - 4·arctan(1/t); the leading
          coefficient πw-3 vanishes at the sharp parameter, which removes the
          large-t cancellation exactly where the sign checks are hardest.
        """
        t = np.asarray(t, dtype=float)
        p = self.p
        w = p * p - p + 1.0
        m = 1.0 + 2.0 * p * (1.0 - p)
        # the t >= 2 form everywhere, then the t < 2 entries overwritten
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (
                ((_PI * w - 3.0) * t * t + _PI * m * t + (_PI * w + 3.0)) / self.quadratic_form(t)
                - 4.0 * np.arctan(1.0 / t)
            )
        val = np.asarray(val)  # a 0-d t gives a numpy scalar
        small = t < 2.0
        ts = t[small]
        s = ts - 1.0
        val[small] = 4.0 * np.arctan(s / (ts + 1.0)) - 3.0 * s * (ts + 1.0) / self.quadratic_form(ts)
        return val

    def gap(self, t: float) -> float:
        """gap(t) for scalar t > 1 (domain-checked)."""
        t = float(t)
        if not (math.isfinite(t) and t > 1.0):
            raise DomainError(f"gap is defined for t > 1, got {t!r}")
        return float(self.gap_values(t))

    def gap_denominator(self, t):
        """h₁(t) = Q(t)²·(1+t²), the denominator of gap'(t) (array-ok)."""
        t = np.asarray(t, dtype=float)
        q = self.quadratic_form(t)
        return q * q * (1.0 + t * t)

    def difference_factor(self, t):
        """Strictly positive F(t) with blend(p) - seiffert = F·gap on t > 1."""
        t = np.asarray(t, dtype=float)
        return self.quadratic_form(t) / (6.0 * (1.0 + t) * np.arctan((t - 1.0) / (t + 1.0)))

    # -- derivative chain -----------------------------------------------------

    def chain_values(self, t, level: int):
        """chain_level(t) on arrays (shifted-form evaluation), no t validation."""
        if level not in (1, 2, 3, 4):
            raise DomainError(f"chain level must be in 1..4, got {level!r}")
        t = np.asarray(t, dtype=float)
        p = self.p
        c1 = self.chain_coefficients()[0]
        u = p * p - p
        s = t - 1.0
        if level == 1:
            return 36.0 * u * (s * s) * (1.0 + s) + c1 * s**4
        if level == 2:
            return s * (18.0 * u + 27.0 * u * s + c1 * s * s)
        if level == 3:
            return 6.0 * u + 18.0 * u * s + c1 * s * s
        return 9.0 * u + c1 * s

    def chain(self, t: float, level: int) -> float:
        """Scalar chain polynomial at level 1..4."""
        return float(self.chain_values(float(t), level))


@dataclass(frozen=True)
class CriticalPointReport:
    """The ladder 1 < t₀ < t₁ < t₂ < t₃ with post-hoc verification data.

    ``residuals[k]`` is |chain_{4-k}(t_k)| at the located root and
    ``bracket_width`` the widest final bisection bracket.
    """

    t0: float
    t1: float
    t2: float
    t3: float
    bracket_width: float
    residuals: tuple[float, float, float, float]

    def as_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "t2": self.t2,
            "t3": self.t3,
            "bracket_width": self.bracket_width,
            "residuals": list(self.residuals),
        }


@dataclass(frozen=True)
class CounterexampleWitness:
    """A ratio t = a/b at which a perturbed bound demonstrably fails."""

    side: str
    t: float
    blend_value: float
    seiffert_value: float


def derivative_identity_residual(family: BlendGapFamily, grid) -> float:
    """Max normalized residual of gap'(t)·h₁(t) = chain₁(t) over the grid.

    gap' is a central finite difference with step h = 1e-6·max(1, t); the step
    balances truncation against rounding at double precision.  The residual is
    normalized by max(1, Σᵢ|cᵢ|·tⁱ), the evaluation magnitude of the printed
    quartic, i.e. a backward-error scale.
    """
    t = np.asarray(grid, dtype=float)
    h = 1e-6 * np.maximum(1.0, t)
    if np.any(t - h <= 1.0):
        raise DomainError("grid points must satisfy t - 1e-6·max(1,t) > 1")
    fd = (family.gap_values(t + h) - family.gap_values(t - h)) / (2.0 * h)
    lhs = fd * family.gap_denominator(t)
    rhs = family.chain_values(t, 1)
    c1, c2, c3 = (abs(c) for c in family.chain_coefficients())
    scale = c1 * t**4 + 4.0 * c2 * t**3 + 6.0 * c3 * t**2 + 4.0 * c2 * t + c1
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, scale)))


def _bisect(fn, lo: float, hi: float) -> tuple[float, float]:
    """Bisection on a sign-change bracket, driven to ~1e-13 relative width."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo, 0.0
    if fhi == 0.0:
        return hi, 0.0
    if (flo < 0.0) == (fhi < 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid, 0.0
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi), hi - lo


def _first_sign_change(values: np.ndarray, grid: np.ndarray) -> tuple[float, float]:
    sign = np.sign(values)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(flips) == 0:
        raise BracketError("scan found no sign change; a structural claim is violated")
    k = flips[0]
    return float(grid[k]), float(grid[k + 1])


def _check_vee(values: np.ndarray, grid: np.ndarray, switch: float, label: str, pad: int = 3) -> None:
    """Assert decreasing-then-increasing shape with the turn at ``switch``."""
    d = np.diff(values)
    k = int(np.searchsorted(grid, switch))
    if not np.all(d[: max(0, k - pad)] < 0.0):
        raise BracketError(f"{label} is not strictly decreasing before its turning point")
    if not np.all(d[k + pad :] > 0.0):
        raise BracketError(f"{label} is not strictly increasing after its turning point")


def locate_critical_points(
    family: BlendGapFamily,
    *,
    scan_hi: float = 1e6,
    scan_points: int = 2000,
) -> CriticalPointReport:
    """Locate t₀ < t₁ < t₂ < t₃ and certify the monotonicity ladder.

    Intended for the sharp parameter (where the t→∞ limit of gap vanishes);
    the preconditions chain₃(1) < 0, chain₄(1) < 0 and c₁ > 0 are what make
    the ladder exist, and a failed bracket raises :class:`BracketError`
    instead of returning a bogus report.

    t₀, t₁, t₂ are the sign changes of chain₄, chain₃, chain₂; t₃, the
    minimizer of gap, is located as the sign change of chain₁ beyond t₂
    (gap' and chain₁ share their sign through the derivative identity), and
    gap itself is checked to turn exactly there.
    """
    roots: list[float] = []
    residuals: list[float] = []
    widths: list[float] = []
    start = 1.0
    for level in (4, 3, 2, 1):
        grid = np.geomspace(max(start, 1.0 + 1e-9), scan_hi, scan_points)
        vals = family.chain_values(grid, level)
        lo, hi = _first_sign_change(vals, grid)
        root, width = _bisect(lambda t, lv=level: family.chain(t, lv), lo, hi)
        roots.append(root)
        residuals.append(abs(family.chain(root, level)))
        widths.append(width)
        start = root  # chain_{level-1} is still negative here; scan onward
    t0, t1, t2, t3 = roots
    if not (1.0 < t0 < t1 < t2 < t3):
        raise BracketError(f"critical points are not ordered: {roots}")

    shape_grid = np.geomspace(1.0, 4.0 * t3, 400)
    if not np.all(np.diff(family.chain_values(shape_grid, 4)) > 0.0):
        raise BracketError("chain₄ is not strictly increasing")
    _check_vee(family.chain_values(shape_grid, 3), shape_grid, t0, "chain₃")
    _check_vee(family.chain_values(shape_grid, 2), shape_grid, t1, "chain₂")
    _check_vee(family.chain_values(shape_grid, 1), shape_grid, t2, "chain₁")
    gap_grid = np.geomspace(1.0 + 1e-4, 1e3, 400)
    _check_vee(family.gap_values(gap_grid), gap_grid, t3, "gap")

    return CriticalPointReport(
        t0=t0,
        t1=t1,
        t2=t2,
        t3=t3,
        bracket_width=max(widths),
        residuals=(residuals[0], residuals[1], residuals[2], residuals[3]),
    )


def counterexample_witness(
    p: float,
    side: Literal["above_alpha", "below_one"],
) -> CounterexampleWitness:
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

    The witness carries both mean values so the violated inequality can be
    re-checked directly.  A failed search raises :class:`BracketError`.
    """
    if side == "above_alpha":
        family = BlendGapFamily(p)
        if p >= 1.0 or family.limit_at_infinity() <= 0.0:
            raise DomainError(
                "above_alpha requires the gap limit π - 3/(p²-p+1) to be positive "
                f"with p < 1, got p={p}"
            )
        ts = np.geomspace(1.5, 1e12, 1200)
    elif side == "below_one":
        if not 0.5 < p < 1.0:
            raise DomainError(f"below_one requires 1/2 < p < 1, got p={p}")
        ts = 1.0 + np.geomspace(1e-9, 10.0, 800)
    else:
        raise DomainError(f"unknown side {side!r}")

    blend = blend_values(p, ts, 1.0)
    seif = seiffert_values(ts, 1.0)
    mask = blend > seif if side == "above_alpha" else seif - blend >= 4.0 * np.spacing(blend)
    idx = np.nonzero(mask)[0]
    if len(idx) == 0:
        raise BracketError(f"no witness found on the {side} scan up to t={ts[-1]:.3g}")
    k = int(idx[0])
    return CounterexampleWitness(
        side=side,
        t=float(ts[k]),
        blend_value=float(blend[k]),
        seiffert_value=float(seif[k]),
    )
