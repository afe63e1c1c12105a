"""Sharp constants and bulk verification of the two double inequalities.

Everything reduces to one scale-free profile.  For the pair (x, 1), x > 1,
put t = (x-1)/(x+1) in (0, 1); then, with A the arithmetic mean,

    seiffert/A        = t/arctan(t)
    centroidal/A      = 1 + t²/3        contra-harmonic/A = 1 + t²
    root-square/A     = sqrt(1 + t²)
    blend(p)/A        = 1 + (2p-1)²t²/3

(the p-blend multiplies the pair difference by 2p-1 and keeps the sum).  So
both double inequalities collapse onto the excess ratio

    r(t) = (seiffert - A)/(contra-harmonic - A) = (t/arctan(t) - 1)/t²,

which decreases strictly from 1/3 (t→0⁺) to 4/π-1 (t→1⁻):

* blend bounds:  blend(α) < seiffert < blend(β)  ⇔  (2α-1)²/3 < r(t) < (2β-1)²/3,
  sharp at α = (1+sqrt(12/π-3))/2 (where (2α-1)²/3 = 4/π-1) and β = 1;
* ratio bounds:  α₁C + (1-α₁)A < seiffert < β₁C + (1-β₁)A  ⇔  α₁ < r(t) < β₁,
  sharp at α₁ = 4/π-1 and β₁ = 1/3.

The verifiers assert strict inequality of the margin functions at every
sample and, for samples with t >= 1e-3, additionally compare the raw
double-precision means (below that the true slack ~t⁴ falls under one ulp of
the means themselves and raw doubles tie).  Margins near the limits are
evaluated through series forms that stay fully accurate, e.g.
1/3 - r(t) = (4/45)t² - (44/945)t⁴ + … obtained by exact long division of the
arctan series.  That piecewise r(t) kernel lives in :mod:`seiffert_bounds.kernels`
with the profile and the factors of the other means; the Seiffert mean of a
block is A times its q = t/arctan t.

Sampling is log-uniform in a/b over (1, ratio_max] plus deterministic
near-boundary points {1+10⁻ᵏ} and {10⁺ᵏ} up to ratio_max: sharpness lives at
the boundary and uniform sampling would miss it.  Every suite but the ordering
chain (which draws its own pairs) samples exactly
``sample_ratios(default_rng(seed), samples, ratio_max)``, so no reported ratio
leaves (1, ratio_max].

The four suites stream through one engine (``_sweep``): ratios are drawn,
checked and reduced in blocks of ``_BLOCK`` samples, so memory is O(block)
and time linear in the sample count.  The streaming contract:

* the blocks continue one random stream, so a suite sees exactly the samples
  of one full-length draw, whatever the block size;
* every reduction keeps the first occurrence (minima, maxima, the first
  violation of each check), so the report equals that of a single unblocked
  scan, bit for bit;
* each block's work is done once: one profile (A, t) and one r(t) kernel
  pass, which gives t², the margins and q = t/arctan t; the raw-mean check builds
  every mean of the pair (x, 1) from them, the Seiffert mean as A·q.

Each sweep writes its blocks into one workspace of block-sized rows, made
per call and reused by every block (see ``_BLOCK``): the heap is not
re-faulted block by block.  All functions are pure.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
from dataclasses import dataclass, field

from .errors import BracketError, DomainError

__all__ = [
    "RATIO_LOWER",
    "RATIO_UPPER",
    "blend_alpha_closed",
    "blend_alpha_numeric",
    "excess_ratio",
    "excess_ratio_upper_margin",
    "excess_ratio_lower_margin",
    "ratio_grid_scan",
    "sample_ratios",
    "VerificationResult",
    "verify_blend_bounds",
    "verify_ratio_bounds",
    "verify_prior_bounds",
    "verify_ordering_chain",
    "SharpnessWitness",
    "SharpConstantReport",
    "constants_report",
    "CONSTANT_GAP_LIMIT",
]


class _OnFirstUse:
    """A module imported on its first attribute access, which then takes the
    place of this stand-in among the globals here.

    So importing this module, and with it the CLI, loads no numpy: the first
    call that computes does.
    """

    def __init__(self, name: str, binding: str):
        self._name, self._binding = name, binding

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._name, __package__)
        globals()[self._binding] = module
        return getattr(module, attr)


np = _OnFirstUse("numpy", "np")
auxiliary = _OnFirstUse(".auxiliary", "auxiliary")
kernels = _OnFirstUse(".kernels", "kernels")


def _ratio_kernel(t, out=None):
    """:func:`seiffert_bounds.kernels._ratio_kernel`, imported on first use."""
    return kernels._ratio_kernel(t, out)

#: Sharp bounds of the excess ratio: inf = 4/π - 1, sup = 1/3.
RATIO_LOWER = 4.0 / math.pi - 1.0
RATIO_UPPER = 1.0 / 3.0

#: Largest tolerated |closed_form - discovered| before reports count as failed.
CONSTANT_GAP_LIMIT = 1e-10

#: Below this t the raw-mean comparisons are skipped (true slack under 1 ulp).
_DIRECT_T_FLOOR = 1e-3

#: How far past its optimum ``constants_report`` pushes each constant.
_PROBE_SHIFT = 1e-6


def _on_profile(t, pick):
    """``pick(r, 1/3 - r)`` at validated t in (0, 1); a float for scalar t."""
    arr = np.asarray(t, dtype=float)
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        bad = arr[~((arr > 0.0) & (arr < 1.0))].ravel()
        raise DomainError(f"t must lie in (0, 1), got e.g. {bad[:3]}")
    out = pick(*_ratio_kernel(arr)[:2])
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def excess_ratio(t):
    """r(t) = (t/arctan t - 1)/t² for t in (0, 1).  Scalar or array.

    Equals the mean composite (seiffert - A)/(contra-harmonic - A) at the pair
    ((1+t)/(1-t), 1).  Accurate to a few 1e-15 relative over the whole domain.
    """
    return _on_profile(t, lambda r, upper: r)


def excess_ratio_upper_margin(t):
    """1/3 - r(t), strictly positive on (0, 1), fully accurate as t→0⁺."""
    return _on_profile(t, lambda r, upper: upper)


def excess_ratio_lower_margin(t):
    """r(t) - (4/π - 1), strictly positive on (0, 1), → 0 as t→1⁻."""
    return _on_profile(t, lambda r, upper: r - RATIO_LOWER)


def blend_alpha_closed() -> float:
    """The sharp lower blend constant (1 + sqrt(12/π - 3))/2 ≈ 0.95269157."""
    return 0.5 * (1.0 + math.sqrt(12.0 / math.pi - 3.0))


def _bisect(fn, lo: float, hi: float) -> float:
    """Root of an increasing fn with fn(lo) < 0 < fn(hi), down to adjacent doubles."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def blend_alpha_numeric() -> float:
    """The same constant recovered by root-finding, not by the closed form.

    Bisects π - 3/(p²-p+1) (the t→∞ limit of the blend gap) on (1/2, 1) down
    to adjacent doubles; the limit is strictly increasing there with a sign
    change, so the bracket cannot fail.  Agrees with
    :func:`blend_alpha_closed` to well under 1e-12.
    """
    return _bisect(lambda p: math.pi - 3.0 / (p * p - p + 1.0), 0.5 + 1e-9, 1.0)


def _check_range(n: int, ratio_max: float) -> None:
    if n < 1:
        raise DomainError(f"samples must be >= 1, got {n}")
    if not (math.isfinite(ratio_max) and ratio_max > 1.0):
        raise DomainError(f"ratio_max must be finite and exceed 1, got {ratio_max}")


#: The ordering chain draws its ratios from here up (see verify_ordering_chain).
_CHAIN_RATIO_FLOOR = 1.0 + 2e-5


def _check_chain_range(ratio_max: float) -> None:
    if not ratio_max > _CHAIN_RATIO_FLOOR:
        raise DomainError(f"ratio_max must exceed 1 + 2e-5 for the ordering chain, got {ratio_max}")


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def _boundary_points(ratio_max: float) -> np.ndarray:
    """The near-boundary ratios {1+10⁻ᵏ} and {10⁺ᵏ} up to ratio_max, and ratio_max."""
    near = 1.0 + 10.0 ** -np.arange(1.0, 10.0)
    far = 10.0 ** np.arange(1.0, math.floor(math.log10(max(ratio_max, 10.0))) + 1.0)
    extra = np.concatenate([near, far, [ratio_max]])
    return extra[extra <= ratio_max]


def sample_ratios(
    rng: np.random.Generator,
    n: int,
    ratio_max: float = 1e8,
    include_boundary: bool = True,
    *,
    _out: np.ndarray | None = None,
) -> np.ndarray:
    """Log-uniform ratios a/b in (1, ratio_max] plus boundary points.

    Each ratio takes one draw of ``rng``, so successive calls continue one
    stream; the sweeps draw it block by block, ask for the boundary points
    with the last block and pass one float array as ``_out`` (private) for
    every block, whose head the result then is.
    """
    _check_range(n, ratio_max)
    extra = _boundary_points(ratio_max) if include_boundary else ()
    x = np.empty(n + len(extra)) if _out is None else _out[: n + len(extra)]
    drawn = x[:n]
    rng.random(out=drawn)
    drawn *= math.log(ratio_max)
    np.exp(drawn, out=drawn)
    np.clip(drawn, 1.0 + 1e-12, ratio_max, out=drawn)
    x[n:] = extra
    return x


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one bulk suite.

    ``min_slack_left``/``min_slack_right`` are the smallest margins of the
    reduced ratio inequality (left: r - lower constant, right: upper constant
    - r), with the ratios where they occur; a witness is attached when the
    suite failed.
    """

    suite: str
    passed: bool
    n_samples: int
    min_slack_left: float
    min_slack_right: float
    arg_left: float
    arg_right: float
    witness: dict | None = None
    stats: dict = field(default_factory=dict)

    def as_report(self) -> dict:
        rep = {
            "suite": self.suite,
            "pass": self.passed,
            "n_samples": self.n_samples,
            "min_slack_left": self.min_slack_left,
            "min_slack_right": self.min_slack_right,
            "witness": self.witness,
        }
        rep.update(self.stats)
        return rep


#: Samples drawn, checked and reduced per step of a sweep.  Every block is
#: written into one workspace of 6 to 12 float64 rows and two bool rows (0.8
#: to 1.6 MB, within one core's 2 MiB L2), so no block allocates or frees a
#: block-sized array and glibc no longer trims and re-faults the heap block
#: by block (chain took 13.8k minor faults per 2e6-sample call).  At this
#: size a row, with room for the boundary points, stays below glibc's
#: 128 KiB mmap threshold and comes from the heap; one 1-2 MB array per call
#: raised the probe workload's peak RSS by 1.8 MB.  See ``BENCH_10.json``.
_BLOCK = 16_000


def _workspace(size: int, floats: int, flags: int) -> tuple[list, list]:
    """``floats`` float64 and ``flags`` bool rows of ``size`` for one sweep.

    Each row is an array of its own, so that each stays below glibc's 128 KiB
    mmap threshold (see ``_BLOCK``).
    """
    return [np.empty(size) for _ in range(floats)], [np.empty(size, dtype=bool) for _ in range(flags)]


def _ratio_blocks(seed: int, n: int, ratio_max: float, floats: int, flags: int):
    """Blocks ``(x, t, rows, flags)`` of the stream ``sample_ratios(default_rng(seed), n, ratio_max)``.

    Every block is written into one workspace, made here for the whole sweep:
    x, t, ``floats`` float rows and ``flags`` bool rows for the suite's own
    arrays (the first float row is scratch for t), each cut to the block's
    length, so no block allocates a block-sized array.

    t is bit for bit the profile t of the pair (x, 1) (the profile's halvings
    are exact), so the raw-mean checks may build means of (x, 1) from it.
    """
    rng = _rng(seed)
    _check_range(n, ratio_max)
    # the last block also carries the boundary points
    work, bits = _workspace(min(n, _BLOCK) + len(_boundary_points(ratio_max)), 2 + floats, flags)
    for start in range(0, n, _BLOCK):
        x = sample_ratios(rng, min(_BLOCK, n - start), ratio_max, start + _BLOCK >= n, _out=work[0])
        t, *rows = (row[: len(x)] for row in work[1:])
        np.subtract(x, 1.0, out=t)
        t /= np.add(x, 1.0, out=rows[0])
        yield x, t, rows, [row[: len(x)] for row in bits]


def _first(flags: np.ndarray, value: bool = True) -> int | None:
    """Index of the first element of ``flags`` equal to ``value``, or None."""
    if not flags.size:
        return None
    k = int(np.argmax(flags) if value else np.argmin(flags))
    return k if flags[k] == value else None


def _first_raw_failure(ok: np.ndarray, t: np.ndarray, spare: np.ndarray) -> int | None:
    """First sample with t >= 1e-3 where ``ok`` is False, or None; ``ok`` is overwritten."""
    ok |= np.less(t, _DIRECT_T_FLOOR, out=spare)
    return _first(ok, False)


def _half_sum(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The arithmetic mean of the pairs (x, 1), rounded as the arithmetic core rounds it."""
    np.multiply(x, 0.5, out=out)
    out += 0.5
    return out


def _mix(c: float, m: np.ndarray, am: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """c·m + (1 - c)·am into ``out``, rounded as that expression rounds it."""
    np.multiply(m, c, out=out)
    out += np.multiply(am, 1.0 - c, out=spare)
    return out


def _mean_side_witness(x: float, side: str, lhs: float, rhs: float) -> dict:
    return {"ratio": x, "side": side, "lhs": lhs, "rhs": rhs}


def _margin_witness(x, left, right, at, flags) -> dict | None:
    """Witness of the first sample with a non-positive margin, or None.

    ``at(k, side)`` gives the (lhs, rhs) pair reported for sample k; ``flags``
    are two bool rows it may overwrite.
    """
    bad, spare = flags
    np.less_equal(left, 0.0, out=bad)
    bad |= np.less_equal(right, 0.0, out=spare)
    k = _first(bad)
    if k is None:
        return None
    side = "lower" if left[k] <= 0.0 else "upper"
    return _mean_side_witness(float(x[k]), side, *at(k, side))


def _raw_mean_witness(x, t, lo, mid, hi, flags) -> dict | None:
    """Witness of the first sample with t >= 1e-3 breaking lo < mid < hi in raw
    doubles, or None.

    It names the broken side with its own pair: (lo, mid) for ``lower``,
    (mid, hi) for ``upper``.  ``flags`` are two bool rows it may overwrite.
    """
    ok, spare = flags
    np.less(lo, mid, out=ok)
    ok &= np.less(mid, hi, out=spare)
    k = _first_raw_failure(ok, t, spare)
    if k is None:
        return None
    if not lo[k] < mid[k]:
        return _mean_side_witness(float(x[k]), "lower", float(lo[k]), float(mid[k]))
    return _mean_side_witness(float(x[k]), "upper", float(mid[k]), float(hi[k]))


def _sweep(suite: str, blocks, stats=lambda best: {}) -> VerificationResult:
    """Reduce a stream of ``(x, folds, checks)`` blocks to one suite result.

    ``folds`` maps a name to ``(values, np.argmin | np.argmax)``; across blocks
    only the first-occurrence extremum and its ratio are kept, as one pick
    over the whole sample would give them (NaN included).  ``folds["left"]``
    and ``folds["right"]`` are the reported slacks; ``stats`` turns the other
    ``name -> (value, ratio)`` extrema into report fields.  ``checks`` are
    callables returning the witness of their first violation in the block or
    None.  An earlier check outranks a later one wherever the two fire, and
    within a check the earlier sample wins, so once a check has fired neither
    it nor any later check runs again.  A block's folds are taken before its
    checks run, in order, so a check may overwrite the arrays that the folds
    and the checks before it read.
    """
    n, best, found = 0, {}, None
    for x, folds, checks in blocks:
        n += len(x)
        for key, (vals, pick) in folds.items():
            k = int(pick(vals))
            if key not in best or pick((best[key][0], vals[k])) == 1:
                best[key] = (float(vals[k]), float(x[k]))
        for rank, check in enumerate(checks[: len(checks) if found is None else found[0]]):
            witness = check()
            if witness is not None:
                found = (rank, witness)
                break
    (left, arg_left), (right, arg_right) = best.pop("left"), best.pop("right")
    witness = None if found is None else found[1]
    return VerificationResult(
        suite, witness is None, n, left, right, arg_left, arg_right, witness, stats(best)
    )


def verify_blend_bounds(
    samples: int = 10**6,
    *,
    seed: int = 0,
    ratio_max: float = 1e8,
    alpha: float | None = None,
    beta: float = 1.0,
) -> VerificationResult:
    """Bulk check of blend(α) < seiffert < blend(β) over sampled ratios.

    Defaults verify the sharp statement (α the closed-form constant, β = 1).
    Any violated sample fails the suite with the offending ratio and both mean
    values attached; shifting α above the sharp constant is expected to fail
    at large ratios, shifting β below 1 near the diagonal.
    """
    alpha = blend_alpha_closed() if alpha is None else float(alpha)
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(val) and 0.5 <= val <= 1.0):
            raise DomainError(f"{name} must lie in [1/2, 1], got {val!r}")
    lo_const = (2.0 * alpha - 1.0) ** 2 / 3.0
    hi_const = (2.0 * beta - 1.0) ** 2 / 3.0

    def block(x, t, rows, flags):
        tt, r, upper, q = rows
        r, upper, q = _ratio_kernel(t, out=(tt, r, upper, q))
        # the margins take the place of r and 1/3 - r, which thm1 needs no further
        right = upper if beta == 1.0 else np.subtract(hi_const, r, out=upper)
        left = np.subtract(r, lo_const, out=r)

        def means_at(k, side):
            am = x[k] * 0.5 + 0.5
            blend = float(am * kernels._blend_factor(alpha if side == "lower" else beta, t[k]))
            seif = float(am * q[k])
            return (blend, seif) if side == "lower" else (seif, blend)

        def raw_means():
            # t² and the margins are spent by now (see _sweep): their rows
            # hold the means, and the Seiffert mean takes q's
            arith = _half_sum(x, tt)
            lo_mean = kernels._blend_factor(alpha, t, left)
            lo_mean *= arith
            hi_mean = kernels._blend_factor(beta, t, right)
            hi_mean *= arith
            return _raw_mean_witness(x, t, lo_mean, np.multiply(arith, q, out=q), hi_mean, flags)

        folds = {"left": (left, np.argmin), "right": (right, np.argmin)}
        return x, folds, (lambda: _margin_witness(x, left, right, means_at, flags), raw_means)

    return _sweep("thm1", itertools.starmap(block, _ratio_blocks(seed, samples, ratio_max, 4, 2)))


def verify_ratio_bounds(
    samples: int = 10**6,
    *,
    seed: int = 0,
    ratio_max: float = 1e8,
    alpha1: float | None = None,
    beta1: float | None = None,
) -> VerificationResult:
    """Bulk check of α₁ < r(t) < β₁ (and the equivalent mean combination).

    Reports the observed infimum/supremum, which approach 4/π-1 and 1/3
    monotonically from inside as the sampling reaches t → 1⁻ and t → 0⁺.
    """
    alpha1 = RATIO_LOWER if alpha1 is None else float(alpha1)
    beta1 = RATIO_UPPER if beta1 is None else float(beta1)
    for name, val in (("alpha1", alpha1), ("beta1", beta1)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val!r}")

    def block(x, t, rows, flags):
        tt, r, upper, q, left, spare = rows
        r, upper, q = _ratio_kernel(t, out=(tt, r, upper, q))
        np.subtract(r, alpha1, out=left)
        # the upper margin takes the place of 1/3 - r when beta1 moves
        right = upper if beta1 == RATIO_UPPER else np.subtract(beta1, r, out=upper)

        def raw_means():
            # r and the margins are spent by now (see _sweep): their rows hold
            # the means, the contra-harmonic mean takes t²'s and the Seiffert
            # mean q's
            arith = _half_sum(x, left)
            contra = kernels._contra_harmonic_factor(tt, tt)
            contra *= arith
            lo_mean = _mix(alpha1, contra, arith, r, spare)
            hi_mean = _mix(beta1, contra, arith, upper, spare)
            return _raw_mean_witness(x, t, lo_mean, np.multiply(arith, q, out=q), hi_mean, flags)

        folds = {
            "left": (left, np.argmin),
            "right": (right, np.argmin),
            "inf": (r, np.argmin),
            "sup": (r, np.argmax),
        }
        at = lambda k, side: (float(r[k]), alpha1 if side == "lower" else beta1)  # noqa: E731
        return x, folds, (lambda: _margin_witness(x, left, right, at, flags), raw_means)

    def stats(best):
        (inf, arg_inf), (sup, arg_sup) = best["inf"], best["sup"]
        return {"inf": inf, "sup": sup, "arg_inf": arg_inf, "arg_sup": arg_sup}

    return _sweep("thm2", itertools.starmap(block, _ratio_blocks(seed, samples, ratio_max, 6, 2)), stats)


def ratio_grid_scan(n: int = 10**6, t_min: float = 1e-7, t_max: float = 1.0 - 1e-7) -> dict:
    """Uniform grid scan of r(t) on [t_min, t_max]: extremes + monotonicity."""
    if not (0.0 < t_min < t_max < 1.0):
        raise DomainError("need 0 < t_min < t_max < 1")
    if n < 2:
        raise DomainError(f"need at least 2 grid points, got n={n!r}")
    grid = np.linspace(t_min, t_max, n)
    vals = _ratio_kernel(grid)[0]
    diffs = np.diff(vals)
    return {
        "inf": float(vals[-1]),
        "sup": float(vals[0]),
        "arg_inf": float(grid[-1]),
        "arg_sup": float(grid[0]),
        "monotone_decreasing": bool(np.all(diffs < 0.0)),
        "n": n,
    }


# Prior sharp constants regression-checked against the same mean stack:
#   alpha_S·S + (1-alpha_S)·A < T < (2/3)·S + (1/3)·A
#   C(alpha_2-blend) < T < C(beta_2-blend)
_PRIOR_ALPHA_S = (4.0 - math.pi) / ((math.sqrt(2.0) - 1.0) * math.pi)
_PRIOR_BETA_S = 2.0 / 3.0
_PRIOR_ALPHA_2 = 0.5 * (1.0 + math.sqrt(4.0 / math.pi - 1.0))
_PRIOR_BETA_2 = (3.0 + math.sqrt(3.0)) / 6.0


def verify_prior_bounds(
    samples: int = 10**5,
    *,
    seed: int = 0,
    ratio_max: float = 1e8,
) -> VerificationResult:
    """Regression of the four earlier sharp bounds at their stated constants.

    In profile form (u = sqrt(1+t²)):

    * lower S-combination:  r(t) > alpha_S/(1+u)      (equality only at t→1)
    * upper S-combination:  r(t) < (2/3)/(1+u)        (equality only at t→0)
    * lower C-blend:        r(t) > (2·alpha_2-1)² = 4/π-1
    * upper C-blend:        r(t) < (2·beta_2-1)²  = 1/3

    Cross-validates the Seiffert/root-square/arithmetic/contra-harmonic stack
    against the literature constants; raw-mean comparisons run for t >= 1e-3.
    A witness names the first margin, in the order above, that went
    non-positive anywhere, and else the raw-mean check.
    """
    names = ("lower_S_combination", "upper_S_combination", "lower_C_blend", "upper_C_blend")

    def block(x, t, rows, flags):
        tt, r, upper, q, u, lower_s, upper_s, lower_c, left, right = rows
        r, upper, q = _ratio_kernel(t, out=(tt, r, upper, q))
        kernels._root_square_factor(tt, u)
        np.add(u, 1.0, out=upper_s)
        np.subtract(r, np.divide(_PRIOR_ALPHA_S, upper_s, out=lower_s), out=lower_s)
        # (2/3)/(1+u) - r, written against the stable upper margin as
        # 1/3 - r - t²/(3(1+u)²):
        upper_s *= upper_s
        upper_s *= 3.0
        np.subtract(upper, np.divide(tt, upper_s, out=upper_s), out=upper_s)
        # (2·alpha_2-1)² = 4/π-1 and (2·beta_2-1)² = (sqrt(3)/3)² = 1/3
        # exactly, so the C-blend margins coincide with the ratio margins
        # (float-squaring the constants would only inject ulp noise at the
        # sharp ends).
        np.subtract(r, RATIO_LOWER, out=lower_c)
        margins = (lower_s, upper_s, lower_c, upper)

        def margin(name, vals):
            k = _first(np.less_equal(vals, 0.0, out=flags[0]))
            return None if k is None else _mean_side_witness(float(x[k]), name, float(vals[k]), 0.0)

        def raw_means():
            # the rows of r, t² and the margins are spent by now (see _sweep)
            am, v, w, am2, t2 = r, tt, lower_s, upper_s, lower_c
            arith = _half_sum(x, am)
            # the Seiffert and root-square means, in the place of q and u
            seif = np.multiply(arith, q, out=q)
            rootsq = np.multiply(arith, u, out=u)
            ok, spare = flags
            np.less(_mix(_PRIOR_ALPHA_S, rootsq, arith, v, w), seif, out=ok)
            ok &= np.less(seif, _mix(_PRIOR_BETA_S, rootsq, arith, v, w), out=spare)
            # the blended pairs round differently from (x, 1), so they keep
            # their own profile
            for p, below in ((_PRIOR_ALPHA_2, True), (_PRIOR_BETA_2, False)):
                pa = np.multiply(x, p, out=v)
                pa += 1.0 - p
                pb = np.multiply(x, 1.0 - p, out=w)
                pb += p
                blend_am, blend_t = kernels._profile(pa, pb, out=(am2, t2))
                contra = kernels._contra_harmonic_factor(np.multiply(blend_t, blend_t, out=blend_t), blend_t)
                contra *= blend_am
                ok &= np.less(contra, seif, out=spare) if below else np.less(seif, contra, out=spare)
            k = _first_raw_failure(ok, t, spare)
            return None if k is None else _mean_side_witness(float(x[k]), "raw-mean", float(seif[k]), 0.0)

        folds = {name: (vals, np.argmin) for name, vals in zip(names, margins)}
        folds["left"] = (np.minimum(lower_s, lower_c, out=left), np.argmin)
        folds["right"] = (np.minimum(upper_s, upper, out=right), np.argmin)
        checks = [functools.partial(margin, name, vals) for name, vals in zip(names, margins)]
        return x, folds, (*checks, raw_means)

    blocks = _ratio_blocks(seed, samples, ratio_max, 10, 2)
    return _sweep(
        "priors", itertools.starmap(block, blocks), lambda best: {name: best[name][0] for name in names}
    )


def verify_ordering_chain(
    samples: int = 10**5,
    *,
    seed: int = 0,
    ratio_max: float = 1e6,
) -> VerificationResult:
    """Strict ordering G < A < centroidal < S < C plus A < seiffert < S.

    Pairs are (x·k, k) with x log-uniform in [1+2e-5, ratio_max] and the scale
    k log-uniform in [1e-3, 1e3].  The ratio floor keeps every consecutive
    slack (≥ ~t²/6 relative) two orders above double rounding, so the strict
    raw comparisons are meaningful at every sample; a ``ratio_max`` at or
    below the floor raises :class:`DomainError`.
    """
    _check_range(samples, ratio_max)
    _check_chain_range(ratio_max)
    log_lo, log_span = math.log(_CHAIN_RATIO_FLOOR), math.log(ratio_max) - math.log(_CHAIN_RATIO_FLOOR)

    def draws():
        # one stream holds every x and then every k; a copy of the generator
        # advanced past the x draws reads the k draws block by block alongside
        rng_x = _rng(seed)
        rng_k = _rng(seed)
        rng_k.bit_generator.advance(samples)
        work, bits = _workspace(min(samples, _BLOCK), 10, 2)
        for start in range(0, samples, _BLOCK):
            m = min(_BLOCK, samples - start)
            x, k, *rows = (row[:m] for row in work)
            rng_x.random(out=x)
            x *= log_span
            x += log_lo
            np.exp(x, out=x)
            np.exp(rng_k.uniform(math.log(1e-3), math.log(1e3), m), out=k)
            yield x, k, rows, [row[:m] for row in bits]

    def block(x, k, rows, flags):
        a, g, am, t, tt, r, upper, q = rows
        # the pair is (a, b) = (x·k, k); G first, as the profile overwrites a,
        # with r and the first flag row, free until the kernel, as scratch
        g = kernels._geometric(np.multiply(x, k, out=a), k, g, r, flags[0])
        am, t = kernels._profile(a, k, out=(am, t))
        tm = _ratio_kernel(t, out=(tt, r, upper, q))[2]
        tm *= am
        # the other means take the rows of a, t and 1/3 - r, spent by now
        cb = kernels._centroidal_factor(tt, a)
        cb *= am
        s = kernels._root_square_factor(tt, t)
        s *= am
        c = kernels._contra_harmonic_factor(tt, upper)
        c *= am
        # the two minimum slacks, with r as scratch: A - G, Cbar - A, T - A ...
        left = np.subtract(am, g, out=g)
        np.minimum(left, np.subtract(cb, am, out=r), out=left)
        np.minimum(left, np.subtract(tm, am, out=r), out=left)
        # ... and S - Cbar, C - S, S - T
        right = np.subtract(s, cb, out=cb)
        np.minimum(right, np.subtract(c, s, out=c), out=right)
        np.minimum(right, np.subtract(s, tm, out=c), out=right)
        # every comparison holds iff both minima are positive (for doubles,
        # p < q iff q - p > 0, and a NaN fails both forms)
        ok, spare = flags
        np.greater(left, 0.0, out=ok)
        ok &= np.greater(right, 0.0, out=spare)

        def ordering():
            j = _first(ok, False)
            return None if j is None else _mean_side_witness(float(x[j]), "chain", float(x[j] * k[j]), float(k[j]))

        # relative slacks; dividing by am > 0 after the minimum rounds the same
        # as dividing each slack first (rounding is monotone)
        left /= am
        right /= am
        folds = {"left": (left, np.argmin), "right": (right, np.argmin)}
        return x, folds, (ordering,)

    return _sweep("chain", itertools.starmap(block, draws()))


@dataclass(frozen=True)
class SharpnessWitness:
    """A ratio violating the bound once its constant moves past the optimum."""

    shift: float
    ratio: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SharpConstantReport:
    """A discovered constant next to its closed-form reference."""

    name: str
    closed_form: float
    discovered: float
    abs_gap: float
    witness: SharpnessWitness | None

    def as_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {
                "shift": self.witness.shift,
                "ratio": self.witness.ratio,
                "lhs": self.witness.lhs,
                "rhs": self.witness.rhs,
            }
        return {
            "name": self.name,
            "closed_form": self.closed_form,
            "discovered": self.discovered,
            "gap": self.abs_gap,
            "witness": w,
        }


def _ratio_violation_witness(const: float, side: str, shift: float) -> SharpnessWitness:
    ts = np.geomspace(1e-6, 1.0 - 1e-10, 2000) if side == "upper" else 1.0 - np.geomspace(1e-10, 0.5, 2000)
    r = _ratio_kernel(ts)[0]
    k = _first(r >= const if side == "upper" else r <= const)
    if k is None:
        raise BracketError(f"no ratio violation found for constant {const} ({side})")
    xr = (1.0 + ts[k]) / (1.0 - ts[k])
    lhs, rhs = (float(r[k]), const) if side == "upper" else (const, float(r[k]))
    return SharpnessWitness(shift=shift, ratio=float(xr), lhs=lhs, rhs=rhs)


def constants_report() -> list[SharpConstantReport]:
    """All four sharp constants: closed form vs independent numeric discovery.

    * blend_alpha — root-finding on the t→∞ gap limit;
    * blend_beta  — supremum of the inverse map (1+sqrt(3r(t)))/2 as t→0⁺;
    * ratio_alpha / ratio_beta — extremes of r(t) on boundary-refined grids.

    Each report carries a sharpness witness: a ratio violating the bound with
    the constant pushed ``_PROBE_SHIFT`` past its optimum.  The blend witnesses
    are :func:`seiffert_bounds.auxiliary.counterexample_witness`'s.
    """
    small_t = np.geomspace(1e-8, 1e-2, 400)
    big_t = 1.0 - np.geomspace(1e-10, 1e-2, 400)

    lam_c = blend_alpha_closed()
    lam_n = blend_alpha_numeric()
    above = auxiliary.counterexample_witness(lam_c + _PROBE_SHIFT, "above_alpha")
    rep_alpha = SharpConstantReport(
        name="blend_alpha",
        closed_form=lam_c,
        discovered=lam_n,
        abs_gap=abs(lam_c - lam_n),
        witness=SharpnessWitness(_PROBE_SHIFT, above.t, above.blend_value, above.seiffert_value),
    )

    r_small = _ratio_kernel(small_t)[0]
    beta_disc = float(np.max(0.5 * (1.0 + np.sqrt(3.0 * r_small))))
    below = auxiliary.counterexample_witness(1.0 - _PROBE_SHIFT, "below_one")
    rep_beta = SharpConstantReport(
        name="blend_beta",
        closed_form=1.0,
        discovered=beta_disc,
        abs_gap=abs(1.0 - beta_disc),
        witness=SharpnessWitness(-_PROBE_SHIFT, below.t, below.seiffert_value, below.blend_value),
    )

    inf_disc = float(np.min(_ratio_kernel(big_t)[0]))
    rep_a1 = SharpConstantReport(
        name="ratio_alpha",
        closed_form=RATIO_LOWER,
        discovered=inf_disc,
        abs_gap=abs(RATIO_LOWER - inf_disc),
        witness=_ratio_violation_witness(RATIO_LOWER + _PROBE_SHIFT, "lower", _PROBE_SHIFT),
    )
    sup_disc = float(np.max(r_small))
    rep_b1 = SharpConstantReport(
        name="ratio_beta",
        closed_form=RATIO_UPPER,
        discovered=sup_disc,
        abs_gap=abs(RATIO_UPPER - sup_disc),
        witness=_ratio_violation_witness(RATIO_UPPER - _PROBE_SHIFT, "upper", -_PROBE_SHIFT),
    )
    return [rep_alpha, rep_beta, rep_a1, rep_b1]
