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

Every check of every suite is scanned by one loop, ``_Tally.add``, under one
rule, ``_first_broken``: a check fails at the first sample where a strict
lo < hi fails, NaN on either side included, and raw double-precision means
are compared only for t >= 1e-3, where their true slack (~t⁴ for the
theorems) exceeds one ulp of the means.  Margins near the limits are
evaluated through series forms that keep their relative accuracy, e.g.
1/3 - r(t) = (4/45)t² - (44/945)t⁴ + … obtained by exact long division of
the arctan series.  That piecewise r(t), one function for floats and
arrays, lives in :mod:`seiffert_bounds.means`, as do the profile and the
factors of the other means; the Seiffert mean of a block is A times its
q = t/arctan t.

Sampling is log-uniform in a/b over (1, ratio_max] plus deterministic
near-boundary points {1+10⁻ᵏ} and {10⁺ᵏ} up to ratio_max: sharpness lives at
the boundary and uniform sampling would miss it.  Every suite samples exactly
``sample_ratios(default_rng(seed), samples, ratio_max)``, so no reported ratio
leaves (1, ratio_max].

Each suite is a row (``_Row``): a block function that names its margins,
its folds (the reported minima and maxima) and its checks, the raw-mean
comparison among them, over one block.  A check is data, its (lo, hi) pairs
or a callable that builds them, whether the raw-mean floor applies and a
witness function of the first broken sample and pair; no row scans its own.
The engine streams rows through blocks of ``_BLOCK`` samples, so memory is
O(block) and time linear in the sample count, in three steps: ``_lane``
turns a range of the samples into one partial ``_Tally`` (count, extrema,
witness) per row, ``_Tally.merge`` joins the tallies of consecutive ranges,
and ``_Row.finish`` turns a tally into the suite's
:class:`VerificationResult`.  The streaming contract:

* the blocks continue one random stream, so a suite sees exactly the samples
  of one full-length draw, whatever the block size or the range split (each
  ratio takes one draw, so a range starts by advancing the generator);
* every reduction keeps the first occurrence (minima, maxima, the first
  violation of each check, and the lowest-ranked check that fired), so the
  report equals that of a single unblocked scan, bit for bit;
* each block's work is done once: one profile (A, t) and one r(t) kernel
  pass, which gives t², the margins and q = t/arctan t, which the Seiffert
  mean T = A·q then overwrites; every row's raw-mean check reads A and T and
  builds the other means of the pair (x, 1) that it compares from A and t.

One entry, ``_run``, runs every suite: it checks the arguments, splits
the samples into ranges (``_lane_ranges``), runs the first here and each
other one in a standing lane, and merges the lanes' tallies in range order.
One rule sets the lanes of every run, the public ``verify_*`` and ``verify
all`` alike: one lane per CPU from ``_LANE_MIN_SAMPLES`` samples on, else
one.  ``verify all`` at scale is one ``_run`` of the thm1, thm2, priors and
chain rows, which read one draw and one kernel pass per block in place.

Every lane writes its blocks into one workspace of 13 block-sized float
rows, five shared, and two bool rows (see ``_FLOAT_ROWS`` and ``_BLOCK``),
which ``_ratio_blocks`` makes per call and every block and every row reuse:
the heap is not re-faulted block by block.

The standing lanes are the module's one piece of process state.  The first
run that needs k > 1 lanes forks k - 1 of them, once per process, and every
later run sends each its range through a pipe and reads back its tallies; a
run below ``_LANE_MIN_SAMPLES`` forks nothing.  Every message is one pickle,
which marks its own end, and the stop message is ``None``.  The pipes are
plain ``os.pipe`` ends, not ``multiprocessing``, whose import after numpy
took 15-18 ms and loaded 19 modules.  The lanes are closed by
``_close_lanes``, which ``cli.main`` calls before it returns and an atexit
handler calls at the latest; a lane that dies is dropped and replaced by the
next run.  A process forked from their owner does not use them and makes its
own.  Everything else is pure.
"""

from __future__ import annotations

import _thread
import functools
import math
import os
from collections import namedtuple
from collections.abc import Callable

from . import _OnFirstUse, means
from .errors import BracketError, DomainError, _as_float, _is_integer
from .means import _geomspace, _ratio

__all__ = [
    "RATIO_LOWER",
    "RATIO_UPPER",
    "blend_alpha_closed",
    "blend_alpha_numeric",
    "excess_ratio",
    "excess_ratio_upper_margin",
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


# Importing this module, and with it the CLI, loads none of these: the bulk
# code loads numpy on its first call, and ``blend_alpha_numeric`` and
# ``constants_report`` (stdlib scans only) load auxiliary.
np = _OnFirstUse("numpy", globals(), "np")
auxiliary = _OnFirstUse(".auxiliary", globals(), "auxiliary")
pickle = _OnFirstUse("pickle", globals(), "pickle")
atexit = _OnFirstUse("atexit", globals(), "atexit")

#: Sharp bounds of the excess ratio: inf = 4/π - 1, sup = 1/3.
RATIO_LOWER = 4.0 / math.pi - 1.0
RATIO_UPPER = 1.0 / 3.0

#: Largest tolerated |closed_form - discovered| before reports count as failed.
CONSTANT_GAP_LIMIT = 1e-10

#: Below this t the raw-mean comparisons are skipped: the true slack of the
#: theorems, ~t⁴, falls under 1 ulp (the chain's, ~t²/6, only below t ≈ 3e-8).
_DIRECT_T_FLOOR = 1e-3

#: How far past its optimum ``constants_report`` pushes each constant.
_PROBE_SHIFT = 1e-6


def _on_profile(t, pick):
    """``pick(r, 1/3 - r)`` at validated t in (0, 1); a float for scalar t."""
    try:
        arr = np.asarray(t, dtype=float)
    except OverflowError:
        raise DomainError("t must lie in (0, 1), got a number beyond the double range") from None
    if arr.size and not np.all((arr > 0.0) & (arr < 1.0)):
        bad = arr[~((arr > 0.0) & (arr < 1.0))].ravel()
        raise DomainError(f"t must lie in (0, 1), got e.g. {bad[:3]}")
    out = pick(*_ratio(arr)[:2])
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def excess_ratio(t):
    """r(t) = (t/arctan t - 1)/t² for t in (0, 1).  Scalar or array.

    Equals the mean composite (seiffert - A)/(contra-harmonic - A) at the pair
    ((1+t)/(1-t), 1).  Within 5e-16 relative up to t = 1/2 and 6e-15 beyond,
    from the t whose t² is the smallest normal to 1 - 2⁻⁵³ (a test holds both).
    """
    return _on_profile(t, lambda r, upper: r)


def excess_ratio_upper_margin(t):
    """1/3 - r(t), strictly positive on (0, 1): within 4e-15 relative up to
    t = 1/2, down to the t whose t² is the smallest normal, and 8e-14 beyond."""
    return _on_profile(t, lambda r, upper: upper)


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

    Bisects the t→∞ limit of the blend gap,
    :meth:`seiffert_bounds.auxiliary.BlendGapFamily.limit_at_infinity`
    (π - 3/(p²-p+1)), on (1/2, 1) down to adjacent doubles; the limit is
    strictly increasing there with a sign change, so the bracket cannot fail.
    Agrees with :func:`blend_alpha_closed` to well under 1e-12.
    """
    return _bisect(lambda p: auxiliary.BlendGapFamily(p).limit_at_infinity(), 0.5 + 1e-9, 1.0)


def _count(name: str, value: int, least: int) -> int:
    """``value`` as an int of at least ``least``."""
    if not _is_integer(value) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_range(n: int, ratio_max: float) -> tuple[int, float]:
    """The sample count ``n`` as an int and ``ratio_max`` as a float, once both are valid."""
    n, ratio_max = _count("samples", n, 1), _as_float(ratio_max)
    if not (math.isfinite(ratio_max) and ratio_max > 1.0):
        raise DomainError(f"ratio_max must be finite and exceed 1, got {ratio_max}")
    return n, ratio_max


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
    n, ratio_max = _check_range(n, ratio_max)
    extra = _boundary_points(ratio_max) if include_boundary else ()
    x = np.empty(n + len(extra)) if _out is None else _out[: n + len(extra)]
    drawn = x[:n]
    rng.random(out=drawn)
    drawn *= math.log(ratio_max)
    np.exp(drawn, out=drawn)
    # exp rounds the smallest draws to 1: they take the next double up, which
    # no valid ratio_max lies below
    np.clip(drawn, 1.0 + 2.0**-52, ratio_max, out=drawn)
    x[n:] = extra
    return x


class VerificationResult(namedtuple(
    "VerificationResult",
    "suite passed n_samples min_slack_left min_slack_right arg_left arg_right witness stats",
)):
    """Outcome of one bulk suite.

    ``min_slack_left``/``min_slack_right`` are the smallest margins of the
    reduced ratio inequality (left: r - lower constant, right: upper constant
    - r), with the ratios where they occur; ``witness`` is a dict when the
    suite failed and None otherwise, and ``stats`` a dict of the suite's extra
    report fields (empty for most suites).
    """

    __slots__ = ()

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
#: written into one workspace of 13 float64 rows and two bool rows (1.7 MB,
#: within one core's 2 MiB L2), so no block allocates or frees a
#: block-sized array and glibc no longer trims and re-faults the heap block
#: by block (chain took 13.8k minor faults per 2e6-sample call).  At this
#: size a row, with room for the boundary points, stays below glibc's
#: 128 KiB mmap threshold and comes from the heap; one 1-2 MB array per call
#: raised the probe workload's peak RSS by 1.8 MB.  See ``BENCH_10.json``.
_BLOCK = 16_000

#: The float rows of every lane's workspace: x, t, the five shared rows (A,
#: t², r, 1/3 - r and T = A·q), which every row reads and none writes, and a
#: pool of six, the only rows a row writes (priors uses all six).
_FLOAT_ROWS = 13


def _ratio_blocks(seed: int, n: int, ratio_max: float, start: int, stop: int):
    """Blocks ``(x, t, shared, pool, flags)`` of samples [start, stop) of the
    stream ``sample_ratios(default_rng(seed), n, ratio_max)``.

    Each ratio takes one draw, so the generator starts ``start`` draws in, and
    the block that ends the stream carries the boundary points.  Every block
    is written into one workspace made per call, of ``_FLOAT_ROWS`` float and
    two bool rows, each an array of its own so that each stays below glibc's
    128 KiB mmap threshold (see ``_BLOCK``), and cut to the block's length:
    x, t, the ``shared`` rows (A, then t², r and 1/3 - r from one kernel
    pass, and the Seiffert mean T = A·q, formed over the kernel's q), and the
    rest as the ``pool`` of spare rows.

    A and t are bit for bit the profile of the pair (x, 1) (the profile's
    halvings are exact, so fl(x/2 + 1/2) = fl(x + 1)/2), so the raw-mean
    checks may build means of (x, 1) from them.
    """
    size = min(stop - start, _BLOCK) + len(_boundary_points(ratio_max))
    work = [np.empty(size) for _ in range(_FLOAT_ROWS)]
    bits = [np.empty(size, dtype=bool) for _ in range(2)]
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(start)
    for lo in range(start, stop, _BLOCK):
        x = sample_ratios(rng, min(_BLOCK, stop - lo), ratio_max, lo + _BLOCK >= n, _out=work[0])
        t, am, tt, r, upper, seif, *pool = (row[: len(x)] for row in work[1:])
        np.subtract(x, 1.0, out=t)
        t /= np.add(x, 1.0, out=am)
        am *= 0.5
        r, upper, q = _ratio(t, out=(tt, r, upper, seif))
        shared = (am, tt, r, upper, np.multiply(am, q, out=q))
        yield x, t, shared, pool, [row[: len(x)] for row in bits]


def _first_broken(pairs, flags, t=None) -> int | None:
    """Index of the first sample where ``lo < hi`` fails (NaN included) for
    some ``(lo, hi)`` of ``pairs``, a generator that reuses rows if need be, or
    None.  A margin enters as ``(0.0, margin)``; given ``t``, samples with t <
    ``_DIRECT_T_FLOOR`` hold.  ``flags`` are two bool rows it overwrites."""
    ok, spare = flags
    pairs = iter(pairs)
    np.less(*next(pairs), out=ok)
    for lo, hi in pairs:
        ok &= np.less(lo, hi, out=spare)
    if t is not None:
        ok |= np.less(t, _DIRECT_T_FLOOR, out=spare)
    k = int(np.argmin(ok))
    return None if ok[k] else k


def _mix(c: float, m: np.ndarray, am: np.ndarray, out: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """c·m + (1 - c)·am into ``out``, rounded as that expression rounds it."""
    np.multiply(m, c, out=out)
    out += np.multiply(am, 1.0 - c, out=spare)
    return out


#: The sides of a two-pair check, by the index of its first broken pair.
_SIDES = ("lower", "upper")


def _witness(x: float, side: str, lhs: float, rhs: float) -> dict:
    """The witness of a broken check: the ratio, the side and the two values reported there."""
    return {"ratio": float(x), "side": side, "lhs": float(lhs), "rhs": float(rhs)}


def _reading(side: str, row, rhs: float) -> Callable:
    """A check's witness function that names ``side`` and reports ``row`` at
    the broken sample against ``rhs``, whichever pair broke."""
    return lambda k, i: (side, row[k], rhs)


def _pair_reading(build: Callable) -> Callable:
    """A two-pair check's witness function: the broken pair's side and values, of the pairs ``build()`` makes."""
    return lambda k, i: (_SIDES[i], *(row[k] for row in build()[i]))


class _Tally:
    """The partial result of one suite over one range of its samples.

    ``n`` counts the samples; ``best`` maps each fold to its first-occurrence
    extremum ``(value, ratio)``, picked by ``picks[name]`` (``np.argmin`` or
    ``np.argmax``), NaN included; ``found`` is ``(rank, witness)`` of the
    highest-ranked check that fired, or None.  Tallies of consecutive ranges
    merge into the tally of their union, bit for bit.
    """

    def __init__(self) -> None:
        self.n, self.best, self.picks, self.found = 0, {}, {}, None

    def _keep(self, name: str, value: float, ratio: float, pick) -> None:
        # a later candidate replaces the kept one only where pick((kept,
        # value)) would choose it: the kept value is no NaN, and the candidate
        # is a NaN or strictly better
        kept = self.best[name][0] if name in self.best else None
        if kept is None or kept == kept and (value != value or (value < kept if pick is np.argmin else value > kept)):
            self.best[name] = (value, ratio)
        self.picks[name] = pick

    def add(self, blk, folds: dict, checks) -> None:
        """Reduce one block ``blk`` of the stream (:func:`_ratio_blocks`).

        ``folds`` maps a name to ``(values, pick)``.  Each check is ``(pairs,
        floor, witness)``, and this one loop scans them by ``_first_broken``:
        the ``(lo, hi)`` pairs that must hold strictly, or a callable that
        builds them in the pool (a generator may write each over the one
        before); whether samples under ``_DIRECT_T_FLOOR`` hold; and
        ``witness(k, i)``, the ``(side, lhs, rhs)`` reported at the first
        broken sample k, where i is the first pair broken there (None after
        a generator), found before the witness runs.  An earlier check
        outranks a later one wherever the two fire, and within a check the
        earlier sample wins, so once a check has fired neither it nor any
        later check runs again.  The folds are taken first and the checks run
        in order, so a check may overwrite what the folds and earlier checks read.
        """
        x, t, _, _, flags = blk
        self.n += len(x)
        for name, (vals, pick) in folds.items():
            k = int(pick(vals))
            self._keep(name, float(vals[k]), float(x[k]), pick)
        for rank, (pairs, floor, witness) in enumerate(checks[: len(checks) if self.found is None else self.found[0]]):
            pairs = pairs() if callable(pairs) else pairs
            k = _first_broken(pairs, flags, t if floor else None)
            if k is not None:
                i = next((i for i, (lo, hi) in enumerate(pairs) if not (lo[k] if np.ndim(lo) else lo) < hi[k]), None)
                self.found = (rank, _witness(x[k], *witness(k, i)))
                break

    def merge(self, later: "_Tally") -> "_Tally":
        """Fold in the tally of the range right after this one; returns self.

        The earlier extremum stays on a tie and the lower-ranked check wins,
        the earlier range on a tie, as one scan over both ranges would give.
        """
        self.n += later.n
        for name, (value, ratio) in later.best.items():
            self._keep(name, value, ratio, later.picks[name])
        if later.found is not None and (self.found is None or later.found[0] < self.found[0]):
            self.found = later.found
        return self


class _Row:
    """One suite as a row of a pass over a block stream.

    ``block(x, t, shared, pool)`` takes a block of the stream, reads x, t
    and the shared kernel rows in place, writes only into ``pool`` and
    returns the block's ``(folds, checks)`` for :meth:`_Tally.add`.
    ``folds["left"]`` and ``folds["right"]`` are the reported slacks, and
    ``stats`` turns the other ``name -> (value, ratio)`` extrema into report
    fields.  Each check is data, ``(pairs, floor, witness)``, which the one
    loop of :meth:`_Tally.add` scans.
    """

    def __init__(self, suite: str, block: Callable, stats: Callable = lambda best: {}) -> None:
        self.suite, self.block, self.stats = suite, block, stats

    def finish(self, tally: _Tally) -> VerificationResult:
        best = dict(tally.best)
        (left, arg_left), (right, arg_right) = best.pop("left"), best.pop("right")
        witness = None if tally.found is None else tally.found[1]
        return VerificationResult(
            self.suite, witness is None, tally.n, left, right, arg_left, arg_right, witness, self.stats(best)
        )


def _blend_row(alpha: float | None = None, beta: float = 1.0) -> _Row:
    """thm1: (2α-1)²/3 < r(t) < (2β-1)²/3, and blend(α) < seiffert < blend(β) in raw doubles."""
    alpha = blend_alpha_closed() if alpha is None else _as_float(alpha)
    beta = _as_float(beta)
    for name, val in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(val) and 0.5 <= val <= 1.0):
            raise DomainError(f"{name} must lie in [1/2, 1], got {val!r}")
    lo_const = (2.0 * alpha - 1.0) ** 2 / 3.0
    hi_const = (2.0 * beta - 1.0) ** 2 / 3.0

    def block(x, t, shared, pool):
        arith, _, r, upper, seif = shared
        right = upper if beta == 1.0 else np.subtract(hi_const, r, out=pool[1])
        left = np.subtract(r, lo_const, out=pool[0])

        def raw_pairs():
            # the margins are spent by now (see _Tally.add, which takes the
            # side of a broken margin first): their rows hold the blends
            lo_mean = means._blend_factor(alpha, t, pool[0])
            lo_mean *= arith
            hi_mean = means._blend_factor(beta, t, pool[1])
            hi_mean *= arith
            return (lo_mean, seif), (seif, hi_mean)

        # either check reports the blend and Seiffert means of its side
        means_at = _pair_reading(raw_pairs)
        folds = {"left": (left, np.argmin), "right": (right, np.argmin)}
        return folds, ((((0.0, left), (0.0, right)), False, means_at), (raw_pairs, True, means_at))

    return _Row("thm1", block)


def _ratio_row(alpha1: float | None = None, beta1: float | None = None) -> _Row:
    """thm2: α₁ < r(t) < β₁, and α₁C + (1-α₁)A < seiffert < β₁C + (1-β₁)A in raw doubles."""
    alpha1 = RATIO_LOWER if alpha1 is None else _as_float(alpha1)
    beta1 = RATIO_UPPER if beta1 is None else _as_float(beta1)
    for name, val in (("alpha1", alpha1), ("beta1", beta1)):
        if not math.isfinite(val):
            raise DomainError(f"{name} must be finite, got {val!r}")

    def block(x, t, shared, pool):
        arith, tt, r, upper, seif = shared
        left = np.subtract(r, alpha1, out=pool[0])
        right = upper if beta1 == RATIO_UPPER else np.subtract(beta1, r, out=pool[1])

        def raw_pairs():
            # the margins are spent by now (see _Tally.add): their rows hold
            # the means
            contra = means._contra_harmonic_factor(tt, pool[0])
            contra *= arith
            lo_mean = _mix(alpha1, contra, arith, pool[1], pool[2])
            return (lo_mean, seif), (seif, _mix(beta1, contra, arith, pool[2], pool[3]))

        folds = {
            "left": (left, np.argmin),
            "right": (right, np.argmin),
            "inf": (r, np.argmin),
            "sup": (r, np.argmax),
        }
        margins = (((0.0, left), (0.0, right)), False, lambda k, i: (_SIDES[i], r[k], (alpha1, beta1)[i]))
        return folds, (margins, (raw_pairs, True, _pair_reading(raw_pairs)))

    def stats(best):
        (inf, arg_inf), (sup, arg_sup) = best["inf"], best["sup"]
        return {"inf": inf, "sup": sup, "arg_inf": arg_inf, "arg_sup": arg_sup}

    return _Row("thm2", block, stats)


# Prior sharp constants regression-checked against the same mean stack:
#   alpha_S·S + (1-alpha_S)·A < T < (2/3)·S + (1/3)·A
#   C(alpha_2-blend) < T < C(beta_2-blend)
_PRIOR_ALPHA_S = (4.0 - math.pi) / ((math.sqrt(2.0) - 1.0) * math.pi)
_PRIOR_BETA_S = 2.0 / 3.0
_PRIOR_ALPHA_2 = 0.5 * (1.0 + math.sqrt(4.0 / math.pi - 1.0))
_PRIOR_BETA_2 = (3.0 + math.sqrt(3.0)) / 6.0
_PRIOR_NAMES = ("lower_S_combination", "upper_S_combination", "lower_C_blend", "upper_C_blend")


def _prior_block(x, t, shared, pool):
    """The priors row's block: four named margins, then one raw-mean check."""
    arith, tt, r, upper, seif = shared
    u, lower_s, upper_s, lower_c, left, right = pool[:6]
    means._root_square_factor(tt, u)
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

    def raw_pairs():
        # the margins are spent by now (see _Tally.add): their rows hold the
        # means, the root-square mean in the place of u, and each pair is
        # written over the one before
        rootsq = np.multiply(arith, u, out=u)
        yield _mix(_PRIOR_ALPHA_S, rootsq, arith, lower_s, upper_s), seif
        yield seif, _mix(_PRIOR_BETA_S, rootsq, arith, lower_s, upper_s)
        # the blended pairs round differently from (x, 1), so they keep
        # their own profile, in the rows of u and lower_c
        for p, below in ((_PRIOR_ALPHA_2, True), (_PRIOR_BETA_2, False)):
            pa = np.multiply(x, p, out=lower_s)
            pa += 1.0 - p
            pb = np.multiply(x, 1.0 - p, out=upper_s)
            pb += p
            blend_am, blend_t = means._profile(pa, pb, out=(u, lower_c))
            contra = means._contra_harmonic_factor(np.multiply(blend_t, blend_t, out=blend_t), blend_t)
            contra *= blend_am
            yield (contra, seif) if below else (seif, contra)

    folds = {name: (vals, np.argmin) for name, vals in zip(_PRIOR_NAMES, margins)}
    folds["left"] = (np.minimum(lower_s, lower_c, out=left), np.argmin)
    folds["right"] = (np.minimum(upper_s, upper, out=right), np.argmin)
    checks = [(((0.0, vals),), False, _reading(name, vals, 0.0)) for name, vals in zip(_PRIOR_NAMES, margins)]
    return folds, (*checks, (raw_pairs, True, _reading("raw-mean", seif, 0.0)))


#: The priors row: it takes no parameters.
_PRIORS = _Row("priors", _prior_block, lambda best: {name: best[name][0] for name in _PRIOR_NAMES})


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
    return _run([("thm1", {"alpha": alpha, "beta": beta})], samples, seed, ratio_max)[0]


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
    return _run([("thm2", {"alpha1": alpha1, "beta1": beta1})], samples, seed, ratio_max)[0]


def ratio_grid_scan(n: int = 10**6, t_min: float = 1e-7, t_max: float = 1.0 - 1e-7) -> dict:
    """Uniform grid scan of r(t) on [t_min, t_max]: extremes + monotonicity."""
    if not (0.0 < t_min < t_max < 1.0):
        raise DomainError("need 0 < t_min < t_max < 1")
    n = _count("n", n, 2)
    grid = np.linspace(t_min, t_max, n)
    vals = _ratio(grid)[0]
    diffs = np.diff(vals)
    return {
        "inf": float(vals[-1]),
        "sup": float(vals[0]),
        "arg_inf": float(grid[-1]),
        "arg_sup": float(grid[0]),
        "monotone_decreasing": bool(np.all(diffs < 0.0)),
        "n": n,
    }


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
    against the literature constants, under the check rule of the module
    docstring.  A witness names the first margin, in the order above, that went
    non-positive (or NaN) anywhere, and else the raw-mean check.
    """
    return _run([("priors", {})], samples, seed, ratio_max)[0]


def _chain_block(x, t, shared, pool):
    """The chain row's block: the slack minima of its ordering in profile
    form, then the six comparisons in raw doubles."""
    am, tt, r, upper, tm = shared
    u, left, right, w, v = pool[:5]
    means._root_square_factor(tt, u)
    # every slack over A is t² times a factor bounded away from 0, and the
    # minimum of the factors goes times t²: (A - G)/A = t²/(1 + sqrt(1 - t²)),
    # (Cbar - A)/A = t²/3 and (T - A)/A = t²·r ...
    np.subtract(1.0, tt, out=left)
    np.sqrt(left, out=left)
    left += 1.0
    np.reciprocal(left, out=left)
    np.minimum(left, 1.0 / 3.0, out=left)
    np.minimum(left, r, out=left)
    left *= tt
    # ... and (S - Cbar)/A = t²·d, with d = (2 - u)/(3(1 + u)), (C - S)/A =
    # t²·u/(1 + u) and (S - T)/A = t²·(d + 1/3 - r)
    np.add(u, 1.0, out=w)
    np.subtract(2.0, u, out=right)
    right /= w
    right /= 3.0
    np.add(right, upper, out=v)
    np.minimum(right, np.divide(u, w, out=w), out=right)
    np.minimum(right, v, out=right)
    right *= tt

    def ordering():
        # the slacks are spent by now (see _Tally.add): their rows hold the
        # means of (x, 1), S in the place of u
        cb = means._centroidal_factor(tt, w)
        cb *= am
        c = means._contra_harmonic_factor(tt, v)
        c *= am
        s = np.multiply(am, u, out=u)
        return (np.sqrt(x, out=left), am), (am, cb), (cb, s), (s, c), (am, tm), (tm, s)

    folds = {"left": (left, np.argmin), "right": (right, np.argmin)}
    slacks = (((0.0, left), (0.0, right)), False, lambda k, i: (_SIDES[i], (left, right)[i][k], 0.0))
    return folds, (slacks, (ordering, True, _reading("chain", x, 1.0)))


#: The ordering chain row: it takes no parameters.
_CHAIN = _Row("chain", _chain_block)


def verify_ordering_chain(
    samples: int = 10**5,
    *,
    seed: int = 0,
    ratio_max: float = 1e8,
) -> VerificationResult:
    """Strict ordering G < A < centroidal < S < C plus A < seiffert < S.

    Over the pairs (x, 1), x from ``sample_ratios`` as for every suite.  The
    slacks are relative to A and in profile form, each t² times a factor
    bounded away from 0 (with u = sqrt(1+t²), (T-A)/A = t²·r(t) and
    (C-S)/A = t²·u/(1+u), say), so they keep full accuracy as t→0⁺: the
    reported minima are those of (A-G, Cbar-A, T-A)/A (left) and
    (S-Cbar, C-S, S-T)/A (right).  A witness names the first non-positive
    slack, and else the first sample where the six comparisons fail in raw
    doubles, under the check rule of the module docstring.
    """
    return _run([("chain", {})], samples, seed, ratio_max)[0]


#: The rows of every run, by suite, each built from its verifier's keywords.
_ROWS = {"thm1": _blend_row, "thm2": _ratio_row, "priors": lambda: _PRIORS, "chain": lambda: _CHAIN}

#: Samples per suite from which a run takes one lane per CPU (``_cpus``):
#: this process and a standing lane for each other CPU.  Below it a run takes
#: one lane and forks nothing.  Fresh processes on a 2-core shared host, time
#: in one lane (``taskset -c 0``) over time in two, medians of 9 and of 11
#: alternating runs in two rounds (BENCH_27.json):
#:
#:     samples        5e5         7.5e5       1e6         1.5e6       2e6
#:     verify thm2    0.96-1.02   1.01-1.02   0.99        1.04-1.05   1.04-1.07
#:     verify all     1.00-1.01   1.04-1.10   1.11-1.38   1.17-1.18   1.14-1.23
#:
#: A fresh process pays the fork (1.5-2.6 ms for a bare fork, exit and wait
#: here); a long-lived caller pays it once, and its 1e6-sample call in two
#: standing lanes took 23 ms against 41-44 ms in one.  So the threshold is
#: 10⁶, the default sample count, where a single suite in a fresh process is
#: even (within 1%) and ``verify all`` wins.
_LANE_MIN_SAMPLES = 10**6


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _lane_ranges(n: int, cpus: int) -> list[tuple[int, int]]:
    """[0, n) in contiguous, ``_BLOCK``-aligned ranges, one per lane.

    There are ``min(cpus, blocks)`` lanes with as even a share of blocks as
    can be; the last range ends the stream and so carries the boundary points.
    """
    blocks = -(-n // _BLOCK)
    lanes = max(1, min(cpus, blocks))
    edges = [min(n, (i * blocks // lanes) * _BLOCK) for i in range(lanes + 1)]
    return list(zip(edges, edges[1:]))


def _lane(rows, seed: int, samples: int, ratio_max: float, start: int, stop: int) -> list[_Tally]:
    """Tallies of ``rows`` over samples [start, stop).

    One pass applies every row to one draw and one kernel call per block, all
    in one workspace (:func:`_ratio_blocks`).  Merged in
    range order (:meth:`_Tally.merge`), the lanes' tallies finish into the
    reports of the suites run one by one, bit for bit.
    """
    tallies = [_Tally() for _ in rows]
    for blk in _ratio_blocks(seed, samples, ratio_max, start, stop):
        for row, tally in zip(rows, tallies):
            tally.add(blk, *row.block(*blk[:4]))
    return tallies


def _finish_lanes(rows, lanes: list[list[_Tally]]) -> list[VerificationResult]:
    """The results of ``rows`` from every lane's tallies in range order."""
    merged = (functools.reduce(_Tally.merge, column, _Tally()) for column in zip(*lanes))
    return [row.finish(tally) for row, tally in zip(rows, merged)]


#: A standing lane: a forked child that serves one sample range of a run at a
#: time (:func:`_serve`), by its pid, the owner's end of its request pipe and
#: the one reader of its reply pipe.  The lanes belong to the process
#: ``_owner`` and are made, used and closed under ``_lock``.
_Lane = namedtuple("_Lane", "pid requests replies")

_lanes: list[_Lane] = []
_owner = None  # the pid that owns ``_lanes``; None until a lane is first made
_lock = _thread.allocate_lock()


def _send(fd: int, message) -> None:
    """Write ``message`` to ``fd`` as one pickle, which marks its own end."""
    data = memoryview(pickle.dumps(message))
    while data:
        data = data[os.write(fd, data):]


def _serve(requests: int, replies: int) -> None:
    """The body of a standing lane; never returns.

    Each message on either pipe is one pickle, read by one reader kept for
    the pipe's life.  Each request names its rows by suite and keywords
    (``_ROWS``) and gives seed, samples, ratio_max and the range; the reply is
    the tallies (:func:`_lane`) or the exception the rows raised.  A stop
    (``None``) or the end of the request pipe ends the lane with exit 0; a
    reply that does not pickle, a reply pipe with no reader or a
    ``KeyboardInterrupt`` while idle ends it with exit 1, quietly.  It ends
    through :func:`os._exit`, so it never flushes the stdio or runs the atexit
    handlers it inherited.
    """
    try:
        reader = open(requests, "rb")
        while (request := pickle.load(reader)) is not None:
            suites, *args = request
            try:
                payload = _lane([_ROWS[name](**keywords) for name, keywords in suites], *args)
            except BaseException as exc:
                payload = exc
            _send(replies, payload)
        os._exit(0)
    except EOFError:  # the end of the request pipe
        os._exit(0)
    finally:
        os._exit(1)


def _forget() -> None:
    """Close this process's copies of the owner's ends of the standing lanes
    and own none: run in every child forked from their owner, so that a lane
    or any other child never reads, writes or waits on them and makes its own."""
    global _owner, _lock
    for lane in _lanes:
        os.close(lane.requests)
        # the raw file: a thread of the owner, absent here, may hold the reader's lock
        lane.replies.raw.close()
    _lanes.clear()
    _owner, _lock = os.getpid(), _thread.allocate_lock()


def _spawn() -> _Lane:
    """Fork a standing lane (:func:`_serve`)."""
    # loaded here, not in each lane; pickle first, as after numpy it cost 0.2 MB of peak RSS
    pickle.dumps, np.empty
    requests, replies = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (*requests, *replies):
            os.close(fd)
        raise
    if pid == 0:  # the at-fork hook has closed the ends of the earlier lanes
        try:
            os.close(requests[1])
            os.close(replies[0])
            _serve(requests[0], replies[1])
        finally:
            os._exit(1)
    os.close(requests[0])
    os.close(replies[1])
    return _Lane(pid, requests[1], open(replies[0], "rb"))


def _standing(k: int) -> list[_Lane]:
    """``k`` standing lanes of this process, forking those it lacks.  The first
    call registers the atexit handler that closes them and the at-fork hook
    that keeps them from a forked child, and records their owner."""
    global _owner
    if _owner is None:
        atexit.register(_close_lanes)
        os.register_at_fork(after_in_child=_forget)
        _owner = os.getpid()
    elif _owner != os.getpid():  # forked by code that bypasses os.fork and its hooks
        _forget()
    while len(_lanes) < k:
        _lanes.append(_spawn())
    return _lanes[:k]


def _close(lanes) -> list[int]:
    """Stop and reap those of ``lanes`` that still stand; returns their wait
    statuses.  Every lane is sent a stop (``None``) and the owner's ends of
    its pipes are closed before the first wait, so that an idle lane stops
    and a lane still running its range ends at its reply, not blocked on it."""
    lanes = [lane for lane in lanes if lane in _lanes]
    for lane in lanes:
        _lanes.remove(lane)
        try:
            _send(lane.requests, None)
        except BrokenPipeError:  # the lane has died
            pass
        os.close(lane.requests)
        lane.replies.close()
    return [os.waitpid(lane.pid, 0)[1] for lane in lanes]


def _close_lanes() -> None:
    """Stop and reap every standing lane of this process.  ``cli.main`` calls
    it before it returns, and the atexit handler at the latest."""
    with _lock:
        if _owner == os.getpid():
            _close(_lanes)


def _answer(lane: _Lane, start: int, stop: int):
    """The reply of ``lane`` over samples [start, stop): its tallies or the
    exception its rows raised.  A lane that ended without a whole reply is
    reaped and dropped, and :class:`ChildProcessError` names the range and the
    wait status."""
    try:
        return pickle.load(lane.replies)
    except (EOFError, pickle.UnpicklingError):
        (status,) = _close([lane])
    raise ChildProcessError(f"the lane over samples [{start}, {stop}) ended without a result "
                            f"(wait status {status})")


def _run(suites, samples: int, seed: int, ratio_max: float) -> list[VerificationResult]:
    """The results of the rows ``suites`` names, each a ``(suite, keywords)``
    pair of ``_ROWS``, over ``sample_ratios(default_rng(seed), samples,
    ratio_max)``.

    Every argument is checked before any lane runs.  From
    ``_LANE_MIN_SAMPLES`` samples on, where the process may fork, there is a
    lane per CPU (``_lane_ranges(samples, _cpus())``): the first range runs
    here and every other one in a standing lane, which is sent its range and
    answers with its tallies; else the one range runs here.  A lane's
    exception is raised once every lane has answered.  A call that ends
    between its requests and its replies closes its lanes, so that no later
    call reads a stale reply.
    """
    rows = [_ROWS[name](**keywords) for name, keywords in suites]
    seed, (samples, ratio_max) = _count("seed", seed, 0), _check_range(samples, ratio_max)
    first, *rest = _lane_ranges(samples, _cpus() if samples >= _LANE_MIN_SAMPLES and hasattr(os, "fork") else 1)
    if not rest:
        return _finish_lanes(rows, [_lane(rows, seed, samples, ratio_max, *first)])
    with _lock:
        lanes = _standing(len(rest))
        try:
            for lane, span in zip(lanes, rest):
                try:
                    _send(lane.requests, (suites, seed, samples, ratio_max, *span))
                except BrokenPipeError:  # the lane has died: _answer reports it
                    pass
            tallies = [_lane(rows, seed, samples, ratio_max, *first)]
            tallies += [_answer(lane, *span) for lane, span in zip(lanes, rest)]
        except BaseException:
            _close(lanes)
            raise
    for payload in tallies:
        if isinstance(payload, BaseException):
            raise payload
    return _finish_lanes(rows, tallies)


class SharpnessWitness(namedtuple("SharpnessWitness", "shift ratio lhs rhs")):
    """A ratio violating the bound once its constant moves past the optimum."""

    __slots__ = ()


class SharpConstantReport(namedtuple("SharpConstantReport", "name closed_form discovered abs_gap witness")):
    """A discovered constant next to its closed-form reference; ``witness`` is
    a :class:`SharpnessWitness` or None."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "closed_form": self.closed_form,
            "discovered": self.discovered,
            "gap": self.abs_gap,
            "witness": None if self.witness is None else self.witness._asdict(),
        }


def _ratio_violation_witness(const: float, shift: float) -> SharpnessWitness:
    """The first t of a geometric grid where r(t) is on the wrong side of
    ``const``, a sharp bound moved by ``shift``: the grid runs down from
    t = 1 - 1e-10 for the lower bound (``shift`` > 0) and up from t = 1e-6
    for the upper."""
    side = "lower" if shift > 0.0 else "upper"
    ts = _geomspace(1e-6, 1.0 - 1e-10, 2000) if side == "upper" else [1.0 - s for s in _geomspace(1e-10, 0.5, 2000)]
    for t in ts:
        r = _ratio(t)[0]
        if r >= const if side == "upper" else r <= const:
            lhs, rhs = (r, const) if side == "upper" else (const, r)
            return SharpnessWitness(shift=shift, ratio=(1.0 + t) / (1.0 - t), lhs=lhs, rhs=rhs)
    raise BracketError(f"no ratio violation found for constant {const} ({side})")


def _blend_violation_witness(p: float, shift: float) -> SharpnessWitness:
    """:func:`seiffert_bounds.auxiliary.counterexample_witness` at the blend
    constant ``p``, a sharp one moved by ``shift`` (α up, β = 1 down), with
    its means as the two sides of the broken blend(α) < seiffert < blend(β)."""
    w = auxiliary.counterexample_witness(p, "above_alpha" if shift > 0.0 else "below_one")
    lhs, rhs = (w.blend_value, w.seiffert_value) if shift > 0.0 else (w.seiffert_value, w.blend_value)
    return SharpnessWitness(shift, w.t, lhs, rhs)


def constants_report() -> list[SharpConstantReport]:
    """All four sharp constants: closed form vs independent numeric discovery.

    * blend_alpha — root-finding on the t→∞ gap limit;
    * blend_beta  — supremum of the inverse map (1+sqrt(3r(t)))/2 as t→0⁺;
    * ratio_alpha / ratio_beta — extremes of r(t) on boundary-refined grids.

    Each report carries a sharpness witness: a ratio violating the bound with
    the constant pushed ``_PROBE_SHIFT`` past its optimum.  The blend witnesses
    are :func:`seiffert_bounds.auxiliary.counterexample_witness`'s.  Every
    scan walks a stdlib grid in floats (``means._ratio`` at each t), so the
    report loads no numpy.
    """
    r_small = [_ratio(t)[0] for t in _geomspace(1e-8, 1e-2, 400)]
    r_big = [_ratio(1.0 - s)[0] for s in _geomspace(1e-10, 1e-2, 400)]
    # name, closed form, discovered value, probe shift and witness search
    table = (
        ("blend_alpha", blend_alpha_closed(), blend_alpha_numeric(), _PROBE_SHIFT, _blend_violation_witness),
        ("blend_beta", 1.0, max(0.5 * (1.0 + math.sqrt(3.0 * r)) for r in r_small), -_PROBE_SHIFT,
         _blend_violation_witness),
        ("ratio_alpha", RATIO_LOWER, min(r_big), _PROBE_SHIFT, _ratio_violation_witness),
        ("ratio_beta", RATIO_UPPER, max(r_small), -_PROBE_SHIFT, _ratio_violation_witness),
    )
    return [SharpConstantReport(name, closed, found, abs(closed - found), search(closed + shift, shift))
            for name, closed, found, shift, search in table]
