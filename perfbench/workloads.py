"""Seeded operation streams for the three workloads.

Every stream is a pure function of a ``random.Random``: the same seed gives the
same operations.  An operation is a plain dict: ``argv`` for the CLI
workloads, a call spec for ``probe``.  ``known`` names the failure mode a
documented defect produces on that input (``known_defects`` in
predictions.json), or is None when the operation must succeed.

Nothing here imports the program, so the benchmark process never loads it.
"""

from __future__ import annotations

import math
import random
import sys

from checks import ALPHA_SHARP, FAR_END_RATIO, RATIO_LOWER, RATIO_UPPER

SIZES = {
    # samples per suite of one ``verify all`` in ``sweep``
    "sweep_samples": 2_000_000,
    # samples per sharpness-probe verify call in ``probe``
    "probe_samples": 1_000_000,
    # samples per ``verify`` in ``interactive``
    "interactive_samples": 10_000,
}
TINY_SIZES = {"sweep_samples": 20_000, "probe_samples": 20_000, "interactive_samples": 10_000}

EVAL_KINDS = (
    "seiffert", "arithmetic", "geometric", "root-square",
    "contra-harmonic", "centroidal", "power", "blend",
)
POWER_EXPONENTS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
#: Exponents whose reciprocal is exact in binary (the "oracle-digits" defect needs p = 3).
ORACLE_EXPONENTS = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
ORACLE_DIGITS = (15, 30, 60, 100)

#: Invalid invocations that exit 2 with a usage error.
INVALID_ARGV = (
    ["eval", "seiffert", "-1.0", "2.0"],
    ["eval", "blend", "1.0", "3.0"],
    ["eval", "blend", "1.0", "3.0", "--x", "0.25"],
    ["eval", "power", "1.0", "3.0"],
    ["eval", "geometric", "0.0", "1.0"],
    ["verify", "thm9"],
    ["verify", "thm2", "--samples", "0"],
    ["verify", "thm1", "--samples", "100", "--ratio-max", "1"],
    # a space before a negative shift makes argparse read it as an option
    ["verify", "thm2", "--samples", "100", "--beta-shift", "-1e-6"],
    ["verify", "thm1", "--samples", "100", "--beta-shift=1e-3"],
    ["series", "cot", "--order", "61"],
    ["series", "bernoulli", "--order", "0"],
    ["constants", "--format", "xml"],
)
#: Invalid invocations that should exit 2 but do not (the "not-exit-2" defect).
INVALID_ARGV_DEFECT = (
    ["verify", "thm2", "--samples", "100", "--seed", "-1"],
    ["verify", "thm2", "--samples", "100", "--ratio-max", "inf"],
    ["eval", "seiffert", "1.0", "3.0", "--oracle", "--precision", "0"],
)


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# -- sweep ----------------------------------------------------------------------


def sweep_ops(rng: random.Random, sizes: dict):
    """Endless ``verify all`` runs at the sweep size, each with its own seed."""
    n = sizes["sweep_samples"]
    while True:
        seed = _seed(rng)
        yield {
            "kind": "sweep",
            "argv": ["verify", "all", "--format", "json", "--seed", str(seed), "--samples", str(n)],
            "samples": n,
            "expect_rc": 0,
            "known": None,
        }


# -- interactive ------------------------------------------------------------------
#
# Each deck holds a fixed number of operations from each input region: regions
# where the program is right, and for each known defect one region where the
# defect shows on every input.  Inputs between the two (where a defect shows on
# some inputs only) are left out, so every deck has the same number of failed
# operations and two runs of the same code fail equally often.


#: Products of raw inputs outside this range lose the result: above it the
#: sums of up to three squares (times 2) overflow, below it they are subnormal.
_PRODUCT_RANGE = (sys.float_info.min * 2.0**53, sys.float_info.max / 8.0)

#: Means whose plain eval forms products of the raw inputs (power only at p = 0).
SQUARING_KINDS = ("geometric", "root-square", "contra-harmonic", "centroidal", "blend", "power")

#: Decimal exponents of a pair's first element at which every product of the
#: pair overflows (a, b >= 1e155) or underflows to zero (a, b <= 1e-170).
_OVERFLOW_EXP = (161.0, 300.0)
_UNDERFLOW_EXP = (-300.0, -176.0)

#: |decimal exponent| range at which ``eval power --p=3 --oracle`` loses a digit
#: at every precision in ORACLE_DIGITS; below about 50 it never does.
_ORACLE_DIGITS_EXP = (220.0, 300.0)

#: Unshifted thm1/thm2/priors verify passes at every ratio-max up to
#: FAR_END_RATIO and false-fails at every ratio-max from FAR_FAIL_RATIO on
#: (the boundary points include 1e15); the decade between is left out.
FAR_FAIL_RATIO = 1e15


def _squares_leave_range(mean: str, a: float, b: float, p: float | None) -> bool:
    """True when the products of raw inputs a mean of this kind forms leave the safe range."""
    if mean in ("seiffert", "arithmetic") or (mean == "power" and p != 0.0):
        return False
    prods = (a * b,) if mean in ("geometric", "power") else (a * a, b * b, a * b)
    lo, hi = _PRODUCT_RANGE
    return any(not lo <= v <= hi for v in prods)


def _eval(mean: str, a: float, b: float, p: float | None, x: float | None,
          precision: int | None, known: str | None) -> dict:
    argv = ["eval", mean, repr(a), repr(b)]
    op = {"kind": "eval", "mean": mean, "a": a, "b": b, "expect_rc": 0, "known": known}
    if p is not None:
        op["p"] = p
        argv.append(f"--p={p!r}")
    if x is not None:
        op["x"] = x
        argv.append(f"--x={x!r}")
    if precision is not None:
        op["precision"] = precision
        argv += ["--oracle", "--precision", str(precision)]
    op["argv"] = argv
    return op


def _pair(rng: random.Random, lo_exp: float, hi_exp: float) -> tuple[float, float]:
    """a log-uniform in [10^lo_exp, 10^hi_exp]; b/a log-uniform in [1e-6, 1e6]."""
    a = _log_uniform(rng, lo_exp, hi_exp)
    return a, a * _log_uniform(rng, -6.0, 6.0)


def _blend_x(rng: random.Random, mean: str) -> float | None:
    return rng.uniform(0.5, 1.0) if mean == "blend" else None


def eval_op(rng: random.Random) -> dict:
    """A plain eval of any mean at a pair scale in [1e-300, 1e300] where the result is kept."""
    while True:
        mean = rng.choice(EVAL_KINDS)
        p = rng.choice(POWER_EXPONENTS) if mean == "power" else None
        a, b = _pair(rng, -300.0, 300.0)
        if not _squares_leave_range(mean, a, b, p):
            return _eval(mean, a, b, p, _blend_x(rng, mean), None, None)


def overflow_eval_op(rng: random.Random) -> dict:
    """A plain eval whose raw squares all overflow or all underflow (ROADMAP item 2)."""
    mean = rng.choice(SQUARING_KINDS)
    p = 0.0 if mean == "power" else None
    a, b = _pair(rng, *rng.choice((_OVERFLOW_EXP, _UNDERFLOW_EXP)))
    return _eval(mean, a, b, p, _blend_x(rng, mean), None, "inaccurate")


def oracle_eval_op(rng: random.Random) -> dict:
    """An --oracle eval of any mean at a pair scale in [1e-300, 1e300], with 1/p exact in binary."""
    mean = rng.choice(EVAL_KINDS)
    p = rng.choice(ORACLE_EXPONENTS)
    a, b = _pair(rng, -300.0, 300.0)
    return _eval(mean, a, b, p if mean == "power" else None, _blend_x(rng, mean),
                 rng.choice(ORACLE_DIGITS), None)


def oracle_digits_eval_op(rng: random.Random) -> dict:
    """``eval power --p=3 --oracle`` far from 1, where 1/3 rounded at the working
    precision costs a printed digit (the "oracle-digits" defect)."""
    a, b = _pair(rng, *_ORACLE_DIGITS_EXP)
    if rng.random() < 0.5:
        a, b = 1.0 / a, 1.0 / b
    return _eval("power", a, b, 3.0, None, rng.choice(ORACLE_DIGITS), "oracle-digits")


def verify_op(rng: random.Random, sizes: dict, far: bool) -> dict:
    """An unshifted verify at 1e4 samples.

    Near: any suite, --ratio-max log-uniform in (1, 1e13] (in (1, 1e300] for
    chain, which has no far-end defect).  Far: thm1, thm2 or priors with
    --ratio-max log-uniform in [1e15, 1e300], where a false witness shows on
    every run (ROADMAP item 4).
    """
    if far:
        suite = rng.choice(("thm1", "thm2", "priors"))
        lo = math.log10(FAR_FAIL_RATIO)
        ratio_max = 10.0 ** (lo + (300.0 - lo) * rng.random())
    else:
        suite = rng.choice(("thm1", "thm2", "priors", "chain"))
        hi = 300.0 if suite == "chain" else math.log10(FAR_END_RATIO)
        ratio_max = 10.0 ** (hi * (1.0 - rng.random()))
    n = sizes["interactive_samples"]
    return {
        "kind": "verify",
        "suite": suite,
        "samples": n,
        "argv": ["verify", suite, "--samples", str(n), "--seed", str(_seed(rng)),
                 "--ratio-max", repr(ratio_max), "--format", "json"],
        "expect_rc": 0,
        "known": "far-end-false-fail" if far else None,
    }


def shift_op(rng: random.Random, sizes: dict) -> dict:
    """A CLI sharpness probe: one constant moved out (must fail) or in (must pass)."""
    suite = rng.choice(("thm1", "thm2"))
    const = rng.choice(("alpha", "beta"))
    # thm1's beta is sharp at 1 and may not exceed it, so it only moves outward
    outward = True if (suite, const) == ("thm1", "beta") else rng.random() < 0.5
    delta = _log_uniform(rng, -6.0, -2.0)
    sign = 1.0 if (const == "alpha") == outward else -1.0
    base = {
        ("thm1", "alpha"): ALPHA_SHARP, ("thm1", "beta"): 1.0,
        ("thm2", "alpha"): RATIO_LOWER, ("thm2", "beta"): RATIO_UPPER,
    }[suite, const]
    n = sizes["interactive_samples"]
    return {
        "kind": "verify",
        "suite": suite,
        "samples": n,
        "shift": {"const": const, "delta": sign * delta, "value": base + sign * delta, "outward": outward},
        "argv": ["verify", suite, "--samples", str(n), "--seed", str(_seed(rng)),
                 f"--{const}-shift={sign * delta!r}", "--format", "json"],
        "expect_rc": 1 if outward else 0,
        "known": None,
    }


def series_op(rng: random.Random) -> dict:
    what = rng.choice(("bernoulli", "cot", "csc2", "ratio"))
    order = rng.randint(1, 60)
    return {
        "kind": "series", "what": what, "order": order, "expect_rc": 0, "known": None,
        "argv": ["series", what, "--order", str(order), "--format", "json"],
    }


def invalid_op(argv: list[str], known: str | None) -> dict:
    return {"kind": "invalid", "argv": list(argv), "expect_rc": 2, "known": known}


def interactive_deck(rng: random.Random, sizes: dict) -> list[dict]:
    """One deck of DECK_LEN operations with a fixed mix in a seeded order.

    Four of them hit a known defect on every input: one plain eval, one
    --oracle eval, one verify and one invalid invocation.
    """
    body = [eval_op(rng) for _ in range(3)] + [overflow_eval_op(rng)]
    body += [oracle_eval_op(rng), oracle_digits_eval_op(rng)]
    body += [{"kind": "constants", "argv": ["constants", "--format", "json"], "expect_rc": 0, "known": None}]
    body += [{"kind": "certify", "argv": ["certify", "--format", "json"], "expect_rc": 0, "known": None}]
    body += [series_op(rng) for _ in range(2)]
    body += [verify_op(rng, sizes, far=False), verify_op(rng, sizes, far=True)]
    body += [shift_op(rng, sizes)]
    body += [invalid_op(rng.choice(INVALID_ARGV), None), invalid_op(rng.choice(INVALID_ARGV_DEFECT), "not-exit-2")]
    rng.shuffle(body)
    return body


DECK_LEN = 15
#: Operations per deck that hit a known defect, and so fail until it is fixed.
DECK_KNOWN_FAILURES = 4


def interactive_ops(rng: random.Random, sizes: dict):
    while True:
        yield from interactive_deck(rng, sizes)


# -- probe --------------------------------------------------------------------------

# (suite, API function, keyword of the constant, base value)
_PROBE_CONSTANTS = {
    "thm1.alpha": ("thm1", "verify_blend_bounds", "alpha", ALPHA_SHARP),
    "thm1.beta": ("thm1", "verify_blend_bounds", "beta", 1.0),
    "thm2.alpha1": ("thm2", "verify_ratio_bounds", "alpha1", RATIO_LOWER),
    "thm2.beta1": ("thm2", "verify_ratio_bounds", "beta1", RATIO_UPPER),
}


def _probe_verify(key: str, shift: float, outward: bool, rng: random.Random, n: int) -> dict:
    suite, fn, const, base = _PROBE_CONSTANTS[key]
    return {
        "fn": fn, "suite": suite, "const": const, "base": base, "shift": shift,
        "outward": outward, "samples": n, "seed": _seed(rng), "known": None,
    }


def probe_round(rng: random.Random, sizes: dict) -> list[dict]:
    """One rung of the sharpness ladder: 11 calls at fresh shifts.

    Each constant moves outward by its own delta (must fail with a witness)
    and, where the constant can move inward, back in by the same delta (must
    pass).  thm1's beta cannot exceed 1, so its inward slot checks the sharp
    statement; thm2's sharp statement rounds the mix to four passing calls.
    The two witness calls hit the blend bound from both sides.
    """
    n = sizes["probe_samples"]
    d = {key: _log_uniform(rng, -6.0, -2.0) for key in _PROBE_CONSTANTS}
    calls = [
        _probe_verify("thm1.alpha", +d["thm1.alpha"], True, rng, n),
        _probe_verify("thm1.beta", -d["thm1.beta"], True, rng, n),
        _probe_verify("thm2.alpha1", +d["thm2.alpha1"], True, rng, n),
        _probe_verify("thm2.beta1", -d["thm2.beta1"], True, rng, n),
        _probe_verify("thm1.alpha", -d["thm1.alpha"], False, rng, n),
        _probe_verify("thm1.beta", 0.0, False, rng, n),
        _probe_verify("thm2.alpha1", -d["thm2.alpha1"], False, rng, n),
        _probe_verify("thm2.beta1", +d["thm2.beta1"], False, rng, n),
        _probe_verify("thm2.beta1", 0.0, False, rng, n),
        {"fn": "counterexample_witness", "side": "above_alpha", "p": ALPHA_SHARP + d["thm1.alpha"], "known": None},
        {"fn": "counterexample_witness", "side": "below_one", "p": 1.0 - d["thm1.beta"], "known": None},
    ]
    rng.shuffle(calls)
    return calls


def probe_ops(rng: random.Random, sizes: dict):
    while True:
        yield from probe_round(rng, sizes)


OPS = {"sweep": sweep_ops, "interactive": interactive_ops, "probe": probe_ops}


def run_probe_call(sharp, auxiliary, call: dict) -> dict:
    """Execute one probe call through the public API; return a JSON-able record.

    The constant is rebuilt from the library's own sharp value, so the record
    shows exactly which constant the library was asked to verify.
    """
    if call["fn"] == "counterexample_witness":
        w = auxiliary.counterexample_witness(call["p"], call["side"])
        return {"result": {"side": w.side, "t": w.t, "blend": w.blend_value, "seiffert": w.seiffert_value}}
    base = {
        "alpha": sharp.blend_alpha_closed(), "beta": 1.0,
        "alpha1": sharp.RATIO_LOWER, "beta1": sharp.RATIO_UPPER,
    }[call["const"]]
    value = base + call["shift"]
    fn = getattr(sharp, call["fn"])
    res = fn(call["samples"], seed=call["seed"], **{call["const"]: value})
    return {"result": res.as_report(), "const_value": value}
