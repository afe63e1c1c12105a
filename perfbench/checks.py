"""Output checks for every benchmark operation, against an independent reference.

The reference is mpmath, evaluated here from the textbook formulas of each
mean (not through ``seiffert_bounds.oracle``), so a change to the program's
own oracle cannot make a wrong answer look right.  Exact series coefficients
come from the Akiyama-Tanigawa algorithm, not the program's recurrence.

Every check returns ``(ok, mode, detail)``.  ``mode`` names the way an
operation failed; an operation whose ``known`` tag equals that mode hit a
documented defect of the program (``known_defects`` in predictions.json:
``inaccurate``, ``far-end-false-fail``, ``not-exit-2``, ``oracle-digits``): it
still counts as failed, but does not make the run incorrect.  Any other
failure does.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from fractions import Fraction

import mpmath as mp

#: Largest accepted error of a plain ``eval`` against the reference.  The
#: worst case seen over 20,000 random pairs at scales 1e-3..1e3 is 3.4 ulp
#: (centroidal mean); every defect this benchmark exposes is off by far more.
EVAL_ULP_BOUND = 8.0

#: Beyond this ratio 1 - t = 2/(x+1) is so small that the double-precision
#: margins tie with rounding (ROADMAP open item 4).  The first false witnesses
#: appear near 5e13 (priors) and 4.5e14 (thm1, thm2); none below 1e13.
FAR_END_RATIO = 1e13

REF_DPS = 60

# Constants computed the way the library states them, independently of it.
ALPHA_SHARP = 0.5 * (1.0 + math.sqrt(12.0 / math.pi - 3.0))
RATIO_LOWER = 4.0 / math.pi - 1.0
RATIO_UPPER = 1.0 / 3.0


# -- mpmath reference -----------------------------------------------------------


def ref_mean(kind: str, a, b, p=None, x=None):
    """Mean ``kind`` at (a, b) as an mpf, at the caller's working precision."""
    a, b = mp.mpf(a), mp.mpf(b)
    if kind == "seiffert":
        return a if a == b else (a - b) / (2 * mp.atan((a - b) / (a + b)))
    if kind == "arithmetic":
        return (a + b) / 2
    if kind == "geometric":
        return mp.sqrt(a * b)
    if kind == "root-square":
        return mp.sqrt((a * a + b * b) / 2)
    if kind == "contra-harmonic":
        return (a * a + b * b) / (a + b)
    if kind == "centroidal":
        return 2 * (a * a + a * b + b * b) / (3 * (a + b))
    if kind == "power":
        p = mp.mpf(p)
        return mp.sqrt(a * b) if p == 0 else ((a**p + b**p) / 2) ** (1 / p)
    if kind == "blend":
        x = mp.mpf(x)
        return ref_mean("centroidal", x * a + (1 - x) * b, x * b + (1 - x) * a)
    raise ValueError(f"unknown mean {kind!r}")


def ref_excess_ratio(x):
    """(seiffert - A)/(contra-harmonic - A) at the pair (x, 1)."""
    t = ref_mean("seiffert", x, 1)
    a = ref_mean("arithmetic", x, 1)
    c = ref_mean("contra-harmonic", x, 1)
    return (t - a) / (c - a)


def witness_holds(suite: str, side: str, const: float, ratio: float) -> bool:
    """True when the inequality with the shifted constant really fails at ``ratio``.

    thm1 lower: blend(alpha) >= T;  thm1 upper: T >= blend(beta);
    thm2 lower: r <= alpha1;        thm2 upper: r >= beta1.
    """
    with mp.workdps(REF_DPS):
        if suite == "thm1":
            blend = ref_mean("blend", ratio, 1, x=const)
            seif = ref_mean("seiffert", ratio, 1)
            return blend >= seif if side == "lower" else seif >= blend
        r = ref_excess_ratio(ratio)
        return r <= mp.mpf(const) if side == "lower" else r >= mp.mpf(const)


@functools.lru_cache(maxsize=1)
def bernoulli_numbers(m_max: int = 120) -> tuple[Fraction, ...]:
    """B_0..B_m_max by the Akiyama-Tanigawa algorithm (B_1 = +1/2 convention)."""
    out, row = [], []
    for m in range(m_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return tuple(out)


def series_coefficient(what: str, n: int) -> Fraction:
    """Signed coefficient n of ``seiffert-bounds series <what>`` as printed."""
    b = bernoulli_numbers()[2 * n]
    if what == "bernoulli":
        return b
    scale = Fraction(abs(b)) / math.factorial(2 * n)
    if what == "cot":
        return -(4**n) * scale
    if what == "csc2":
        return 4**n * (2 * n - 1) * scale
    return -(n * 2 ** (2 * n + 1)) * scale


# -- per-operation checks ---------------------------------------------------------


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _check_thm2_range(rep: dict) -> str | None:
    if rep.get("suite") != "thm2":
        return None
    if not RATIO_LOWER <= rep["inf"] <= rep["sup"] <= RATIO_UPPER:
        return f"thm2 inf/sup {rep['inf']!r}/{rep['sup']!r} outside [4/pi-1, 1/3]"
    return None


def check_sweep(op: dict, stdout: str) -> tuple[bool, str, str]:
    (doc,) = _json_lines(stdout)
    suites = doc["suites"]
    names = [s["suite"] for s in suites]
    if names != ["chain", "priors", "thm1", "thm2"]:
        return False, "wrong-output", f"suites {names}"
    for rep in suites:
        if rep["pass"] is not True or rep["witness"] is not None:
            return False, "false-fail", f"{rep['suite']} failed with witness {rep['witness']}"
        if rep["n_samples"] < op["samples"]:
            return False, "wrong-output", f"{rep['suite']} n_samples {rep['n_samples']}"
        bad = _check_thm2_range(rep)
        if bad:
            return False, "wrong-output", bad
    return True, "", ""


def check_verify(op: dict, stdout: str) -> tuple[bool, str, str]:
    (doc,) = _json_lines(stdout)
    (rep,) = doc["suites"]
    if rep["suite"] != op["suite"] or rep["n_samples"] < op["samples"]:
        return False, "wrong-output", f"report {rep['suite']} n={rep['n_samples']}"
    shift = op.get("shift")
    if shift is None or shift["outward"] is False:
        if rep["pass"] is not True or rep["witness"] is not None:
            wit = rep["witness"] or {}
            mode = "far-end-false-fail" if wit.get("ratio", 0.0) >= FAR_END_RATIO else "false-fail"
            return False, mode, f"witness {wit}"
        bad = _check_thm2_range(rep)
        return (False, "wrong-output", bad) if bad else (True, "", "")
    wit = rep["witness"]
    if rep["pass"] is not False or wit is None:
        return False, "missed-violation", f"outward shift {shift} passed"
    side = "lower" if shift["const"] == "alpha" else "upper"
    if wit["side"] != side:
        return False, "wrong-witness", f"witness side {wit['side']}, expected {side}"
    if not witness_holds(op["suite"], side, shift["value"], wit["ratio"]):
        return False, "wrong-witness", f"witness {wit} does not re-check"
    return True, "", ""


def check_eval(op: dict, stdout: str) -> tuple[bool, str, str]:
    text = stdout.strip()
    if op.get("precision") is not None:
        digits = op["precision"]
        with mp.workdps(digits + 20):
            got = mp.mpf(text)
            ref = ref_mean(op["mean"], op["a"], op["b"], op.get("p"), op.get("x"))
            rel = abs(got - ref) / abs(ref)
            ok = rel <= mp.mpf(10) ** (1 - digits)
            return (True, "", "") if ok else (False, "oracle-digits", f"rel err {mp.nstr(rel, 5)}")
    got = float(text)
    with mp.workdps(REF_DPS):
        ref = ref_mean(op["mean"], op["a"], op["b"], op.get("p"), op.get("x"))
        ref_f = float(ref)
        if not math.isfinite(got) or got <= 0.0:
            return False, "inaccurate", f"value {got!r}, reference {ref_f!r}"
        ulps = float(abs(mp.mpf(got) - ref)) / math.ulp(ref_f)
    if ulps > EVAL_ULP_BOUND:
        return False, "inaccurate", f"{ulps:.3g} ulp off ({got!r} vs {ref_f!r})"
    return True, "", ""


def check_constants(op: dict, stdout: str) -> tuple[bool, str, str]:
    reps = {r["name"]: r for r in _json_lines(stdout)}
    closed = {
        "blend_alpha": ALPHA_SHARP,
        "blend_beta": 1.0,
        "ratio_alpha": RATIO_LOWER,
        "ratio_beta": RATIO_UPPER,
    }
    if sorted(reps) != sorted(closed):
        return False, "wrong-output", f"constants {sorted(reps)}"
    for name, value in closed.items():
        rep = reps[name]
        if abs(rep["closed_form"] - value) > 4e-16 or not abs(rep["gap"]) <= 1e-10:
            return False, "wrong-output", f"{name}: {rep}"
        wit = rep["witness"]
        suite = "thm1" if name.startswith("blend") else "thm2"
        side = "lower" if name.endswith("alpha") else "upper"
        if not witness_holds(suite, side, value + wit["shift"], wit["ratio"]):
            return False, "wrong-witness", f"{name} witness {wit} does not re-check"
    return True, "", ""


def _certify_roots(p: float) -> list:
    """Closed-form roots t0..t3 of chain4..chain1 in s = t - 1 (see auxiliary.py)."""
    with mp.workdps(REF_DPS):
        p = mp.mpf(p)
        u = p * p - p
        c1 = 4 * p**4 - 8 * p**3 + 18 * p**2 - 14 * p + 1
        s0 = -9 * u / c1
        quad = [(6 * u, 18 * u), (18 * u, 27 * u), (36 * u, 36 * u)]  # k0 + k1 s + c1 s^2
        roots = [s0] + [(-k1 + mp.sqrt(k1 * k1 - 4 * c1 * k0)) / (2 * c1) for k0, k1 in quad]
        return [1 + s for s in roots]


def check_certify(op: dict, stdout: str) -> tuple[bool, str, str]:
    (doc,) = _json_lines(stdout)
    if doc["pass"] is not True or doc["gap_negative_on_grid"] is not True:
        return False, "wrong-verdict", f"certify pass={doc['pass']}"
    if abs(doc["parameter"] - ALPHA_SHARP) > 4e-16:
        return False, "wrong-output", f"parameter {doc['parameter']!r}"
    cps = doc["critical_points"]
    for key, ref in zip(("t0", "t1", "t2", "t3"), _certify_roots(doc["parameter"])):
        if abs(cps[key] - float(ref)) > 1e-9 * float(ref):
            return False, "wrong-output", f"{key}={cps[key]!r}, closed form {float(ref)!r}"
    return True, "", ""


def check_series(op: dict, stdout: str) -> tuple[bool, str, str]:
    (doc,) = _json_lines(stdout)
    what, order = op["what"], op["order"]
    terms = doc["terms"]
    if doc["series"] != what or doc["order"] != order or [t["n"] for t in terms] != list(range(1, order + 1)):
        return False, "wrong-output", f"series {doc['series']} order {doc['order']}"
    for term in terms:
        want = series_coefficient(what, term["n"])
        if Fraction(term["coefficient"]) != want:
            return False, "wrong-output", f"n={term['n']}: {term['coefficient']} != {want}"
    if what != "bernoulli":
        tail = doc["tail_bound"]
        radius = {"cot": math.pi / 2, "csc2": math.pi / 2, "ratio": math.pi / 4}[what]
        if not (math.isfinite(tail) and tail > 0.0) or doc["radius"] != radius:
            return False, "wrong-output", f"tail bound {tail!r} radius {doc['radius']!r}"
    return True, "", ""


_CHECKS = {
    "sweep": check_sweep,
    "verify": check_verify,
    "eval": check_eval,
    "constants": check_constants,
    "certify": check_certify,
    "series": check_series,
}


def check_cli(op: dict, rc: int, stdout: str, stderr: str) -> tuple[bool, str, str]:
    """Check one CLI invocation: exit code first, then its output."""
    if op["kind"] == "invalid":
        if rc != 2 or "Traceback" in stderr:
            return False, "not-exit-2", f"exit {rc}: {stderr.strip()[-160:]!r}"
        return True, "", ""
    if "Traceback" in stderr:
        return False, "crash", stderr.strip()[-240:]
    try:
        ok, mode, detail = _CHECKS[op["kind"]](op, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return False, "wrong-output", f"unparsable output ({exc}): {stdout[:160]!r}"
    if ok and rc != op["expect_rc"]:
        return False, "wrong-exit", f"exit {rc}, expected {op['expect_rc']}"
    return ok, mode, detail


def check_probe(op: dict, rec: dict) -> tuple[bool, str, str]:
    """Check one in-process sharpness-probe call from its returned record."""
    if "error" in rec:
        return False, "crash", rec["error"]
    res = rec["result"]
    if op["fn"] == "counterexample_witness":
        side = op["side"]
        suite_side = "lower" if side == "above_alpha" else "upper"
        if res["side"] != side or not witness_holds("thm1", suite_side, op["p"], res["t"]):
            return False, "wrong-witness", f"witness {res} does not re-check"
        return True, "", ""
    if abs(rec["const_value"] - op["base"] - op["shift"]) > 4e-16:
        return False, "wrong-output", f"constant {rec['const_value']!r} used for {op}"
    bad = _check_thm2_range(res)
    if bad:
        return False, "wrong-output", bad
    if not op["outward"]:
        if res["pass"] is not True or res["witness"] is not None:
            return False, "false-fail", f"inward shift {op['shift']!r} failed: {res['witness']}"
        return True, "", ""
    wit = res["witness"]
    side = "lower" if op["const"] in ("alpha", "alpha1") else "upper"
    if res["pass"] is not False or wit is None or wit["side"] != side:
        return False, "missed-violation", f"outward shift {op['shift']!r}: pass={res['pass']} {wit}"
    if not witness_holds(op["suite"], side, rec["const_value"], wit["ratio"]):
        return False, "wrong-witness", f"witness {wit} does not re-check"
    return True, "", ""


class Tally:
    """Counts operations, failures, and failures outside the known defects."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[dict] = []
        self.by_mode: dict[str, int] = {}
        self.check_s = 0.0

    def add(self, op: dict, check) -> dict:
        """Run ``check()`` (timed as checking, not as the operation) and count it."""
        t0 = time.perf_counter()
        ok, mode, detail = check()
        self.check_s += time.perf_counter() - t0
        self.attempted += 1
        outcome = {"ok": ok}
        if not ok:
            self.failed += 1
            self.by_mode[mode] = self.by_mode.get(mode, 0) + 1
            known = op.get("known") == mode
            outcome.update(mode=mode, detail=detail, known=known)
            if not known:
                self.unexpected.append({"op": op, "mode": mode, "detail": detail})
                print(f"unexpected failure: {mode}: {detail} in {op}", file=sys.stderr)
        return outcome

    @property
    def correct(self) -> bool:
        return not self.unexpected

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
