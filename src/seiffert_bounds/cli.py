"""Command-line front end.

Subcommands:

* ``eval``      — evaluate a single mean at a pair,
* ``verify``    — bulk inequality suites (thm1 | thm2 | priors | chain | all),
* ``constants`` — closed-form vs discovered sharp constants,
* ``series``    — exact series coefficients and tail bound,
* ``certify``   — critical-point ladder and its exact proof at the sharp parameter.

Exit codes: 0 pass, 1 violated inequality / constant gap, 2 usage or domain
error, 3 the run could not finish or deliver its result (a forked ``verify``
lane killed by a signal or out of memory, a refused fork, a stdout closed
early or full: any :class:`OSError`).  Each error is one ``error:``
line on stderr.  Reports are deterministic given the same configuration and
seed.

:func:`main` runs one command in the calling process, for tests and
scripts.  :func:`run` is the process entry of ``seiffert-bounds`` and
``python -m seiffert_bounds.cli``: it runs :func:`main` with the cyclic GC
off and ends the process with :func:`os._exit`, after the atexit handlers
and the final flush, so that no fresh process pays for collections during
numpy's import or for the interpreter's teardown.

Only ``verify`` loads numpy: :mod:`seiffert_bounds.sharp` and the array
paths of :mod:`seiffert_bounds.means` import it on the first call of a
sweep.  ``eval``, ``series``, ``constants`` and ``certify`` compute with
:mod:`math` on floats.  ``verify`` runs in one lane per CPU from
``sharp._LANE_MIN_SAMPLES`` (10⁶) samples per suite up, a single suite and
``verify all`` alike, and in one lane below it; it forks the other lanes
once and stops them before :func:`main` returns.

``eval``, ``series``, ``constants`` and ``certify`` load no
:mod:`dataclasses` or :mod:`inspect` either (numpy loads ``inspect``): the
records are named tuples.  Only ``series`` and ``certify``, whose job is
exact arithmetic, load :mod:`fractions`; :mod:`seiffert_bounds.series` and
:mod:`csv` load on first use.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import json
import math
import os
import sys

from . import _OnFirstUse, means, sharp
from .errors import BracketError, DomainError

__all__ = ["main", "run"]

# Bound on first use, so that a command that prints no series or CSV loads
# neither (series loads fractions).
series = _OnFirstUse(".series", globals(), "series")
csv = _OnFirstUse("csv", globals(), "csv")

_SCHEMA = 1


def _cmd_eval(args: argparse.Namespace) -> int:
    for option, kind in (("x", "blend"), ("p", "power")):
        if getattr(args, option) is not None and args.kind != kind:
            raise DomainError(f"--{option} applies to the {kind} mean only, not to {args.kind}")
    if args.precision is not None and not args.oracle:
        raise DomainError("--precision applies to --oracle only")
    pair = means.PositivePair(args.a, args.b)
    param = args.x if args.kind == "blend" else args.p
    value = means.mean(args.kind, pair, param)  # validates the parameter
    if not args.oracle:
        print(repr(value))
        return 0
    # mpmath is imported here only: no other subcommand needs it
    import mpmath as mp

    from . import oracle

    fn = getattr(oracle, args.kind.replace("-", "_"))
    dps = 100 if args.precision is None else args.precision
    if param is None:
        val = fn(pair.a, pair.b, dps=dps)
    elif args.kind == "blend":
        val = fn(param, pair.a, pair.b, dps=dps)
    else:
        val = fn(pair.a, pair.b, param, dps=dps)
    with mp.workdps(dps):
        print(mp.nstr(val, dps))
    return 0


_SUITES = ("thm1", "thm2", "priors", "chain")
#: Each suite's public verifier in :mod:`seiffert_bounds.sharp`.
_VERIFIERS = {
    "thm1": "verify_blend_bounds",
    "thm2": "verify_ratio_bounds",
    "priors": "verify_prior_bounds",
    "chain": "verify_ordering_chain",
}


def _keywords(name: str, args: argparse.Namespace) -> dict:
    """The constants a suite checks: keywords of its verifier and of its row."""
    if name == "thm1":
        return {"alpha": sharp.blend_alpha_closed() + args.alpha_shift, "beta": 1.0 + args.beta_shift}
    if name == "thm2":
        return {"alpha1": sharp.RATIO_LOWER + args.alpha_shift, "beta1": sharp.RATIO_UPPER + args.beta_shift}
    return {}


def _run_suites(which: list[str], args: argparse.Namespace) -> list:
    """Run the suites: all four in one shared pass (:func:`sharp._run`) from
    ``sharp._LANE_MIN_SAMPLES`` samples, where runs take lanes, else one by
    one, each through its public verifier."""
    suites = [(name, _keywords(name, args)) for name in which]
    if len(which) > 1 and args.samples >= sharp._LANE_MIN_SAMPLES:
        return sharp._run(suites, args.samples, args.seed, args.ratio_max)
    return [
        getattr(sharp, _VERIFIERS[name])(args.samples, seed=args.seed, ratio_max=args.ratio_max, **keywords)
        for name, keywords in suites
    ]


#: The CSV columns of the ``verify`` and ``constants`` reports.
_REPORT_FIELDS = ("name", "closed_form", "discovered", "gap", "witness_ratio", "slack")


def _csv_dump(rows: list[dict], fieldnames=_REPORT_FIELDS) -> str:
    """``rows`` as CSV under ``fieldnames``; a column that a row lacks is empty."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.which in ("priors", "chain"):
        for option in ("alpha_shift", "beta_shift"):
            if getattr(args, option) != 0.0:
                flag = "--" + option.replace("_", "-")
                raise DomainError(f"{flag} applies to thm1 and thm2 only, not to {args.which}")
    which = list(_SUITES) if args.which == "all" else [args.which]
    results = _run_suites(which, args)
    results.sort(key=lambda r: r.suite)

    if args.format == "json":
        print(json.dumps(
            {"schema": _SCHEMA, "seed": args.seed, "samples": args.samples,
             "suites": [r.as_report() for r in results]},
            sort_keys=True,
        ))
    elif args.format == "csv":
        rows = [
            {
                "name": r.suite,
                "witness_ratio": "" if r.witness is None else repr(r.witness["ratio"]),
                # min drops a NaN that comes second
                "slack": repr(math.nan if math.isnan(r.min_slack_right) else min(r.min_slack_left, r.min_slack_right)),
            }
            for r in results
        ]
        print(_csv_dump(rows), end="")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"suite {r.suite}: {status}  n={r.n_samples}  "
                f"min_slack_left={r.min_slack_left:.6e} (at a/b={r.arg_left!r})  "
                f"min_slack_right={r.min_slack_right:.6e} (at a/b={r.arg_right!r})"
            )
            if r.stats:
                print(f"  stats: {json.dumps(r.stats, sort_keys=True)}")
            if r.witness is not None:
                print(f"  witness: {json.dumps(r.witness, sort_keys=True)}")
    return 0 if all(r.passed for r in results) else 1


def _cmd_constants(args: argparse.Namespace) -> int:
    reports = sharp.constants_report()
    if args.format == "json":
        for rep in reports:
            print(json.dumps({"schema": _SCHEMA, **rep.as_dict()}, sort_keys=True))
    elif args.format == "csv":
        rows = [
            {
                "name": rep.name,
                "closed_form": repr(rep.closed_form),
                "discovered": repr(rep.discovered),
                "gap": repr(rep.abs_gap),
                "witness_ratio": "" if rep.witness is None else repr(rep.witness.ratio),
                "slack": "" if rep.witness is None else repr(rep.witness.lhs - rep.witness.rhs),
            }
            for rep in reports
        ]
        print(_csv_dump(rows), end="")
    else:
        for rep in reports:
            print(
                f"{rep.name}: closed={rep.closed_form!r} discovered={rep.discovered!r} "
                f"gap={rep.abs_gap:.3e}"
            )
            if rep.witness is not None:
                print(
                    f"  sharpness witness: shift={rep.witness.shift:+.1e} "
                    f"a/b={rep.witness.ratio!r} lhs={rep.witness.lhs!r} rhs={rep.witness.rhs!r}"
                )
    return 0 if all(rep.abs_gap <= sharp.CONSTANT_GAP_LIMIT for rep in reports) else 1


def _cmd_series(args: argparse.Namespace) -> int:
    order = args.order
    what = args.what
    if what == "bernoulli":
        terms = [{"n": n, "coefficient": str(series.bernoulli_even(n))} for n in range(1, order + 1)]
        head, tail_bound, radius = "B_{2n}", None, None
    else:
        display = {
            "cot": ("cot x = 1/x - sum c_n x^(2n-1);  signed c_n:", -1, series.cot_coefficient),
            "csc2": ("1/sin^2 x = 1/x^2 + sum c_n x^(2n-2);  signed c_n:", 1, series.csc2_coefficient),
            "ratio": ("R(theta) = 1 - sum c_n theta^(2n-2);  signed c_n:", -1, series.ratio_coefficient),
        }
        head, sign, coeff_fn = display[what]
        terms = [{"n": n, "coefficient": str(sign * coeff_fn(n))} for n in range(1, order + 1)]
        ts = series.truncated_series(what, order)
        tail_bound, radius = ts.tail_bound, ts.radius

    if args.format == "json":
        payload = {"schema": _SCHEMA, "series": what, "order": order, "terms": terms}
        if tail_bound is not None:
            payload["tail_bound"] = tail_bound
            payload["radius"] = radius
        print(json.dumps(payload, sort_keys=True))
    elif args.format == "csv":
        print(_csv_dump(terms, ("n", "coefficient")), end="")
    else:
        print(head)
        for term in terms:
            print(f"n={term['n']}: {term['coefficient']}")
        if tail_bound is not None:
            print(f"tail bound on (0, {radius!r}]: {tail_bound:.6e}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    from . import auxiliary

    family = auxiliary.BlendGapFamily(sharp.blend_alpha_closed())
    report = auxiliary.locate_critical_points(family)
    proof = auxiliary.ladder_proof()
    gap_negative = all(family.gap_values(1.0 + s) < 0.0 for s in means._geomspace(1e-5, 1e8 - 1.0, 10**4))
    gap_at_big = family.gap(1e8)
    ok = (
        gap_negative
        and abs(gap_at_big) <= 1e-6
        and max(report.residuals) < 1e-10
        and 1.0 < report.t0 < report.t1 < report.t2 < report.t3
        and proof["signs"]
        and proof["identity_exact"]
    )
    payload = {
        "schema": _SCHEMA,
        "parameter": family.p,
        "critical_points": report.as_dict(),
        "gap_negative_on_grid": gap_negative,
        "gap_at_1e8": gap_at_big,
        "limit_at_infinity": family.limit_at_infinity(),
        "proof": {k: [str(x) for x in v] if isinstance(v, tuple) else v for k, v in proof.items()},
        "pass": ok,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in ("parameter", "gap_negative_on_grid", "gap_at_1e8", "limit_at_infinity", "pass"):
            print(f"{key}: {payload[key]!r}")
        print(f"critical_points: {json.dumps(report.as_dict(), sort_keys=True)}")
        print(f"proof: {json.dumps(payload['proof'], sort_keys=True)}")
    return 0 if ok else 1


def _checked(convert, ok, rule: str):
    """An argparse ``type=`` that converts the text and rejects values breaking ``rule``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_POSITIVE = _checked(int, lambda n: n >= 1, "be >= 1")
_SEED = _checked(int, lambda n: n >= 0, "be >= 0")
_RATIO_MAX = _checked(float, lambda x: math.isfinite(x) and x > 1.0, "be finite and exceed 1")
#: Oracle digits: on a 2-core host 1e4 take 0.3 s and 1e5 take 14 s, and one
#: value of 1e11 digits alone would fill about 41 GB.
_DIGITS = _checked(int, lambda n: 1 <= n <= 10_000, "lie in [1, 10000]")


def _order(text: str) -> int:
    """A series order in [1, ``series.N_MAX``], checked as it is parsed: the
    bound is read then, so that importing the CLI does not load series."""
    return _checked(int, lambda n: 1 <= n <= series.N_MAX, f"lie in [1, {series.N_MAX}]")(text)


_order.__name__ = "int"  # argparse names it in "invalid int value"


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one-line message of every other invalid
    input, and ends ``--help`` by returning from :func:`main`, not by
    :class:`SystemExit`."""

    class Done(Exception):
        """The parse ended after printing help; ``args[0]`` is the exit code."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)

    def exit(self, status=0, message=None):
        # only --help gets here, with no message: error() above never exits
        raise self.Done(status)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seiffert-bounds",
        description="Evaluate bivariate means and verify the sharp Seiffert-mean bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one mean at a pair (a, b)")
    p_eval.add_argument("kind", choices=sorted(means.MEANS))
    p_eval.add_argument("a", type=float)
    p_eval.add_argument("b", type=float)
    p_eval.add_argument("--x", type=float, default=None, help="blend parameter in [1/2, 1]")
    p_eval.add_argument("--p", type=float, default=None, help="power-mean exponent")
    p_eval.add_argument("--oracle", action="store_true", help="print the mpmath reference value")
    p_eval.add_argument("--precision", type=_DIGITS, default=None, help="oracle digits")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run bulk inequality suites")
    p_verify.add_argument("which", choices=(*_SUITES, "all"))
    p_verify.add_argument("--samples", type=_POSITIVE, default=10**6)
    p_verify.add_argument("--seed", type=_SEED, default=0)
    p_verify.add_argument("--ratio-max", dest="ratio_max", type=_RATIO_MAX, default=1e8)
    p_verify.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p_verify.add_argument(
        "--alpha-shift", dest="alpha_shift", type=float, default=0.0,
        help="sharpness probe: shift the lower constant (thm1: blend alpha, thm2: ratio alpha)",
    )
    p_verify.add_argument(
        "--beta-shift", dest="beta_shift", type=float, default=0.0,
        help="sharpness probe: shift the upper constant (thm1: blend beta, thm2: ratio beta)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_const = sub.add_parser("constants", help="closed-form vs discovered sharp constants")
    p_const.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p_const.set_defaults(func=_cmd_constants)

    p_series = sub.add_parser("series", help="dump exact series coefficients")
    p_series.add_argument("what", choices=("bernoulli", "cot", "csc2", "ratio"))
    p_series.add_argument("--order", type=_order, default=40)
    p_series.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p_series.set_defaults(func=_cmd_series)

    p_cert = sub.add_parser("certify", help="critical-point ladder report at the sharp parameter")
    p_cert.add_argument("--format", choices=("json", "plain"), default="plain")
    p_cert.set_defaults(func=_cmd_certify)

    return parser


def _error(exc: Exception, code: int) -> int:
    """Report ``exc`` as the run's one ``error:`` line on stderr; returns
    ``code``.  A stderr that cannot take the line (the same closed pipe or
    full disk as stdout, say) leaves the exit code to tell."""
    try:
        print(f"error: {exc}", file=sys.stderr)
    except OSError:
        pass
    return code


def main(argv=None) -> int:
    """Run one command in this process; returns its exit code.

    The in-process entry, for tests and scripts: it leaves the cyclic GC and
    the process as they are, and it has closed the standing lanes of
    :mod:`seiffert_bounds.sharp` before it returns, so a command forks and
    reaps its lanes within the call.  :func:`run` is the process entry."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _Parser.Done as done:
        return done.args[0]
    except (argparse.ArgumentError, DomainError) as exc:
        return _error(exc, 2)
    except BracketError as exc:
        return _error(exc, 1)
    except OSError as exc:  # a crashed lane, a refused fork, a closed or full stdout
        return _error(exc, 3)
    finally:
        sharp._close_lanes()


def run():
    """Process entry of ``seiffert-bounds`` and ``python -m seiffert_bounds.cli``:
    :func:`main` on ``sys.argv`` with the cyclic GC off, then the end of the
    process without interpreter teardown.  Never returns.

    Memory stays bounded with the GC off: besides what its imports leave
    once, each command's only cyclic garbage is its parser (and for
    ``--help`` the help formatter), a fixed count whatever the command and
    the sample count (``tests/test_cli.py`` checks this; timings in
    ``BENCH_22.json``).  What a normal exit does still
    happens, in its order: atexit handlers run, then stdout and stderr are
    flushed.  A stdout that cannot take the report ends the run with one
    ``error:`` line and exit 3.  An exception escaping :func:`main` ends the
    process as without this entry, with a traceback and exit 1.  The CLI
    starts no thread, and every ``verify`` from ``sharp._LANE_MIN_SAMPLES``
    samples has stopped and waited for its forked lanes before :func:`main`
    returns.
    """
    gc.disable()
    code = main()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except OSError as exc:
        if code != 3:  # else main has reported why the run delivered nothing
            code = _error(exc, 3)
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
