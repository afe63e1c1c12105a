"""Command-line front end.

Subcommands:

* ``eval``      — evaluate a single mean at a pair,
* ``verify``    — bulk inequality suites (thm1 | thm2 | priors | chain | all),
* ``constants`` — closed-form vs discovered sharp constants,
* ``series``    — exact series coefficients and tail bound,
* ``certify``   — critical-point ladder and its exact proof at the sharp parameter.

Exit codes: 0 pass, 1 violated inequality / constant gap, 2 usage or domain
error.  Reports are deterministic given the same configuration and seed.

``eval`` and ``series`` load no numpy: :mod:`seiffert_bounds.sharp` imports
it, and the bulk modules, on the first call of ``verify``, ``constants`` or
``certify``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import means, series, sharp
from .errors import BracketError, DomainError, RangeError

__all__ = ["main"]

_SCHEMA = 1


def _cmd_eval(args: argparse.Namespace) -> int:
    for option, kind in (("x", "blend"), ("p", "power")):
        if getattr(args, option) is not None and args.kind != kind:
            raise DomainError(f"--{option} applies to the {kind} mean only, not to {args.kind}")
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
    dps = args.precision
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
#: The ordering chain's pairs stay within ratios of 1e6 whatever --ratio-max is.
_CHAIN_RATIO_MAX = 1e6


def _run_suite(name: str, args: argparse.Namespace):
    if name == "thm1":
        alpha = sharp.blend_alpha_closed() + args.alpha_shift
        return sharp.verify_blend_bounds(
            args.samples, seed=args.seed, ratio_max=args.ratio_max,
            alpha=alpha, beta=1.0 + args.beta_shift,
        )
    if name == "thm2":
        return sharp.verify_ratio_bounds(
            args.samples, seed=args.seed, ratio_max=args.ratio_max,
            alpha1=sharp.RATIO_LOWER + args.alpha_shift, beta1=sharp.RATIO_UPPER + args.beta_shift,
        )
    if name == "priors":
        return sharp.verify_prior_bounds(args.samples, seed=args.seed, ratio_max=args.ratio_max)
    return sharp.verify_ordering_chain(
        args.samples, seed=args.seed, ratio_max=min(args.ratio_max, _CHAIN_RATIO_MAX)
    )


#: Samples per suite from which ``verify all`` runs its suites in lanes, one
#: per CPU.  A lane costs a fork and a pipe, and its child warms up on its own.
#: Measured as fresh ``verify all`` processes on a 2-core host (medians of 15
#: alternating pairs): two lanes lose 6 ms at 2e4 and 5e4 samples, break even
#: from 1e5 to 2e5, and win 1.05x at 2.6e5 (14 of 15 pairs), 1.11x at 5e5 and
#: 1.22x at 1e6.  So smaller runs stay in one process.
_LANE_MIN_SAMPLES = 1 << 18
#: The order in which the suites are dealt round-robin to the lanes: the two
#: costly suites, then the two cheap ones.  At 2e6 samples in one process
#: priors takes about 76 ms, chain 67, thm2 and thm1 43 each; putting priors
#: first would deal 2 or 4 CPUs the same lanes and 3 CPUs a longer longest
#: lane (119 ms against 110).
_COST_ORDER = ("chain", "priors", "thm2", "thm1")


def _cpus() -> int:
    """CPUs this process may run on."""
    import os

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_suites(which: list[str], args: argparse.Namespace) -> list:
    """Run the suites, in lanes when the run is large enough, else one by one.

    Lane 0 runs in this process and every other lane in a forked child, which
    pickles its results, or the exception it raised, back through a pipe.  No
    suite is split, so each result is the same bits as a serial run's.
    """
    import os

    lanes = min(len(which), _cpus())
    if lanes < 2 or args.samples < _LANE_MIN_SAMPLES or not hasattr(os, "fork"):
        return [_run_suite(name, args) for name in which]
    import pickle

    from . import kernels  # loads numpy once, before the lanes fork, for all of them

    dealt = [name for name in _COST_ORDER if name in which]
    children = []  # (pid, read end) per child lane
    try:
        for lane in range(1, lanes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    try:
                        payload = [_run_suite(name, args) for name in dealt[lane::lanes]]
                    except BaseException as exc:
                        payload = exc
                    with os.fdopen(write_fd, "wb") as pipe:
                        pickle.dump(payload, pipe)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [_run_suite(name, args) for name in dealt[0::lanes]]
        for _, pipe in children:
            payload = pickle.load(pipe)
            if isinstance(payload, BaseException):
                raise payload
            results += payload
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)


def _csv_dump(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["name", "closed_form", "discovered", "gap", "witness_ratio", "slack"],
        lineterminator="\n",
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _cmd_verify(args: argparse.Namespace) -> int:
    which = list(_SUITES) if args.which == "all" else [args.which]
    if "chain" in which:
        # before any suite runs, so that no other suite is computed for nothing
        sharp._check_chain_range(min(args.ratio_max, _CHAIN_RATIO_MAX))
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
                "closed_form": "",
                "discovered": "",
                "gap": "",
                "witness_ratio": "" if r.witness is None else repr(r.witness["ratio"]),
                "slack": repr(min(r.min_slack_left, r.min_slack_right)),
            }
            for r in results
        ]
        print(_csv_dump(rows), end="")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"suite {r.suite}: {status}  n={r.n_samples}  "
                f"min_slack_left={r.min_slack_left:.6e} (at a/b={r.arg_left:.10g})  "
                f"min_slack_right={r.min_slack_right:.6e} (at a/b={r.arg_right:.10g})"
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
                    f"a/b={rep.witness.ratio:.6g} lhs={rep.witness.lhs!r} rhs={rep.witness.rhs!r}"
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
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["n", "coefficient"], lineterminator="\n")
        writer.writeheader()
        for term in terms:
            writer.writerow(term)
        print(buf.getvalue(), end="")
    else:
        print(head)
        for term in terms:
            print(f"n={term['n']}: {term['coefficient']}")
        if tail_bound is not None:
            print(f"tail bound on (0, {radius!r}]: {tail_bound:.6e}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    import numpy as np

    from . import auxiliary

    family = auxiliary.BlendGapFamily(sharp.blend_alpha_closed())
    report = auxiliary.locate_critical_points(family)
    proof = auxiliary.ladder_proof()
    s = np.geomspace(1e-5, 1e8 - 1.0, 10**4)
    gap_vals = family.gap_values(1.0 + s)
    gap_negative = bool(np.all(gap_vals < 0.0))
    gap_at_big = float(family.gap(1e8))
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
_ORDER = _checked(int, lambda n: 1 <= n <= series.N_MAX, f"lie in [1, {series.N_MAX}]")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one-line message of every other invalid input."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


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
    p_eval.add_argument("--precision", type=_POSITIVE, default=100, help="oracle digits")
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
    p_series.add_argument("--order", type=_ORDER, default=40)
    p_series.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p_series.set_defaults(func=_cmd_series)

    p_cert = sub.add_parser("certify", help="critical-point ladder report at the sharp parameter")
    p_cert.add_argument("--format", choices=("json", "plain"), default="plain")
    p_cert.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (argparse.ArgumentError, DomainError, RangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
