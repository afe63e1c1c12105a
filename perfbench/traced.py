"""Traced run: per-layer metrics for one workload, from spans in one interpreter.

Run by ``run.py --trace 1`` with the program's ``src`` on PYTHONPATH::

    python perfbench/traced.py --workload sweep --seed 3 --spans out.json [--tiny]

Phases, all in this one interpreter:

1. ``workload`` -- a fixed slice of the workload's own operations (CLI
   operations through ``cli.main`` in-process, probe calls through the API).
   Each runs once to warm caches, then untraced and traced in alternating
   order; the time ratio of the last two is the tracing overhead.  Only
   traced results are checked and counted.
2. ``battery`` -- one small call per layer entry point, traced, used only for
   metrics the workload slice did not exercise (``sweep`` never evaluates an
   oracle, for instance).
3. untraced micro-measurements: the ``r(t)`` kernels at the sweep size and at a
   cache-resident size, tracemalloc peak per sample of each suite, and a cold
   build of the Bernoulli table.

The slice sizes are fixed, so counts repeat exactly for a given seed and
totals compare across commits.  The last stdout line is a JSON object with
``metrics``, ``correct``, ``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random
import statistics
import sys
import time
import traceback
import tracemalloc

import numpy as np

import checks
import workloads
from tracer import Tracer

SLICE = {"sweep": 3, "interactive": 2 * workloads.DECK_LEN, "probe": 22}  # operations traced per workload
TINY_SLICE = {"sweep": 1, "interactive": workloads.DECK_LEN, "probe": 11}
CACHED_SIZE = 16_384  # ~10 temporaries of this length fit in a 2 MiB L2

MEANS_CORES = (
    "seiffert_values", "centroidal_values", "blend_values", "arithmetic_values",
    "geometric_values", "root_square_values", "contra_harmonic_values", "power_values",
)
VERIFY_FNS = ("verify_blend_bounds", "verify_ratio_bounds", "verify_prior_bounds", "verify_ordering_chain")
ORACLE_FNS = ("seiffert", "centroidal", "arithmetic", "geometric", "root_square", "contra_harmonic", "power", "blend")
CLI_SUBCOMMANDS = ("eval", "verify", "constants", "series", "certify")

BATTERY_ARGV = [
    ["eval", "seiffert", "1.0", "3.0"],
    ["eval", "power", "1.0", "3.0", "--p=2.0"],
    *(["eval", kind, "1.0", "3.0", "--oracle", "--precision", "30"] for kind in
      ("seiffert", "arithmetic", "geometric", "root-square", "contra-harmonic", "centroidal")),
    ["eval", "power", "1.0", "3.0", "--p=2.0", "--oracle", "--precision", "30"],
    ["eval", "blend", "1.0", "3.0", "--x=0.75", "--oracle", "--precision", "30"],
    ["verify", "all", "--samples", "20000", "--format", "json"],
    ["verify", "thm2", "--samples", "20000", "--beta-shift=-1e-4", "--format", "json"],
    ["constants", "--format", "json"],
    ["series", "bernoulli", "--order", "20", "--format", "json"],
    ["series", "ratio", "--order", "30", "--format", "json"],
    ["certify", "--format", "json"],
]


def _verify_attrs(args, res):
    return {} if res is None else {"n": res.n_samples, "passed": res.passed}


def _elements_attrs(args, res):
    return {} if res is None else {"elements": int(np.size(res))}


def _cli_attrs(args, rc):
    argv = args[0] if args else None
    return {"sub": argv[0] if argv else None, "rc": rc}


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in-process with captured output and the exit code a shell sees."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught exception exits 1 with a traceback
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.OPS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    sizes = workloads.TINY_SIZES if args.tiny else workloads.SIZES
    n_ops = (TINY_SLICE if args.tiny else SLICE)[args.workload]

    from seiffert_bounds import auxiliary, cli, means, oracle, series, sharp

    tracer = Tracer()
    for layer, module in (("means", means), ("series", series), ("auxiliary", auxiliary), ("oracle", oracle)):
        tracer.add_module(layer, module, lambda name: _elements_attrs if name in MEANS_CORES else None)
    tracer.add_module("sharp", sharp, lambda name: _verify_attrs if name in VERIFY_FNS else None)
    tracer.add_methods("auxiliary", auxiliary.BlendGapFamily, ("gap_values", "chain", "chain_values"))
    tracer.add_function("cli", cli, "main", _cli_attrs)
    tracer.bind(m for name, m in sys.modules.items() if name.split(".")[0] == "seiffert_bounds")

    # -- phase 1: the workload slice, untraced and traced --------------------------------
    ops = list(itertools.islice(workloads.OPS[args.workload](random.Random(args.seed), sizes), n_ops))

    def execute(op):
        t0 = time.perf_counter()
        if args.workload == "probe":
            try:
                rec = workloads.run_probe_call(sharp, auxiliary, op)
            except Exception:
                rec = {"error": traceback.format_exc(limit=3)}
            wall = time.perf_counter() - t0
            return wall, lambda: checks.check_probe(op, rec)
        rc, out, err = run_cli(cli, op["argv"])
        wall = time.perf_counter() - t0
        return wall, lambda: checks.check_cli(op, rc, out, err)

    tally = checks.Tally()
    plain_s = traced_s = 0.0
    tracer.phase = "workload"
    for i, op in enumerate(ops):
        execute(op)  # warm-up: filling caches is a first-call cost, not tracing overhead
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            wall, check = execute(op)
            if traced:
                tracer.uninstall()
                traced_s += wall
                tally.add(op, check)
            else:
                plain_s += wall

    # -- phase 2: battery ------------------------------------------------------------------------
    tracer.phase = "battery"
    tracer.install()
    for argv in BATTERY_ARGV:
        run_cli(cli, argv)
    sharp.blend_alpha_numeric()
    auxiliary.counterexample_witness(checks.ALPHA_SHARP + 1e-4, "above_alpha")
    auxiliary.counterexample_witness(1.0 - 1e-4, "below_one")
    tracer.uninstall()
    tracer.phase = None

    metrics = span_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s - 1.0, "1")
    metrics["check.oracle_s"] = (tally.check_s, "s")
    metrics.update(kernel_metrics(sharp, series, sizes, args.seed))

    with open(args.spans, "w") as fh:
        json.dump([vars(s) for s in tracer.spans], fh)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
        "unexpected": tally.unexpected,
    }, default=str))
    return 0


def span_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    spans = tracer.spans
    kids = tracer.children()

    def chosen(pred) -> list[int]:
        """Matching spans of the workload phase, or of the battery if it has none."""
        for phase in ("workload", "battery"):
            ids = [i for i, s in enumerate(spans) if s.phase == phase and pred(s)]
            if ids:
                return ids
        raise RuntimeError("no span matches a per-layer metric")

    def named(name: str) -> list[int]:
        return chosen(lambda s: s.name == name)

    def median_ms(name: str) -> float:
        return statistics.median(spans[i].duration for i in named(name)) * 1e3

    m: dict[str, tuple[float, str]] = {}
    for sub in CLI_SUBCOMMANDS:
        ids = chosen(lambda s: s.name == "cli.main" and s.attrs.get("sub") == sub and s.attrs.get("rc") in (0, 1))
        m[f"cli.{sub}.self_ms"] = (statistics.median(tracer.self_time(i, kids) for i in ids) * 1e3, "ms")

    # verify spans that returned a result (a call that raised, as on
    # ``--ratio-max inf``, has no sample count)
    verify_ids = chosen(lambda s: s.name.startswith("sharp.verify_") and "n" in s.attrs)
    for fn in VERIFY_FNS:
        m[f"sharp.{fn}.s"] = (median_ms(f"sharp.{fn}") / 1e3, "s")
    m["sharp.verify.self_s"] = (statistics.median(tracer.self_time(i, kids) for i in verify_ids), "s")
    m["sharp.sample_ratios.s"] = (median_ms("sharp.sample_ratios") / 1e3, "s")
    n_total = sum(spans[i].attrs["n"] for i in verify_ids)
    m["sharp.ns_per_sample"] = (sum(spans[i].duration for i in verify_ids) / n_total * 1e9, "ns")
    for verdict, label in ((True, "pass"), (False, "fail")):
        ids = chosen(lambda s: s.name.startswith("sharp.verify_") and s.attrs.get("passed") is verdict)
        m[f"sharp.verify.{label}_ms_p50"] = (statistics.median(spans[i].duration for i in ids) * 1e3, "ms")
    m["sharp.constants_report.ms"] = (median_ms("sharp.constants_report"), "ms")
    m["sharp.blend_alpha_numeric.ms"] = (median_ms("sharp.blend_alpha_numeric"), "ms")

    for fn in MEANS_CORES:
        ids = named(f"means.{fn}")
        m[f"means.{fn}.s"] = (sum(spans[i].duration for i in ids), "s")
        m[f"means.{fn}.elements"] = (sum(spans[i].attrs.get("elements", 0) for i in ids), "count")
    # elements the raw-mean cross-check evaluates, per sample verified by the
    # three suites that have one (its seiffert_values call is a direct child)
    checked = chosen(lambda s: s.name in ("sharp.verify_blend_bounds", "sharp.verify_ratio_bounds",
                                          "sharp.verify_prior_bounds") and "n" in s.attrs)
    direct = sum(spans[k].attrs.get("elements", 0) for i in checked for k in kids.get(i, ())
                 if spans[k].name == "means.seiffert_values")
    m["means.direct_check_share"] = (direct / sum(spans[i].attrs["n"] for i in checked), "1")

    locate = named("auxiliary.locate_critical_points")
    phase = spans[locate[0]].phase
    chain_calls = sum(1 for s in spans if s.phase == phase and s.name == "auxiliary.chain")
    m["auxiliary.locate_critical_points.ms"] = (median_ms("auxiliary.locate_critical_points"), "ms")
    m["auxiliary.chain.calls"] = (chain_calls / len(locate), "count")
    m["auxiliary.gap_values.ms"] = (median_ms("auxiliary.gap_values"), "ms")
    m["auxiliary.counterexample_witness.ms"] = (median_ms("auxiliary.counterexample_witness"), "ms")

    m["series.truncated_series.ms"] = (median_ms("series.truncated_series"), "ms")
    m["series.bernoulli_even.calls"] = (len(named("series.bernoulli_even")), "count")
    for fn in ORACLE_FNS:
        m[f"oracle.{fn}.ms_per_call"] = (median_ms(f"oracle.{fn}"), "ms")
    return m


def _median_call_s(fn, arg, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(sharp, series, sizes: dict, seed: int) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    gen = np.random.default_rng(seed)
    for label, n in (("large", sizes["sweep_samples"]), ("cached", CACHED_SIZE)):
        # t as the sweeps see it: a/b log-uniform in (1, 1e8]
        x = np.exp(gen.random(n) * math.log(1e8))
        t = (x - 1.0) / (x + 1.0)
        t = t[(t > 0.0) & (t < 1.0)]
        reps = max(5, 10_000_000 // n)
        for fn in ("excess_ratio", "excess_ratio_upper_margin"):
            per_call = _median_call_s(getattr(sharp, fn), t, reps)
            m[f"sharp.{fn}.ns_per_sample.{label}"] = (per_call / len(t) * 1e9, "ns")

    n = sizes["probe_samples"]
    worst = 0.0
    tracemalloc.start()
    try:
        for fn in VERIFY_FNS:
            tracemalloc.reset_peak()
            res = getattr(sharp, fn)(n, seed=seed)
            worst = max(worst, tracemalloc.get_traced_memory()[1] / res.n_samples)
    finally:
        tracemalloc.stop()
    m["sharp.bytes_per_sample"] = (worst, "B")

    cold = []
    for _ in range(3):
        series.default_table.cache_clear()
        t0 = time.perf_counter()
        series.default_table()
        cold.append(time.perf_counter() - t0)
    m["series.default_table.cold_ms"] = (statistics.median(cold) * 1e3, "ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
