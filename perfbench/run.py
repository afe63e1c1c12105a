"""Benchmark of the ``seiffert-bounds`` verifier: three workloads, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {sweep,interactive,probe} --seed N \\
        --seconds S --trace {0,1} [--tiny]

``--trace 0`` runs the workload as a user would and reports the end-to-end
metrics; ``--trace 1`` runs a fixed slice of the same workload in one traced
interpreter and reports per-layer metrics (see ``traced.py``).  ``--tiny``
shrinks every size for the smoke test.

The program is built from ``src/`` of the checkout this file sits in (byte
compilation only) and run with that ``src`` on PYTHONPATH; if ``src/`` is
missing the benchmark exits 2 without a result.  Every operation's output is
checked (``checks.py``).  Provenance goes to stdout as one JSON line, and
the full record of the run (operations or spans) to ``.bench_out/``.  The last
stdout line is the result: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (closed loops, one client, one operation at a time):

* ``sweep`` -- fresh ``verify all`` processes at 2e6 samples per suite;
* ``interactive`` -- fresh short CLI processes, a fixed number of decks of 15
  (see ``workloads.interactive_deck``);
* ``probe`` -- one worker interpreter running sharpness-probe rounds through
  the public API (``probe_worker.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Set-ups timed per run for setup_s; the median is reported.  They are spread
#: over the run, because the speed of a shared host drifts over tens of seconds.
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
OP_TIMEOUT_S = 170.0
#: Seconds of ``--seconds`` per interactive deck (see ``run_interactive``).
DECK_PER_SECONDS = 10.0

UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p75_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], timeout: float = OP_TIMEOUT_S) -> tuple[int, str, str, float]:
    """Run a child to completion; return (exit code, stdout, stderr, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=program_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\n[benchmark] killed after {timeout:.0f} s"
    return proc.returncode, out, err, time.perf_counter() - t0


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "seiffert_bounds.cli", *argv]


def build() -> None:
    """Byte-compile the package so no timed run pays for compilation."""
    code, _, err, _ = spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "seiffert_bounds")])
    if code != 0:
        raise BenchError(f"byte compilation failed: {err.strip()}")


def timed_import() -> float:
    """Wall time of a fresh interpreter importing the CLI module from this checkout."""
    code, out, err, wall = spawn(
        [sys.executable, "-c", "import seiffert_bounds.cli as m; print(m.__file__)"]
    )
    if code != 0 or not Path(out.strip()).is_relative_to(SRC):
        raise BenchError(f"cannot import seiffert_bounds from {SRC}: {out.strip()} {err.strip()}")
    return wall


def percentiles_ms(walls: list[float]) -> tuple[float, float]:
    """Median and 75th percentile (linear interpolation between order statistics)."""
    ms = [w * 1e3 for w in walls]
    p75 = statistics.quantiles(ms, n=4, method="inclusive")[2] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p75


def peak_child_rss_mb() -> float:
    # ru_maxrss of RUSAGE_CHILDREN is the largest max-RSS of any waited-for
    # child (KiB on Linux): exactly "the largest process in the workload".
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- untraced workloads ----------------------------------------------------------------


def end_to_end(setup: list[float], records: list[dict]) -> dict:
    """The end-to-end metrics of a run from its set-up times and operation records."""
    sampled = [r for r in records if r["n_samples"]]
    if not sampled:
        raise BenchError("no verify operation ran; samples_per_s is undefined")
    p50, p75 = percentiles_ms([r["wall_s"] for r in records])
    metrics = {
        "setup_s": statistics.median(setup),
        "samples_per_s": sum(r["n_samples"] for r in sampled) / sum(r["wall_s"] for r in sampled),
        "peak_rss_mb": peak_child_rss_mb(),
        "latency_p50_ms": p50,
        "latency_p75_ms": p75,
    }
    return {"metrics": metrics, "ops": records, "setup_samples_s": setup}


def run_cli_workload(ops, seconds: float, n_ops: int | None, tally: checks.Tally) -> dict:
    """Closed loop over fresh CLI processes.

    With ``n_ops`` the loop runs exactly that many operations; without, it
    runs until ``seconds`` have passed (at least one operation).  Set-up
    samples are taken between operations at evenly spaced points of the run
    (by operation count, or by time); the time they take does not count.
    """
    setup, records = [], []
    start, setup_time = time.perf_counter(), 0.0
    for i, op in enumerate(ops):
        elapsed = time.perf_counter() - start - setup_time
        due = i >= len(setup) * n_ops / SETUP_REPEATS if n_ops else elapsed >= len(setup) * seconds / SETUP_REPEATS
        if len(setup) < SETUP_REPEATS and due:
            setup.append(timed_import())
            setup_time += setup[-1]
        if i == n_ops or (not n_ops and records and elapsed >= seconds):
            break
        code, out, err, wall = spawn(cli_argv(op["argv"]))
        outcome = tally.add(op, lambda: checks.check_cli(op, code, out, err))
        n = sum(s["n_samples"] for s in _verify_suites(op, out))
        records.append({"argv": op["argv"], "rc": code, "wall_s": wall, "n_samples": n, **outcome})
    while len(setup) < SETUP_REPEATS:
        setup.append(timed_import())
    return end_to_end(setup, records)


def _verify_suites(op: dict, stdout: str) -> list[dict]:
    """Suite reports of a verify operation's JSON output (none if it printed none)."""
    if op["kind"] not in ("sweep", "verify"):
        return []
    try:
        return json.loads(stdout)["suites"]
    except (ValueError, KeyError):
        return []


def run_sweep(seed: int, seconds: float, tiny: bool, tally: checks.Tally) -> dict:
    sizes = workloads.TINY_SIZES if tiny else workloads.SIZES
    return run_cli_workload(workloads.sweep_ops(random.Random(seed), sizes), seconds, None, tally)


def run_interactive(seed: int, seconds: float, tiny: bool, tally: checks.Tally) -> dict:
    """One whole deck per started DECK_PER_SECONDS of ``seconds``.

    The count depends on ``seconds`` alone, so every run of the same length
    makes the same number of operations, with the same number of them hitting
    a known defect.  A deck of fresh processes takes about 15 s, so a run
    lasts about 1.5 x ``seconds``; at 25 s that is 45 operations, enough for
    ten of them to lie above latency_p75_ms.
    """
    sizes = workloads.TINY_SIZES if tiny else workloads.SIZES
    n_ops = workloads.DECK_LEN * max(1, math.ceil(seconds / DECK_PER_SECONDS))
    return run_cli_workload(workloads.interactive_ops(random.Random(seed), sizes), seconds, n_ops, tally)


def _probe_worker(seed: int, seconds: float, tiny: bool, setup_only: bool) -> tuple[str, float]:
    """Run one probe worker; return its stdout records and its set-up time.

    The worker stamps ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by all
    processes) when ready, so set-up runs from just before the spawn to there.
    """
    argv = [sys.executable, str(BENCH_DIR / "probe_worker.py"), "--seed", str(seed), "--seconds", str(seconds)]
    argv += ["--setup-only"] * setup_only + ["--tiny"] * tiny
    t0 = time.perf_counter()
    code, out, err, _ = spawn(argv, timeout=seconds + OP_TIMEOUT_S)
    ready, _, records = out.partition("\n")
    try:
        ready = json.loads(ready)
    except ValueError:
        ready = {}
    if code != 0 or "ready_at" not in ready:
        raise BenchError(f"probe worker exited {code}: {err.strip()[-400:]}")
    if not Path(ready["module"]).is_relative_to(SRC):
        raise BenchError(f"probe worker imported {ready['module']}, not the checkout's src/")
    return records, ready["ready_at"] - t0


def run_probe(seed: int, seconds: float, tiny: bool, tally: checks.Tally) -> dict:
    """One measuring worker, with set-up-only workers before and after it."""
    before = SETUP_REPEATS // 2
    setup = [_probe_worker(seed, seconds, tiny, setup_only=True)[1] for _ in range(before)]
    out, s = _probe_worker(seed, seconds, tiny, setup_only=False)
    setup.append(s)
    setup += [_probe_worker(seed, seconds, tiny, setup_only=True)[1] for _ in range(SETUP_REPEATS - 1 - before)]

    records = []
    for line in out.splitlines():
        rec = json.loads(line)
        call = rec.pop("call")
        outcome = tally.add(call, lambda: checks.check_probe(call, rec))
        n = rec.get("result", {}).get("n_samples", 0)
        records.append({"call": call, "wall_s": rec["wall_s"], "n_samples": n, **outcome})
    return end_to_end(setup, records)


WORKLOADS = {"sweep": run_sweep, "interactive": run_interactive, "probe": run_probe}


# -- traced run -------------------------------------------------------------------------


IMPORT_FAMILIES = ("numpy", "scipy", "mpmath")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Layer import costs (ms) from one ``python -X importtime`` report.

    The report lists modules children-first with two spaces of indent per
    nesting level.  A family's cost is the cumulative time of its outermost
    entries that no other reported family imported: numpy submodules that
    scipy pulls in count as scipy's, the share dropping scipy would save.
    """
    stack: list[tuple] = []  # (depth, name, self_us, cumulative_us, children)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name_field = line[len("import time:"):].split("|", 2)
        name = name_field[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop())
        stack.append((depth, name.strip(), int(self_us), int(cum_us), children))
    nodes = stack

    def family(name: str) -> str:
        return name.split(".")[0]

    def family_ms(prefix: str) -> float:
        total, todo = 0, list(nodes)
        while todo:
            _, name, _, cum, children = todo.pop()
            if family(name) == prefix:
                total += cum
            elif family(name) not in IMPORT_FAMILIES:
                todo.extend(children)
        return total / 1e3

    def self_ms(target: str) -> float:
        todo = list(nodes)
        while todo:
            _, name, self_us, _, children = todo.pop()
            if name == target:
                return self_us / 1e3
            todo.extend(children)
        raise BenchError(f"{target} missing from the import-time report")

    metrics = {f"import.{fam}_ms": family_ms(fam) for fam in IMPORT_FAMILIES}
    metrics["import.total_ms"] = sum(cum for _, name, _, cum, _ in nodes if family(name) == "seiffert_bounds") / 1e3
    metrics["import.sharp_self_ms"] = self_ms("seiffert_bounds.sharp")
    return metrics


def import_profile(repeats: int) -> dict[str, float]:
    runs = []
    for _ in range(repeats):
        code, _, err, _ = spawn([sys.executable, "-X", "importtime", "-c", "import seiffert_bounds.cli"])
        if code != 0:
            raise BenchError(f"import failed: {err.strip()[-400:]}")
        runs.append(parse_importtime(err))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def run_traced(workload: str, seed: int, tiny: bool, spans_path: Path) -> dict:
    imports = import_profile(1 if tiny else IMPORT_REPEATS)
    argv = [sys.executable, str(BENCH_DIR / "traced.py"), "--workload", workload,
            "--seed", str(seed), "--spans", str(spans_path)] + ["--tiny"] * tiny
    code, out, err, _ = spawn(argv)
    if code != 0:
        raise BenchError(f"traced run exited {code}: {err.strip()[-800:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["metrics"].update({k: {"value": v, "unit": "ms"} for k, v in imports.items()})
    return doc


# -- provenance and output -------------------------------------------------------------------


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _git_commit() -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(args: argparse.Namespace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "seiffert_bounds").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("numpy", "scipy", "mpmath"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "sizes": workloads.TINY_SIZES if args.tiny else workloads.SIZES,
        "argv": sys.argv,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "seiffert_bounds" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    try:
        build()
        prov = provenance(args)
        print(json.dumps({"provenance": prov}, sort_keys=True))
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            doc = run_traced(args.workload, args.seed, args.tiny, OUT_DIR / f"{stem}-spans.json")
            correct, attempted, failed = doc["correct"], doc["attempted"], doc["failed"]
            metrics = doc["metrics"]
            record = {"provenance": prov, **doc}
        else:
            tally = checks.Tally()
            res = WORKLOADS[args.workload](args.seed, args.seconds, args.tiny, tally)
            correct, attempted, failed = tally.correct, tally.attempted, tally.failed
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()}
            record = {
                "provenance": prov, "metrics": metrics, "ops_failed_ratio": tally.failed_ratio,
                "failures_by_mode": tally.by_mode, "unexpected": tally.unexpected,
                "check_s": tally.check_s, "setup_samples_s": res["setup_samples_s"], "ops": res["ops"],
            }
            print(f"ops_failed_ratio = {tally.failed_ratio:.6g} 1  ({failed} of {attempted} operations; "
                  f"by mode {tally.by_mode}; latency percentiles over {attempted} operations)")
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
