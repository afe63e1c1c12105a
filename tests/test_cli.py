"""CLI surface: subcommands, formats, exit codes, determinism."""

import csv
import gc
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from seiffert_bounds import DomainError, cli
from seiffert_bounds.cli import main

LAMBDA_REF = 0.9526915711070529


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_arithmetic(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "arithmetic", "1", "3")
        assert code == 0
        assert float(out) == 2.0

    def test_seiffert(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "seiffert", "1", "3")
        assert code == 0
        assert float(out) == pytest.approx(2.15681043229161, rel=1e-15)

    def test_blend(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "blend", "1", "3", "--x", "0.75")
        assert code == 0
        assert float(out) == pytest.approx(49 / 24, rel=1e-14)

    def test_power(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "power", "1", "3", "--p", "2")
        assert code == 0
        assert float(out) == pytest.approx(math.sqrt(5), rel=1e-14)

    def test_power_without_exponent_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "power", "1", "3")
        assert code == 2
        assert "error" in err

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "seiffert", "-1", "3")
        assert code == 2
        assert "positive" in err

    def test_blend_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "blend", "1", "3", "--x", "0.2")
        assert code == 2

    def test_smallest_subnormal_diagonal(self, capsys):
        # both halves of the pair round to 0: the diagonal must still give a
        assert run_cli(capsys, "eval", "seiffert", "5e-324", "5e-324") == (0, "5e-324\n", "")

    def test_oracle_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "seiffert", "1", "3", "--oracle", "--precision", "30"
        )
        assert code == 0
        assert out.strip().startswith("2.156810432291609984")


class TestVerify:
    def test_thm2_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm2", "--samples", "100000", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1
        (suite,) = rep["suites"]
        assert suite["suite"] == "thm2" and suite["pass"] is True
        assert abs(suite["inf"] - (4 / math.pi - 1)) < 1e-5
        assert abs(suite["sup"] - 1 / 3) < 1e-5
        assert suite["witness"] is None

    def test_thm1_alpha_shift_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm1", "--samples", "5000", "--alpha-shift", "1e-4",
            "--format", "json",
        )
        assert code == 1
        (suite,) = json.loads(out)["suites"]
        assert suite["pass"] is False
        assert suite["witness"]["ratio"] > 1.0

    def test_chain(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "chain", "--samples", "5000")
        assert code == 0
        assert "suite chain: PASS" in out

    def test_all(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "all", "--samples", "5000", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert [s["suite"] for s in rep["suites"]] == ["chain", "priors", "thm1", "thm2"]
        assert all(s["pass"] for s in rep["suites"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "thm1", "--samples", "2000", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["name"] == "thm1"
        assert set(rows[0]) == {"name", "closed_form", "discovered", "gap", "witness_ratio", "slack"}

    @pytest.mark.parametrize("row", [0, 1], ids=["left", "right"])
    def test_csv_slack_is_nan_when_either_slack_is(self, capsys, monkeypatch, row):
        # the kernel's r (left slack) or 1/3 - r (right slack) planted NaN at
        # one sample; min(a, nan) is a, so the NaN must come through either way
        from seiffert_bounds import sharp

        original = sharp._ratio_kernel

        def planted(t, **kw):
            rows = original(t, **kw)
            rows[row][len(t) // 3] = math.nan
            return rows

        monkeypatch.setattr(sharp, "_ratio_kernel", planted)
        code, out, _ = run_cli(capsys, "verify", "thm2", "--samples", "3000", "--format", "csv")
        assert code == 1
        (report,) = csv.DictReader(io.StringIO(out))
        assert report["slack"] == "nan"
        code, out, _ = run_cli(capsys, "verify", "thm2", "--samples", "3000", "--format", "json")
        (suite,) = json.loads(out)["suites"]
        assert math.isnan(suite["min_slack_left" if row == 0 else "min_slack_right"])

    def test_bad_samples_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "thm1", "--samples", "0")
        assert code == 2

    def test_deterministic_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "thm1", "--samples", "3000", "--seed", "7", "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "thm1", "--samples", "3000", "--seed", "7", "--format", "json")
        assert out1 == out2


class TestConstants:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        assert "blend_alpha" in out and "ratio_beta" in out

    def test_plain_witness_ratio_is_the_reported_double(self, capsys):
        # ratio_beta's witness lies at a/b ≈ 1.000002, which six digits round to 1
        _, out, _ = run_cli(capsys, "constants", "--format", "json")
        ratios = [json.loads(line)["witness"]["ratio"] for line in out.splitlines()]
        _, out, _ = run_cli(capsys, "constants")
        assert re.findall(r" a/b=(\S+) ", out) == [repr(x) for x in ratios]

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--format", "json")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(recs) == 4
        by_name = {r["name"]: r for r in recs}
        assert by_name["blend_alpha"]["gap"] < 1e-12
        assert by_name["ratio_alpha"]["closed_form"] == pytest.approx(4 / math.pi - 1, rel=1e-15)
        assert by_name["ratio_beta"]["closed_form"] == pytest.approx(1 / 3, rel=1e-15)
        assert all(r["schema"] == 1 for r in recs)
        assert all(r["gap"] <= 1e-10 for r in recs)

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["name"] for r in rows] == ["blend_alpha", "blend_beta", "ratio_alpha", "ratio_beta"]


class TestSeries:
    def test_bernoulli_rows(self, capsys):
        code, out, _ = run_cli(capsys, "series", "bernoulli", "--order", "3")
        assert code == 0
        assert "n=1: 1/6" in out and "n=2: -1/30" in out and "n=3: 1/42" in out

    def test_ratio_leading_row(self, capsys):
        code, out, _ = run_cli(capsys, "series", "ratio", "--order", "2")
        assert code == 0
        assert "n=1: -2/3" in out

    def test_order_range_error(self, capsys):
        code, _, err = run_cli(capsys, "series", "cot", "--order", "61")
        assert code == 2
        assert "order" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "series", "csc2", "--order", "5", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["schema"] == 1 and len(rep["terms"]) == 5
        assert rep["terms"][0] == {"n": 1, "coefficient": "1/3"}
        assert rep["tail_bound"] > 0.0


class TestCertify:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        pts = rep["critical_points"]
        assert 1.0 < pts["t0"] < pts["t1"] < pts["t2"] < pts["t3"]
        assert rep["gap_negative_on_grid"] is True
        assert abs(rep["gap_at_1e8"]) < 1e-6
        assert "bracket_width" not in pts
        assert rep["proof"] == {
            "pi_bounds": ["223/71", "22/7"],
            "u": ["-1/22", "-10/223"],
            "c1": ["45/121", "18909/49729"],
            "signs": True,
            "identity_exact": True,
        }


class TestHardenedInputs:
    """Invalid knobs exit 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["verify", "thm2", "--samples", "100", "--seed", "-1"], "seed"),
            (["verify", "thm2", "--samples", "100", "--ratio-max", "inf"], "ratio-max"),
            (["verify", "all", "--samples", "100", "--ratio-max", "nan"], "ratio-max"),
            (["eval", "seiffert", "1.0", "3.0", "--oracle", "--precision", "0"], "precision"),
            (["verify", "thm2", "--samples", "100", "--alpha-shift", "nan"], "alpha1"),
            (["verify", "thm2", "--samples", "100", "--beta-shift", "nan"], "beta1"),
            (["verify", "thm9"], "thm9"),
            (["constants", "--precision", "5"], "--precision"),
            (["verify", "chain", "--samples", "100", "--ratio-max", "1"], "ratio-max"),
            (["verify", "all", "--samples", "100", "--ratio-max", "0.5"], "ratio-max"),
            (["eval", "seiffert", "1", "3", "--x", "0.7"], "--x"),
            (["eval", "power", "1", "3", "--p", "2", "--x", "0.7"], "--x"),
            (["eval", "blend", "1", "3", "--x", "0.75", "--p", "2"], "--p"),
            (["verify", "chain", "--samples", "1000", "--alpha-shift", "0.5"], "--alpha-shift"),
            (["verify", "chain", "--samples", "1000", "--beta-shift=-1e-3"], "--beta-shift"),
            (["verify", "priors", "--samples", "1000", "--alpha-shift=1e-4"], "--alpha-shift"),
            (["verify", "priors", "--samples", "1000", "--beta-shift", "nan"], "--beta-shift"),
            (["eval", "seiffert", "1.0", "3.0", "--oracle", "--precision", "10001"], "precision"),
            (["eval", "seiffert", "1", "3", "--precision", "5"], "--precision"),
        ],
    )
    def test_exit_2(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and needle in err and err.count("\n") == 1

    @pytest.mark.parametrize("which", ["chain", "all"])
    def test_near_diagonal_ratio_max_runs(self, capsys, which):
        # no suite, the chain included, has a ratio floor above 1
        code, out, err = run_cli(capsys, "verify", which, "--samples", "100", "--ratio-max", "1.00001")
        assert code == 0 and err == ""
        assert out.count("PASS") == (4 if which == "all" else 1) and "FAIL" not in out

    @pytest.mark.parametrize("kw", [{"alpha1": math.nan}, {"beta1": math.inf}, {"beta1": -math.inf}])
    def test_ratio_constants_must_be_finite(self, kw):
        from seiffert_bounds.errors import DomainError
        from seiffert_bounds.sharp import verify_ratio_bounds

        with pytest.raises(DomainError):
            verify_ratio_bounds(100, **kw)

    def test_seed_zero_and_large_ratio_max_still_run(self, capsys):
        argv = ["verify", "chain", "--samples", "100", "--seed", "0", "--ratio-max", "1e300"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["suites"][0]["pass"] is True
        # the chain samples the whole range, as every suite does, and the plain
        # report prints each argument in full: next to the diagonal it does
        # not read as a/b=1
        near = ["verify", "chain", "--samples", "500000", "--ratio-max", "1.00001"]
        for cmd, ratio_max in (argv, 1e300), (near, 1.00001):
            code, out, _ = run_cli(capsys, *cmd)
            ratios = [float(x) for x in re.findall(r"at a/b=(\S+)\)", out)]
            assert code == 0 and len(ratios) == 2
            assert all(1.0 < x <= ratio_max for x in ratios), out


class TestProfileRange:
    """Means far from 1 in magnitude: no raw square overflows or underflows."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["seiffert", "1e308", "1e308"],
            ["centroidal", "1e200", "3e199"],
            ["root-square", "1e300", "1e299"],
            ["blend", "1e300", "3e299", "--x", "0.8"],
            ["geometric", "1e-200", "3e-200"],
        ],
    )
    def test_eval_matches_oracle(self, capsys, argv):
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 0
        code, ref, _ = run_cli(capsys, "eval", *argv, "--oracle", "--precision", "40")
        assert code == 0
        got, ref = float(out), float(mp.mpf(ref.strip()))
        assert math.isfinite(got) and abs(got - ref) <= 4 * math.ulp(ref)

    def test_oracle_power_digits_far_from_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "power", "1e250", "3e250", "--p=3", "--oracle", "--precision", "30"
        )
        assert code == 0
        with mp.workdps(60):
            a, b = mp.mpf(1e250), mp.mpf(3e250)
            ref = ((a**3 + b**3) / 2) ** (1 / mp.mpf(3))
            assert abs(mp.mpf(out.strip()) - ref) / ref <= mp.mpf(10) ** (1 - 30)


class TestLanes:
    """``verify`` in forked lanes prints what one process prints."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Lanes from one sample on; returns the pids forked so far."""
        monkeypatch.setattr(cli.sharp, "_LANE_MIN_SAMPLES", 1)
        pids = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("fmt", ["json", "plain", "csv"])
    @pytest.mark.parametrize("shift, code", [([], 0), (["--alpha-shift=1e-4"], 1)])
    def test_same_output_as_one_lane(self, capsys, monkeypatch, forks, fmt, shift, code):
        # four blocks, so that up to four lanes each take a range of them;
        # the serial run calls each verifier once, below the lane threshold
        monkeypatch.setattr(cli.sharp, "_BLOCK", 5_000)
        argv = ["verify", "all", "--samples", "20000", "--seed", "5", "--format", fmt, *shift]
        runs = {}
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(cli.sharp, "_cpus", lambda: cpus)
            del forks[:]
            runs[cpus] = run_cli(capsys, *argv)
            assert len(forks) == cpus - 1
            self.assert_no_child_left()
        monkeypatch.setattr(cli.sharp, "_LANE_MIN_SAMPLES", 20_001)
        del forks[:]
        serial = run_cli(capsys, *argv)
        assert forks == []
        assert serial[0] == code and serial[1] and serial[2] == ""
        assert all(run == serial for run in runs.values())

    @pytest.mark.parametrize(
        "lane, message",
        [("own-lane", "planted error"), ("child-lane", "planted error"),
         ("child-lane", "planted error " + "x" * (256 << 10))],
        ids=["own-lane", "child-lane", "child-lane-256KiB"],
    )
    def test_suite_error_exits_2(self, capsys, monkeypatch, forks, lane, message):
        # a block stream that raises over one of two ranges: [0, 1000), run
        # in this process, or [1000, 2000), run in the child; a 256 KiB
        # message takes the reply past a pipe buffer, into several reads
        original = cli.sharp._ratio_blocks

        def planted(seed, samples, ratio_max, start, stop, *pool):
            if (start == 0) == (lane == "own-lane"):
                raise DomainError(message)
            return original(seed, samples, ratio_max, start, stop, *pool)

        monkeypatch.setattr(cli.sharp, "_BLOCK", 1_000)
        monkeypatch.setattr(cli.sharp, "_cpus", lambda: 2)
        monkeypatch.setattr(cli.sharp, "_ratio_blocks", planted)
        code, out, err = run_cli(capsys, "verify", "all", "--samples", "2000")
        assert len(forks) == 1
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        self.assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("samples, serial", [(5_000, False), (4_999, True)], ids=["shared", "serial"])
    def test_each_verifier_once_below_the_threshold(self, capsys, monkeypatch, forks, cpus, samples, serial):
        # below the lane threshold each suite runs through its public
        # verifier, once, and so through one driver call in one lane; from it
        # on no verifier runs, only one driver call in a lane per CPU
        calls, runs = [], []

        def counted(name):
            original = getattr(cli.sharp, name)

            def verify(*args, **kw):
                calls.append(name)
                return original(*args, **kw)

            return verify

        def run(suites, *args, _run=cli.sharp._run):
            runs.append([name for name, _ in suites])
            return _run(suites, *args)

        for name in cli._VERIFIERS.values():
            monkeypatch.setattr(cli.sharp, name, counted(name))
        monkeypatch.setattr(cli.sharp, "_run", run)
        monkeypatch.setattr(cli.sharp, "_BLOCK", 2_500)
        monkeypatch.setattr(cli.sharp, "_LANE_MIN_SAMPLES", 5_000)
        monkeypatch.setattr(cli.sharp, "_cpus", lambda: cpus)
        code, out, _ = run_cli(capsys, "verify", "all", "--samples", str(samples))
        assert code == 0 and out.count("PASS") == 4
        if serial:
            assert sorted(calls) == sorted(cli._VERIFIERS.values())
            assert sorted(runs) == [[name] for name in sorted(cli._SUITES)]
            assert forks == []
        else:
            assert calls == []
            assert runs == [list(cli._SUITES)]
            assert len(forks) == cpus - 1  # a child lane runs its range, not _run
        self.assert_no_child_left()

    @pytest.mark.parametrize("crash", ["killed", "unpicklable"])
    def test_crashed_lane_exits_3(self, capsys, monkeypatch, forks, crash):
        # the child lane over [1000, 2000) ends without a result: killed by
        # a signal, or raising an exception that does not pickle
        original = cli.sharp._ratio_blocks

        def planted(seed, samples, ratio_max, start, stop, *pool):
            if start == 1_000:
                if crash == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise DomainError(lambda: "no pickle")
            return original(seed, samples, ratio_max, start, stop, *pool)

        monkeypatch.setattr(cli.sharp, "_BLOCK", 1_000)
        monkeypatch.setattr(cli.sharp, "_cpus", lambda: 2)
        monkeypatch.setattr(cli.sharp, "_ratio_blocks", planted)
        code, out, err = run_cli(capsys, "verify", "all", "--samples", "2000")
        status = int(signal.SIGKILL) if crash == "killed" else 1 << 8  # the child exits 1
        assert len(forks) == 1
        assert code == 3 and out == ""
        assert err == f"error: the lane over samples [1000, 2000) ended without a result (wait status {status})\n"
        self.assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("which", ["chain", "all"])
    def test_near_diagonal_range_runs(self, capsys, monkeypatch, forks, cpus, which):
        # every suite, the chain too, samples (1, ratio-max], however close
        # to 1 ratio-max is; a single suite and verify all alike in one lane
        # per CPU
        monkeypatch.setattr(cli.sharp, "_BLOCK", 1_000)
        monkeypatch.setattr(cli.sharp, "_cpus", lambda: cpus)
        code, out, err = run_cli(capsys, "verify", which, "--samples", "2000", "--ratio-max", "1.00001")
        assert code == 0 and err == ""
        assert out.count("PASS") == (4 if which == "all" else 1)
        assert len(forks) == cpus - 1
        ratios = [float(x) for x in re.findall(r"at a/b=(\S+)\)", out)]
        assert ratios and all(1.0 < x <= 1.00001 for x in ratios)
        self.assert_no_child_left()

    @pytest.mark.parametrize(
        "cpus, min_samples, argv",
        [
            (1, 1, ["all"]),
            (2, None, ["all"]),
            (4, 1, ["thm1"]),
        ],
        ids=["one-cpu", "below-threshold", "one-suite"],
    )
    def test_one_lane_never_forks(self, capsys, monkeypatch, cpus, min_samples, argv):
        # 5,000 samples are one block, so a run that may take four lanes
        # takes one (one-suite)
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(cli.sharp, "_cpus", lambda: cpus)
        if min_samples is not None:
            monkeypatch.setattr(cli.sharp, "_LANE_MIN_SAMPLES", min_samples)
        code, out, _ = run_cli(capsys, "verify", *argv, "--samples", "5000")
        assert code == 0 and "PASS" in out


@pytest.mark.parametrize(
    "args, returncode, exact",
    [
        (["-c", "import seiffert_bounds"], 0, False),
        (["-c", "import seiffert_bounds.cli"], 0, False),
        (["-c", "import seiffert_bounds.means, seiffert_bounds.sharp, "
                "seiffert_bounds.auxiliary, seiffert_bounds.series"], 0, True),
        (["-m", "seiffert_bounds.cli", "eval", "seiffert", "1", "3"], 0, False),
        (["-m", "seiffert_bounds.cli", "eval", "power", "1", "3", "--p", "2", "--oracle"], 0, False),
        (["-m", "seiffert_bounds.cli", "series", "ratio", "--format", "json"], 0, True),
        (["-m", "seiffert_bounds.cli", "eval", "blend", "1", "3"], 2, False),
        *((["-m", "seiffert_bounds.cli", "constants", "--format", fmt], 0, False) for fmt in ("json", "csv", "plain")),
        *((["-m", "seiffert_bounds.cli", "certify", "--format", fmt], 0, True) for fmt in ("json", "plain")),
        (["-c", "from seiffert_bounds import cot_series, csc2_series; "
                "cot_series(0.5, 40); csc2_series(0.5, 40)"], 0, True),
    ],
    ids=[
        "import-package", "import-cli", "import-modules", "eval", "eval-oracle", "series", "usage-error",
        "constants-json", "constants-csv", "constants-plain", "certify-json", "certify-plain", "series-sums",
    ],
)
def test_small_commands_leave_numpy_out(args, returncode, exact):
    # -X importtime names every module the process imports on stderr
    out = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
    assert out.returncode == returncode, out.stderr
    imported = {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in out.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "seiffert_bounds" in imported
    assert not imported & {"numpy", "scipy"}
    # the records are named tuples, so nothing loads dataclasses and the
    # inspect, ast and dis it imports; only the commands whose job is exact
    # arithmetic load fractions (and decimal with it)
    assert not imported & {"dataclasses", "inspect"}
    assert exact or not imported & {"fractions", "decimal"}


def test_cli_import_and_verify_leave_mpmath_out():
    # only `eval --oracle` and zeta_even need mpmath
    code = (
        "import contextlib, io, sys, seiffert_bounds.cli as cli\n"
        "loaded = 'mpmath' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['verify', 'thm1', '--samples', '100'])\n"
        "print(loaded, rc, 'mpmath' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "False 0 False"


def test_readme_eval_examples(capsys):
    # every `seiffert-bounds eval` line of the README with its printed value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = re.findall(r"^seiffert-bounds (eval .*?)\s+# (\S+)$", readme, re.M)
    assert len(examples) == 4
    for command, printed in examples:
        assert run_cli(capsys, *command.split()) == (0, printed + "\n", ""), command


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "seiffert_bounds.cli", "eval", "arithmetic", "1", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert float(out.stdout) == 2.0
    # the installed script enters where `python -m` does
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'seiffert-bounds = "seiffert_bounds.cli:run"' in pyproject


def cli_process(argv, *, unbuffered=False, stdout=subprocess.PIPE, prog=("-m", "seiffert_bounds.cli")):
    """Run the CLI in a fresh process with ``PYTHONUNBUFFERED`` set or unset;
    returns the completed process, its output as bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *prog, *argv], stdout=stdout, stderr=subprocess.PIPE, env=env)


class TestProcessEntry:
    """``python -m seiffert_bounds.cli`` and ``seiffert-bounds`` run through
    ``cli.run``: the GC off and no interpreter teardown, nothing else changed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "seiffert", "1", "3"],
            ["eval", "power", "1", "3", "--p", "0.5", "--oracle", "--precision", "30"],
            ["verify", "thm2", "--samples", "20000", "--format", "json"],
            ["verify", "all", "--samples", "20000", "--format", "csv"],
            ["verify", "thm1", "--samples", "20000", "--alpha-shift=1e-4"],
            ["constants", "--format", "csv"],
            ["series", "ratio", "--order", "8"],
            ["certify"],
            ["verify", "thm9"],
            ["eval", "seiffert", "-1", "3"],
            ["--help"],
            ["verify", "--help"],
            ["eval", "-h"],
        ],
        ids=["eval", "eval-oracle", "verify", "verify-all", "verify-fails", "constants", "series", "certify",
             "usage-error", "domain-error", "help", "verify-help", "eval-help"],
    )
    def test_same_bytes_as_main(self, capsys, argv):
        # stdout is a block-buffered pipe, so the report reaches it only at
        # run's final flush
        proc = cli_process(argv)
        code, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)

    def test_atexit_handlers_run(self):
        prog = ("-c", "import atexit; atexit.register(print, 'atexit ran'); "
                      "from seiffert_bounds.cli import run; run()")
        proc = cli_process(["eval", "arithmetic", "1", "3"], prog=prog)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"2.0\natexit ran\n", b"")

    def test_exception_escaping_main_ends_with_a_traceback(self):
        prog = ("-c", "from seiffert_bounds import cli; cli.main = lambda: 1 // 0; cli.run()")
        proc = cli_process([], prog=prog)
        assert proc.returncode == 1 and proc.stdout == b""
        assert proc.stderr.startswith(b"Traceback")
        assert proc.stderr.endswith(b"ZeroDivisionError: integer division or modulo by zero\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["eval", "seiffert", "1", "3"], ["verify", "all", "--samples", "100000", "--format", "plain"]],
        ids=["eval", "verify-all"],
    )
    def test_closed_pipe_exits_3(self, argv, unbuffered):
        # a pipe whose reader has gone before the first write: every write
        # fails, in print when unbuffered, at run's final flush when buffered
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = cli_process(argv, unbuffered=unbuffered, stdout=write_fd)
        finally:
            os.close(write_fd)
        assert (proc.returncode, proc.stderr) == (3, b"error: [Errno 32] Broken pipe\n")

    def test_no_stdout_fd(self):
        # started with fd 1 closed, Python sets sys.stdout to None and print
        # writes nothing; the run still succeeds
        proc = subprocess.run(
            [sys.executable, "-m", "seiffert_bounds.cli", "eval", "seiffert", "1", "3"],
            stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux's")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["constants"], ["eval", "seiffert", "1", "3"]], ids=["constants", "eval"])
    def test_full_disk_exits_3(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = cli_process(argv, unbuffered=unbuffered, stdout=full)
        assert (proc.returncode, proc.stderr) == (3, b"error: [Errno 28] No space left on device\n")


@pytest.fixture
def gc_restored():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def unreachable_after(call) -> int:
    """Objects the cyclic GC finds unreachable after ``call()`` ran with it off."""
    gc.collect()
    gc.disable()
    call()
    return gc.collect()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "seiffert", "1", "3"],
        ["eval", "seiffert", "1", "3", "--oracle"],
        ["constants"],
        ["certify"],
        ["series", "ratio"],
        ["verify", "thm1", "--samples", "20000", "--alpha-shift=1e-4"],
        ["verify", "all", "--samples", "20000"],
        ["verify", "all", "--samples", str(1 << 20)],
        ["verify", "thm9"],
    ],
    ids=["eval", "eval-oracle", "constants", "certify", "series", "verify-fails", "verify-all", "verify-all-lanes",
         "usage-error"],
)
def test_gc_off_leaves_only_the_parser(capsys, gc_restored, argv):
    # cli.run turns the cyclic GC off for the whole process; this bounds what
    # it leaves: each command's cyclic garbage is that of its argparse parser,
    # whatever the sample count, in forked lanes too.  The first call imports
    # and fills caches, which the process does once.
    gc.enable()
    main(argv)
    assert gc.isenabled()
    parser = unreachable_after(cli.build_parser)
    assert unreachable_after(lambda: main(argv)) == parser
    assert not gc.isenabled()
    capsys.readouterr()
