"""CLI surface: subcommands, formats, exit codes, determinism."""

import csv
import io
import json
import math
import os
import re
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
            (["verify", "chain", "--samples", "100", "--ratio-max", "1.00001"], "1 + 2e-5"),
            (["verify", "all", "--samples", "100", "--ratio-max", "1.00001"], "1 + 2e-5"),
            (["eval", "seiffert", "1", "3", "--x", "0.7"], "--x"),
            (["eval", "power", "1", "3", "--p", "2", "--x", "0.7"], "--x"),
            (["eval", "blend", "1", "3", "--x", "0.75", "--p", "2"], "--p"),
        ],
    )
    def test_exit_2(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and needle in err and err.count("\n") == 1

    @pytest.mark.parametrize("kw", [{"alpha1": math.nan}, {"beta1": math.inf}, {"beta1": -math.inf}])
    def test_ratio_constants_must_be_finite(self, kw):
        from seiffert_bounds.errors import DomainError
        from seiffert_bounds.sharp import verify_ratio_bounds

        with pytest.raises(DomainError):
            verify_ratio_bounds(100, **kw)

    def test_seed_zero_and_large_ratio_max_still_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "chain", "--samples", "100", "--seed", "0", "--ratio-max", "1e300",
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["suites"][0]["pass"] is True


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
    """``verify all`` in forked lanes prints what one process prints."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """Lanes from one sample on; returns the pids forked so far."""
        monkeypatch.setattr(cli, "_LANE_MIN_SAMPLES", 1)
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
        argv = ["verify", "all", "--samples", "20000", "--seed", "5", "--format", fmt, *shift]
        runs = {}
        for cpus in (1, 2, 4):
            monkeypatch.setattr(cli, "_cpus", lambda: cpus)
            del forks[:]
            runs[cpus] = run_cli(capsys, *argv)
            assert len(forks) == cpus - 1
            self.assert_no_child_left()
        assert runs[1][0] == code and runs[1][1] and runs[1][2] == ""
        assert runs[2] == runs[1] and runs[4] == runs[1]

    @pytest.mark.parametrize(
        "order", [cli._COST_ORDER, ("thm1", "thm2", "priors", "chain")], ids=["own-lane", "child-lane"]
    )
    def test_suite_error_exits_2(self, capsys, monkeypatch, forks, order):
        # a chain that raises: with two lanes it runs in this process under
        # the cost order and in the child under the other
        def failing_chain(*args, **kw):
            raise DomainError("planted chain error")

        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_COST_ORDER", order)
        monkeypatch.setattr(cli.sharp, "verify_ordering_chain", failing_chain)
        code, out, err = run_cli(capsys, "verify", "all", "--samples", "2000")
        assert len(forks) == 1
        assert code == 2 and out == ""
        assert err == "error: planted chain error\n"
        self.assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("which", ["chain", "all"])
    def test_chain_range_rejected_before_any_suite_runs(self, capsys, monkeypatch, forks, cpus, which):
        def no_fork():
            raise AssertionError("forked")

        def not_run(*args, **kw):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        for name in ("verify_blend_bounds", "verify_ratio_bounds", "verify_prior_bounds", "verify_ordering_chain"):
            monkeypatch.setattr(cli.sharp, name, not_run)
        code, out, err = run_cli(capsys, "verify", which, "--samples", "2000", "--ratio-max", "1.00001")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "1 + 2e-5" in err and err.count("\n") == 1

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
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        if min_samples is not None:
            monkeypatch.setattr(cli, "_LANE_MIN_SAMPLES", min_samples)
        code, out, _ = run_cli(capsys, "verify", *argv, "--samples", "5000")
        assert code == 0 and "PASS" in out


@pytest.mark.parametrize(
    "args, returncode",
    [
        (["-c", "import seiffert_bounds"], 0),
        (["-c", "import seiffert_bounds.cli"], 0),
        (["-m", "seiffert_bounds.cli", "eval", "seiffert", "1", "3"], 0),
        (["-m", "seiffert_bounds.cli", "eval", "power", "1", "3", "--p", "2", "--oracle"], 0),
        (["-m", "seiffert_bounds.cli", "series", "ratio", "--format", "json"], 0),
        (["-m", "seiffert_bounds.cli", "eval", "blend", "1", "3"], 2),
    ],
    ids=["import-package", "import-cli", "eval", "eval-oracle", "series", "usage-error"],
)
def test_small_commands_leave_numpy_out(args, returncode):
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
