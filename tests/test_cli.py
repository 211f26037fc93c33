"""End-to-end checks of the command-line front end.

Almost everything runs in-process through ``cli.main(argv)`` so exit codes
and stdout/stderr can be asserted directly.  Subprocess tests confirm that the
installed ``zeropack`` console script and ``python -m zeropack`` reach the same
entry point, and that reports do not depend on the BLAS thread count.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zeropack
from zeropack import cli, numerics, sphere
from zeropack.fock import DivergenceError, FockPolynomial, stationary_residual
from zeropack.hyperbolic import DiskFunction, hyperbolic_discrepancy
from zeropack.planar import planar_gaf_truncation, planar_lattice_density
from zeropack.sphere import SphereConfiguration, SphereQuadrature, StepCollapseError, discrepancy


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv, **env):
    """`python -m zeropack argv` in a fresh interpreter that imports this checkout."""
    src = str(Path(zeropack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "zeropack", *argv],
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


class TestParserBasics:
    def test_version_flag_reports_package_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("zeropack ")

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["planar"])
        assert info.value.code == 2

    def test_console_script_is_installed(self):
        exe = shutil.which("zeropack")
        assert exe is not None
        proc = subprocess.run(
            [exe, "--version"], capture_output=True, text=True, check=False
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("zeropack ")

    def test_module_entry_point(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--version"])
        proc = run_module(["--version"])
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out


class TestPlanarCommand:
    def test_stdout_payload(self, capsys):
        code, out, err = run_cli(
            capsys, ["planar", "--beta", "1.0", "--grid", "64"]
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert payload["beta"] == 1.0
        assert payload["grid"] == 64
        assert 0.0 < payload["rho"] < 1.0
        prov = payload["provenance"]
        assert prov["command"] == "planar"
        assert prov["parameters"] == {"beta": 1.0, "grid": 64}
        # no randomness, no parallelism: the block must not claim either
        assert "seed" not in prov and "threads" not in prov

    def test_out_file_matches_stdout_and_is_reproducible(self, capsys, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        code, out, _ = run_cli(capsys, ["planar", "--beta", "2.0", "--grid", "32"])
        assert code == 0
        for path in (path_a, path_b):
            code, silent, _ = run_cli(
                capsys,
                ["planar", "--beta", "2.0", "--grid", "32", "--out", str(path)],
            )
            assert code == 0
            assert silent == ""
        assert path_a.read_bytes() == path_b.read_bytes()
        assert path_a.read_text(encoding="utf-8") == out

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "x.json"
        code, _, err = run_cli(
            capsys, ["planar", "--beta", "1.0", "--grid", "32", "--out", str(target)]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_bad_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["planar", "--beta", "-1.0", "--grid", "32"])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["planar", "curve"])
    def test_oversized_grid_exits_2_before_allocating(self, capsys, tmp_path, command):
        argv = {
            "planar": ["planar", "--beta", "1.0"],
            "curve": ["curve", "--betas", "1,2", "--out", str(tmp_path / "c.csv")],
        }[command]
        code, out, err = run_cli(capsys, [*argv, "--grid", "100000000"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "grid_m" in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("beta", ["inf", "-inf", "nan"])
    def test_nonfinite_beta_is_a_usage_error(self, capsys, beta):
        with pytest.raises(SystemExit) as info:
            cli.main(["planar", f"--beta={beta}", "--grid", "32"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--beta: invalid finite float value" in captured.err


    @pytest.mark.parametrize("command", ["planar", "curve"])
    def test_report_is_independent_of_blas_threads(self, tmp_path, command):
        runs, files = [], []
        for n in ("1", "2"):
            path = tmp_path / f"curve-{n}.csv"
            argv = {
                "planar": ["planar", "--beta", "1", "--grid", "256"],
                "curve": ["curve", "--betas", "0.5,1", "--grid", "128", "--out", str(path)],
            }[command]
            runs.append(run_module(argv, OPENBLAS_NUM_THREADS=n))
            files.append(path.read_bytes() if path.exists() else None)
        assert [proc.returncode for proc in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert files[0] == files[1]


class TestCurveCommand:
    def test_csv_rows_match_library_values(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys,
            ["curve", "--betas", "0.5,1.0", "--grid", "32", "--out", str(path)],
        )
        assert code == 0
        assert out == ""
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "beta,rho,m1,m2,b_opt,error_estimate"
        assert len(lines) == 3
        for line, beta in zip(lines[1:], (0.5, 1.0)):
            fields = [float(tok) for tok in line.split(",")]
            rep = planar_lattice_density(beta, 32)
            # 17 significant digits round-trip doubles exactly
            assert fields == [
                beta, rep.rho, rep.m1, rep.m2, rep.b_opt, rep.error_estimate
            ]

    def test_rewrite_is_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / name for name in ("one.csv", "two.csv")]
        for path in paths:
            code, _, _ = run_cli(
                capsys,
                ["curve", "--betas", "1.0,2.0", "--grid", "32", "--out", str(path)],
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("betas", ["", ",", "1,,2x", "1,inf", "nan"])
    def test_malformed_beta_list_exits_2(self, capsys, tmp_path, betas):
        code, _, err = run_cli(
            capsys,
            ["curve", "--betas", betas, "--grid", "32", "--out", str(tmp_path / "c.csv")],
        )
        assert code == 2
        assert err.startswith("error:")


class TestGafCommand:
    def test_planar_payload_and_determinism(self, capsys):
        argv = [
            "gaf", "--mode", "planar", "--b", "0.8", "--R", "2.0",
            "--trials", "8", "--seed", "5", "--threads", "2",
        ]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        payload = json.loads(first)
        assert payload["mode"] == "planar"
        assert payload["R"] == 2.0
        assert payload["truncation_N"] == planar_gaf_truncation(2.0, 1e-8)
        assert payload["stderr"] > 0.0
        prov = payload["provenance"]
        assert prov["seed"] == 5
        assert prov["threads"] == 2
        code, second, _ = run_cli(capsys, argv)
        assert code == 0
        assert second == first

    def test_mean_independent_of_thread_count(self, capsys):
        means = []
        for threads in ("1", "3"):
            code, out, _ = run_cli(
                capsys,
                [
                    "gaf", "--mode", "hyperbolic", "--b", "1.0", "--r", "0.5",
                    "--trials", "6", "--seed", "9", "--threads", threads,
                ],
            )
            assert code == 0
            means.append(json.loads(out)["mean"])
        assert means[0] == means[1]

    @pytest.mark.parametrize("threads", ["257", "1000000"])
    def test_thread_count_above_cap_exits_2(self, capsys, monkeypatch, threads):
        # Rejected while the flags are resolved, before any worker starts.
        argv = ["gaf", "--mode", "planar", "--b", "1", "--R", "2", "--trials", "400", "--seed", "1"]
        code, out, err = run_cli(capsys, [*argv, "--threads", threads])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "thread count" in err
        monkeypatch.setenv("ZEROPACK_THREADS", threads)
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "ZEROPACK_THREADS" in err

    @pytest.mark.parametrize("mode, extent", [("planar", ["--R", "2"]), ("hyperbolic", ["--r", "0.5"])])
    def test_trial_count_above_cap_exits_2(self, capsys, monkeypatch, mode, extent):
        # Rejected before the trials are queued: no pool, no per-trial work.
        def no_trials(*args, **kwargs):
            raise AssertionError("trials started before the size check")

        monkeypatch.setattr(numerics, "map_indexed", no_trials)
        for trials in (numerics._MAX_TRIALS + 1, 10**12):
            code, out, err = run_cli(
                capsys,
                ["gaf", "--mode", mode, "--b", "1", *extent, "--trials", str(trials), "--seed", "1",
                 "--threads", "2"],
            )
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "trial count" in err

    def test_env_thread_override_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("ZEROPACK_THREADS", "2")
        code, out, _ = run_cli(
            capsys,
            [
                "gaf", "--mode", "planar", "--b", "1.0", "--R", "1.5",
                "--trials", "4", "--seed", "1", "--threads", "5",
            ],
        )
        assert code == 0
        assert json.loads(out)["provenance"]["threads"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaf", "--mode", "planar", "--b", "1.0", "--trials", "4", "--seed", "1"],
            [
                "gaf", "--mode", "planar", "--b", "1.0", "--r", "0.5",
                "--trials", "4", "--seed", "1",
            ],
            ["gaf", "--mode", "hyperbolic", "--b", "1.0", "--trials", "4", "--seed", "1"],
            [
                "gaf", "--mode", "hyperbolic", "--b", "1.0", "--R", "2.0",
                "--trials", "4", "--seed", "1",
            ],
        ],
    )
    def test_extent_flag_must_match_mode(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:")

    def test_planar_nonpositive_amplitude_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["gaf", "--mode", "planar", "--b", "-1", "--R", "2", "--trials", "4", "--seed", "1"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("b", ["nan", "inf"])
    def test_nonfinite_amplitude_is_a_usage_error(self, capsys, b):
        with pytest.raises(SystemExit) as info:
            cli.main(
                ["gaf", "--mode", "planar", "--b", b, "--R", "2", "--trials", "4", "--seed", "1"]
            )
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--b: invalid finite float value" in captured.err

    def test_planar_without_admissible_truncation_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["gaf", "--mode", "planar", "--b", "1", "--R", "1000", "--trials", "4", "--seed", "1"],
        )
        assert code == 2
        assert err.startswith("error:")


class TestSphereCommand:
    def test_static_configuration(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sphere", "--n", "2", "--beta", "1.0", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["iters"] == 0
        assert len(payload["points"]) == 2
        for point in payload["points"]:
            assert sum(x * x for x in point) == pytest.approx(1.0, abs=1e-12)
        assert payload["residual"] > 0.0

    def test_flow_reaches_antipodal_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys, ["sphere", "--n", "2", "--beta", "1.0", "--flow", "--seed", "7"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["iters"] > 0
        assert payload["residual"] < 1e-8
        p, q = payload["points"]
        dot = sum(a * b for a, b in zip(p, q))
        assert dot == pytest.approx(-1.0, abs=1e-6)
        assert payload["provenance"]["parameters"]["flow"] is True

    def test_nonpositive_beta_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["sphere", "--n", "3", "--beta", "-1", "--seed", "1"])
        assert code == 2
        assert err.startswith("error:")

    def test_negative_iteration_cap_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["sphere", "--n", "2", "--beta", "1", "--flow", "--iters", "-1", "--seed", "1"],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "max_iters" in err

    @pytest.mark.parametrize("flow", [[], ["--flow"]], ids=["static", "flow"])
    def test_oversized_configuration_exits_2_before_allocating(self, capsys, monkeypatch, flow):
        # 3000 points on the 131072-node grid would need a 3 GB distance array;
        # the check comes before even the configuration is drawn.
        def no_configuration(*args):
            raise AssertionError("configuration drawn before the size check")

        monkeypatch.setattr(cli, "random_configuration", no_configuration)
        monkeypatch.setattr(sphere, "random_configuration", no_configuration)
        code, out, err = run_cli(capsys, ["sphere", "--n", "3000", "--beta", "1", "--seed", "1", *flow])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "budget" in err

    @pytest.mark.parametrize("flow", [[], ["--flow", "--iters", "3"]], ids=["static", "flow"])
    def test_report_carries_the_library_error_estimate(self, capsys, flow):
        code, out, _ = run_cli(capsys, ["sphere", "--n", "3", "--beta", "1.0", "--seed", "4", *flow])
        assert code == 0
        payload = json.loads(out)
        config = SphereConfiguration(points=np.array(payload["points"]))
        rep = discrepancy(config, 1.0, SphereQuadrature())
        assert math.isfinite(payload["error_estimate"])
        assert payload["error_estimate"] == rep.error_estimate
        assert payload["rho"] == rep.rho

    @pytest.mark.parametrize("flag", [("--step", "2.0"), ("--iters", "50"), ("--tol", "1e-6")])
    def test_flow_flags_require_flow(self, capsys, flag):
        code, _, err = run_cli(
            capsys, ["sphere", "--n", "2", "--beta", "1.0", "--seed", "1", *flag]
        )
        assert code == 2
        assert err.startswith("error:")


class TestHyperbolicCommand:
    def test_value_matches_library_call(self, capsys):
        code, out, _ = run_cli(
            capsys, ["hyperbolic", "--coeffs", "[1.5]", "--r", "0.5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 0
        assert payload["alpha"] == 1.0 and payload["beta"] == 1.0
        assert payload["value"] == hyperbolic_discrepancy(
            DiskFunction(coeffs=(1.5,)), 0.5
        )

    def test_complex_pair_coefficients_parse(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["hyperbolic", "--coeffs", "[[1, 2], [0, 1]]", "--r", "0.6", "--tight"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 1
        assert payload["tight"] is True
        assert payload["value"] > 0.0

    def test_tight_rejects_general_exponents(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hyperbolic", "--coeffs", "[1]", "--r", "0.5", "--tight", "--alpha", "2"],
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coeffs, flags", [("[1e300]", []), ("[1e200]", ["--tight"])], ids=["plain", "tight"]
    )
    def test_overflow_fails_without_a_warning(self, capsys, coeffs, flags):
        code, out, err = run_cli(
            capsys, ["hyperbolic", "--coeffs", coeffs, "--r", "0.5", *flags]
        )
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:")
        assert "RuntimeWarning" not in err and "overflow" in err

    @pytest.mark.parametrize("flags", [[], ["--tight"]], ids=["plain", "tight"])
    def test_report_is_independent_of_blas_threads(self, flags):
        argv = ["hyperbolic", "--coeffs", "[1, 0.3]", "--r", "0.9", *flags]
        runs = [run_module(argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize("coeffs", ["not json", "[]", "42", '["a"]', '[[1]]'])
    def test_malformed_coeffs_exit_2(self, capsys, coeffs):
        code, _, err = run_cli(
            capsys, ["hyperbolic", "--coeffs", coeffs, "--r", "0.5"]
        )
        assert code == 2
        assert err.startswith("error:")


class TestFockCommand:
    def test_projection_of_linear_candidate(self, capsys):
        code, out, _ = run_cli(
            capsys, ["fock", "--coeffs", "[0, 1]", "--omega", "0.25"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "project"
        assert payload["coeffs"][0] == [0.0, 0.0]
        assert payload["coeffs"][1] == pytest.approx([0.25, 0.0], abs=1e-15)
        assert payload["residual"] == pytest.approx(
            stationary_residual(FockPolynomial(coeffs=(0j, 1.0)), 0.25), abs=1e-15
        )

    def test_solve_from_constant_start(self, capsys):
        code, out, _ = run_cli(
            capsys, ["fock", "--coeffs", "[1]", "--omega", "0.5", "--solve"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "solve"
        assert payload["residual"] < 1e-12
        assert payload["iters"] >= 1
        first, rest = payload["coeffs"][0], payload["coeffs"][1:]
        assert abs(complex(*first)) == pytest.approx(1.0, abs=1e-12)
        assert sum(abs(complex(*pair)) for pair in rest) < 1e-12

    def test_iters_requires_solve(self, capsys):
        code, _, err = run_cli(
            capsys, ["fock", "--coeffs", "[1]", "--omega", "0.5", "--iters", "10"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_overflow_exits_3(self, capsys):
        coeffs = json.dumps([0.0] * 128 + [1e250])
        code, _, err = run_cli(
            capsys, ["fock", "--coeffs", coeffs, "--omega", "0.5", "--solve"]
        )
        assert code == 3
        assert err.startswith("numeric failure:")


class TestVerifyCommand:
    def test_report_layout_and_success_exit(self, capsys):
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == [
            "case_iia", "case_iiba", "case_iibb", "final_bound", "rho1", "rho2"
        ]
        for key in ("case_iia", "case_iiba", "case_iibb", "final_bound"):
            entry = payload[key]
            assert sorted(entry) == ["pass", "threshold", "value"]
            assert entry["pass"] is True
            assert entry["value"] > entry["threshold"]
        assert payload["rho1"] > payload["rho2"] > 0.0

    def test_failed_check_exits_3(self, capsys, monkeypatch):
        class _Stub:
            all_pass = False

            def to_json_dict(self):
                return {"stub": {"pass": False, "threshold": 1.0, "value": 0.0}}

        monkeypatch.setattr(cli, "proof_constants_report", lambda: _Stub())
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 3
        assert json.loads(out)["stub"]["pass"] is False


class TestExitCodes:
    @pytest.mark.parametrize(
        "target, error, argv",
        [
            (
                "gradient_flow",
                StepCollapseError("points merged during flow"),
                ["sphere", "--n", "2", "--beta", "1", "--flow", "--seed", "1"],
            ),
            (
                "fixed_point_solve",
                DivergenceError("residual diverged", [1.0, 10.0]),
                ["fock", "--coeffs", "[0, 1]", "--omega", "0.25", "--solve"],
            ),
        ],
        ids=["step_collapse", "divergence"],
    )
    def test_solver_failure_exits_3(self, capsys, monkeypatch, target, error, argv):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, fail)
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:")
