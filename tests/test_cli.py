"""End-to-end checks of the command-line front end.

Almost everything runs in-process through ``cli.main(argv)`` so exit codes
and stdout/stderr can be asserted directly.  Subprocess tests confirm that the
``zeropack`` console script, ``python -m zeropack`` and ``python -m zeropack.cli``
reach the same entry point, and that reports do not depend on the BLAS thread count.  The console
script is checked without being installed: the test starts the entry point
declared in ``[project.scripts]`` as the installed wrapper does, and also runs
the installed script wherever one is on ``PATH``.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import SRC, checkout_env
from zeropack import cli, fock, numerics, proof, sphere
from zeropack.fock import DivergenceError, FockPolynomial, stationary_residual
from zeropack.hyperbolic import DiskFunction, hyperbolic_discrepancy, tight_discrepancy
from zeropack.planar import planar_gaf_truncation, planar_lattice_density
from zeropack.sphere import SphereConfiguration, SphereQuadrature, StepCollapseError, discrepancy


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv, module="zeropack", **env):
    """`python -m module argv` in a fresh interpreter that imports this checkout."""
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
        env=checkout_env(**env),
    )


def console_script_target():
    """The ``zeropack`` target of ``[project.scripts]``, e.g. ``zeropack.cli:main``.

    Read from the checkout's ``pyproject.toml``; on Python 3.10, which has no
    ``tomllib``, from the installed package metadata instead.
    """
    if sys.version_info < (3, 11):
        from importlib.metadata import entry_points

        installed = entry_points(group="console_scripts", name="zeropack")
        if installed:
            return next(iter(installed)).value
    tomllib = pytest.importorskip("tomllib")
    with (SRC.parent / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["zeropack"]


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
        """The ``zeropack`` console script prints its version and exits 0.

        Starts the entry point declared in ``[project.scripts]`` as the
        installed wrapper does, so no install is needed, and also runs the
        installed script wherever one is on ``PATH``.
        """
        wrapper = (
            "import sys; from importlib.metadata import EntryPoint; "
            f"main = EntryPoint('zeropack', {console_script_target()!r}, "
            "'console_scripts').load(); sys.argv[0] = 'zeropack'; sys.exit(main())"
        )
        runs = [([sys.executable, "-c", wrapper], checkout_env())]
        exe = shutil.which("zeropack")
        if exe is not None:
            runs.append(([exe], None))
        for command, env in runs:
            proc = subprocess.run(
                [*command, "--version"],
                capture_output=True,
                text=True,
                check=False,
                timeout=120,
                env=env,
            )
            assert proc.returncode == 0, (command, proc.stderr)
            assert proc.stdout.startswith("zeropack "), (command, proc.stdout)

    def test_module_entry_point(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--version"])
        version = capsys.readouterr().out
        # `python -m zeropack.cli` is the form the benchmark harness starts
        for module in ("zeropack", "zeropack.cli"):
            proc = run_module(["--version"], module=module)
            assert proc.returncode == 0, module
            assert proc.stdout == version, module


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

    def test_grids_17_and_24_give_one_report(self, capsys, tmp_path):
        # --grid rounds up to a multiple of 8, so both run the 3-24 ladder: stdout differs
        # only in the two echoes of the grid, and the curve CSV, which has none, not at all.
        outs = {}
        for grid in (17, 24):
            code, outs[grid], err = run_cli(capsys, ["planar", "--beta", "1.0", "--grid", str(grid)])
            assert code == 0 and err == ""
            code, _, _ = run_cli(capsys, ["curve", "--betas", "0.5,1.0", "--grid", str(grid),
                                          "--out", str(tmp_path / f"{grid}.csv")])
            assert code == 0
        assert outs[17].count('"grid": 17') == 2
        assert outs[17].replace('"grid": 17', '"grid": 24').encode() == outs[24].encode()
        assert (tmp_path / "17.csv").read_bytes() == (tmp_path / "24.csv").read_bytes()

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

    @pytest.mark.filterwarnings("error")
    def test_underflowing_moment_exits_3_without_a_warning(self, capsys):
        code, out, err = run_cli(capsys, ["planar", "--beta", "500", "--grid", "256"])
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure:") and "underflow" in err and "500" in err
        assert "Traceback" not in err and "Warning" not in err


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

    @pytest.mark.filterwarnings("error")
    def test_planar_beyond_double_range_of_the_series(self, capsys):
        # From R = 27 on the series terms alone overflow a double; the envelope keeps them in range.
        argv = ["gaf", "--mode", "planar", "--b", "0.886", "--R", "27", "--trials", "2", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["truncation_N"] == planar_gaf_truncation(27.0)
        assert 0.0 < payload["mean"] < 1.0

    @pytest.mark.filterwarnings("error")
    def test_planar_radius_whose_square_underflows(self, capsys):
        argv = ["gaf", "--mode", "planar", "--b", "0.9", "--R", "1e-300", "--trials", "2", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert math.isfinite(json.loads(out)["mean"])

    @pytest.mark.parametrize("R", ["300", "1e200"])
    def test_planar_radius_beyond_the_degree_limit_exits_2(self, capsys, R):
        # 2R^2 overflows a double at R = 1e200; both radii get the same TruncationError.
        argv = ["gaf", "--mode", "planar", "--b", "1", "--R", R, "--trials", "2", "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: no admissible truncation degree") and "Traceback" not in err

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

    def test_threads_help_names_the_thread_floor(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["gaf", "--help"])
        assert info.value.code == 0
        assert f"at least {numerics._THREAD_POINTS} points" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("threads", ["257", "1000000"])
    def test_thread_count_above_cap_exits_2(self, capsys, monkeypatch, threads):
        # Rejected while the flags are resolved, before any worker starts.
        argv = ["gaf", "--mode", "planar", "--b", "1", "--R", "2", "--trials", "400", "--seed", "1"]
        code, out, err = run_cli(capsys, [*argv, "--threads", threads])
        assert (code, out) == (2, "")
        assert err == f"error: threads must be in [1, {numerics._MAX_THREADS}], got {threads}\n"
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
            assert err == f"error: trials must be in [2, {numerics._MAX_TRIALS}], got {trials}\n"

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, extent", [("planar", ["--R", "2"]), ("hyperbolic", ["--r", "0.5"])])
    def test_amplitude_whose_mismatch_overflows_exits_3_without_a_warning(self, capsys, mode, extent):
        code, out, err = run_cli(
            capsys,
            ["gaf", "--mode", mode, "--b", "1e300", *extent, "--trials", "4", "--seed", "1",
             "--threads", "1"],
        )
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure:") and "overflows" in err and "Warning" not in err

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

    def test_negative_tolerance_exits_2(self, capsys):
        argv = ["sphere", "--n", "2", "--beta", "1", "--flow", "--iters", "3", "--seed", "3"]
        code, out, err = run_cli(capsys, [*argv, "--tol", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tol must be nonnegative" in err
        code, out, _ = run_cli(capsys, [*argv, "--tol", "0"])  # runs to the cap or a stall
        assert code == 0 and json.loads(out)["iters"] <= 3

    @pytest.mark.parametrize("flow", [[], ["--flow"]], ids=["static", "flow"])
    def test_oversized_configuration_exits_2_before_allocating(self, capsys, monkeypatch, flow):
        # 3000 points on the 131072-node grid would need a 3 GB distance array;
        # the check comes before even the configuration is drawn.
        def no_configuration(*args):
            raise AssertionError("configuration drawn before the size check")

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

    @pytest.mark.parametrize(
        "argv",
        [["--n", "3"], ["--n", "32"], ["--n", "2", "--flow", "--iters", "6"],
         ["--n", "4", "--flow", "--iters", "6"], ["--n", "32", "--flow", "--iters", "2"]],
        ids=["static-3", "static-32", "flow-2", "flow-4", "flow-32"],
    )
    def test_report_is_independent_of_blas_threads(self, argv):
        argv = ["sphere", "--beta", "1", "--seed", "3", *argv]
        runs = [run_module(argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.filterwarnings("error")
    def test_underflowing_partition_function_exits_3_without_a_warning(self, capsys):
        code, out, err = run_cli(capsys, ["sphere", "--n", "2", "--beta", "1e300", "--seed", "1"])
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure:") and "underflows" in err
        assert "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_flow_step_is_rejected_without_a_warning(self, capsys):
        argv = ["sphere", "--n", "2", "--beta", "1", "--flow", "--step", "1e300", "--iters", "3",
                "--seed", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["iters"] == 0

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["hyperbolic", "--coeffs", "[1]", "--r", "1e-300"],
        ["hyperbolic", "--coeffs", "[1]", "--r", "1e-160", "--tight"],
        ["gaf", "--mode", "hyperbolic", "--b", "1", "--r", "1e-300", "--trials", "2", "--seed", "1"],
    ], ids=["plain", "tight", "gaf"])
    def test_radius_whose_square_underflows_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        r = argv[argv.index("--r") + 1]
        assert err.startswith("error: r must lie in (0, 1)") and f"r={r}" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [[], ["--tight"]], ids=["plain", "tight"])
    @pytest.mark.parametrize("coeffs, r, without", [
        ("[1e30, 1, 1e-300]", "0.9", (1e30, 1.0)),
        ("[1e-300, 1, 1e30]", "0.9", (0.0, 1.0, 1e30)),
        ("[1e30, 1e-300]", "0.5", (1e30,)),
        ("[1e30, 1e20, 3e-294]", "0.5", (1e30, 1e20)),
    ], ids=["trailing", "leading", "linear", "subnormal"])
    def test_coefficients_that_underflow_in_the_zero_search(self, capsys, coeffs, r, without, flags):
        # Scaled by the largest, the smallest coefficient falls below the least normal double;
        # the zero search drops it, so the value is that of the candidate without it.
        code, out, err = run_cli(capsys, ["hyperbolic", "--coeffs", coeffs, "--r", r, *flags])
        assert (code, err) == (0, "")
        value = json.loads(out)["value"]
        evaluate = tight_discrepancy if flags else hyperbolic_discrepancy
        assert math.isfinite(value)
        assert value == pytest.approx(evaluate(DiskFunction(coeffs=without), float(r)), rel=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--tight"]], ids=["plain", "tight"])
    def test_report_is_independent_of_blas_threads(self, flags):
        # 1 + 2z and the cubic have a zero inside D(0, 0.9), so the panel rule splits there;
        # the cubic's zeros come from the Aberth iteration, the linear one's in closed form
        for coeffs in ("[1, 0.3]", "[1, 2]", "[1, 2, [0, -0.5], 0.7]"):
            argv = ["hyperbolic", "--coeffs", coeffs, "--r", "0.9", *flags]
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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_projection_exits_3_without_a_warning(self, capsys):
        # The coefficients are finite; their cubic projection is not.
        code, out, err = run_cli(capsys, ["fock", "--coeffs", "[1, 1e300]", "--omega", "1"])
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure:") and "Warning" not in err

    def test_overflow_exits_3(self, capsys):
        coeffs = json.dumps([0.0] * 128 + [1e250])
        code, _, err = run_cli(
            capsys, ["fock", "--coeffs", coeffs, "--omega", "0.5", "--solve"]
        )
        assert code == 3
        assert err.startswith("numeric failure:")

    @pytest.mark.parametrize("mode", [[], ["--solve"]], ids=["project", "solve"])
    def test_report_is_independent_of_blas_threads(self, mode):
        # numpy may hand the dot products of np.convolve and np.correlate to BLAS.  From a
        # degree-8 start the solve's iterates reach DEGREE_CAP = 64, the longest products.
        argv = ["fock", "--coeffs", "[1, 0.3, -0.2, 0.1, 0.05, -0.02, 0.01, 0.005, 0.002]",
                "--omega", "0.5", *mode]
        runs = [run_module(argv, OPENBLAS_NUM_THREADS=n) for n in ("1", "2")]
        assert [proc.returncode for proc in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout


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

        monkeypatch.setattr(proof, "proof_constants_report", lambda: _Stub())
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 3
        assert json.loads(out)["stub"]["pass"] is False


_PROVENANCE = ["package", "command", "parameters"]
_REPORT_LAYOUTS = {  # argv, top-level keys, provenance keys (None: no provenance block)
    "planar": (["planar", "--beta", "1", "--grid", "64"],
               ["beta", "grid", "rho", "m1", "m2", "b_opt", "error_estimate", "provenance"],
               _PROVENANCE),
    "gaf": (["gaf", "--mode", "planar", "--b", "0.9", "--R", "2", "--trials", "4", "--seed", "3",
             "--threads", "1"],
            ["mode", "b", "R", "trials", "truncation_N", "mean", "stderr", "provenance"],
            [*_PROVENANCE, "seed", "threads"]),
    "sphere": (["sphere", "--n", "2", "--beta", "1", "--seed", "1"],
               ["n", "beta", "points", "rho", "b_opt", "error_estimate", "residual", "iters",
                "provenance"],
               [*_PROVENANCE, "seed"]),
    "hyperbolic": (["hyperbolic", "--coeffs", "[1, 0.5]", "--r", "0.5"],
                   ["r", "alpha", "beta", "tight", "degree", "value", "provenance"],
                   _PROVENANCE),
    "fock": (["fock", "--coeffs", "[1, 0.3]", "--omega", "0.5"],
             ["omega", "mode", "coeffs", "residual", "provenance"],
             _PROVENANCE),
    "fock-solve": (["fock", "--coeffs", "[1]", "--omega", "0.25", "--solve", "--iters", "5"],
                   ["omega", "mode", "coeffs", "residual", "iters", "provenance"],
                   _PROVENANCE),
    "verify": (["verify"],
               ["case_iia", "case_iiba", "case_iibb", "rho1", "rho2", "final_bound"],
               None),
}


class TestReportLayout:
    """Every subcommand's report: echoed parameters, results, then the provenance block; --out
    writes the bytes that stdout would carry."""

    @pytest.mark.parametrize("name", [*_REPORT_LAYOUTS, "curve"])
    def test_key_order_and_out_file(self, capsys, tmp_path, name):
        out_path = tmp_path / "report"
        if name == "curve":  # CSV, --out only: the planar fields, beta first, one row per beta
            code, out, _ = run_cli(
                capsys, ["curve", "--betas", "0.5,1", "--grid", "64", "--out", str(out_path)])
            assert (code, out) == (0, "")
            lines = out_path.read_bytes().decode("utf-8").split("\n")
            assert lines[0] == "beta,rho,m1,m2,b_opt,error_estimate"
            assert len(lines) == 4 and lines[-1] == ""
            return
        argv, keys, provenance = _REPORT_LAYOUTS[name]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert list(payload) == keys
        if provenance is not None:
            assert list(payload["provenance"]) == provenance
            assert payload["provenance"]["command"] == argv[0]
        assert run_cli(capsys, [*argv, "--out", str(out_path)]) == (0, "", "")
        assert out_path.read_bytes() == out.encode("utf-8")


class TestExitCodes:
    @pytest.mark.parametrize(
        "module, target, error, argv",
        [
            (
                sphere,
                "gradient_flow",
                StepCollapseError("points merged during flow"),
                ["sphere", "--n", "2", "--beta", "1", "--flow", "--seed", "1"],
            ),
            (
                fock,
                "fixed_point_solve",
                DivergenceError("residual diverged", [1.0, 10.0]),
                ["fock", "--coeffs", "[0, 1]", "--omega", "0.25", "--solve"],
            ),
        ],
        ids=["step_collapse", "divergence"],
    )
    def test_solver_failure_exits_3(self, capsys, monkeypatch, module, target, error, argv):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, target, fail)
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:")

    @pytest.mark.parametrize(
        "module, target, argv",
        [
            (sphere, "_moments", ["sphere", "--n", "2", "--beta", "1", "--flow", "--seed", "1"]),
            (fock, "_project", ["fock", "--coeffs", "[1]", "--omega", "0.5", "--solve"]),
        ],
        ids=["sphere-flow", "fock-solve"],
    )
    def test_iteration_cap_above_limit_exits_2(self, capsys, monkeypatch, module, target, argv):
        # Rejected before the first iteration: no moment and no projection is computed.
        def no_iterations(*args, **kwargs):
            raise AssertionError("iterations started before the size check")

        monkeypatch.setattr(module, target, no_iterations)
        for iters in (numerics._MAX_ITERS + 1, 10**12):
            code, out, err = run_cli(capsys, [*argv, "--iters", str(iters)])
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "max_iters" in err

    @pytest.mark.parametrize(
        "command, coeffs, flags",
        [
            ("hyperbolic", "[true]", ["--r", "0.5"]),
            ("hyperbolic", "[[1, false]]", ["--r", "0.5"]),
            ("fock", "[true, false]", ["--omega", "0.5"]),
        ],
        ids=["hyperbolic", "hyperbolic-pair", "fock"],
    )
    def test_boolean_coefficients_exit_2(self, capsys, command, coeffs, flags):
        # JSON true and false parse as Python bools, which are ints; they are not numbers.
        code, out, err = run_cli(capsys, [command, "--coeffs", coeffs, *flags])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, coeffs, flags",
        [
            ("hyperbolic", "[1" + "0" * 400 + "]", ["--r", "0.5"]),
            ("fock", "[[0, -1" + "0" * 400 + "]]", ["--omega", "0.5"]),
        ],
        ids=["hyperbolic", "fock-pair"],
    )
    def test_integer_beyond_double_range_exits_2(self, capsys, command, coeffs, flags):
        code, out, err = run_cli(capsys, [command, "--coeffs", coeffs, *flags])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "double range" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Contract fuzz: any argv gives exit 0, 2 or 3, no traceback, no RuntimeWarning
# (an error under pytest), and a strict JSON report (curve: a CSV) on success.
# Sizes come only from cheap ranges or from values rejected before any
# allocation or thread pool: --grid 16-256 or above 8192, sphere --n <= 4 or
# above the grid budget, --iters <= 20 or above the cap, --trials <= 16 or
# above the cap, --threads 1-2 or above 256.  The examples are derandomized, so
# the test is a reproducible gate; raise max_examples (and drop derandomize) to
# explore.
# ---------------------------------------------------------------------------

def _floats(lo: float, hi: float) -> st.SearchStrategy:
    return st.floats(lo, hi).map(repr)


def _ints(lo: int, hi: int) -> st.SearchStrategy:
    return st.integers(lo, hi).map(str)


def _flag(flag: str, value: st.SearchStrategy) -> st.SearchStrategy:
    """[--flag=value]; the = form passes values such as -1e-300 that argparse takes for options."""
    return value.map(lambda v: [f"{flag}={v}"])


def _optional(flag: str, value: st.SearchStrategy) -> st.SearchStrategy:
    return st.just([]) | _flag(flag, value)


def _coeffs(number: st.SearchStrategy) -> st.SearchStrategy:
    item = number | st.tuples(number, number).map(list)
    return st.lists(item, min_size=1, max_size=5).map(json.dumps)


_ANY_FLOAT = st.floats().map(repr) | st.sampled_from(["-1", "1e999", "x", ""])  # nan, inf, huge, junk
_ANY_COEFFS = _coeffs(st.floats() | st.booleans() | st.integers(10**308, 10**400) | st.just("a")) | \
    st.sampled_from(["[]", "{}", "[1,", "[[1]]"])
_SEED = (_ints(0, 2**16), _ints(-2, -1) | _ints(2**64 - 1, 2**64))
_GRID = (_ints(16, 256), _ints(8193, 10**9) | _ints(-5, 15))

# subcommand -> argument -> (tokens from cheap valid values, tokens from rejected or extreme ones)
_ARGS = {
    "planar": {
        "beta": (_flag("--beta", _floats(0.05, 8)), _flag("--beta", _ANY_FLOAT)),
        "grid": tuple(_flag("--grid", g) for g in _GRID),
    },
    "curve": {
        "betas": (st.lists(st.floats(0.05, 8), min_size=1, max_size=3, unique=True).map(sorted),
                  st.lists(st.floats(), min_size=1, max_size=3)),
        "grid": tuple(_flag("--grid", g) for g in _GRID),
    },
    "gaf": {
        "mode": (_flag("--R", _floats(0.01, 4)).map(lambda t: ["--mode=planar", *t])
                 | _flag("--r", _floats(0.01, 0.95)).map(lambda t: ["--mode=hyperbolic", *t]),
                 st.tuples(st.sampled_from(["planar", "hyperbolic"]),
                           _optional("--R", _floats(300, 1e6) | _ANY_FLOAT),
                           _optional("--r", _ANY_FLOAT)).map(lambda t: [f"--mode={t[0]}", *t[1], *t[2]])),
        "b": (_flag("--b", _floats(0.1, 3)), _flag("--b", _ANY_FLOAT)),
        "trials": (_flag("--trials", _ints(2, 16)),
                   _flag("--trials", _ints(-1, 1) | _ints(100_001, 10**12))),
        "seed": tuple(_flag("--seed", v) for v in _SEED),
        "threads": (_optional("--threads", _ints(1, 2)),
                    _flag("--threads", _ints(-1, 0) | _ints(257, 10**9))),
    },
    "sphere": {
        "n": (_flag("--n", _ints(1, 4)), _flag("--n", _ints(-2, 0) | _ints(65, 10**9))),
        "beta": (_flag("--beta", _floats(0.05, 8)), _flag("--beta", _ANY_FLOAT)),
        "seed": tuple(_flag("--seed", v) for v in _SEED),
        "flow": (st.just([]) | st.tuples(_flag("--iters", _ints(0, 2)),
                                         _optional("--step", _floats(0.1, 8)),
                                         _optional("--tol", _floats(1e-12, 1e-2)))
                 .map(lambda t: ["--flow", *t[0], *t[1], *t[2]]),
                 st.sampled_from([["--step=1"], ["--iters=1"], ["--tol=1e-3"], ["--flow", "--iters=-1"]])
                 | _flag("--iters", _ints(100_001, 10**12)).map(lambda t: ["--flow", *t])
                 | _flag("--step", _ANY_FLOAT).map(lambda t: ["--flow", "--iters=1", *t])
                 | _flag("--tol", _ANY_FLOAT).map(lambda t: ["--flow", "--iters=1", *t])),
    },
    "hyperbolic": {
        "coeffs": (_flag("--coeffs", _coeffs(st.floats(-4, 4))), _flag("--coeffs", _ANY_COEFFS)),
        "r": (_flag("--r", _floats(0.05, 0.95)), _flag("--r", _ANY_FLOAT)),
        "alpha": (_optional("--alpha", _floats(0.1, 4)), _flag("--alpha", _ANY_FLOAT)),
        "beta": (_optional("--beta", _floats(0.1, 4)), _flag("--beta", _ANY_FLOAT)),
        "tight": (st.sampled_from([[], ["--tight"]]), st.just(["--tight", "--alpha=2"])),
    },
    "fock": {
        "coeffs": (_flag("--coeffs", _coeffs(st.floats(-4, 4))), _flag("--coeffs", _ANY_COEFFS)),
        "omega": (_flag("--omega", _floats(-2, 2)), _flag("--omega", _ANY_FLOAT)),
        "solve": (st.just([]) | _optional("--iters", _ints(0, 20)).map(lambda t: ["--solve", *t]),
                  st.sampled_from([["--iters=1"], ["--solve", "--iters=-1"]])
                  | _flag("--iters", _ints(100_001, 10**12)).map(lambda t: ["--solve", *t])),
    },
    "verify": {},
}


@st.composite
def _argv(draw) -> list[str]:
    """A subcommand with every argument cheap and valid except at most one."""
    command = draw(st.sampled_from(sorted(_ARGS)))
    args = _ARGS[command]
    odd = draw(st.sampled_from([None, *args]))
    argv = [command]
    for name, (cheap, rare) in args.items():
        tokens = draw(rare if name == odd else cheap)
        argv += ["--betas=" + ",".join(map(repr, tokens))] if name == "betas" else tokens
    return argv


class TestContractFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv())
    # Radii whose square underflows: the derandomised draws never reach them.
    @example(argv=["hyperbolic", "--coeffs=[1]", "--r=1e-300"])
    @example(argv=["hyperbolic", "--coeffs=[1]", "--r=5e-324"])
    @example(argv=["gaf", "--mode=hyperbolic", "--r=1e-300", "--b=1", "--trials=2", "--seed=1"])
    def test_exit_code_and_output_keep_the_contract(self, capsys, tmp_path, argv):
        csv_path = tmp_path / "curve.csv"
        if argv[0] == "curve":
            argv = [*argv, "--out", str(csv_path)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err
        if code != 0:
            assert out == "" or argv[0] == "verify"
            return
        if argv[0] == "curve":
            header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
            assert header == "beta,rho,m1,m2,b_opt,error_estimate"
            assert len(rows) == argv[1].count(",") + 1
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
        else:
            json.loads(out, parse_constant=_reject_constant)


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")
