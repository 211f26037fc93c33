"""The package surface and what each entry point loads.

`import zeropack` resolves its exported names lazily (PEP 562), and each CLI
subcommand imports only the library module it runs.  The public-API checks
pin the exported names and their identity with the defining modules; the
module-load checks count, in fresh interpreters, which modules each entry
point leaves in sys.modules, so a start-up saving cannot be undone silently.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeropack
from conftest import checkout_env
from zeropack import fock, hyperbolic, numerics, planar, proof, reports, sphere, weierstrass

PUBLIC_NAMES = [
    "DegenerateLatticeError", "DiscrepancyReport", "DiskFunction", "DivergenceError",
    "FockOverflowError", "FockPolynomial", "InequalityReport", "ProofConstantsReport",
    "QuadratureRule1D", "RngStream", "SphereConfiguration",
    "SphereQuadrature", "StepCollapseError", "ThresholdCheck", "TriangularProfile",
    "TruncationError", "WeierstrassContext", "case_iia_integral", "cell_coordinates",
    "cubic_projection", "density_curve", "discrepancy", "equilibrium_residual", "fixed_point_solve",
    "fock_norm", "gauss_legendre", "gradient_flow", "halfdisk_identity_check",
    "hyperbolic_discrepancy", "hyperbolic_gaf_expected", "hyperbolic_gaf_mc", "hyperbolic_gaf_tail",
    "hyperbolic_gaf_truncation", "inequality_suite", "log_abs_sigma", "log_abs_sigma_grid",
    "log_profile", "make_context", "make_disk_quadrature", "make_triangular_profile",
    "map_indexed", "partition_function", "planar_gaf_expected", "planar_gaf_mc", "planar_gaf_tail",
    "planar_gaf_truncation", "planar_lattice_density", "proof_constants_report",
    "quasi_period_residual", "random_configuration", "resolve_threads", "rho1_closed",
    "rho2_closed", "sample_complex_gaussians", "schafli_area", "schafli_solutions", "sigma",
    "sigma_parts", "stationary_residual", "tight_discrepancy", "weighted_square_mass",
]
MODULES = (numerics, reports, weierstrass, planar, fock, sphere, hyperbolic, proof)


class TestPublicApi:
    def test_exported_names_are_unchanged(self):
        assert len(PUBLIC_NAMES) == 61
        assert sorted(zeropack.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_each_name_is_the_defining_modules_object(self, name):
        owners = [m for m in MODULES if name in vars(m)]
        assert owners, f"{name} is defined in no module"
        assert all(getattr(zeropack, name) is getattr(m, name) for m in owners)

    def test_dir_lists_every_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(zeropack))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from zeropack import *", namespace)
        assert all(namespace[name] is getattr(zeropack, name) for name in PUBLIC_NAMES)

    def test_unknown_attribute_names_the_module(self):
        with pytest.raises(AttributeError, match="'zeropack' has no attribute 'no_such_name'"):
            zeropack.no_such_name  # noqa: B018

    def test_shared_objects_keep_their_old_homes(self):
        assert planar.TruncationError is hyperbolic.TruncationError is numerics.TruncationError
        assert planar.planar_gaf_expected is hyperbolic.hyperbolic_gaf_expected
        assert planar.planar_gaf_expected is numerics.gaf_expected
        assert hyperbolic.proof_constants_report is proof.proof_constants_report
        assert hyperbolic.schafli_solutions is proof.schafli_solutions


BENCH = Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = {m.__name__.rpartition(".")[2]: m for m in (fock, hyperbolic, numerics, planar,
                                                            sphere, weierstrass)}


def _bench_nodes():
    """(file name, node) for every syntax node of bench/*.py."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def _reads_a_module(node: ast.AST) -> bool:
    """node reads an attribute straight off a library module, as hyperbolic.tight_discrepancy."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in BENCH_MODULES)


def _bench_object(node: ast.expr):
    """The library object a bench expression such as hyperbolic.DiskFunction names."""
    if isinstance(node, ast.Name):
        return BENCH_MODULES[node.id]
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return getattr(_bench_object(node.value), node.attr)


class TestBenchmarkView:
    """The benchmark under bench/ runs against the library and is changed only on its own, so a
    library change must keep every name and keyword argument the benchmark uses of it."""

    def test_every_attribute_read_off_a_module_exists(self):
        reads = [(f"{name}:{node.lineno}", node) for name, node in _bench_nodes()
                 if _reads_a_module(node)]
        assert len(reads) >= 80
        assert not [where for where, node in reads
                    if not hasattr(BENCH_MODULES[node.value.id], node.attr)]

    def test_every_keyword_is_a_parameter(self):
        bad = []
        for name, node in _bench_nodes():
            if not (isinstance(node, ast.Call) and _reads_a_module(node.func)):
                continue
            params = inspect.signature(_bench_object(node.func)).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                bad += [f"{name}:{node.lineno} {k.arg}" for k in node.keywords
                        if k.arg is not None and k.arg not in params]
        assert not bad

    def test_every_traced_target_resolves(self):
        tree = ast.parse((BENCH / "tracing.py").read_text())
        (targets,) = [node.value for node in tree.body if isinstance(node, ast.AnnAssign)
                      and getattr(node.target, "id", None) == "TARGETS"]
        assert len(targets.values) >= 18
        for entry in targets.values:
            owner, name = entry.elts[:2]
            assert callable(getattr(_bench_object(owner), name.value))


# Runs the CLI (or only the import) in a fresh interpreter with stdout swallowed, then
# prints the loaded module names as JSON.
_PROBE = """
import contextlib, io, json, runpy, sys
argv = sys.argv[1:]
if argv:
    sys.argv = ["zeropack", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("zeropack.cli", run_name="__main__")
        except SystemExit:
            pass
else:
    import zeropack
print(json.dumps(sorted(sys.modules)))
"""

SPECIALISTS = {"zeropack.hyperbolic", "zeropack.planar", "zeropack.weierstrass",
               "zeropack.sphere", "zeropack.fock", "zeropack.proof"}
NEVER = {"concurrent.futures", "numpy.polynomial", "fractions"}
PLANAR_ONLY = SPECIALISTS - {"zeropack.planar", "zeropack.weierstrass"} | NEVER
LOADS = {  # id: (argv, modules it must not load, modules it must load)
    "import": ([], SPECIALISTS | NEVER | {"numpy", "zeropack.numerics", "zeropack.reports",
                                          "zeropack.cli"}, {"zeropack"}),
    "version": (["--version"], SPECIALISTS | NEVER | {"numpy"}, set()),
    "usage-error": (["planar", "--beta", "nan"], SPECIALISTS | NEVER | {"numpy"}, set()),
    "planar": (["planar", "--beta", "1", "--grid", "16"], PLANAR_ONLY, {"zeropack.planar"}),
    "curve": (["curve", "--betas", "1", "--grid", "16", "--out", os.devnull], PLANAR_ONLY,
              {"zeropack.planar"}),
    "hyperbolic": (["hyperbolic", "--coeffs", "[1]", "--r", "0.5"],
                   SPECIALISTS - {"zeropack.hyperbolic"} | NEVER, {"zeropack.hyperbolic"}),
    "verify": (["verify"], SPECIALISTS - {"zeropack.proof"} | NEVER - {"fractions"}
               | {"numpy", "zeropack.numerics"}, {"zeropack.proof", "fractions"}),
    "sphere": (["sphere", "--n", "2", "--beta", "1", "--seed", "1"],
               SPECIALISTS - {"zeropack.sphere"} | NEVER, {"zeropack.sphere"}),
    "fock": (["fock", "--coeffs", "[1]", "--omega", "0.5"], SPECIALISTS - {"zeropack.fock"} | NEVER,
             {"zeropack.fock"}),
    "gaf-hyperbolic-1-thread": (
        ["gaf", "--mode", "hyperbolic", "--b", "1", "--r", "0.5", "--trials", "2", "--seed", "1",
         "--threads", "1"],
        SPECIALISTS - {"zeropack.hyperbolic"} | NEVER, {"zeropack.hyperbolic"}),
    "gaf-hyperbolic-default-threads": (
        ["gaf", "--mode", "hyperbolic", "--b", "1", "--r", "0.5", "--trials", "2", "--seed", "1"],
        SPECIALISTS - {"zeropack.hyperbolic"} | NEVER, {"zeropack.hyperbolic"}),
    "gaf-planar-2-threads": (  # 16 x 16 points: below the thread floor, one range, no pool
        ["gaf", "--mode", "planar", "--b", "1", "--R", "1", "--trials", "2", "--seed", "1",
         "--threads", "2"],
        PLANAR_ONLY, {"zeropack.planar"}),
    "gaf-planar-2-threads-above-floor": (  # 96 x 256 points: two ranges on a pool
        ["gaf", "--mode", "planar", "--b", "1", "--R", "24", "--trials", "2", "--seed", "1",
         "--threads", "2"],
        PLANAR_ONLY - {"concurrent.futures"}, {"zeropack.planar", "concurrent.futures"}),
}


def loaded_modules(argv) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
                          env=checkout_env(OPENBLAS_NUM_THREADS="1"), timeout=120, check=True)
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("argv, absent, present", list(LOADS.values()), ids=list(LOADS))
def test_entry_point_loads_only_what_it_runs(argv, absent, present):
    modules = loaded_modules(argv)
    assert present <= modules
    assert not (absent & modules), f"loaded {sorted(absent & modules)}"
