"""zeropack benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lattice, disk, montecarlo, solvers (see README.md for what each
stresses and why).  --trace 0 measures the end-to-end metrics: set-up time
over several fresh interpreters, then one batch of whole rounds in a fresh
worker process, sized from --seconds.  --trace 1 measures the per-layer
metrics: one round untraced and the same round traced, each in a fresh
worker, then one run of every CLI subcommand.  The last line of stdout is
the JSON result; the lines before it give every metric by name with its
unit, the environment record, and any failed request.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# Seconds one round takes on the reference machine (2-core x86-64 virtual
# machine, numpy 2.4, one BLAS thread).  A run is round(seconds / this) whole rounds,
# so a faster commit does the same work in less time and the latency
# percentiles stay comparable.
NOMINAL_ROUND_S = {"lattice": 4.5, "disk": 6.8, "montecarlo": 4.0, "solvers": 7.0}

# The workload's fixed objects, built in each timed fresh interpreter.
SETUP_CODE = {
    "lattice": "zeropack.make_triangular_profile()",
    "disk": "pass",
    "montecarlo": "pass",
    "solvers": "zeropack.SphereQuadrature()",
}
SETUP_STARTS = 10
MIN_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
VERSION_STARTS = 3
CLI_PROBE = (
    ("planar", ("planar", "--beta", "1", "--grid", "64")),
    ("curve", ("curve", "--betas", "0.5,1", "--grid", "64", "--out", os.path.join(OUT, "probe-curve.csv"))),
    ("gaf", ("gaf", "--mode", "planar", "--b", "1", "--R", "2", "--trials", "8", "--seed", "1", "--threads", "1")),
    ("sphere", ("sphere", "--n", "2", "--beta", "1", "--seed", "1")),
    ("hyperbolic", ("hyperbolic", "--coeffs", "[1, 0.5]", "--r", "0.5")),
    ("fock", ("fock", "--coeffs", "[1, 0.5]", "--omega", "0.5")),
    ("verify", ("verify",)),
)
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def child_env() -> dict:
    """Environment of every child: the repository's src on the path, one BLAS thread.

    montecarlo runs up to nproc Python threads, so one BLAS thread keeps
    Python threads x BLAS threads <= nproc; the other workloads use the same
    setting so their figures do not depend on BLAS threading.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("ZEROPACK_THREADS", None)  # it would override the thread counts the requests ask for
    return env


def run(cmd: list[str], env: dict, timeout: float) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout, check=False)
    return proc, time.perf_counter() - start


def measure_setup(workload: str, env: dict, starts: int) -> list[float]:
    code = ("import time; t0 = time.perf_counter(); import zeropack; "
            f"{SETUP_CODE[workload]}; print(time.perf_counter() - t0)")
    times = []
    for _ in range(starts):
        proc, _ = run([sys.executable, "-c", code], env, 60)
        if proc.returncode != 0:
            raise BenchError(f"set-up start failed: {proc.stderr.decode(errors='replace')[-500:]}")
        times.append(float(proc.stdout.decode().split()[-1]))
    return times


def run_worker(workload: str, seed: int, rounds: int, trace: bool, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), "--nproc", str(nproc())] + (["--trace"] if trace else [])
    proc, _ = run(cmd, env, WORKER_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}")
    return json.loads(lines[-1])


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def cli_probe(env: dict) -> tuple[dict[str, float], list[dict]]:
    """Wall time of `--version` and of one small run of every subcommand."""
    records = []
    walls = {}
    cli = [sys.executable, "-m", "zeropack.cli"]
    version = []
    for _ in range(VERSION_STARTS):
        proc, wall = run(cli + ["--version"], env, 60)
        version.append(wall)
        records.append({"kind": "cli.--version", "ok": proc.returncode == 0,
                        "error": f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"})
    walls["cli.startup_s"] = statistics.median(version)
    for name, args in CLI_PROBE:
        proc, wall = run(cli + list(args), env, 120)
        walls[f"cli.{name}.wall_s"] = wall
        error = None
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
            if name == "curve":
                path = args[-1]
                with open(path, encoding="utf-8") as fh:
                    if len(fh.read().splitlines()) != 3:
                        raise ValueError("curve CSV does not have one row per beta")
                os.remove(path)
            else:
                json.loads(proc.stdout, parse_constant=_reject_constant)
        except (ValueError, OSError) as exc:
            error = str(exc)
        records.append({"kind": f"cli.{name}", "ok": error is None, "error": error})
    return walls, records


def tail(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest percentile with MIN_BEYOND samples beyond it, and its nearest rank."""
    ordered = sorted(latencies)
    if not ordered:
        return 0.0, 0
    rank = max(1, len(ordered) - MIN_BEYOND)
    return ordered[rank - 1], rank


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def rel_err_max(records: list[dict]) -> float | None:
    errs = [r["rel_err"] for r in records if r.get("rel_err") is not None]
    return max(errs) if errs else None


def end_to_end(workload: str, seed: int, seconds: int, env: dict) -> tuple[dict, list[dict], dict, list[str]]:
    # half the set-up starts before the batch and half after, so one slow
    # spell of a shared machine does not set the median
    setups = measure_setup(workload, env, SETUP_STARTS // 2)
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    result = run_worker(workload, seed, rounds, False, env)
    setups += measure_setup(workload, env, SETUP_STARTS - SETUP_STARTS // 2)
    records = result["records"]
    ok = [r for r in records if r["ok"]]
    lib = [r["latency_s"] for r in ok if not r["cli"]]
    cli = [r["latency_s"] for r in ok if r["cli"]]
    value, rank = tail(lib)
    metrics = {
        "setup_s": statistics.median(setups),
        "results_per_s": len(ok) / sum(r["latency_s"] for r in records),
        "latency_p50_s": median_or_zero(lib),
        "latency_tail_s": value,
        "cli_latency_p50_s": median_or_zero(cli),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    err = rel_err_max(records)
    notes = [
        f"rounds {rounds}: {len(records)} requests, {len(lib)} in-process and {len(cli)} CLI completed",
        f"latency_tail_s is p{100.0 * rank / max(1, len(lib)):.4g}: rank {rank}, {len(lib) - rank} of "
        f"{len(lib)} in-process samples beyond it",
        f"setup_s is the median of {len(setups)} fresh interpreters: {[round(t, 4) for t in setups]}",
        "rel_err_max = " + (f"{err:.6e} 1" if err is not None else "not reported (no deterministic reference)"),
        f"failed_frac = {sum(not r['ok'] for r in records) / len(records):.6g} 1",
    ]
    return metrics, records, result["env"], notes


def per_layer(workload: str, seed: int, env: dict) -> tuple[dict, list[dict], dict, list[str]]:
    base = run_worker(workload, seed, 1, False, env)
    traced = run_worker(workload, seed, 1, True, env)
    walls, probe_records = cli_probe(env)
    records = base["records"] + traced["records"]

    def lib_time(result):
        return sum(r["latency_s"] for r in result["records"] if not r["cli"])

    identical = base["digest"] == traced["digest"]
    integrity = {"kind": "trace.integrity", "ok": identical and traced["wrappers_removed"],
                 "error": None if identical else "traced outputs differ from untraced outputs"}
    if not traced["wrappers_removed"]:
        integrity["error"] = "tracing wrappers were not removed"
    records += probe_records + [integrity]

    metrics = dict(traced["per_layer"])
    metrics.update(walls)
    overheads = [r["latency_s"] - r["twin_latency_s"] for r in base["records"]
                 if r["cli"] and r["ok"] and r.get("twin_latency_s") is not None]
    metrics["cli.overhead_s"] = median_or_zero(overheads)
    metrics["trace.overhead_frac"] = lib_time(traced) / lib_time(base) - 1.0
    radii = [r["radius"] for r in base["records"] if r.get("radius") is not None]
    metrics["hyperbolic.radius_repeat_share"] = (
        sum(r in radii[:i] for i, r in enumerate(radii)) / len(radii) if radii else 0.0)
    # error_estimate / true error, over requests whose true error is above roundoff
    trust = [r["error_estimate"] / r["abs_err"] for r in base["records"]
             if r["kind"] == "planar.planar_lattice_density" and r["ok"] and r["rel_err"] > 1e-12]
    metrics["planar.estimate_over_error_min"] = min(trust) if trust else 0.0
    metrics["check.rel_err_max"] = rel_err_max(records) or 0.0
    metrics["check.failed_frac"] = sum(not r["ok"] for r in records) / len(records)
    notes = [
        f"traced and untraced outputs are {'bitwise identical' if identical else 'DIFFERENT'}; "
        f"wrappers {'removed' if traced['wrappers_removed'] else 'NOT removed'}",
        f"spans written to {os.path.relpath(OUT, ROOT)}/spans-{workload}-{seed}.json",
    ]
    return metrics, records, traced["env"], notes


def main() -> int:
    parser = argparse.ArgumentParser(description="zeropack benchmark: one run of one workload.")
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "zeropack", "__init__.py")):
        print(f"error: no zeropack sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    try:
        if args.trace:
            values, records, environment, notes = per_layer(args.workload, args.seed, env)
        else:
            values, records, environment, notes = end_to_end(args.workload, args.seed, args.seconds, env)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed = [r for r in records if not r["ok"]]

    environment.update(seed=args.seed, workload=args.workload, trace=args.trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(note)
    for r in failed[:20]:
        print(f"FAILED {r['kind']}: {r.get('error')}")
    print(json.dumps({"correct": not failed, "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
