"""One pass of one workload in a fresh interpreter; prints one JSON record.

    python bench/worker.py --workload NAME --seed N --rounds R [--trace]

run.py starts it with PYTHONPATH pointing at the repository's src and the
BLAS thread count already set.  The workload's fixed objects are built
before the batch starts.  Each request is timed from the call to its return;
its check runs afterwards, outside the timed span.  With --trace the batch
runs under the tracer, followed by the layer probe, and the spans are
written to bench/out.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def canonical(value) -> bytes:
    """Bitwise-faithful encoding of a request output, for the traced-vs-untraced digest."""
    import numpy as np

    if isinstance(value, float):
        return value.hex().encode()
    if isinstance(value, complex):
        return b"c" + value.real.hex().encode() + b"," + value.imag.hex().encode()
    if isinstance(value, (bool, int, str, type(None))):
        return repr(value).encode()
    if isinstance(value, bytes):
        return value
    if isinstance(value, np.ndarray):
        return str(value.dtype).encode() + str(value.shape).encode() + value.tobytes()
    if isinstance(value, subprocess.CompletedProcess):
        return canonical((value.returncode, value.stdout))
    if dataclasses.is_dataclass(value):
        return type(value).__name__.encode() + canonical(
            tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(canonical(v) for v in value) + b")"
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def execute(session, req, digest) -> dict:
    from refs import CheckFailed

    record = {"kind": req.kind, "cli": req.is_cli, "ok": False, "rel_err": None}
    start = time.perf_counter()
    try:
        out = req.call()
    except Exception as exc:  # a request that raises is a failed request, never dropped
        record["latency_s"] = time.perf_counter() - start
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    record["latency_s"] = time.perf_counter() - start
    if req.key is not None:
        session.outputs[req.key] = out
        session.latencies[req.key] = record["latency_s"]
    digest.update(canonical(out))
    try:
        record["rel_err"] = req.check(out)
        record["ok"] = True
    except CheckFailed as exc:
        record["error"] = str(exc)
    except Exception as exc:
        record["error"] = f"check raised {type(exc).__name__}: {exc}"
    if req.twin is not None:
        record["twin_latency_s"] = session.latencies.get(req.twin)
    if req.radius is not None:
        record["radius"] = req.radius
    record.update({k: v for k, v in req.info.items() if k in ("error_estimate", "abs_err")})
    return record


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = os.path.join(ROOT, "src", "zeropack")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_zeropack_lines": lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    import tracing
    import workloads

    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    session = workloads.Session(ROOT, args.seed, outdir, args.nproc)
    warm, make_round = workloads.WORKLOADS[args.workload]
    warm(session)

    tracer = tracing.Tracer() if args.trace else None
    digest = hashlib.sha256()
    records = []
    restored = True
    if tracer is not None:
        tracer.install()
    try:
        for i in range(args.rounds):
            for req in make_round(session, i):
                records.append(execute(session, req, digest))
        if tracer is not None:
            tracing.probe(args.nproc)
    finally:
        if tracer is not None:
            restored = tracer.remove()

    result = {
        "records": records,
        "digest": digest.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.nproc),
    }
    if tracer is not None:
        result["per_layer"] = tracing.summarize(tracer.spans)
        result["wrappers_removed"] = restored
        spans_path = os.path.join(outdir, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
