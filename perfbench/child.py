"""One fresh benchmark process.

It sets diskops up (import, then the first LAPACK call), runs one
workload body, and prints one JSON line: set-up times, body wall and CPU
time, peak RSS, the body's results and, when traced, the per-layer
metrics.  ``run.py`` starts it; to run it by hand::

    python3 perfbench/child.py --workload verify-default --seed 0 [--body] [--trace] [--smoke]

Without ``--body`` it only sets up and reports the environment record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The warm-up is the first LAPACK call of the process.  It has the size of
# the verify compressions, so that OpenBLAS starts its threads here and
# not inside the first check that happens to call LAPACK.
WARMUP_DIM = 257


def _setup() -> dict:
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import diskops.cli  # noqa: F401  (imports every layer, numpy and scipy)
    import numpy as np

    imported = time.perf_counter()
    a = np.arange(WARMUP_DIM * WARMUP_DIM, dtype=np.float64).reshape(WARMUP_DIM, WARMUP_DIM)
    np.linalg.svd(np.cos(a) + 1j * np.sin(a), compute_uv=False)
    warmed = time.perf_counter()
    return {"import_s": imported - start, "warmup_s": warmed - imported}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # every thread of the process
    return usage.ru_utime + usage.ru_stime


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the diskops sources, which names the code without git."""
    import hashlib

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "diskops")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    """Everything needed to reproduce a number from the output alone."""
    import numpy as np
    import scipy

    import workloads
    from diskops import checks

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = None
    if workload in workloads.VERIFY_TRUNCATION:
        config = dataclasses.asdict(checks.Config(**workloads.verify_config(workload, seed)))
    else:
        config = {"psd_tol": workloads.PSD_TOL, "sign_tol": workloads.SIGN_TOL,
                  "rounds": workloads.PICK_ROUNDS}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "workload_seed": seed,
        "config": config,
    }


def _body(workload: str, seed: int, smoke: bool):
    """Inputs, then a callable that runs the timed body, then a result maker."""
    import workloads

    if workload == "pick-batch":
        ops = workloads.pick_inputs(seed, smoke)
        kinds = [op["kind"] for op in ops]
        return (lambda: workloads.run_pick(ops)), (lambda out: {"kinds": kinds, "ops": out})
    argv = workloads.verify_argv(workload, seed, smoke)
    return (lambda: workloads.run_verify(argv)), (lambda out: {"reports": json.loads(out)})


def _check_times(reports: list[dict]) -> dict[str, float]:
    """checks.<check_id>.s and checks.suite.<suite>.s from report times."""
    from diskops import checks

    seconds = {r["check_id"]: r["elapsed_ms"] / 1000.0 for r in reports}
    out = {f"checks.{cid}.s": s for cid, s in seconds.items()}
    for suite in checks.SUITE_NAMES:
        if suite != "all":
            ids = [fn.check_id for fn in checks.suite_checks(suite)]
            out[f"checks.suite.{suite}.s"] = sum(seconds.get(cid, 0.0) for cid in ids)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--body", action="store_true", help="run the workload body after set-up")
    parser.add_argument("--trace", action="store_true", help="trace the body")
    parser.add_argument("--smoke", action="store_true", help="run a small body")
    parser.add_argument("--spans-out", help="file for the spans of a traced body")
    args = parser.parse_args(argv)

    out = {"setup": _setup()}
    if not args.body:
        out["env"] = environment(args.workload, args.seed)
        print(json.dumps(out))
        return 0

    run, make_result = _body(args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_start, wall_start = _cpu_s(), time.perf_counter()
    raw = run()
    wall_s, cpu_s = time.perf_counter() - wall_start, _cpu_s() - cpu_start
    if tracer is not None:
        tracer.uninstall()
    out.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        result=make_result(raw),
    )
    if tracer is not None:
        layers = tracer.metrics()
        if args.workload != "pick-batch":
            layers.update(_check_times(out["result"]["reports"]))
        out["layers"] = layers
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
