"""diskops benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Every sample is a fresh child process
(``child.py``) that imports diskops from ``src/``, makes the first LAPACK
call, and then runs the workload body once.  The environment passes to
the children unchanged; in particular OPENBLAS_NUM_THREADS is never set.

--trace 0  Set up SETUP_CHILDREN times, then run untraced bodies until
           --seconds have passed (at least one), and report the
           end-to-end metrics: medians and 90th percentiles over the
           samples.
--trace 1  Set up SETUP_CHILDREN times, run one traced body and one
           untraced body, and report the per-layer metrics of the traced
           one; ``trace.overhead_frac`` compares the two.
--smoke    One set-up and one small body (a single suite, or a single
           round of Pick problems), checked against the same references.

Every body result is checked against the reference values recorded for
its workload seed (``reference/``).  The output is a table of every
metric by name and unit, the failed operations, an ``env`` line, and
last a JSON line {"correct", "attempted", "failed", "metrics"}.  The full
record, with every sample, goes to ``results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference")
SETUP_CHILDREN = 3
CHILD_TIMEOUT_S = 175


class BenchError(Exception):
    """The benchmark could not run or could not check its result."""


def run_child(workload: str, seed: int, *, body: bool, trace: bool = False,
              smoke: bool = False, spans_out: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed)]
    if body:
        cmd.append("--body")
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"child exited with {proc.returncode}: {' '.join(cmd)}\n{tail}")
    return json.loads(lines[-1])


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _setup_s(sample: dict) -> float:
    return sample["setup"]["import_s"] + sample["setup"]["warmup_s"]


def end_to_end(setups: list[dict], bodies: list[dict]) -> dict[str, float]:
    wall = [b["wall_s"] for b in bodies]
    cpu = [b["cpu_s"] for b in bodies]
    return {
        "wall_s": statistics.median(wall),
        "wall_s.p90": _p90(wall),
        "cpu_s": statistics.median(cpu),
        "cpu_s.p90": _p90(cpu),
        "setup_s": statistics.median([_setup_s(s) for s in setups + bodies]),
        "peak_rss_mb": statistics.median([b["peak_rss_mb"] for b in bodies]),
    }


def per_layer(traced: dict, plain: dict) -> dict[str, float]:
    out = dict(traced["layers"])
    out["setup.import_s"] = traced["setup"]["import_s"]
    out["setup.warmup_s"] = traced["setup"]["warmup_s"]
    out["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def load_reference(workload: str, seed: int) -> dict:
    path = os.path.join(REFERENCE, f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        refs = json.load(handle)
    if str(seed) not in refs:
        raise BenchError(f"{path} has no reference for workload seed {seed}")
    return refs[str(seed)]


def select(spec_metrics: list[dict], values: dict[str, float], default=None) -> dict:
    """The declared metrics, in declared order, with their units."""
    out = {}
    for m in spec_metrics:
        value = values.get(m["name"], default)
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def measure(args) -> dict:
    seed = args.seed % workloads.REFERENCE_SEEDS
    reference = load_reference(args.workload, seed)
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = [run_child(args.workload, seed, body=False)
              for _ in range(1 if args.smoke else SETUP_CHILDREN)]
    body = dict(body=True, smoke=args.smoke)
    if args.trace:
        spans = os.path.join(RESULTS, f"{tag}.spans.json")
        traced = run_child(args.workload, seed, trace=True, spans_out=spans, **body)
        bodies = [run_child(args.workload, seed, **body)]
    else:
        bodies = []
        start = time.perf_counter()
        while not bodies or (not args.smoke and time.perf_counter() - start < args.seconds):
            bodies.append(run_child(args.workload, seed, **body))

    checked = bodies + [traced] if args.trace else bodies
    attempted, failed = 0, []
    for index, sample in enumerate(checked):
        attempted += workloads.operations(args.workload, sample["result"])
        failed += [f"sample {index}: {line}"
                   for line in workloads.failures(args.workload, sample["result"], reference)]
    values = end_to_end(setups, bodies)
    if args.trace:
        values.update(per_layer(traced, bodies[0]))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": setups[0]["env"],
        "attempted": attempted,
        "failed_ops": failed,
        "values": values,
        "samples": [{k: b[k] for k in ("setup", "wall_s", "cpu_s", "peak_rss_mb")} for b in bodies],
        "setups": [s["setup"] for s in setups],
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diskops benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time to spend on bodies")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one set-up, one small body")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "diskops", "__init__.py")):
        print(f"no diskops sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        record = measure(args)
        values = record["values"]
        if args.trace:
            metrics = select(spec["per_layer"], values, default=0)
        else:
            metrics = select(spec["end_to_end"], values)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed {args.seed} (workload seed {record['env']['workload_seed']}): "
          f"set-ups {len(record['setups'])}, untraced bodies {len(record['samples'])}, "
          f"traced bodies {args.trace}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}")
    print(f"failed_frac {len(record['failed_ops'])}/{record['attempted']}")
    for line in record["failed_ops"]:
        print(f"FAILED {line}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps({
        "correct": not record["failed_ops"],
        "attempted": record["attempted"],
        "failed": len(record["failed_ops"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
