"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workload verify-default --seeds 0-9 [--trace 1] [--out FILE]

Runs ``run.py`` once per seed, as a separate process, with the
``run_seconds`` of BENCHMARK.json, and prints for each metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  For end-to-end
metrics it also prints spread / bound; a benchmark is steady when that
stays below 1/3.  ``--out`` writes every run's result line and the
summary as JSON (``baseline/`` holds the first baseline made this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_spec


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        row = {"unit": m["unit"], "median": median, "q1": q1, "q3": q3,
               "spread": (q3 - q1) / abs(median) if median else 0.0}
        if "bound" in m:
            row["bound"] = m["bound"]
        out[m["name"]] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"), help="e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, f"{HERE}/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    summary = summarise(runs, declared)
    for name, row in summary.items():
        line = (f"{name:40s} median {row['median']:12.6g} {row['unit']:8s} "
                f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} spread {row['spread']:.4f}")
        if "bound" in row:
            line += f"  spread/bound {row['spread'] / row['bound']:.2f}"
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "run_seconds": spec["run_seconds"], "summary": summary, "runs": runs},
                      handle, indent=1)
            handle.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
