"""Record the reference values that every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME ...]

For each workload and each shipped workload seed (0 to REFERENCE_SEEDS-1)
this runs one fresh body and writes what it computed to
``reference/<workload>.json``: the check statuses, tolerances and
computed values for the verify workloads, and the PSD verdicts, minimum
eigenvalues and reciprocal-sign reports for pick-batch.  Record from the
code the references should hold for, and only on purpose: a run whose
values move past their tolerances counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads
from run import REFERENCE, run_child


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    os.makedirs(REFERENCE, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        refs = {}
        for seed in range(workloads.REFERENCE_SEEDS):
            result = run_child(workload, seed, body=True)["result"]
            refs[str(seed)] = workloads.reference_entry(workload, result)
            print(f"{workload} seed {seed}: {workloads.operations(workload, result)} operations",
                  flush=True)
        with open(os.path.join(REFERENCE, f"{workload}.json"), "w", encoding="utf-8") as handle:
            json.dump(refs, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
