"""The benchmark's workloads: their inputs, bodies and correctness rules.

verify-default
    ``diskops verify all`` at the default config, through ``cli.main``.
    This is the run that reproduces the paper.  Dense
    ``operators.operator_norm`` (234 SVDs of size 257) is most of it, and
    10,000-term kernel sums most of the rest.
verify-t1024
    The same command with ``--truncation 1024``.  The same layers run at
    N=1025, where the cubic loops (``series.compose``,
    ``operators.composition_matrix`` and its 1025x1025 SVD) dominate.  A
    size-dependent switch that helps one N and hurts the other shows up as
    a difference between the two verify workloads.
pick-batch
    Seeded library calls on Pick problems: ``pick_matrix`` plus
    ``psd_check`` on 8 to 64 nodes (moduli up to 0.95) over closed-form
    and series-only spaces, ``corona_kernel_check`` with random polynomial
    symbols, and ``reciprocal_sign_check`` up to n_max 4096.  The Python
    double loops of ``spaces``/``pick`` and the chunked
    ``kernel_eval_auto`` do nearly all the work; ``operators`` and
    ``compose`` do none.  It is run by hand and left out of BENCHMARK.json:
    its interpreter-bound median follows the drift of a shared machine too
    closely to hold a bound (see README.md).

The reference values of every shipped seed are in ``reference/``.  A run
with ``--seed n`` uses workload seed ``n % REFERENCE_SEEDS``, so every
run is checked against recorded values.
"""

from __future__ import annotations

import cmath
import io
import math
import sys

REFERENCE_SEEDS = 10

WORKLOADS = ("verify-default", "verify-t1024", "pick-batch")

# Every flag is explicit, so DISKOPS_* variables in the environment
# cannot change the config that the reference values were recorded with.
VERIFY_CONFIG = {"tol": 1e-8, "quad_nodes": 4096, "output": "json"}
VERIFY_TRUNCATION = {"verify-default": 256, "verify-t1024": 1024}
SMOKE_SUITE = "pick"

PICK_SPACES = ("H2", "D2", "S12", "S2", "S22", "Km:2", "Dalpha:1.5")
# The sizes follow fixed cycles and the seed draws only the geometry, the
# targets and the symbols, so every seed asks for about the same work.
PICK_ROUNDS = 24  # one round: 5 Pick problems, 1 corona check, 1 reciprocal-sign check
PICK_NODE_COUNTS = (8, 22, 36, 50, 64)  # one Pick problem of each size per round
RECIPROCAL_N_MAX = (512, 1024, 2048, 4096)
SMOKE_ROUNDS = 1
MAX_NODE_MODULUS = 0.95
PSD_TOL = 1e-10  # diskops.pick.DEFAULT_PSD_TOL, the tolerance the verdicts use
SIGN_TOL = 1e-13  # diskops.pick.DEFAULT_SIGN_TOL


def verify_config(workload: str, seed: int) -> dict:
    return {"truncation": VERIFY_TRUNCATION[workload], "seed": seed, **VERIFY_CONFIG}


def verify_argv(workload: str, seed: int, smoke: bool) -> list[str]:
    cfg = verify_config(workload, seed)
    return [
        "verify", SMOKE_SUITE if smoke else "all",
        "--truncation", str(cfg["truncation"]),
        "--tol", repr(cfg["tol"]),
        "--quad-nodes", str(cfg["quad_nodes"]),
        "--seed", str(cfg["seed"]),
        "--output", cfg["output"],
    ]


def run_verify(argv: list[str]) -> bytes:
    """``diskops verify`` through ``cli.main``, with its stdout captured.

    The exit code is not kept: it follows from the report statuses, which
    the references check.
    """
    from diskops import cli

    buffer = io.BytesIO()
    stream = io.TextIOWrapper(buffer, encoding="utf-8")
    saved, sys.stdout = sys.stdout, stream
    try:
        cli.main(argv)
        stream.flush()
    finally:
        sys.stdout = saved
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# pick-batch
# ---------------------------------------------------------------------------


def _disk_points(rng, count: int) -> list[complex]:
    radius = MAX_NODE_MODULUS * rng.uniform(0.0, 1.0, count) ** 0.5
    phase = rng.uniform(0.0, 2.0 * math.pi, count)
    return [cmath.rect(r, p) for r, p in zip(radius, phase)]


def pick_inputs(seed: int, smoke: bool) -> list[dict]:
    """The operations of one pick-batch body, as plain data.

    The stream of operations does not depend on the batch size, so a smoke
    batch is a prefix of the full one and shares its reference values.
    Half of the Pick problems have constant targets of modulus below one,
    whose Pick matrix (1 - |c|^2) K is positive semi-definite; the others
    have random targets in the disk, whose matrix almost never is.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    ops = []
    spaces = len(PICK_SPACES)
    for round_index in range(SMOKE_ROUNDS if smoke else PICK_ROUNDS):
        for k, count in enumerate(PICK_NODE_COUNTS):
            nodes = _disk_points(rng, count)
            if k % 2:
                targets = _disk_points(rng, count)
            else:
                targets = _disk_points(rng, 1) * count
            ops.append({
                "kind": "pick",
                "space": PICK_SPACES[(round_index * len(PICK_NODE_COUNTS) + k) % spaces],
                "nodes": nodes,
                "targets": targets,
            })
        degrees = rng.integers(0, 7, 2)
        symbols = [
            [complex(a, b) for a, b in zip(rng.uniform(-1, 1, d + 1), rng.uniform(-1, 1, d + 1))]
            for d in degrees
        ]
        ops.append({
            "kind": "corona",
            "space": PICK_SPACES[round_index % spaces],
            "symbols": symbols,
            "delta": float(rng.uniform(0.05, 0.5)),
        })
        ops.append({
            "kind": "reciprocal_sign",
            "space": PICK_SPACES[(round_index + 3) % spaces],
            "n_max": RECIPROCAL_N_MAX[round_index % len(RECIPROCAL_N_MAX)],
        })
    return ops


def run_pick(ops: list[dict]) -> list[dict]:
    """Run every operation through the public diskops API."""
    from diskops import pick as pk
    from diskops import series as ps
    from diskops import spaces as sp

    out = []
    for op in ops:
        space = sp.parse_space(op["space"])
        if op["kind"] == "pick":
            problem = pk.PickProblem(space, tuple(op["nodes"]), tuple(op["targets"]))
            out.append(_verdict(pk.psd_check(pk.pick_matrix(problem))))
        elif op["kind"] == "corona":
            symbols = [ps.from_coefficients(c) for c in op["symbols"]]
            out.append(_verdict(pk.corona_kernel_check(space, symbols, op["delta"])))
        else:
            report = pk.reciprocal_sign_check(space, op["n_max"])
            out.append({
                "status": report.status,
                "computed": [[v.label, v.value.real, v.value.imag] for v in report.computed],
            })
    return out


def _verdict(v) -> dict:
    return {"is_psd": bool(v.is_psd), "min_eigenvalue": v.min_eigenvalue, "matrix_scale": v.matrix_scale}


def operations(workload: str, result: dict) -> int:
    """Number of operations in one body result: checks or Pick problems."""
    return len(result["ops"] if workload == "pick-batch" else result["reports"])


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def reference_entry(workload: str, result: dict) -> dict:
    """What a reference file keeps of one body result."""
    if workload == "pick-batch":
        return {"kinds": result["kinds"], "ops": result["ops"]}
    return {
        "checks": {
            r["check_id"]: {
                "status": r["status"],
                "tolerance": r["tolerance"],
                "computed": _computed(r),
            }
            for r in result["reports"]
        },
    }


def _computed(report: dict) -> list[list]:
    return [[v["label"], *v["value"]] for v in report["computed"]]


def _moved(status: str, computed: list[list], ref: dict, tolerance: float) -> str | None:
    """Why a report differs from its reference: its status, or a computed
    value that moved by more than the tolerance (status only when the
    tolerance is 0).  None when it does not."""
    if status != ref["status"]:
        return f"status {status}, reference {ref['status']}"
    if tolerance == 0:
        return None
    if [c[0] for c in computed] != [c[0] for c in ref["computed"]]:
        return "computed labels differ from the reference"
    for (label, re, im), (_, ref_re, ref_im) in zip(computed, ref["computed"]):
        moved = abs(complex(re, im) - complex(ref_re, ref_im))
        if not moved <= tolerance:
            return f"{label} moved by {moved:.3g} > tolerance {tolerance:.3g}"
    return None


def failures(workload: str, result: dict, reference: dict) -> list[str]:
    """One line per failed operation of a body result, against its reference.

    A check fails if its status is fail or error, or if it moved from the
    reference by more than its own tolerance.  A PSD verdict fails if it
    differs from the reference or its minimum eigenvalue moves by more
    than psd_tol * matrix_scale.  A reciprocal-sign report fails if it
    moved by more than the sign tolerance.
    """
    out = []
    if workload != "pick-batch":
        for r in result["reports"]:
            ref = reference["checks"].get(r["check_id"])
            if ref is None:
                why = "no reference value"
            elif r["status"] in ("fail", "error"):
                why = f"status {r['status']}"
            else:
                why = _moved(r["status"], _computed(r), ref, ref["tolerance"])
            if why:
                out.append(f"{r['check_id']}: {why}")
        return out
    if len(result["ops"]) > len(reference["ops"]):
        return ["batch is longer than its reference"]
    for i, (kind, got, ref) in enumerate(zip(result["kinds"], result["ops"], reference["ops"])):
        if kind != reference["kinds"][i]:
            why = "operation kind differs from the reference"
        elif kind == "reciprocal_sign":
            why = _moved(got["status"], got["computed"], ref, SIGN_TOL)
        elif got["is_psd"] != ref["is_psd"]:
            why = f"is_psd {got['is_psd']}, reference {ref['is_psd']}"
        else:
            moved = abs(got["min_eigenvalue"] - ref["min_eigenvalue"])
            limit = PSD_TOL * ref["matrix_scale"]
            why = None if moved <= limit else f"min eigenvalue moved by {moved:.3g} > {limit:.3g}"
        if why:
            out.append(f"{i}:{kind}: {why}")
    return out
