"""Command-line verification harness.

Subcommands::

    diskops verify <suite>                       run a named check suite
    diskops norm <space> <series.json>           space norm of a series
    diskops opnorm <space> {mult|comp} <series.json>
    diskops kernel <space> <w> <z>               kernel value (closed/series)
    diskops isometry <space> <blaschke.json> <m> alternating defect values
    diskops pick <problem.json>                  Pick matrix PSD verdict

Input files are JSON, each complex number a [re, im] pair: a series is a list of
pairs by degree, a Blaschke product {"a": pair, "zeros": [pair, ...]} and a Pick
problem {"space": name, "nodes": [pair, ...], "targets": [pair, ...]}.

Global flags: --truncation, --tol, --quad-nodes, --seed, --output.
Each flag also reads an environment override DISKOPS_TRUNCATION,
DISKOPS_TOL, DISKOPS_QUAD_NODES, DISKOPS_SEED, DISKOPS_OUTPUT (flags win).
Numbers print with 15 significant digits.  ``verify`` exits 1 iff a report
has status fail or error; bad input, or an array past the memory, prints
``diskops: <message>`` and exits 2.
``isometry`` is guarded by --tol: a truncation too short to hold the defects
within it prints one ``diskops:`` line naming the order that does, and exits 2.
``main`` runs OpenBLAS with one thread and shuts its idle pool down unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set, so values do not depend on the
core count and a run holds one core.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

from . import blaschke as bl
from . import checks
from . import operators as op
from . import pick as pk
from . import report as rp
from . import series as ps
from . import spaces as sp
from .errors import DiskOpsError, TruncationError

ENV_PREFIX = "DISKOPS_"
# numpy.libs, scipy.libs, then a system OpenBLAS
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)


def _pin_blas_threads() -> None:
    """Pin every loaded OpenBLAS to one thread and shut its pool, unless the user chose a count.

    numpy loads its OpenBLAS on import, before ``main`` runs, as does scipy when
    the caller imported it, so the environment variable would come too late.
    A worker of an earlier threaded call spins for 2^28 cycles, which one thread does not
    stop: ``blas_thread_shutdown_`` joins it, and a later raised count rebuilds the pool.
    So ``main`` is a process entry point: no other Python thread may be inside BLAS then.
    Without a map, library or symbol this does nothing.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as maps:
            fields = [line.rstrip("\n").split(maxsplit=5) for line in maps]
    except OSError:
        return
    paths = {f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:  # absent from OpenMP builds
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                    shutdown()
                break


# help text of each Config knob: its flag is --<name> (_ as -), read as the type of its default
_KNOBS = {
    "truncation": "working series order",
    "tol": "default check tolerance",
    "quad_nodes": "circle quadrature node count",
    "seed": "PRNG seed for randomized checks",
    "output": f"report format for verify, one of {', '.join(rp.FORMATS)}",
}


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS defaults let the shared flags appear before or after the
    # subcommand without the subparser clobbering already-parsed values
    common = argparse.ArgumentParser(add_help=False)
    for name, text in _KNOBS.items():
        default = getattr(checks.Config, name)
        common.add_argument(
            "--" + name.replace("_", "-"), type=type(default), default=argparse.SUPPRESS,
            help=f"{text} (default {default}, env {ENV_PREFIX}{name.upper()})",
        )
    parser = argparse.ArgumentParser(
        prog="diskops",
        description="verification harness for analytic-function-space computations",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named check suite", parents=[common])
    verify.add_argument("suite", choices=checks.SUITE_NAMES)

    norm = sub.add_parser("norm", help="space norm of a JSON series", parents=[common])
    norm.add_argument("space")
    norm.add_argument("series_json")

    opnorm = sub.add_parser("opnorm", help="compression norm estimate", parents=[common])
    opnorm.add_argument("space")
    opnorm.add_argument("kind", choices=("mult", "comp"))
    opnorm.add_argument("series_json")

    kernel = sub.add_parser("kernel", help="reproducing kernel value", parents=[common])
    kernel.add_argument("space")
    kernel.add_argument("w", help="complex number, e.g. 0.3+0.2j")
    kernel.add_argument("z")

    isometry = sub.add_parser(
        "isometry", help="alternating defect of a Blaschke multiplier", parents=[common]
    )
    isometry.add_argument("space")
    isometry.add_argument("blaschke_json")
    isometry.add_argument("m", type=int)

    pick = sub.add_parser(
        "pick", help="Pick matrix PSD verdict from a JSON problem", parents=[common]
    )
    pick.add_argument("problem_json")
    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _complex_pairs(pairs, what: str = "series") -> list[complex]:
    """[re, im] pairs of floats or in-range ints (no bools) as complex numbers; ValueError
    naming the first entry that is not one."""
    for p in pairs if isinstance(pairs, (list, tuple)) else [pairs]:
        if not (isinstance(p, (list, tuple)) and len(p) == 2 and all(
                isinstance(x, float) or type(x) is int and abs(x) <= sys.float_info.max for x in p)):
            raise ValueError(f"{what} entry {p!r} is not a pair of two numbers")
    return [complex(re, im) for re, im in pairs]


def _field(d, key: str):
    """d[key] of a decoded JSON object; ValueError naming the key when it is missing."""
    if not isinstance(d, dict) or key not in d:
        raise ValueError(f"expected a JSON object with the key {key!r}")
    return d[key]


def _read_series(pairs) -> ps.PowerSeries:
    return ps.from_coefficients(_complex_pairs(pairs))


def _read_blaschke(d) -> bl.BlaschkeProduct:
    (a,) = _complex_pairs([_field(d, "a")], "Blaschke 'a'")
    return bl.BlaschkeProduct(a, tuple(_complex_pairs(_field(d, "zeros"), "Blaschke 'zeros'")))


def _read_pick_problem(d) -> pk.PickProblem:
    return pk.PickProblem(
        space=sp.parse_space(str(_field(d, "space"))),
        nodes=tuple(_complex_pairs(_field(d, "nodes"), "Pick 'nodes'")),
        targets=tuple(_complex_pairs(_field(d, "targets"), "Pick 'targets'")),
    )


def _config(args) -> checks.Config:
    """The knobs a flag or a DISKOPS_* variable sets (the flag wins); Config fills in the rest."""
    knobs = {}
    for name in _KNOBS:
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if hasattr(args, name):  # SUPPRESS leaves the attribute unset when the flag is absent
            knobs[name] = getattr(args, name)
        elif raw is not None:
            knobs[name] = type(getattr(checks.Config, name))(raw)
    return checks.Config(**knobs)


def _cmd_verify(args, cfg: checks.Config) -> int:
    reports = checks.run_suite(args.suite, cfg)
    try:
        sys.stdout.buffer.write(rp.emit_reports(reports, cfg.output))
        sys.stdout.buffer.flush()
    except OSError as exc:
        raise IOError(f"failed writing reports: {exc}") from exc
    return 0 if rp.reports_ok(reports) else 1


def _cmd_norm(args, cfg: checks.Config) -> int:
    space = sp.parse_space(args.space)
    print(rp.format_quantity(sp.space_norm(space, _read_series(_load_json(args.series_json)))))
    return 0


def _cmd_opnorm(args, cfg: checks.Config) -> int:
    space = sp.parse_space(args.space)
    f = _read_series(_load_json(args.series_json))
    if args.kind == "mult":
        value = op.multiplication_norm(space, f, cfg.truncation)
    else:
        value = op.composition_norm(space, f, cfg.truncation)
    print(rp.format_quantity(value))
    return 0


def _cmd_kernel(args, cfg: checks.Config) -> int:
    space = sp.parse_space(args.space)
    w = complex(args.w)
    z = complex(args.z)
    print(rp.format_quantity(sp.kernel(space, w, z)))
    return 0


def _cmd_isometry(args, cfg: checks.Config) -> int:
    space = sp.parse_space(args.space)
    psi = _read_blaschke(_load_json(args.blaschke_json))
    probes = [ps.one(), ps.monomial(1), ps.from_coefficients([1, 1])]
    values, starved = [], []
    for probe in probes:
        try:
            values.append(op.blaschke_power_defect(space, psi, args.m, probe, cfg.truncation, cfg.tol))
        except TruncationError as exc:
            starved.append(exc)
    if starved:  # name the largest order any probe needs
        raise max(starved, key=lambda exc: exc.needed or 0)
    for probe, value in zip(probes, values):
        print(f"probe degree {probe.degree()}: defect {rp.format_quantity(value)}")
    print(f"max |defect| {rp.format_quantity(max(map(abs, values)))}")
    return 0


def _cmd_pick(args, cfg: checks.Config) -> int:
    problem = _read_pick_problem(_load_json(args.problem_json))
    verdict = pk.psd_check(pk.pick_matrix(problem))
    print(f"is_psd {verdict.is_psd}")
    print(f"min_eigenvalue {rp.format_quantity(verdict.min_eigenvalue)}")
    print(f"matrix_scale {rp.format_quantity(verdict.matrix_scale)}")
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "norm": _cmd_norm,
    "opnorm": _cmd_opnorm,
    "kernel": _cmd_kernel,
    "isometry": _cmd_isometry,
    "pick": _cmd_pick,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_blas_threads()
    try:
        return _COMMANDS[args.command](args, _config(args))
    # ValueError covers bad JSON, MemoryError an array past the memory (a huge --truncation)
    except (DiskOpsError, ValueError, OSError, MemoryError) as exc:
        print("diskops: " + (" ".join(str(exc).split()) or type(exc).__name__), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
