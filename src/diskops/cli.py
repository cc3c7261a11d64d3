"""Command-line verification harness.

Subcommands::

    diskops verify <suite>                       run a named check suite
    diskops norm <space> <series.json>           space norm of a series
    diskops opnorm <space> {mult|comp} <series.json>
    diskops kernel <space> <w> <z>               kernel value (closed/series)
    diskops isometry <space> <blaschke.json> <m> alternating defect values
    diskops pick <problem.json>                  Pick matrix PSD verdict

Global flags: --truncation, --tol, --quad-nodes, --seed, --output.
Each flag also reads an environment override DISKOPS_TRUNCATION,
DISKOPS_TOL, DISKOPS_QUAD_NODES, DISKOPS_SEED, DISKOPS_OUTPUT (flags win).
Numbers print with 15 significant digits.  ``verify`` exits 1 iff a report
has status fail or error; bad input prints ``diskops: <message>`` and exits 2.
``isometry`` is guarded by --tol: a truncation too short to hold the defects
within it prints one ``diskops:`` line naming the order that does, and exits 2.
``main`` runs OpenBLAS with one thread unless OPENBLAS_NUM_THREADS or
OMP_NUM_THREADS is set, so values do not depend on the core count.
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
    """Pin every loaded OpenBLAS to one thread unless the user chose a count.

    numpy loads its OpenBLAS on import, before ``main`` runs, as does scipy when
    the caller imported it, so the environment variable would come too late.
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
                break


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS defaults let the shared flags appear before or after the
    # subcommand without the subparser clobbering already-parsed values
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--truncation", type=int, default=argparse.SUPPRESS,
        help="working series order (default 256, env DISKOPS_TRUNCATION)",
    )
    common.add_argument(
        "--tol", type=float, default=argparse.SUPPRESS,
        help="default check tolerance (default 1e-8, env DISKOPS_TOL)",
    )
    common.add_argument(
        "--quad-nodes", type=int, default=argparse.SUPPRESS,
        help="circle quadrature nodes, power of two >= 256 (default 4096, env DISKOPS_QUAD_NODES)",
    )
    common.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="PRNG seed for randomized checks (default 0, env DISKOPS_SEED)",
    )
    common.add_argument(
        "--output", choices=("text", "json", "csv"), default=argparse.SUPPRESS,
        help="report format for verify (default text, env DISKOPS_OUTPUT)",
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


def _pick(args, name: str, cast, fallback):
    # explicit flag wins even for falsy values; SUPPRESS leaves the attr unset
    if hasattr(args, name):
        return getattr(args, name)
    raw = os.environ.get(ENV_PREFIX + name.upper())
    return fallback if raw is None else cast(raw)


def _config(args) -> checks.Config:
    return checks.Config(
        truncation=_pick(args, "truncation", int, 256),
        tol=_pick(args, "tol", float, 1e-8),
        quad_nodes=_pick(args, "quad_nodes", int, 4096),
        seed=_pick(args, "seed", int, 0),
        output=_pick(args, "output", str, "text"),
    )


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
    f = ps.from_pairs(_load_json(args.series_json))
    print(rp.format_quantity(sp.space_norm(space, f)))
    return 0


def _cmd_opnorm(args, cfg: checks.Config) -> int:
    space = sp.parse_space(args.space)
    f = ps.from_pairs(_load_json(args.series_json))
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
    psi = bl.BlaschkeProduct.from_dict(_load_json(args.blaschke_json))
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
    problem = pk.PickProblem.from_dict(_load_json(args.problem_json))
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
    except (DiskOpsError, ValueError, OSError) as exc:  # ValueError covers bad JSON
        print("diskops: " + " ".join(str(exc).split()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
