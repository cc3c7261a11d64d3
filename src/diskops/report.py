"""Structured verification reports and their serialization.

Every named check in ``checks`` ends in one ``VerificationReport``, built by
``make_report``, ``compare_report`` or ``vanishing_report``: what was
computed, what it was compared against (with a provenance tag), the
tolerance, and a status.  ``consistent`` is reserved for one-sided checks
where only a bound violation would be refutable.  The library modules return
numbers; ``pick.reciprocal_sign_check`` is the one report built outside
``checks``.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

PASS = "pass"
FAIL = "fail"
CONSISTENT = "consistent"
ERROR = "error"

PAPER = "PAPER"
TRIVIAL = "TRIVIAL"
DERIVED = "DERIVED"

_STATUSES = (PASS, FAIL, CONSISTENT, ERROR)
_PROVENANCES = (PAPER, TRIVIAL, DERIVED)


@dataclass(frozen=True)
class LabeledValue:
    label: str
    value: complex


@dataclass(frozen=True)
class ReferenceValue:
    label: str
    value: complex
    provenance: str

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")


@dataclass
class VerificationReport:
    check_id: str
    status: str
    computed: tuple[LabeledValue, ...] = ()
    reference: tuple[ReferenceValue, ...] = ()
    tolerance: float = 0.0
    elapsed_ms: float = 0.0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status in (PASS, CONSISTENT)


def make_report(computed, reference, tolerance, ok, *, one_sided=False):
    """Report from (label, value) / (label, value, tag) tuples: ``pass`` iff
    ``ok`` (``consistent`` when ``one_sided``), else ``fail``."""
    return VerificationReport(
        check_id="",
        status=(CONSISTENT if one_sided else PASS) if ok else FAIL,
        computed=tuple(LabeledValue(l, complex(v)) for l, v in computed),
        reference=tuple(ReferenceValue(l, complex(v), p) for l, v, p in reference),
        tolerance=float(tolerance),
    )


def compare_report(triples, tolerance, relative=False):
    """Pass/fail report from (label, computed, reference, provenance) rows.

    Passes iff every |computed - reference| is within the tolerance
    (scaled by |reference| when ``relative``).
    """
    computed, reference = [], []
    ok = True
    for label, got, want, prov in triples:
        got, want = complex(got), complex(want)
        bound = tolerance * max(1.0, abs(want)) if relative else tolerance
        ok = ok and abs(got - want) <= bound
        computed.append((label, got))
        reference.append((label, want, prov))
    return make_report(computed, reference, tolerance, ok)


def vanishing_report(label, value, tolerance, provenance, reference_label=None):
    """An error that should vanish, passing iff value < tolerance; its
    reference is 0.0 under ``reference_label`` (default ``label``)."""
    return make_report(
        [(label, value)], [(reference_label or label, 0.0, provenance)], tolerance,
        value < tolerance,
    )


def format_quantity(value) -> str:
    """Numeric rendering with 15 significant digits; complex as re+imj."""
    z = complex(value)
    if z.imag == 0.0:
        return f"{z.real:.15g}"
    return f"{z.real:.15g}{z.imag:+.15g}j"


def _value_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def report_to_dict(r: VerificationReport) -> dict:
    return {
        "check_id": r.check_id,
        "status": r.status,
        "computed": [{"label": v.label, "value": _value_pair(v.value)} for v in r.computed],
        "reference": [
            {"label": v.label, "value": _value_pair(v.value), "provenance": v.provenance}
            for v in r.reference
        ],
        "tolerance": r.tolerance,
        "elapsed_ms": r.elapsed_ms,
    }


def _emit_csv(reports) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check_id", "status", "tolerance", "elapsed_ms", "computed", "reference"])
    for r in reports:
        computed = ";".join(f"{v.label}={format_quantity(v.value)}" for v in r.computed)
        ref = ";".join(f"{v.label}={format_quantity(v.value)}[{v.provenance}]" for v in r.reference)
        writer.writerow(
            [r.check_id, r.status, f"{r.tolerance:.15g}", f"{r.elapsed_ms:.15g}", computed, ref]
        )
    return buf.getvalue().encode()


def _emit_text(reports) -> bytes:
    lines = []
    width = max((len(r.check_id) for r in reports), default=10)
    for r in reports:
        lines.append(
            f"[{r.status.upper():>10s}] {r.check_id:<{width}s}"
            f"  tol={r.tolerance:.3g}  ({r.elapsed_ms:.1f} ms)"
        )
        refs = {v.label: v for v in r.reference}
        for v in r.computed:
            line = f"    {v.label} = {format_quantity(v.value)}"
            if v.label in refs:
                ref = refs[v.label]
                line += f"  vs {format_quantity(ref.value)} [{ref.provenance}]"
            lines.append(line)
        for label, ref in refs.items():
            if not any(v.label == label for v in r.computed):
                lines.append(
                    f"    {label} (reference) = {format_quantity(ref.value)} [{ref.provenance}]"
                )
    counts = Counter(r.status for r in reports)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    lines.append(f"-- {len(reports)} checks ({summary})")
    return ("\n".join(lines) + "\n").encode()


FORMATS = {  # the output formats by name, each with its writer
    "text": _emit_text,
    "json": lambda reports: json.dumps([report_to_dict(r) for r in reports], indent=2).encode(),
    "csv": _emit_csv,
}


def emit_reports(reports, fmt: str) -> bytes:
    """Render a report list as a byte stream in one of the FORMATS."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    return FORMATS[fmt](reports)


def reports_ok(reports) -> bool:
    """Exit-code contract: true iff no report failed or errored."""
    return all(r.ok for r in reports)
