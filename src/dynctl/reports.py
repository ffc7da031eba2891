"""Check-result containers and CSV/JSON emission with frozen schemas."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class CheckResult:
    """One named identity or sweep check: ok plus a short human-readable detail."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"{c.name}: {status}{suffix}")
        return out


# CSV schemas are versioned in a leading comment line so longitudinal data
# stays comparable; bump the version when a column changes meaning.
CSV_SCHEMAS = {
    "density": ("dynctl.density.v1", ["B", "hits", "total", "ratio"]),
    "avg": ("dynctl.avg.v1", ["B", "population", "total_integral", "average", "truncated_fraction"]),
    "orbit": ("dynctl.orbit.v1", ["n", "point", "integral"]),
    "avg3": ("dynctl.avg3.v1", ["B", "population", "total_integral", "average", "open_cell_max"]),
    "ffavg": ("dynctl.ffavg.v1", ["B", "population", "total_integral", "average"]),
    "verify": ("dynctl.verify.v1", ["name", "ok", "detail"]),
}

# The per-bound report attribute behind each column of the sweep schemas.
CSV_FIELDS = {
    "B": "b_values",
    "hits": "hits",
    "total": "totals",
    "ratio": "ratios",
    "population": "population",
    "total_integral": "totals",
    "average": "averages",
    "truncated_fraction": "truncated_fractions",
    "open_cell_max": "open_cell_maxima",
}


def emit_csv(kind: str, rows: Iterable[Sequence]) -> str:
    schema, columns = CSV_SCHEMAS[kind]
    buf = io.StringIO()
    buf.write(f"# schema: {schema}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def emit_report_csv(kind: str, report) -> str:
    """A sweep report as CSV: one row per height bound, columns from CSV_SCHEMAS[kind]."""
    _, columns = CSV_SCHEMAS[kind]
    return emit_csv(kind, zip(*(getattr(report, CSV_FIELDS[c]) for c in columns)))


def emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def error_json(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
