"""Check-result containers and CSV/JSON emission with frozen schemas."""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence


class CheckResult(NamedTuple):
    """One named identity or sweep check: ok plus a short human-readable detail."""

    name: str
    ok: bool
    detail: str = ""


class VerificationReport(NamedTuple):
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
    import csv
    import io

    schema, columns = CSV_SCHEMAS[kind]
    buf = io.StringIO()
    buf.write(f"# schema: {schema}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def report_rows(kind: str, report) -> list[tuple]:
    """A sweep report's CSV rows: one per height bound, columns from CSV_SCHEMAS[kind]."""
    _, columns = CSV_SCHEMAS[kind]
    return list(zip(*(getattr(report, CSV_FIELDS[c]) for c in columns)))


def as_dict(record) -> dict:
    """A record's fields by name, in declaration order. A record held in a
    field, in a tuple or as a dict value becomes a dict in turn."""
    return {name: _plain(value) for name, value in zip(record._fields, record)}


def _plain(value):
    if hasattr(value, "_fields"):
        return as_dict(value)
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    return value


def emit_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def error_json(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
