"""Structured check reports with deterministic serialization.

A report stores its rows as columns (check id, location, value, tolerance,
verdict) plus a provenance block echoing the run configuration; two runs
with the same configuration and seed serialize to identical bytes.

``CheckReport.add`` declares a block of rows in one call: its arguments
broadcast against each other, and the rows follow the broadcast shape in C
order (the last axis varies fastest).  Scalars add one row.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CheckReport:
    provenance: dict = field(default_factory=dict)
    checks: list = field(default_factory=list, init=False)
    locations: list = field(default_factory=list, init=False)
    values: list = field(default_factory=list, init=False)
    tolerances: list = field(default_factory=list, init=False)
    verdicts: list = field(default_factory=list, init=False)

    def add(self, check, location, value, tolerance, passed=None) -> None:
        """Append one row per element of the broadcast arguments, in C order:
        a ``(k,)`` list of check ids with ``(n, 1)`` locations and ``(n, k)``
        values adds k rows per location.  The default verdict is |value| <=
        tolerance, elementwise, so a NaN value fails.  Shapes that do not
        broadcast raise ValueError and add no row."""
        value = np.asarray(value, dtype=float)
        tolerance = np.asarray(tolerance, dtype=float)
        if passed is None:
            passed = np.abs(value) <= tolerance
        columns = np.broadcast_arrays(np.asarray(check), np.asarray(location), value,
                                      tolerance, np.asarray(passed, dtype=bool))
        for column, block in zip((self.checks, self.locations, self.values,
                                  self.tolerances, self.verdicts), columns):
            column.extend(block.ravel().tolist())

    @property
    def passed(self) -> bool:
        return all(self.verdicts)

    @property
    def summary(self) -> str:
        n_fail = self.verdicts.count(False)
        verdict = "PASS" if n_fail == 0 else "FAIL"
        return f"{verdict} ({len(self.verdicts) - n_fail}/{len(self.verdicts)} checks)"


def _rows(report: CheckReport):
    """Rows of the formatted columns: check, location, value, tolerance and
    verdict word ("pass" or "FAIL")."""
    return zip(report.checks, report.locations,
               [f"{v:.9e}" for v in report.values],
               [repr(t) for t in report.tolerances],
               ["pass" if p else "FAIL" for p in report.verdicts])


def _emit_table(report: CheckReport) -> str:
    lines = [f"# {key} = {report.provenance[key]}" for key in sorted(report.provenance)]
    header = f"{'check':<28} {'location':<26} {'value':>16} {'tolerance':>12} verdict"
    lines.append(header)
    lines.append("-" * len(header))
    lines.extend(f"{c:<28} {loc:<26} {v:>16} {t:>12} {word}"
                 for c, loc, v, t, word in _rows(report))
    lines.append(f"summary: {report.summary}")
    return "\n".join(lines) + "\n"


def _emit_records(report: CheckReport) -> str:
    lines = [json.dumps({"type": "provenance", **report.provenance}, sort_keys=True)]
    lines.extend(json.dumps({"type": "row", "check": c, "location": loc, "value": v,
                             "tolerance": t, "passed": word == "pass"}, sort_keys=True)
                 for c, loc, v, t, word in _rows(report))
    lines.append(json.dumps({"type": "summary", "passed": report.passed,
                             "text": report.summary}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _emit_csv(report: CheckReport) -> str:
    lines = ["check,location,value,tolerance,verdict"]
    lines.extend(f"{c},{loc.replace(',', ';')},{v},{t},{word}"
                 for c, loc, v, t, word in _rows(report))
    lines.append(f"summary,,,,{'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


_EMITTERS = {"table": _emit_table, "records": _emit_records, "csv": _emit_csv}
FORMATS = tuple(_EMITTERS)


def emit_report(report: CheckReport, fmt: str = "table") -> bytes:
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown output format: {fmt!r}")
    return _EMITTERS[fmt](report).encode("utf-8")
