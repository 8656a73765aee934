"""Machine-readable verification reports.

A report is a JSON document with stable key order and deterministic float
formatting: identical configuration and seed produce byte-identical files.
JSON has no token for a non-finite number, so an infinite or NaN float (the
residual of a check that raised, or of one that computed NaN) is written as
the string "inf", "-inf" or "nan", and the document stays valid JSON.
The environment stamp carries versions only (no wall-clock data), so it
never breaks reproducibility on a fixed machine.  :func:`diff_reports`
compares two reports record by record, and :func:`sweep_summary` sums up
the records of one suite's checks over many seeds.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


@dataclass
class CheckRecord:
    """One verification check: the identity it anchors to, sample count,
    worst residual, tolerance and verdict."""

    name: str
    anchor: str
    samples: int
    max_residual: float
    tolerance: float
    passed: bool
    ops: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "samples": self.samples,
            "max_residual": _plain(self.max_residual),
            "tolerance": _plain(self.tolerance),
            "passed": self.passed,
            "ops": list(self.ops),
            "details": _plain(self.details),
        }


def _plain(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays for JSON round-tripping, and
    a non-finite float to its name."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)  # 'inf', '-inf', 'nan'
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def environment_stamp() -> dict:
    """Package versions and ``schema_version``, the version of the report layout."""
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "schema_version": 2,
    }


@dataclass
class VerificationReport:
    suite: str
    config: dict
    checks: list[CheckRecord]
    environment: dict = field(default_factory=environment_stamp)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "config": _plain(self.config),
            "environment": self.environment,
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def summary_lines(self) -> list[str]:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"[{verdict}] {c.name}: max residual {c.max_residual:.3e} "
                         f"(tol {c.tolerance:.1e}, {c.samples} samples)")
        return lines


def check_rng(seed: int, name: str) -> np.random.Generator:
    """A per-check generator keyed by (seed, check name), stable across runs
    and check execution order."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def run_check(name: str, anchor: str, ops: list[str], tolerance: float,
              fn: Callable[[], tuple[float, int, dict]]) -> CheckRecord:
    """Execute one check body; exceptions mark the record failed with
    diagnostics instead of aborting the suite."""
    try:
        max_residual, samples, details = fn()
        passed = bool(max_residual <= tolerance)
        return CheckRecord(name=name, anchor=anchor, samples=samples,
                           max_residual=float(max_residual), tolerance=tolerance,
                           passed=passed, ops=ops, details=details)
    except Exception as exc:  # noqa: BLE001 - suite must report, not crash
        return CheckRecord(name=name, anchor=anchor, samples=0,
                           max_residual=float("inf"), tolerance=tolerance,
                           passed=False, ops=ops,
                           details={"error": f"{type(exc).__name__}: {exc}"})


# ---------------------------------------------------------------------------
# comparing two reports
# ---------------------------------------------------------------------------

@dataclass
class RecordDiff:
    """One check whose record differs between two reports: its verdict and
    worst residual on each side (None where the record is absent) and the
    field paths that moved."""

    name: str
    passed: tuple
    max_residual: tuple
    paths: list[str]

    @property
    def verdict_changed(self) -> bool:
        return self.passed[0] != self.passed[1]

    def line(self) -> str:
        verdicts = " -> ".join({True: "PASS", False: "FAIL", None: "absent"}[v]
                               for v in self.passed)
        # a non-finite residual is stored as its name
        residuals = " -> ".join("absent" if v is None else v if isinstance(v, str) else repr(v)
                                for v in self.max_residual)
        return f"{self.name}: {verdicts}, max_residual {residuals}; moved {', '.join(self.paths)}"


@dataclass
class ReportDiff:
    """The records of two reports that differ, and the other report fields
    (suite, config, environment, ...) that moved."""

    records: list[RecordDiff]
    fields: list[str]

    @property
    def exit_code(self) -> int:
        """0 when the reports are equal, 1 when something moved, 2 when a
        verdict changed (a record that appears or disappears changes one)."""
        if any(r.verdict_changed for r in self.records):
            return 2
        return 1 if self.records or self.fields else 0

    def lines(self) -> list[str]:
        out = [r.line() for r in self.records]
        if self.fields:
            out.append(f"report fields moved: {', '.join(self.fields)}")
        changed = sum(r.verdict_changed for r in self.records)
        out.append(f"{len(self.records)} records moved, {changed} verdicts changed")
        return out


_ABSENT = object()  # a key that one side of a comparison lacks


def _moved_paths(old: Any, new: Any, path: str) -> list[str]:
    """The dotted paths under which two JSON values differ; a list item is
    ``path[i]``."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [p for key in sorted(old.keys() | new.keys())
                for p in _moved_paths(old.get(key, _ABSENT), new.get(key, _ABSENT),
                                      f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in _moved_paths(a, b, f"{path}[{i}]")]
    same = type(old) is type(new) and old == new  # 1 and 1.0 or True differ in bytes
    return [] if same else [path]


def _records_by_name(report: Any, label: str) -> dict:
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str)
            and isinstance(c.get("passed"), bool) for c in checks):
        raise ValueError(f"{label} is not a report: it needs a list of named checks "
                         "with verdicts")
    records = {c["name"]: c for c in checks}
    if len(records) != len(checks):
        raise ValueError(f"{label} names a check twice")
    return records


def diff_reports(old: dict, new: dict) -> ReportDiff:
    """The records of two parsed report JSON documents that differ, in name
    order, and the moved fields outside the records; raises ValueError when
    either is not a report."""
    old_records = _records_by_name(old, "the old report")
    new_records = _records_by_name(new, "the new report")
    records = []
    for name in sorted(old_records.keys() | new_records.keys()):
        a, b = old_records.get(name), new_records.get(name)
        paths = ["record"] if a is None or b is None else _moved_paths(a, b, "")
        if paths:
            records.append(RecordDiff(
                name, tuple(None if r is None else r.get("passed") for r in (a, b)),
                tuple(None if r is None else r.get("max_residual") for r in (a, b)), paths))
    rest = _moved_paths({k: v for k, v in old.items() if k != "checks"},
                        {k: v for k, v in new.items() if k != "checks"}, "")
    return ReportDiff(records, rest)


# ---------------------------------------------------------------------------
# a seed sweep
# ---------------------------------------------------------------------------

def _headroom(record: CheckRecord) -> float:
    """The share of its tolerance that a record's residual uses, 1 at the
    bound; a zero tolerance reads 0 for a residual at or below 0, else inf,
    and a NaN residual reads inf."""
    value = record.max_residual
    if math.isnan(value):
        return math.inf
    if record.tolerance > 0.0:
        return value / record.tolerance
    return 0.0 if value <= 0.0 else math.inf


def sweep_summary(runs: list[tuple[int, list[CheckRecord]]]) -> dict:
    """Per check, in run order, over ``(seed, records)`` runs of the same
    declarations: the tolerance, the worst and median ``max_residual`` (a NaN
    counts as inf), the seed of the worst headroom, the worst headroom and
    the failing seeds.  The result is plain JSON data."""
    seen: dict[str, list[tuple[int, CheckRecord]]] = {}
    for seed, records in runs:
        for record in records:
            seen.setdefault(record.name, []).append((seed, record))
    checks = {}
    for name, pairs in seen.items():
        residuals = np.array([r.max_residual for _, r in pairs])
        residuals[np.isnan(residuals)] = math.inf
        worst_seed, worst = max(pairs, key=lambda pair: _headroom(pair[1]))
        checks[name] = _plain({
            "tolerance": worst.tolerance,
            "seeds": len(pairs),
            "worst_max_residual": float(residuals.max()),
            "median_max_residual": float(np.median(residuals)),
            "worst_seed": worst_seed,
            "worst_headroom": _headroom(worst),
            "failing_seeds": [seed for seed, r in pairs if not r.passed],
        })
    return {"seeds": [seed for seed, _ in runs],
            "passed": not any(c["failing_seeds"] for c in checks.values()),
            "checks": checks}


def sweep_lines(summary: dict) -> list[str]:
    """The ten checks with a nonzero tolerance nearest their bound,
    the count at or below 1e-5 of it on every seed, and each failing check
    with its seeds."""
    checks = summary["checks"]
    bounded = [(name, c) for name, c in checks.items() if c["tolerance"] > 0.0]
    # a headroom of inf is stored as its name
    ranked = sorted(bounded, key=lambda nc: float(nc[1]["worst_headroom"]), reverse=True)
    out = [f"{len(checks)} checks over {len(summary['seeds'])} seeds; "
           "nearest their bound (worst max_residual / tolerance):"]
    for name, c in ranked[:10]:
        out.append(f"  {name}: {float(c['worst_headroom']):.3g} at seed {c['worst_seed']} "
                   f"(worst {float(c['worst_max_residual']):.3e}, "
                   f"median {float(c['median_max_residual']):.3e}, tol {c['tolerance']:.1e})")
    quiet = sum(float(c["worst_headroom"]) <= 1e-5 for _, c in bounded)
    out.append(f"{quiet} of {len(bounded)} checks with a nonzero tolerance stay at or "
               "below 1e-5 of it on every seed")
    for name, c in checks.items():
        if c["failing_seeds"]:
            out.append(f"FAIL {name} at seeds {c['failing_seeds']}")
    return out
