"""Machine-readable verification reports.

A report is a JSON document with stable key order and deterministic float
formatting: identical configuration and seed produce byte-identical files.
The environment stamp carries package versions only (no wall-clock data), so
it never breaks reproducibility on a fixed machine.
"""

from __future__ import annotations

import json
import platform
import sys
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import active_backend


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
    """Recursively convert numpy scalars/arrays for JSON round-tripping."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def environment_stamp() -> dict:
    import numpy
    stamp = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "kernel_backend": active_backend(),
    }
    try:
        import numba
        stamp["numba"] = numba.__version__
    except ImportError:  # pragma: no cover
        stamp["numba"] = None
    return stamp


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
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

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
