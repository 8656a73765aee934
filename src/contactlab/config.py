"""Scenario configuration for the verification suites.

A flat JSON-friendly record; unknown or ill-typed fields fail validation
with the offending names listed.  Identical config plus seed implies
byte-identical reports.  A check's tolerance is no setting: it is declared
at the check, in :mod:`contactlab.suites`.
"""

from __future__ import annotations

import json
import math
import types
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_origin, get_type_hints


@dataclass
class ScenarioConfig:
    suite: str = "all"
    seed: int = 0
    out_dir: str | None = None

    # geometry parameters
    epsilon: float = 0.1
    window_epsilon: float = 0.24  # page half-angle for the smoothing-window scan
    p0: float = 1.0
    twist_k: int = 1
    scale_C: float = 4.0
    deltas: list[float] = field(default_factory=lambda: [0.05, 0.1])
    window_deltas: list[float] = field(default_factory=lambda: [0.02, 0.01, 0.005])
    a_values: list[float] = field(default_factory=lambda: [10.0, 100.0, 1000.0, 10000.0])

    # dimensions
    sphere_dims: list[int] = field(default_factory=lambda: [1, 2, 3])
    model_dims: list[list[int]] = field(default_factory=lambda: [[2, 1], [3, 1], [3, 2]])
    page_blocks: list[int] = field(default_factory=lambda: [2, 3, 4])  # z,w block sizes

    # sample counts
    n_twist: int = 500
    n_strict: int = 500
    n_liouville: int = 100
    n_surface_scan: int = 10000
    n_monodromy: int = 200
    n_giroux: int = 200
    n_giroux_numeric: int = 6
    n_chains: int = 1000
    n_nonconnected: int = 100
    n_window: int = 24

    # numerics
    h_fd: float = 1e-5
    flow_step: float = 1e-3
    giroux_flow_step: float = 0.02
    quad_nodes: int = 32
    search_depth: int = 6

    def __post_init__(self):
        problems = []
        typed = set()
        for f in fields(self):
            value, hint = getattr(self, f.name), _TYPE_HINTS[f.name]
            if _conforms(value, hint):
                typed.add(f.name)
            else:
                problems.append(f"{f.name}: expected {f.type}, got {value!r}")
        if "suite" in typed:
            from .suites import suite_names  # late: the registry imports this module
            if self.suite not in suite_names():
                problems.append(f"suite: unknown name, expected one of {suite_names()}, "
                                f"got {self.suite!r}")
        for names, holds, rule in _RULES:
            for name in names:
                if name in typed and not holds(getattr(self, name)):
                    problems.append(f"{name}: {rule}, got {getattr(self, name)!r}")
        if problems:
            raise ConfigError(problems)

    def as_dict(self) -> dict:
        return asdict(self)


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("invalid scenario config:\n  " + "\n  ".join(problems))


_TYPE_HINTS = get_type_hints(ScenarioConfig)
_SAMPLE_COUNTS = tuple(f.name for f in fields(ScenarioConfig) if f.name.startswith("n_"))

# (fields, predicate, what the predicate requires); applied to fields whose
# values already match their annotation
_RULES = [
    (("epsilon", "window_epsilon"), lambda v: 0.0 < v < 0.25,
     "page half-angle must lie in (0, 1/4)"),
    (("p0", "scale_C", "h_fd", "flow_step", "giroux_flow_step"), lambda v: v > 0,
     "must be positive"),
    # each step must be shorter than the shortest span it drives
    (("flow_step",), lambda v: v < 1.0, "must be below 1, the shortest flow time bound"),
    (("giroux_flow_step",), lambda v: v < 2.0, "must be below 2, the flow time bound"),
    (("twist_k",), lambda v: v >= 1, "must be a positive integer"),
    (("seed",), lambda v: v >= 0, "must be non-negative"),
    (("quad_nodes",), lambda v: v >= 1, "needs at least one node"),
    (("search_depth",), lambda v: v >= 0, "must be non-negative"),
    (_SAMPLE_COUNTS, lambda v: v >= 1, "sample count must be >= 1"),
    (("window_deltas",), lambda v: len(set(v)) >= 2 and min(v) > 0,
     "the log-log slope fit needs at least two distinct positive values"),
    (("deltas", "a_values"), lambda v: v and min(v) > 0, "needs positive values"),
    # the convergence check compares the errors in list order
    (("a_values",), lambda v: all(a < b for a, b in zip(v, v[1:])),
     "must be strictly increasing"),
    (("deltas", "window_deltas"), lambda v: all(0.0 < d < 0.25 for d in v),
     "smoothing widths must lie in (0, 1/4)"),
    (("sphere_dims",), lambda v: v and min(v) >= 1, "needs sphere dimensions >= 1"),
    (("page_blocks",), lambda v: v and min(v) >= 2, "needs block sizes >= 2"),
    (("model_dims",), lambda v: v and all(len(d) == 2 and 1 <= d[1] < d[0] for d in v),
     "needs [n, k] pairs with 1 <= k < n"),
]


def _conforms(value, annotation) -> bool:
    """Whether a JSON-decoded value fits a field annotation.  bool never
    counts as a number; an int counts as a float."""
    origin = get_origin(annotation)
    if origin is list:
        (item,) = get_args(annotation)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if origin is types.UnionType:
        return any(_conforms(value, arg) for arg in get_args(annotation))
    if annotation is type(None):
        return value is None
    if isinstance(value, bool):
        return False
    if annotation is float:
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, annotation)


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError([f"config root must be a JSON object, got {type(data).__name__}"])
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        # keys of mixed types do not compare, so they sort by their text
        raise ConfigError([f"unknown fields: {sorted(unknown, key=str)}"])
    return ScenarioConfig(**data)


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from exc
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc.strerror or exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"config {path!r} is not UTF-8 text: {exc}"]) from exc
    return config_from_dict(data)
