"""Scenario configuration for the verification suites.

A flat JSON-friendly record; unknown or ill-typed fields fail validation
with the offending names listed.  Identical config plus seed implies
byte-identical reports.  A scenario picks the suite, the seed and the
sample counts; a check's tolerance, geometry and numerics are no settings:
they are declared at the check, in :mod:`contactlab.suites`.
"""

from __future__ import annotations

import json
import types
from dataclasses import asdict, dataclass, fields
from typing import get_args, get_origin, get_type_hints


@dataclass
class ScenarioConfig:
    suite: str = "all"
    seed: int = 0
    out_dir: str | None = None

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
    # depth bound of the move search in move-chain-recognition
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
    (("seed", "search_depth"), lambda v: v >= 0, "must be non-negative"),
    (_SAMPLE_COUNTS, lambda v: v >= 1, "sample count must be >= 1"),
]


def _conforms(value, annotation) -> bool:
    """Whether a JSON-decoded value fits a field annotation; bool never
    counts as an int."""
    if get_origin(annotation) is types.UnionType:
        return any(_conforms(value, arg) for arg in get_args(annotation))
    if annotation is type(None):
        return value is None
    if isinstance(value, bool):
        return False
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
