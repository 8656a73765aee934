"""Spans around the calls into each contactlab layer, recorded from outside.

The tracer rebinds module and class attributes to timing wrappers, including
names a module bound at import time (``exterior_derivative`` in ``openbook``,
``run_check`` in ``suites``), and restores every original when it closes.
Spans (name, parent, start, end, work count) are kept in memory and written
out when the traced pass ends.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _rows(result) -> int:
    return len(result.points) if hasattr(result, "points") else len(result)


def _steps(traj) -> int:
    return max(len(traj.times) - 1, 0)  # recorded states past the start


# (owner attribute path, function name, span name, work count of a result)
TRACED = [
    ("suites", "run_suite", "suites.run_suite", None),
    ("reports.VerificationReport", "to_json", "reports.to_json", None),
    ("openbook", "giroux_correction", "openbook.giroux_correction", None),
    ("openbook", "giroux_flow_batch", "openbook.giroux_flow_batch", _rows),
    ("openbook.ExactSymplecticDomain", "dlambda_matrix", "openbook.dlambda_matrix", None),
    ("forms", "exterior_derivative", "forms.exterior_derivative", None),
    ("openbook", "exterior_derivative", "forms.exterior_derivative", None),
    ("forms", "fd_jacobian", "forms.fd_jacobian", None),
    ("forms", "pullback_eval", "forms.pullback_eval", None),
    ("openbook", "pullback_eval", "forms.pullback_eval", None),
    ("flows", "flow_until_event", "flows.flow_until_event", _steps),
    ("flows", "flow_fixed_time", "flows.flow_fixed_time", None),
    ("flows", "flow_record", "flows.flow_record", None),
    ("_kernels", "rk4_until_event", "kernels.rk4_until_event", None),
    ("_kernels", "rk4_final", "kernels.rk4_final", None),
    ("monodromy", "post_surgery_pipeline", "monodromy.post_surgery_pipeline", None),
    ("monodromy", "pre_surgery_monodromy", "monodromy.pre_surgery_monodromy", None),
    ("monodromy", "delta_deviation_scan", "monodromy.delta_deviation_scan", None),
    ("surgery", "limit_transfer_to_s1", "surgery.limit_transfer_to_s1", None),
    ("surgery", "transversality_margins", "surgery.transversality_margins", _rows),
    ("surgery", "handle_membership", "surgery.handle_membership", None),
    ("sphere", "dehn_twist", "sphere.dehn_twist", None),
    ("sphere", "dehn_twist_batch", "sphere.dehn_twist_batch", None),
    ("moves", "equivalent_up_to_moves", "moves.equivalent_up_to_moves", None),
    ("moves", "neighbors", "moves.neighbors", None),
    ("moves", "to_text", "moves.to_text", None),
]

# the slowest checks of the default run; their spans are reported inclusive
CHECKS = [
    "exactness-correction-integrated-flow", "exactness-correction-identity",
    "primitive-path-independence", "exactness-correction-twist",
    "exactness-correction-shear",
    "pipeline-vs-closed-form", "smoothing-window-bound", "pre-surgery-trivial",
    "flow-invariants", "page-speed-law",
    "level-set-transversality", "twist-symplectomorphism", "move-chain-recognition",
    "straightening-strictness", "liouville-expansion", "handle-membership-oracle",
    "no-false-equivalence",
]

# span name -> metric suffixes reported for it
_CALLS_S = ("calls", "s")
REPORTED = {
    "reports.to_json": ("s",),
    "openbook.giroux_correction": _CALLS_S,
    "openbook.giroux_h": _CALLS_S,
    "openbook.giroux_psi_hat": _CALLS_S,
    "openbook.giroux_flow_batch": ("calls", "s", "rows"),
    "openbook.dlambda_matrix": _CALLS_S,
    "openbook.bump_func": _CALLS_S,
    "openbook.bump_jac": _CALLS_S,
    "forms.exterior_derivative": _CALLS_S,
    "forms.fd_jacobian": _CALLS_S,
    "forms.pullback_eval": _CALLS_S,
    "flows.flow_until_event": ("calls", "s", "steps"),
    "flows.flow_fixed_time": _CALLS_S,
    "flows.flow_record": _CALLS_S,
    "kernels.rk4_until_event": _CALLS_S,
    "kernels.rk4_final": _CALLS_S,
    "monodromy.post_surgery_pipeline": _CALLS_S,
    "monodromy.pre_surgery_monodromy": _CALLS_S,
    "monodromy.delta_deviation_scan": ("s",),
    "surgery.limit_transfer_to_s1": _CALLS_S,
    "surgery.transversality_margins": ("calls", "s", "rows"),
    "surgery.handle_membership": _CALLS_S,
    "sphere.dehn_twist": _CALLS_S,
    "sphere.dehn_twist_batch": _CALLS_S,
    "moves.equivalent_up_to_moves": _CALLS_S,
    "moves.neighbors": ("calls",),
    "moves.to_text": ("calls",),
}

UNITS = {"calls": "count", "rows": "count", "steps": "count", "s": "s"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {"suites.run_suite.s": "s", "reports.run_check.calls": "count"}
    out.update({f"check.{name}.s": "s" for name in CHECKS})
    for span, suffixes in REPORTED.items():
        out.update({f"{span}.{sfx}": UNITS[sfx] for sfx in suffixes})
    out.update({"flows.us_per_step": "us", "monodromy.ms_per_start": "ms",
                "moves.nodes_per_s": "1/s", "process.cpu_s": "s",
                "trace.wall_s": "s"})
    return out


class Tracer:
    """Install with ``with Tracer(package) as tr:``; spans live in ``tr.spans``."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # rows of [name id, parent index, start, end, work count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, path: str):
        obj = self.package
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def wrap(self, fn, name: str, count=None):
        ident = self._name_ids.setdefault(name, len(self.names))
        if ident == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            row = [ident, stack[-1] if stack else -1, clock(), 0.0, 0]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
            if count is not None:
                row[4] = count(result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        ob = self.package.openbook
        for path, attr, name, count in TRACED:
            owner = self._owner(path)
            self._rebind(owner, attr, self.wrap(getattr(owner, attr), name, count))
        # maps handed back inside results are wrapped on their way out
        correction = ob.giroux_correction

        def giroux_correction(*args, **kwargs):
            res = correction(*args, **kwargs)
            res.h = self.wrap(res.h, "openbook.giroux_h")
            res.psi_hat.func = self.wrap(res.psi_hat.func, "openbook.giroux_psi_hat")
            return res

        self._rebind(ob, "giroux_correction", giroux_correction)
        bump_map = ob.hamiltonian_bump_map

        def hamiltonian_bump_map(*args, **kwargs):
            cand = bump_map(*args, **kwargs)
            cand.batched.func = self.wrap(cand.batched.func, "openbook.bump_func")
            cand.batched.jac = self.wrap(cand.batched.jac, "openbook.bump_jac")
            return cand

        self._rebind(ob, "hamiltonian_bump_map", hamiltonian_bump_map)
        run_check = self.package.suites.run_check
        per_check = {}

        def checked(name, *args, **kwargs):
            if name not in per_check:
                per_check[name] = self.wrap(run_check, f"check.{name}")
            return per_check[name](name, *args, **kwargs)

        self._rebind(self.package.suites, "run_check", checked)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "parent", "start", "end", "work"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, work counts, self and inclusive seconds."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        work = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i, (ident, _, start, end, count) in enumerate(self.spans):
            name = self.names[ident]
            calls[name] += 1
            work[name] += count
            incl[name] += end - start
            self_s[name] += end - start - child_time[i]

        out = {"suites.run_suite.s": incl["suites.run_suite"],
               "reports.run_check.calls": sum(n for name, n in calls.items()
                                              if name.startswith("check."))}
        out.update({f"check.{name}.s": incl[f"check.{name}"] for name in CHECKS})
        for span, suffixes in REPORTED.items():
            for sfx in suffixes:
                out[f"{span}.{sfx}"] = {"calls": calls[span], "s": self_s[span],
                                        "rows": work[span], "steps": work[span]}[sfx]
        steps = work["flows.flow_until_event"]
        out["flows.us_per_step"] = 1e6 * incl["flows.flow_until_event"] / steps if steps else 0.0
        pipes = calls["monodromy.post_surgery_pipeline"]
        out["monodromy.ms_per_start"] = (1e3 * incl["monodromy.post_surgery_pipeline"] / pipes
                                         if pipes else 0.0)
        search = incl["moves.equivalent_up_to_moves"]
        out["moves.nodes_per_s"] = calls["moves.neighbors"] / search if search else 0.0
        return out
