"""Scenario runner.

Loads a JSON config, executes a named verification suite, writes a
deterministic JSON report plus CSV plot data, and exits nonzero when any
check fails.

    contactlab --suite monodromy --seed 1 --out reports/
    contactlab --config scenario.json
    contactlab --list-suites
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import flows, monodromy as mono, surgery
from .config import ConfigError, ScenarioConfig, config_from_dict, load_config
from .flows import IntegratorConfig, Trajectory
from .profiles import handle_f, handle_g
from .suites import run_suite, suite_names


def emit_plot_data(obj, path) -> None:
    """Write a trajectory or a named-column scan as CSV with a header row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(obj, Trajectory):
        flows.trajectory_to_csv(obj, path)
        return
    if isinstance(obj, dict):
        keys = list(obj.keys())
        columns = [list(map(float, obj[k])) for k in keys]
        length = len(columns[0]) if columns else 0
        if any(len(c) != length for c in columns):
            raise ValueError("scan columns must have equal length")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for i in range(length):
                writer.writerow([repr(c[i]) for c in columns])
        return
    raise TypeError(f"cannot emit plot data for {type(obj).__name__}")


def _emit_default_plots(out_dir: Path) -> list[Path]:
    """Profile scans plus the page flow of the worked start, for plotting."""
    written = []
    ss = np.linspace(0.0, 2.0, 201)
    scan = {
        "s": ss,
        "f": [handle_f(s, 0.1) for s in ss],
        "g": [handle_g(s, 0.1) for s in ss],
    }
    path = out_dir / "handle_profile.csv"
    emit_plot_data(scan, path)
    written.append(path)

    eps, delta = 0.1, 0.05  # page half-angle and smoothing width
    start = mono.build_start(np.array([1.0, 0.0]), np.array([0.0, 0.5]), eps)
    on_s1 = surgery.limit_transfers_to_s1(start.as_array()[None], 0, 2, delta)[0]
    fld = surgery.handle_hamiltonian_rhs(0, 2, delta)
    icfg = IntegratorConfig(max_time=1.0, event_tol=1e-12)
    traj = flows.flow_until_event(fld, on_s1, surgery.page_value(0, 2), eps, icfg)
    path = out_dir / "page_flow.csv"
    emit_plot_data(traj, path)
    written.append(path)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactlab",
        description="run verification suites for the surgery and open book models")
    parser.add_argument("--config", help="path to a JSON scenario config")
    parser.add_argument("--suite", help="suite name (overrides the config field)")
    parser.add_argument("--seed", type=int, help="seed (overrides the config field)")
    parser.add_argument("--out", help="output directory for report and plot data")
    parser.add_argument("--list-suites", action="store_true",
                        help="print the registered suite names in run order and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_suites:
        for name in suite_names():
            print(name)
        return 0
    try:
        if args.config:
            cfg = load_config(args.config)
        else:
            cfg = ScenarioConfig()
        overrides = {}
        if args.suite is not None:
            overrides["suite"] = args.suite
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        if overrides:
            data = cfg.as_dict()
            data.update(overrides)
            cfg = config_from_dict(data)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # the output directory must be usable before the suite runs, not after
    if cfg.out_dir:
        out_dir = Path(cfg.out_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot use output directory {out_dir}: {exc}", file=sys.stderr)
            return 2

    report = run_suite(cfg)
    for line in report.summary_lines():
        print(line)
    print(f"suite {cfg.suite}: {'PASS' if report.passed else 'FAIL'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)")

    if cfg.out_dir:
        report_path = out_dir / f"report-{cfg.suite}.json"
        try:
            report_path.write_text(report.to_json())
            print(f"report written to {report_path}")
            for path in _emit_default_plots(out_dir):
                print(f"plot data written to {path}")
        except OSError as exc:
            # a failed open names its file; a failed write may not
            print(f"error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2

    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
