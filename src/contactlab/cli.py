"""Scenario runner.

Loads a JSON config, executes a named verification suite, writes a
deterministic JSON report plus CSV plot data, and exits nonzero when any
check fails.

    contactlab --suite monodromy --seed 1 --out reports/
    contactlab --config scenario.json
    contactlab --list-suites

``contactlab diff OLD.json NEW.json`` compares two reports record by record:
it prints each record whose bytes differ, with its verdict and max_residual
old -> new and the field paths that moved, and exits 0 when the reports are
equal, 1 when something moved, 2 when a verdict changed and 3 when a file is
not a readable report or the arguments are wrong.

``contactlab sweep --suite S --seeds A-B [--only CHECK]`` runs the suite's
checks at each seed from A to B in one process and writes
``sweep-<suite>.json``: per check, the worst and median max_residual, the
worst seed, the worst headroom (max_residual / tolerance) and the failing
seeds.  It prints the checks nearest their bound and exits 0 when every
check passes at every seed, 1 when any fails and 3 on bad arguments.  It
writes no report.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import flows, monodromy as mono, surgery
from .config import ConfigError, ScenarioConfig, config_from_dict, load_config
from .flows import IntegratorConfig
from .profiles import handle_f, handle_g
from .reports import diff_reports, run_check, sweep_lines, sweep_summary
from .suites import declared_checks, run_suite, suite_names


def emit_plot_data(scan: dict, path) -> None:
    """Write named columns of equal length as CSV with a header row, each
    value as the repr of a float."""
    if not isinstance(scan, dict):
        raise TypeError(f"cannot emit plot data for {type(scan).__name__}")
    keys = list(scan.keys())
    columns = [list(map(float, scan[k])) for k in keys]
    length = len(columns[0]) if columns else 0
    if any(len(c) != length for c in columns):
        raise ValueError("scan columns must have equal length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for i in range(length):
            writer.writerow([repr(c[i]) for c in columns])


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
    on_s1 = surgery.limit_transfers_to_s1(start[None], 0, 2, delta)[0]
    fld = surgery.handle_hamiltonian_rhs(0, 2, delta)
    icfg = IntegratorConfig(max_time=1.0, event_tol=1e-12)
    traj = flows.flow_until_event(fld, on_s1, surgery.page_value(0, 2), eps, icfg)
    path = out_dir / "page_flow.csv"
    emit_plot_data({"time": traj.times, **{f"c{i}": col for i, col in enumerate(traj.points.T)}},
                   path)
    written.append(path)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactlab",
        description="run verification suites for the surgery and open book models",
        epilog="contactlab diff OLD.json NEW.json compares two reports record by record; "
               "contactlab sweep --suite S --seeds A-B sums up a suite over seeds")
    parser.add_argument("--config", help="path to a JSON scenario config")
    parser.add_argument("--suite", help="suite name (overrides the config field)")
    parser.add_argument("--seed", type=int, help="seed (overrides the config field)")
    parser.add_argument("--out", help="output directory for report and plot data")
    parser.add_argument("--list-suites", action="store_true",
                        help="print the registered suite names in run order and exit")
    return parser


def diff_main(argv: list[str]) -> int:
    """``contactlab diff``: 0 equal, 1 moved, 2 a verdict changed, 3 an
    unusable input."""
    parser = argparse.ArgumentParser(
        prog="contactlab diff", description="compare two reports record by record")
    parser.add_argument("old", help="the report to compare from")
    parser.add_argument("new", help="the report to compare to")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2, a changed verdict here
        return 3 if exc.code else 0
    reports = []
    for path in (args.old, args.new):
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
            return 3
    try:
        diff = diff_reports(*reports)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in diff.lines():
        print(line)
    return diff.exit_code


def _seed_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if match is None or int(match[2] or match[1]) < int(match[1]):
        raise argparse.ArgumentTypeError(f"expected A-B with 0 <= A <= B, or one seed; got {text!r}")
    return range(int(match[1]), int(match[2] or match[1]) + 1)


def sweep_main(argv: list[str]) -> int:
    """``contactlab sweep``: 0 every check passes at every seed, 1 one fails,
    3 bad arguments."""
    parser = argparse.ArgumentParser(
        prog="contactlab sweep",
        description="run a suite's checks at each seed of a range, in one process, "
                    "and sum up each check's records")
    parser.add_argument("--suite", required=True, help="suite name, or all")
    parser.add_argument("--seeds", required=True, type=_seed_range,
                        help="the seeds A-B, both included, or one seed")
    parser.add_argument("--only", action="append", metavar="CHECK",
                        help="run only this check (repeatable)")
    parser.add_argument("--config", help="a JSON scenario config for the other settings")
    parser.add_argument("--out", default=".", help="directory for sweep-<suite>.json")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error exits 2, a failing check here
        return 3 if exc.code else 0
    try:
        data = (load_config(args.config) if args.config else ScenarioConfig()).as_dict()
        configs = [config_from_dict(dict(data, suite=args.suite, seed=seed))
                   for seed in args.seeds]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    names = [declared[0] for declared in declared_checks(configs[0])]
    unknown = sorted(set(args.only or []) - set(names))
    if unknown:
        print(f"error: suite {args.suite!r} declares no check {unknown}", file=sys.stderr)
        return 3
    path = Path(args.out) / f"sweep-{args.suite}.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use output directory {path.parent}: {exc}", file=sys.stderr)
        return 3
    runs = [(cfg.seed, [run_check(*declared) for declared in declared_checks(cfg)
                        if args.only is None or declared[0] in args.only])
            for cfg in configs]
    summary = dict(suite=args.suite, **sweep_summary(runs))
    try:
        path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    for line in sweep_lines(summary):
        print(line)
    print(f"sweep {args.suite}: {'PASS' if summary['passed'] else 'FAIL'}; "
          f"written to {path}")
    return 0 if summary["passed"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["diff"]:
        return diff_main(argv[1:])
    if argv[:1] == ["sweep"]:
        return sweep_main(argv[1:])
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
    if cfg.out_dir is not None:
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

    if cfg.out_dir is not None:
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
