"""contactlab benchmark: the default ``all`` run split into three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a contactlab checkout; nothing needs to be installed.
Each run starts ``worker.py`` in a fresh single-threaded process with the
checkout's ``src`` on ``PYTHONPATH``.  ``--trace 0`` reports the end-to-end
metrics (setup_s, wall_s, peak_rss_mb); ``--trace 1`` reports the per-layer
metrics of one traced pass and writes its spans under ``perfbench/out``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers  # perfbench/layers.py, next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exactness-correction", "page-transport", "pointwise-and-moves")
SETUP_PROBES = 3  # set-up-only processes per run, besides the workload process
DEADLINE_S = 170.0  # the whole run, so that it ends within 180 s
CHECK_MARGIN_S = 30.0  # left for set-up and the correctness checks of a traced run


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CONTACTLAB_BACKEND", None)  # auto: numba when it imports, else NumPy
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(argv: list[str], deadline: float):
    """Start worker.py and wait for its ``ready`` line; returns the process,
    the set-up seconds and a timer that kills the process at the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=worker_env())
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        timer.cancel()
        raise SystemExit(f"perfbench: worker failed during set-up (exit {proc.returncode})")
    return proc, setup, timer


def finish_worker(proc, timer) -> str:
    out, _ = proc.communicate()
    timer.cancel()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "contactlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no contactlab source tree under {ROOT}")
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup, timer = start_worker(common + ["--probe"], deadline)
            finish_worker(proc, timer)
            setups.append(setup)
    else:
        (HERE / "out").mkdir(exist_ok=True)
        common += ["--spans", str(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"),
                   "--budget", str(deadline - time.monotonic() - CHECK_MARGIN_S)]
    proc, setup, timer = start_worker(common, deadline)
    setups.append(setup)
    result = json.loads(finish_worker(proc, timer).strip().splitlines()[-1])

    env = result["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        units = layers.layer_metric_units()
        values = result["layers"]
        traced = values["trace.wall_s"]
        if result["walls"]:
            untraced = result["walls"][0]
            print(f"traced pass {traced:.4f} s, untraced pass {untraced:.4f} s, "
                  f"tracing overhead {100.0 * (traced / untraced - 1.0):.1f}%")
        else:
            print(f"traced pass {traced:.4f} s; no time left for an untraced pass")
    else:
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(result["walls"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        print(f"passes: {len(result['walls'])}, wall_s each: "
              + " ".join(f"{w:.4f}" for w in result["walls"]))
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not result["problems"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
