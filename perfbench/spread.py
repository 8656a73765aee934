"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload page-transport --seeds 1 2 3 4 5

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each metric its median and the distance between the first and third
quartiles as a share of the median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    shares = set()
    for seed in args.seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: outputs incorrect\n{out.stdout}")
        shares.add(result["failed"] / result["attempted"])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()),
              flush=True)

    print(f"failed share: {sorted(shares)}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        print(f"{name}: median {median:.4f}, spread {(q3 - q1) / median:.4f} "
              f"(bound {bounds[name]})")


if __name__ == "__main__":
    main()
