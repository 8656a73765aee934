"""One benchmark workload, run in a fresh single-threaded process.

Started by ``run.py``; prints ``ready`` once contactlab is imported and the
scenario configs are built, then runs whole passes over the workload and
prints one JSON line with the pass times, operation counts and the outcome
of the benchmark's own correctness checks.  With ``--probe`` it stops after
``ready``, so that the parent can time set-up alone.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import platform
import resource
import time
from pathlib import Path

import numpy as np

# run.py puts the checkout's src on PYTHONPATH
import contactlab
from contactlab import flows, monodromy, moves, openbook, profiles, sphere, suites, surgery
from contactlab.config import config_from_dict

import layers  # perfbench/layers.py, next to this file

ROOT = Path(__file__).resolve().parent.parent

# which suites make up each workload; together they are the default "all" run
SUITES = {
    "exactness-correction": ["giroux"],
    "page-transport": ["monodromy"],
    "pointwise-and-moves": ["dehn-twist", "weinstein-strictness", "binding", "moves"],
}

GOOD_DESCRIPTOR = """page 3
handle h(d1) index 3 framing t1+core
handle h0 index 1 framing std+D2
sphere B0 supports h0
sphere S(d1) supports h(d1) disk d1 tag t1
disk d2 tag t2
word B0^+1 S(d1)^+1
"""

# Inputs from outside the program, the same for every seed: (parser, input,
# whether it must parse).  One that must not parse passes only by raising
# ConfigError or ValueError.  The first two of each parser are known faults.
OUTSIDE_INPUTS = [
    ("config", {"epsilon": "0.1"}, False),
    ("config", {"n_chains": "5"}, False),
    ("config", {"epsilon": 0.3}, False),
    ("config", {"suite": "nonesuch"}, False),
    ("config", {"bogus": 1}, False),
    ("config", {"suite": "moves", "n_chains": 20, "search_depth": 4}, True),
    ("text", "page 2\nhandle h0 index 1", False),
    ("text", "", False),
    ("text", "page 3\nhandle h0 index 1 framing std\nsphere B0 supports h9\nword", False),
    ("text", "page 3\nfold h0", False),
    ("text", GOOD_DESCRIPTOR, True),
]

# Run and timed with their suite but not counted as operations: their verdict
# depends on the seed (smoothing-window-bound fits a slope that leaves
# [0.7, 1.3] for seeds 103 and 115 of 100..139), so no seed-independent
# share of failures could be kept.
UNCOUNTED_CHECKS = {"smoothing-window-bound"}


def parse_outside_input(kind: str, data, must_parse: bool) -> bool:
    """True when the parser gives the right outcome for one outside input."""
    try:
        if kind == "config":
            cfg = config_from_dict(data)
            parsed_ok = all(getattr(cfg, k) == v for k, v in data.items())
        else:
            parsed_ok = moves.to_text(moves.from_text(data)) == data
    except ValueError:  # ConfigError is a ValueError
        return not must_parse
    except Exception:  # noqa: BLE001 - any other exception is the fault counted
        return False
    return must_parse and parsed_ok


def run_pass(configs, parse_inputs: bool):
    """One pass: every suite to its report JSON, then the outside inputs."""
    texts, verdicts = [], []
    for cfg in configs:
        report = suites.run_suite(cfg)
        texts.append(report.to_json())
        verdicts.extend((c.name, c.passed) for c in report.checks)
    inputs = [parse_outside_input(*item) for item in OUTSIDE_INPUTS] if parse_inputs else []
    return texts, verdicts, inputs


# ---------------------------------------------------------------------------
# the benchmark's own checks: computations made apart from the program
# ---------------------------------------------------------------------------

def check_exactness_correction(rng) -> list[str]:
    problems = []
    # time-1 flow of H = A (1 - |u|^2/r0^2)^4: X_H = c(|u|^2) (y, -x) keeps
    # |u| fixed, so every circle about the origin turns by the angle c
    amp, r0 = 0.15, 0.8
    bump = openbook.hamiltonian_bump_map(amp, r0)
    pts = rng.uniform(-1.0, 1.0, (64, 2))
    c = -8.0 * amp / r0 ** 2 * np.clip(1.0 - (pts ** 2).sum(axis=1) / r0 ** 2, 0.0, None) ** 3
    cos, sin = np.cos(c), np.sin(c)
    exact = np.stack([cos * pts[:, 0] + sin * pts[:, 1],
                      -sin * pts[:, 0] + cos * pts[:, 1]], axis=1)
    err = float(np.max(np.abs(bump.batched.func(pts) - exact)))
    if err > 1e-8:
        problems.append(f"bump map is {err:.2e} from the exact rotation flow")
    det_err = float(np.max(np.abs(np.linalg.det(bump.batched.jac(pts)) - 1.0)))
    if det_err > 1e-8:
        problems.append(f"bump map Jacobian determinant is {det_err:.2e} from 1")

    # psi_hat^* lambda - lambda + dh = 0 for lambda = (x dy - y dx)/2,
    # differentiated here by central differences
    res = openbook.giroux_correction(openbook.standard_disk_domain(1.0),
                                     openbook.radial_twist_map(0.8, 0.8),
                                     flows.IntegratorConfig(step=0.02, max_time=2.0),
                                     rng=rng)

    def lam(u):
        return 0.5 * np.array([-u[1], u[0]])

    fd = 1e-5
    worst = 0.0
    for x in rng.uniform(-0.9, 0.9, (4, 2)):
        jac = np.empty((2, 2))
        dh = np.empty(2)
        for j, e in enumerate(np.eye(2) * fd):
            jac[:, j] = (res.psi_hat(x + e) - res.psi_hat(x - e)) / (2.0 * fd)
            dh[j] = (res.h(x + e) - res.h(x - e)) / (2.0 * fd)
        nu = lam(res.psi_hat(x)) @ jac - lam(x)
        worst = max(worst, float(np.max(np.abs(nu + dh))))
    if worst > 1e-5:
        problems.append(f"exactness identity misses by {worst:.2e} on the radial twist")
    return problems


def check_page_transport(rng) -> list[str]:
    # starts on the -eps page whose transfer stays on the inward flat piece
    eps, delta = 0.1, 0.05
    profile = profiles.HandleProfile(delta)
    conf = surgery.SurgeryConfig(epsilon=eps, delta=delta)
    flow_cfg = flows.IntegratorConfig(step=1e-3, max_time=2.0, event_tol=1e-12)
    r_cap = math.sqrt(1.0 - delta - eps ** 2) * 0.98
    worst = 0.0
    for nzw in (2, 3, 4):
        for _ in range(4):
            w = rng.standard_normal(nzw)
            w /= np.linalg.norm(w)
            r = rng.standard_normal(nzw)
            r -= (r @ w) * w
            r *= rng.uniform(0.05, r_cap) / np.linalg.norm(r)
            z = r - eps * w
            start = surgery.ModelPoint(np.zeros(0), np.zeros(0), z, w)
            out = monodromy.post_surgery_pipeline(start, conf, profile, flow_cfg).pipeline_point
            w_exact = w + 2.0 * eps * z / (z @ z)
            worst = max(worst, float(np.max(np.abs(out.z - z))),
                        float(np.max(np.abs(out.w - w_exact))),
                        abs(float(np.linalg.norm(out.w)) - 1.0),
                        abs(float(out.z @ out.w) - eps))
    if worst > 1e-6:
        return [f"page transport is {worst:.2e} from (z, w + 2 eps z/|z|^2)"]
    return []


def _random_desc(rng) -> moves.OpenBookDesc:
    n_handles = int(rng.integers(1, 4))
    handles = tuple(moves.Handle(f"h{i}", int(rng.integers(1, 3)), "std")
                    for i in range(n_handles))
    spheres = tuple(moves.LagrangianSphere(f"B{i}", (f"h{int(rng.integers(0, n_handles))}",))
                    for i in range(int(rng.integers(1, 3))))
    disks = tuple(moves.DiskBoundary(f"d{i}", f"t{i}") for i in range(int(rng.integers(1, 3))))
    word = tuple((spheres[int(rng.integers(0, len(spheres)))].label, int(rng.choice([-1, 1])))
                 for _ in range(int(rng.integers(0, 4))))
    return moves.OpenBookDesc(moves.AbstractPage(3, handles, spheres, disks),
                              moves.reduce_word(word))


def _random_move(rng, desc: moves.OpenBookDesc) -> moves.OpenBookDesc:
    options = [moves.cyclic_rotate(desc), moves.cyclic_rotate_back(desc)]
    options += [moves.conjugate(desc, s.label, p) for s in desc.page.spheres for p in (1, -1)]
    options += [moves.stabilize(desc, d.label) for d in desc.page.disks]
    undone = moves.destabilize(desc)
    if undone is not None:
        options.append(undone)
    return options[int(rng.integers(0, len(options)))]


def check_pointwise_and_moves(rng) -> list[str]:
    problems = []
    # the twist is a normalized geodesic flow, so images stay on the bundle
    profile = profiles.DehnTwistProfile(1.0, 1)
    worst = 0.0
    for n in (1, 2, 3):
        q = rng.standard_normal((16, n + 1))
        q /= np.linalg.norm(q, axis=1)[:, None]
        p = rng.standard_normal((16, n + 1))
        p -= (p * q).sum(axis=1)[:, None] * q
        p *= (rng.uniform(0.0, 2.0, 16) / np.linalg.norm(p, axis=1))[:, None]
        q_b, p_b = sphere.dehn_twist_batch(q, p, profile)
        for i in range(16):
            out = sphere.dehn_twist(sphere.SpherePoint(q[i], p[i]), profile)
            for qo, po in ((out.q, out.p), (q_b[i], p_b[i])):
                worst = max(worst, abs(qo @ qo - 1.0), abs(qo @ po),
                            abs(np.linalg.norm(po) - np.linalg.norm(p[i])))
    if worst > 1e-12:
        problems.append(f"Dehn twist images leave the bundle by {worst:.2e}")

    for _ in range(20):
        desc = _random_desc(rng)
        end = desc
        length = int(rng.integers(1, 5))
        for _ in range(length):
            end = _random_move(rng, end)
        verdict = moves.equivalent_up_to_moves(desc, end)
        if verdict not in (True, "unknown") or (length == 1 and verdict is not True):
            problems.append(f"a {length}-move chain was judged {verdict!r}")
        for d in desc.page.disks:
            if moves.destabilize(moves.stabilize(desc, d.label)) != desc:
                problems.append(f"stabilize-then-destabilize along {d.label} changed the page")
        for item in (desc, end):
            if moves.from_text(moves.to_text(item)) != item:
                problems.append("a descriptor did not survive to_text/from_text")
    return problems


CHECKS = {
    "exactness-correction": check_exactness_correction,
    "page-transport": check_page_transport,
    "pointwise-and-moves": check_pointwise_and_moves,
}


def environment() -> dict:
    numba = importlib.util.find_spec("numba")
    return {
        "kernel_backend": contactlab.active_backend(),
        "numba": importlib.metadata.version("numba") if numba else "absent",
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(SUITES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    ap.add_argument("--budget", type=float, default=120.0,
                    help="seconds of passes a traced run may spend")
    ap.add_argument("--probe", action="store_true", help="stop once set up")
    args = ap.parse_args()

    configs = [config_from_dict({"suite": name, "seed": args.seed})
               for name in SUITES[args.workload]]
    print("ready", flush=True)
    if args.probe:
        return
    src = (ROOT / "src").resolve()
    if src not in Path(contactlab.__file__).resolve().parents:
        raise SystemExit(f"contactlab was imported from {contactlab.__file__}, not {src}")

    parse_inputs = args.workload == "pointwise-and-moves"
    walls, passes = [], []
    layer_metrics = None
    began = time.perf_counter()
    if args.trace:
        tracer = layers.Tracer(contactlab)
        cpu0 = cpu_seconds()
        with tracer:
            passes.append(run_pass(configs, parse_inputs))
        traced_wall = time.perf_counter() - began
        layer_metrics = tracer.layer_metrics()
        layer_metrics.update({"process.cpu_s": cpu_seconds() - cpu0, "trace.wall_s": traced_wall})
        if args.spans:
            tracer.write(args.spans)
        # an untraced pass to compare with, when the run has time for one
        if time.perf_counter() - began + 1.2 * traced_wall < args.budget:
            t0 = time.perf_counter()
            passes.append(run_pass(configs, parse_inputs))
            walls.append(time.perf_counter() - t0)
    else:
        # whole passes until the run length is used up
        while not passes or time.perf_counter() - began < args.seconds:
            t0 = time.perf_counter()
            passes.append(run_pass(configs, parse_inputs))
            walls.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    attempted = failed = 0
    for texts, verdicts, inputs in passes:
        if texts != passes[0][0]:
            problems.append("two passes of one run gave different report JSON")
        verdicts = [(name, ok) for name, ok in verdicts if name not in UNCOUNTED_CHECKS]
        failing = [name for name, ok in verdicts if not ok]
        if failing:
            problems.append(f"suite checks failed: {failing}")
        attempted += len(verdicts) + len(inputs)
        failed += len(failing) + inputs.count(False)
    problems = list(dict.fromkeys(problems))
    problems += CHECKS[args.workload](np.random.default_rng([args.seed, 7]))

    print(json.dumps({"walls": walls, "peak_rss_mb": peak_rss_mb, "attempted": attempted,
                      "failed": failed, "problems": problems, "layers": layer_metrics,
                      "environment": environment()}), flush=True)


if __name__ == "__main__":
    main()
