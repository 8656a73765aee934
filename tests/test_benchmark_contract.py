"""What the benchmark in perfbench/ relies on: every attribute its tracer
rebinds, and every name its worker calls, still exists where it looks.

A deletion that breaks a traced benchmark run fails here, in the tier-1
suite, rather than only when the benchmark runs.  perfbench/layers.py is
loaded by path and only read.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import contactlab
from contactlab import monodromy, moves, openbook as ob, profiles, sphere, suites, surgery
from contactlab.config import config_from_dict
from contactlab.flows import IntegratorConfig
from contactlab.reports import CheckRecord

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(path):
    obj = contactlab
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_attribute_is_in_its_owner_dict(monkeypatch):
    layers = _load_layers(monkeypatch)
    # the tracer saves owner.__dict__[attr] before rebinding it
    missing = [f"{path}.{attr}" for path, attr, _, _ in layers.TRACED
               if attr not in vars(_owner(path))]
    assert missing == []
    for attr in ("giroux_correction", "hamiltonian_bump_map"):
        assert attr in vars(ob)
    assert "run_check" in vars(suites)


def test_every_timed_check_is_registered(monkeypatch):
    layers = _load_layers(monkeypatch)
    seen = []

    def recorded(name, anchor, ops, tolerance, _body):
        seen.append(name)
        return CheckRecord(name=name, anchor=anchor, samples=0, max_residual=0.0,
                           tolerance=tolerance, passed=True, ops=ops)

    monkeypatch.setattr(suites, "run_check", recorded)
    suites.run_suite(config_from_dict({"suite": "all"}))
    assert set(layers.CHECKS) <= set(seen)


def test_names_the_worker_calls_exist():
    assert callable(sphere.dehn_twist_batch)
    assert callable(moves.cyclic_rotate_back)
    assert contactlab.active_backend() == "numpy"


def test_worker_call_shapes_bind():
    # the argument shapes perfbench/worker.py uses; bind raises TypeError
    # when a signature no longer accepts them
    x = object()  # a stand-in: only the shape of each call is checked
    shapes = [
        (ob.giroux_correction, (x, x, x), {"rng": x}),
        (ob.standard_disk_domain, (1.0,), {}),
        (ob.hamiltonian_bump_map, (x, x), {}),
        (ob.radial_twist_map, (0.8, 0.8), {}),
        (monodromy.post_surgery_pipeline, (x, x, x, x), {}),
        (sphere.dehn_twist_batch, (x, x, x), {}),
        (moves.conjugate, (x, x, x), {}),
        (moves.equivalent_up_to_moves, (x, x), {}),
        (surgery.SurgeryConfig, (), {"epsilon": x, "delta": x}),
        (surgery.ModelPoint, (x, x, x, x), {}),
        (profiles.HandleProfile, (x,), {}),
        (profiles.DehnTwistProfile, (1.0, 1), {}),
        (IntegratorConfig, (), {"step": x, "max_time": x, "event_tol": x}),
        (sphere.SpherePoint, (x, x), {}),
        (sphere.dehn_twist, (x, x), {}),
    ]
    for func, args, kwargs in shapes:
        inspect.signature(func).bind(*args, **kwargs)


def test_traced_results_take_wrapped_functions():
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn)
            return fn(*args)
        return wrapper

    cand = ob.hamiltonian_bump_map(0.15, 0.8, step=0.25)
    func, jac = cand.batched.func, cand.batched.jac
    cand.batched.func = counted(func)
    cand.batched.jac = counted(jac)
    pts = np.array([[0.3, -0.2]])
    cand.batched.func(pts)
    cand.batched.jac(pts)
    assert calls == [func, jac]

    calls.clear()
    res = ob.giroux_correction(ob.standard_disk_domain(), ob.radial_twist_map(0.8, 0.8),
                               IntegratorConfig(step=0.25, max_time=2.0),
                               rng=np.random.default_rng(7), closedness_samples=2)
    h, psi_hat_func = res.h, res.psi_hat.func
    res.h = counted(h)
    res.psi_hat.func = counted(psi_hat_func)
    x = np.array([0.3, -0.2])
    res.h(x)
    res.psi_hat(x)
    assert calls == [h, psi_hat_func]
