import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contactlab
from contactlab.config import config_from_dict
from contactlab.suites import run_suite

ACCEPTANCE_RESULTS = []

REDUCED_ALL = dict(
    suite="all", seed=11,
    n_twist=25, n_strict=25, n_liouville=15, n_surface_scan=400,
    n_monodromy=12, n_giroux=12, n_giroux_numeric=2, n_chains=60,
    n_nonconnected=12, n_window=5)


@pytest.fixture(scope="session")
def fresh_interpreter_env():
    # A minimal env, so nothing leaks in from this process; the child imports
    # the same contactlab as this process (a checkout or an install) and
    # writes no bytecode into it.
    package_root = str(Path(contactlab.__file__).resolve().parents[1])
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root,
            "PYTHONDONTWRITEBYTECODE": "1"}


@pytest.fixture(scope="session")
def all_suite_report():
    return run_suite(config_from_dict(REDUCED_ALL))


@pytest.fixture(scope="session", autouse=True)
def _reduced_all_child(request, fresh_interpreter_env):
    """The reduced "all" run in a fresh interpreter under another hash seed,
    started with the session so that it runs beside the other tests; only
    when a collected test reads its report."""
    if not any("reduced_all_child_report" in item.fixturenames
               for item in request.session.items):
        yield None
        return
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = ("import json, sys;"
            "from contactlab.config import config_from_dict;"
            "from contactlab.suites import run_suite;"
            "rep = run_suite(config_from_dict(json.loads(sys.argv[1])));"
            "sys.stdout.buffer.write(rep.to_json().encode())")
    with subprocess.Popen([sys.executable, "-c", code, json.dumps(REDUCED_ALL)],
                          env=dict(fresh_interpreter_env, PYTHONHASHSEED=hash_seed),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        yield child
        child.kill()  # a no-op once the child has exited; leaving the block reaps it


@pytest.fixture(scope="session")
def reduced_all_child_report(_reduced_all_child):
    """The bytes of the child's report JSON."""
    out, err = _reduced_all_child.communicate(timeout=600)
    assert _reduced_all_child.returncode == 0, err.decode()
    return out


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        line = f"  [{verdict}] criterion {num:2d} - {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
