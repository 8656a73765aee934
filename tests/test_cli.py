"""CLI surface: flags, config validation, reports, plot data, determinism."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from contactlab import cli
from contactlab.config import ConfigError, config_from_dict, load_config
from contactlab.reports import VerificationReport, check_rng, run_check
from contactlab.suites import QUOTED_OPS

from test_kernels import _scalar_handle_f, _scalar_handle_g


def small_config(**overrides):
    base = dict(
        suite="moves", seed=3,
        n_twist=20, n_strict=20, n_liouville=10, n_surface_scan=300,
        n_monodromy=10, n_giroux=10, n_giroux_numeric=2, n_chains=40,
        n_nonconnected=10, n_window=5)
    base.update(overrides)
    return config_from_dict(base)


def test_list_suites(capsys):
    assert cli.main(["--list-suites"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == {"binding", "dehn-twist", "giroux", "monodromy",
                        "moves", "weinstein-strictness", "all"}


def test_unknown_suite_rejected(capsys):
    assert cli.main(["--suite", "bogus"]) == 2
    assert "unknown name" in capsys.readouterr().err


def test_malformed_config_lists_offending_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"suite": "moves", "seed": -1,
                                "n_twist": 0, "mystery": 1}))
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "mystery" in err

    path._str = None  # noqa - silence linters about reuse
    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"seed": -1, "n_twist": 0}))
    with pytest.raises(ConfigError) as exc:
        load_config(str(path2))
    msgs = "\n".join(exc.value.problems)
    assert "seed" in msgs and "n_twist" in msgs

    path3 = tmp_path / "bad3.json"
    path3.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path3))


def test_cli_runs_suite_and_writes_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"suite": "moves", "seed": 5, "n_chains": 30,
                                    "n_nonconnected": 5}))
    code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    report_path = tmp_path / "out" / "report-moves.json"
    data = json.loads(report_path.read_text())
    assert data["passed"] is True
    assert data["suite"] == "moves"
    assert {"anchor", "details", "max_residual", "name", "ops", "passed",
            "samples", "tolerance"} <= set(data["checks"][0])
    assert all(c["anchor"] for c in data["checks"])
    # plot data files exist with headers
    with open(tmp_path / "out" / "handle_profile.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "f", "g"]
    cols = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.all(np.diff(cols[:, 1]) >= -1e-15)  # f monotone
    assert np.all(np.diff(cols[:, 2]) >= -1e-15)  # g monotone
    with open(tmp_path / "out" / "page_flow.csv") as fh:
        flow_rows = list(csv.reader(fh))
    assert flow_rows[0][0] == "time"
    # the page value advances at slope two along the recorded flow
    t = np.array([float(r[0]) for r in flow_rows[1:]])
    pts = np.array([[float(v) for v in r[1:]] for r in flow_rows[1:]])
    theta = np.einsum("mi,mi->m", pts[:, :2], pts[:, 2:])
    assert np.max(np.abs(theta - (-0.1 + 2.0 * t))) < 1e-8


def test_handle_profile_csv_repeats_the_scalar_handle_functions(tmp_path):
    # each value is written as the repr of a float, so equal text is equal bits
    handle_profile, _ = cli._emit_default_plots(tmp_path)
    with open(handle_profile) as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 201
    for s, f, g in rows:
        assert f == repr(_scalar_handle_f(float(s), 0.1))
        assert g == repr(_scalar_handle_g(float(s), 0.1))


@pytest.mark.parametrize("blocked", ["report-binding.json", "page_flow.csv"])
def test_cli_exits_2_naming_an_output_file_it_cannot_write(tmp_path, capsys, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert cli.main(["--suite", "binding", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out / blocked}: Is a directory" in err


def test_cli_exits_2_on_an_empty_output_directory(capsys):
    assert cli.main(["--suite", "binding", "--out", ""]) == 2
    assert "out_dir: must be a non-empty path when given, got ''" in capsys.readouterr().err


def test_exit_code_nonzero_on_failure(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"suite": "moves", "n_chains": 20,
                                    "n_nonconnected": 5, "search_depth": 0}))
    # zero search depth makes chain recognition fail
    assert cli.main(["--config", str(cfg_path)]) == 1


def test_emit_plot_data_rejects_unknown_payload(tmp_path):
    with pytest.raises(TypeError):
        cli.emit_plot_data(object(), tmp_path / "x.csv")
    with pytest.raises(ValueError, match="equal length"):
        cli.emit_plot_data({"a": [1.0, 2.0], "b": [1.0]}, tmp_path / "y.csv")


def test_emit_plot_data_writes_a_header_for_empty_columns(tmp_path):
    cli.emit_plot_data({"time": [], "c0": []}, tmp_path / "empty.csv")
    with open(tmp_path / "empty.csv") as fh:
        assert list(csv.reader(fh)) == [["time", "c0"]]


def test_config_roundtrip_and_validation():
    cfg = small_config()
    assert config_from_dict(cfg.as_dict()) == cfg
    with pytest.raises(ConfigError):
        config_from_dict({"suite": "nope"})


def test_report_environment_holds_versions_and_schema(all_suite_report):
    env = json.loads(all_suite_report.to_json())["environment"]
    assert set(env) == {"numpy", "platform", "python", "schema_version"}
    assert env["schema_version"] == 2


def test_a_report_with_non_finite_residuals_is_strict_json():
    # a check that raises is recorded with an infinite residual, and a NaN
    # residual is kept; JSON (RFC 8259) has no token for either
    def raises():
        raise RuntimeError("no residual")

    checks = [run_check("raises", "-", [], 1e-8, raises),
              run_check("nan", "-", [], 1e-8,
                        lambda: (math.nan, 1, {"low": np.float64(-math.inf)}))]
    text = VerificationReport("unit", {"seed": 0}, checks).to_json()

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    records = {c["name"]: c for c in json.loads(text, parse_constant=refuse)["checks"]}
    assert records["raises"]["max_residual"] == "inf" and not records["raises"]["passed"]
    assert records["nan"]["max_residual"] == "nan" and not records["nan"]["passed"]
    assert records["nan"]["details"] == {"low": "-inf"}


def test_check_rng_stable():
    a = check_rng(7, "alpha").standard_normal(4)
    b = check_rng(7, "alpha").standard_normal(4)
    c = check_rng(7, "beta").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_all_suite_covers_quoted_operations(all_suite_report):
    covered = set()
    for check in all_suite_report.checks:
        covered.update(check.ops)
    missing = set(QUOTED_OPS) - covered
    assert not missing, f"operations never exercised by the all suite: {missing}"


def test_all_suite_passes_at_reduced_scale(all_suite_report):
    failed = [c.name for c in all_suite_report.checks if not c.passed]
    assert not failed, f"failed checks: {failed}"


def test_fresh_interpreter_runs_moves_suite(fresh_interpreter_env):
    code = subprocess.run(
        [sys.executable, "-c",
         "from contactlab.config import config_from_dict;"
         "from contactlab.suites import run_suite;"
         "rep = run_suite(config_from_dict({'suite': 'moves', 'n_chains': 20,"
         "'n_nonconnected': 5}));"
         "assert rep.passed"],
        env=fresh_interpreter_env,
        capture_output=True, text=True)
    assert code.returncode == 0, code.stderr
