"""The check registry: each check is declared once, each suite name is spelled
once, and the config, the CLI and the runner all read the same registry."""

import pytest

from contactlab import cli, suites
from contactlab.config import ConfigError, config_from_dict
from contactlab.reports import CheckRecord


@pytest.fixture
def calls(monkeypatch):
    """Rebind ``suites.run_check`` the way the benchmark's tracer does, keeping
    each call and skipping the check body, so a whole run takes milliseconds."""
    seen = []

    def recorded(name, *args):
        seen.append((name, *args))
        anchor, ops, tolerance, _ = args
        return CheckRecord(name=name, anchor=anchor, samples=0, max_residual=0.0,
                           tolerance=tolerance, passed=True, ops=ops)

    monkeypatch.setattr(suites, "run_check", recorded)
    return seen


def test_all_is_the_union_of_the_single_suites(calls):
    singles = []
    for name in suites.SUITES:
        singles += [c.name for c in suites.run_suite(config_from_dict({"suite": name})).checks]
    calls.clear()
    names = [c.name for c in suites.run_suite(config_from_dict({"suite": "all"})).checks]
    assert names == singles
    assert len(set(names)) == len(names) == 56
    # a rebound run_check sees every check once, name first
    assert [call[0] for call in calls] == names
    assert all(callable(body) for *_, body in calls)


def test_the_reduced_run_makes_every_registered_check(all_suite_report, calls):
    suites.run_suite(config_from_dict({"suite": "all"}))
    assert sorted(c.name for c in all_suite_report.checks) == sorted(call[0] for call in calls)


def test_config_cli_and_runner_read_the_registry(monkeypatch, capsys, calls):
    for name in [*suites.SUITES, "all"]:
        assert config_from_dict({"suite": name}).suite == name
    for name in ["nonesuch", "All", "dehn_twist", ""]:
        with pytest.raises(ConfigError, match="unknown name"):
            config_from_dict({"suite": name})

    def extra(cfg, check):
        @check("extra-check", "an identity", [], 0.0)
        def body():
            return 0.0, 1, {}

    monkeypatch.setitem(suites.SUITES, "extra", extra)
    report = suites.run_suite(config_from_dict({"suite": "extra"}))
    assert [c.name for c in report.checks] == ["extra-check"]
    assert cli.main(["--list-suites"]) == 0
    assert capsys.readouterr().out.split() == [*suites.SUITES, "all"]
