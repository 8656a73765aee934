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


# every check's tolerance, as declared at its @check; loosening one means
# editing this table
TOLERANCES = {
    "binding-profile-shape": 0.0, "binding-smooth-across-axis": 1e-6,
    "binding-volume-circle": 0.0, "binding-volume-three-sphere": 0.0,
    "canonical-form-values": 1e-12, "collar-binding-overlap": 1e-14,
    "correction-fixes-support": 1e-8, "descriptor-golden-text": 0.0,
    "exactness-correction-identity": 1e-9, "exactness-correction-integrated-flow": 1e-5,
    "exactness-correction-shear": 1e-5, "exactness-correction-twist": 1e-5,
    "finite-difference-order": 0.0, "finite-speed-convergence": 0.0,
    "finite-speed-transfer": 1e-8, "flow-invariants": 1e-8,
    "geodesic-flow-constraints": 1e-9, "glue-map-pullback": 1e-8,
    "handle-function-values": 1e-12, "handle-membership-oracle": 0.0,
    "hypersurface-contact-volume": 0.0, "integrator-order": 0.0,
    "isotropic-sphere": 1e-12, "legendrian-realization": 1e-5,
    "level-set-transversality": 0.0, "liouville-expansion": 1e-6,
    "liouville-speed-family": 1e-6, "mapping-torus-volume": 0.0,
    "move-chain-recognition": 0.0, "move-roundtrips": 0.0,
    "no-false-equivalence": 0.0, "page-function-values": 1e-10,
    "page-hamiltonian-sign": 1e-6, "page-speed-law": 1e-8,
    "pipeline-vs-closed-form": 1e-6, "plurisubharmonic-metric": 1e-6,
    "pre-surgery-trivial": 1e-10, "primitive-path-independence": 1e-5,
    "reeb-field-on-model": 1e-7, "reeb-page-transversality": 1e-6,
    "rescaling-conformality": 1e-10, "smoothing-window-bound": 0.0,
    "straightening-roundtrip": 1e-10, "straightening-strictness": 1e-8,
    "symplectic-form-values": 1e-14, "transfer-preserves-page": 1e-12,
    "twist-angle-extremes": 1e-9, "twist-angle-profile": 1e-12,
    "twist-compact-support": 0.0, "twist-k-fold-composition": 1e-12,
    "twist-smooth-across-zero-section": 1e-4, "twist-symplectomorphism": 1e-6,
    "twist-word-composition": 1e-8, "twist-zero-section-antipode": 0.0,
    "word-move-values": 0.0, "worked-page-point": 1e-6,
}


def test_check_tolerances_and_bounds_are_pinned(calls):
    suites.run_suite(config_from_dict({"suite": "all"}))
    assert {name: tolerance for name, _, _, tolerance, _ in calls} == TOLERANCES
    # the floor and bounds that check bodies share or compare against
    assert (suites.POSITIVITY_FLOOR, suites.LIOUVILLE_TOL, suites.GIROUX_RESIDUAL_TOL,
            suites.TWIST_MATRIX_BOUND, suites.WINDOW_EXPONENT_LOW,
            suites.WINDOW_EXPONENT_HIGH) == (1e-8, 1e-6, 1e-5, 1e-9, 0.7, 1.3)
