"""The check registry: each check is declared once, each suite name is spelled
once, and the config, the CLI and the runner all read the same registry."""

import importlib
import json
import math

import pytest
from conftest import REDUCED_ALL, declarations

from contactlab import cli, suites
from contactlab.config import ConfigError, config_from_dict
from contactlab.reports import run_check


def test_all_is_the_union_of_the_single_suites():
    def declared(suite):
        return suites.declared_checks(config_from_dict({"suite": suite}))

    singles = [name for suite in suites.SUITES for name, *_ in declared(suite)]
    names = [name for name, *_ in declared("all")]
    assert names == singles
    assert len(set(names)) == len(names) == 58
    assert all(callable(body) for *_, body in declared("all"))


def test_the_reduced_run_makes_every_registered_check(all_suite_report):
    # against the default config, so a reduced setting cannot drop a check
    assert [c.name for c in all_suite_report.checks] == list(declarations(suite="all"))


def test_every_check_run_alone_repeats_its_record_from_the_all_run(all_suite_report):
    # check_rng keys each check by (seed, name), so a record must not depend
    # on which checks ran before it: each runs alone, in reverse registry
    # order, from a fresh declaration of its suite
    def record_json(record):
        return json.dumps(record.as_dict(), indent=2, sort_keys=True)

    alone = {}
    for suite in reversed(suites.SUITES):
        settings = dict(REDUCED_ALL, suite=suite)
        for name in reversed(declarations(**settings)):
            alone[name] = record_json(run_check(*declarations(**settings)[name]))
    assert alone == {c.name: record_json(c) for c in all_suite_report.checks}


def test_config_cli_and_runner_read_the_registry(monkeypatch, capsys):
    for name in [*suites.SUITES, "all"]:
        assert config_from_dict({"suite": name}).suite == name
    for name in ["nonesuch", "All", "dehn_twist", ""]:
        with pytest.raises(ConfigError, match="unknown name"):
            config_from_dict({"suite": name})

    ran = []

    def extra(cfg, check):
        @check("extra-check", "an identity", [], 0.0)
        def body():
            ran.append("extra-check")
            return 0.0, 1, {}

    monkeypatch.setitem(suites.SUITES, "extra", extra)
    cfg = config_from_dict({"suite": "extra"})
    # declaring runs no body; running runs each declared body once
    assert [name for name, *_ in suites.declared_checks(cfg)] == ["extra-check"]
    assert ran == []
    assert [c.name for c in suites.run_suite(cfg).checks] == ran == ["extra-check"]
    assert cli.main(["--list-suites"]) == 0
    assert capsys.readouterr().out.split() == [*suites.SUITES, "all"]


# every check's tolerance, as declared at its @check; loosening one means
# editing this table
TOLERANCES = {
    "binding-profile-shape": 0.0, "binding-smooth-across-axis": 1e-6,
    "binding-volume-circle": 0.0, "binding-volume-three-sphere": 0.0,
    "bump-map-carried-jacobian": 1e-8, "bump-map-exact-rotation": 1e-8,
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


def test_check_tolerances_and_bounds_are_pinned():
    declared = declarations(suite="all").values()
    assert {name: tolerance for name, _, _, tolerance, _ in declared} == TOLERANCES
    # the floor and bounds that check bodies share or compare against
    assert (suites.POSITIVITY_FLOOR, suites.LIOUVILLE_TOL, suites.GIROUX_RESIDUAL_TOL,
            suites.TWIST_MATRIX_BOUND, suites.WINDOW_EXPONENT_LOW,
            suites.WINDOW_EXPONENT_HIGH) == (1e-8, 1e-6, 1e-5, 1e-9, 0.7, 1.3)


def test_every_quoted_operation_resolves_to_a_package_callable():
    # each label names the dotted path of the callable that computes its
    # formula, so a test can patch exactly that attribute
    for label, path in suites.QUOTED_OPS.items():
        module, _, name = path.rpartition(".")
        owner = importlib.import_module(f"contactlab.{module}")
        assert callable(getattr(owner, name, None)), f"{label} -> {path} names no callable"
    assert len(suites.QUOTED_OPS) == 40


# the contact_volume call that gives each check's second volume: the
# three-sphere check first orients each frame by the boundary form's volume
@pytest.mark.parametrize("name,call", [("hypersurface-contact-volume", 2),
                                       ("mapping-torus-volume", 2),
                                       ("binding-volume-circle", 2),
                                       ("binding-volume-three-sphere", 4)])
def test_min_volume_keeps_a_volume_that_turns_nan(monkeypatch, name, call):
    # min(2.0, nan) is 2.0: a fold by min would report the first finite volume
    volume = suites.forms.contact_volume
    calls = []

    def nan_on_one_call(*args):
        calls.append(None)
        return math.nan if len(calls) == call else volume(*args)

    monkeypatch.setattr(suites.forms, "contact_volume", nan_on_one_call)
    record = run_check(*declarations(suite="all")[name])
    assert len(calls) > call
    assert not record.passed and record.as_dict()["details"]["min_volume"] == "nan"
