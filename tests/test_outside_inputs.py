"""Inputs from outside the program: scenario configs and descriptor text
either parse or fail with a named ValueError, never with a stray exception."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactlab import cli, moves as mv, surgery
from contactlab.config import ConfigError, ScenarioConfig, config_from_dict
from contactlab.flows import IntegratorConfig
from contactlab.monodromy import (PageDecomposition, post_surgery_closed_form,
                                  pre_surgery_monodromy)
from contactlab.profiles import DehnTwistProfile, HandleProfile
from contactlab.sphere import SpherePoint
from contactlab.surgery import ModelPoint

FIELDS = [f.name for f in fields(ScenarioConfig)]
# the geometry and numerics that a scenario once set, with the values the
# checks now declare themselves
REMOVED_SETTINGS = {
    "epsilon": 0.1, "window_epsilon": 0.24, "p0": 1.0, "twist_k": 1, "scale_C": 4.0,
    "deltas": [0.05, 0.1], "window_deltas": [0.02, 0.01, 0.005],
    "a_values": [10.0, 100.0, 1000.0, 10000.0], "sphere_dims": [1, 2, 3],
    "model_dims": [[2, 1], [3, 1], [3, 2]], "page_blocks": [2, 3, 4],
    "h_fd": 1e-5, "flow_step": 1e-3, "giroux_flow_step": 0.02, "quad_nodes": 32}

json_scalars = st.none() | st.booleans() | st.integers(-10**6, 10**6) \
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)
json_configs = st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=6),
                               json_values, max_size=5)


@given(json_configs)
@settings(max_examples=300, deadline=None)
def test_any_json_object_gives_a_config_or_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError as exc:
        assert exc.problems
        return
    assert all(getattr(cfg, key) == value for key, value in data.items())


def test_scenario_fields_are_pinned():
    # a new scenario setting must edit this list
    assert FIELDS == [
        "suite", "seed", "out_dir",
        "n_twist", "n_strict", "n_liouville", "n_surface_scan", "n_monodromy",
        "n_giroux", "n_giroux_numeric", "n_chains", "n_nonconnected", "n_window",
        "search_depth"]


@pytest.mark.parametrize("key", REMOVED_SETTINGS)
def test_removed_settings_are_refused_as_unknown_fields(key, tmp_path, capsys):
    data = {"suite": "moves", key: REMOVED_SETTINGS[key]}
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert exc.value.problems == [f"unknown fields: ['{key}']"]
    path = tmp_path / "removed.json"
    path.write_text(json.dumps(data))
    assert cli.main(["--config", str(path)]) == 2
    assert f"unknown fields: ['{key}']" in capsys.readouterr().err


# a row whose key is no longer a setting (epsilon, twist_k, flow_step, ...)
# keeps its old bad value: the key is still refused by name, now as an
# unknown field
@pytest.mark.parametrize("data, field", [
    ({"epsilon": "0.1"}, "epsilon"),
    ({"n_chains": "5"}, "n_chains"),
    ({"twist_k": True}, "twist_k"),
    ({"n_twist": 2.5}, "n_twist"),
    ({"seed": -1}, "seed"),
    ({"flow_step": -1e-3}, "flow_step"),
    ({"giroux_flow_step": 0.0}, "giroux_flow_step"),
    ({"h_fd": 0}, "h_fd"),
    ({"quad_nodes": 0}, "quad_nodes"),
    # check tolerances are declared in the suites, not set by a scenario:
    # a table is refused, even an empty one
    ({"tolerances": {"bogus": 1.0}}, "unknown fields: ['tolerances']"),
    ({"tolerances": {}}, "unknown fields: ['tolerances']"),
    ({"window_deltas": [0.01]}, "window_deltas"),
    ({"window_deltas": [0.01, 0.01]}, "window_deltas"),
    ({"deltas": [0.05, "0.1"]}, "deltas"),
    ({"suite": ["moves"]}, "suite"),
    ({"deltas": []}, "deltas"),
    ({"a_values": [10.0, -1.0]}, "a_values"),
    ({"sphere_dims": [0]}, "sphere_dims"),
    ({"page_blocks": [1]}, "page_blocks"),
    ({"model_dims": [[2, 5]]}, "model_dims"),
    ({"model_dims": [[2]]}, "model_dims"),
    ({1: 2, "a": 3}, "unknown fields: [1, 'a']"),
    ({"suite": "giroux", "giroux_flow_step": 2.5}, "giroux_flow_step"),
    ({"suite": "monodromy", "flow_step": 2.0}, "flow_step"),
    ({"suite": "moves", "flow_step": 1.5}, "flow_step"),
    ({"deltas": [0.3]}, "deltas"),
    ({"window_deltas": [0.3, 0.2]}, "window_deltas"),
    ({"suite": "moves", "search_depth": -1}, "search_depth"),
    ({"suite": "moves", "seed": -3}, "seed: must be non-negative"),
    ({"n_window": 0}, "n_window: sample count must be >= 1"),
    ({"seed": True}, "seed"),
    ({"out_dir": 5}, "out_dir"),
])
def test_bad_config_values_are_named(data, field):
    with pytest.raises(ConfigError) as exc:
        config_from_dict(data)
    assert field in str(exc.value)


# a start on the -0.1 page of S_{-1}
ON_PAGE = ModelPoint(np.zeros(0), np.zeros(0), np.array([-0.1, 0.5]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("build, named", [
    (lambda: PageDecomposition(np.array([math.nan, 0.0]), np.zeros(2), -0.1), "unit vector"),
    (lambda: PageDecomposition(np.array([1.0, 0.0]), np.array([0.0, math.nan]), -0.1),
     "orthogonal"),
    (lambda: PageDecomposition.of(ON_PAGE, math.nan), "sits on page"),
    (lambda: SpherePoint(np.array([math.nan, 0.0]), np.zeros(2)), "q and p must be finite"),
    (lambda: SpherePoint(np.array([1.0, 0.0]), np.array([0.0, math.inf])),
     "q and p must be finite"),
    (lambda: DehnTwistProfile(math.nan, 1), "p0 must be positive"),
    (lambda: DehnTwistProfile(math.inf, 1), "p0 must be positive and finite, got inf"),
    (lambda: DehnTwistProfile(1.0, 1.5), "k must be a positive integer, got 1.5"),
    (lambda: DehnTwistProfile(1.0, True), "k must be a positive integer, got True"),
    (lambda: DehnTwistProfile(1.0, 0), "k must be a positive integer, got 0"),
    (lambda: surgery.phi_c_map(2, 0, math.nan), "scaling constant must be positive"),
    (lambda: IntegratorConfig(step=math.nan), "positive and finite"),
    (lambda: IntegratorConfig(max_time=math.inf), "positive and finite"),
    (lambda: IntegratorConfig(event_tol=math.nan), "positive and finite"),
    (lambda: pre_surgery_monodromy([ON_PAGE], math.nan, IntegratorConfig()), "-eps page"),
    (lambda: post_surgery_closed_form(ON_PAGE, math.nan), "-eps page"),
    (lambda: surgery.finite_transfers_to_s1(ON_PAGE.as_array()[None], 0, 2, math.nan, 0.05),
     "a must be positive"),
    (lambda: HandleProfile(0.05).g_inverse(math.nan), "finite values"),
    (lambda: HandleProfile(0.05).g_inverse(-math.inf), "finite values"),
    (lambda: HandleProfile(0.05).g_inverse(np.array([0.5, 1.02, math.nan])), "finite values"),
])
def test_validators_refuse_nan_and_inf(build, named):
    # a NaN fails every comparison, so each check states what must hold
    with pytest.raises(ValueError, match=named):
        build()


@pytest.mark.parametrize("data", [5, None, "abc", [1]])
def test_config_root_must_be_an_object(data):
    with pytest.raises(ConfigError, match="config root must be a JSON object"):
        config_from_dict(data)


@pytest.mark.parametrize("data", [
    {},
    {"suite": "moves", "n_chains": 20, "search_depth": 4},
    {"suite": "all", "seed": 11, "n_twist": 25, "n_strict": 25, "n_liouville": 15,
     "n_surface_scan": 400, "n_monodromy": 12, "n_giroux": 12, "n_giroux_numeric": 2,
     "n_chains": 60, "n_nonconnected": 12, "n_window": 5},
    {"seed": 3, "out_dir": None, "search_depth": 0},
])
def test_good_configs_parse(data):
    cfg = config_from_dict(data)
    assert all(getattr(cfg, k) == v for k, v in data.items())


labels = st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters="^(),_"),
                 min_size=1, max_size=4)
lines = st.one_of(
    st.builds(lambda n: f"page {n}", st.integers(0, 5) | labels),
    st.builds(lambda a, k, f: f"handle {a} index {k} framing {f}",
              labels, st.integers(0, 4) | labels, labels),
    st.builds(lambda a, s: f"sphere {a} supports {s}", labels, labels),
    st.builds(lambda a, s, d, t: f"sphere {a} supports {s} disk {d} tag {t}",
              labels, labels, labels, labels),
    st.builds(lambda d, t: f"disk {d} tag {t}", labels, labels),
    st.builds(lambda ws: "word " + " ".join(ws),
              st.lists(st.builds(lambda a, p: f"{a}^{p}", labels,
                                 st.sampled_from(["+1", "-1", "1", "2", "x", ""])),
                       max_size=3)),
    # truncated or overlong versions of any line
    st.builds(lambda words, cut: " ".join(words[:cut]),
              st.lists(labels | st.sampled_from(["page", "handle", "sphere", "disk", "word",
                                                 "index", "framing", "supports", "tag"]),
                       min_size=1, max_size=9),
              st.integers(0, 9)),
)
texts = st.lists(lines, max_size=7).map("\n".join) | st.text(max_size=40)


@given(texts)
@settings(max_examples=400, deadline=None)
def test_any_text_gives_a_round_tripping_descriptor_or_value_error(text):
    try:
        desc = mv.from_text(text)
    except ValueError:
        return
    assert mv.from_text(mv.to_text(desc)) == desc
    mv.neighbors(desc)  # every move applies to a page that parses


@pytest.mark.parametrize("text", [
    "handle h0 index 1",
    "page 2\nhandle h0 index 1",
    "sphere S0",
    "disk D0",
    "page",
    "page two",
    "page 2\nhandle h0 index one framing std",
    "page 2\nhandle h0 index 1 framing std\nsphere S0 supports h0\nword S0^+x",
    "page 2\nhandle h0 index 1 framing std extra",
    "page 2\nhandle h0 index 1 framing std\nsphere S0 supports h0 disk d0",
    # integers are ASCII digits with an optional sign, as to_text writes them
    "page 2\nhandle h0 index 1_0 framing std",
    "page \uff13",
    "page 2\nhandle h0 index \u0661 framing std",
    "page 2\nhandle h0 index 1 framing std\nsphere S0 supports h0\nword S0^+\u0661",
    "",
    "  \n\t\n",
])
def test_malformed_text_raises_value_error_naming_the_line(text):
    with pytest.raises(ValueError) as exc:
        mv.from_text(text)
    bad_lines = [line for line in text.splitlines() if line.strip()]
    assert (bad_lines[-1] in str(exc.value)) if bad_lines else "empty" in str(exc.value)


@pytest.mark.parametrize("text", [
    "word",
    "handle h0 index 1 framing std",
    "handle h0 index 1 framing std\nsphere S0 supports h0\nword S0^+1",
])
def test_text_without_a_page_line_is_refused(text):
    with pytest.raises(ValueError, match="no page line"):
        mv.from_text(text)


def test_cli_exits_2_naming_mistyped_fields(tmp_path, capsys):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"suite": "moves", "n_chains": "5", "seed": -1}))
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n_chains" in err and "seed" in err


@pytest.mark.parametrize("kind, reason", [("missing", "No such file"),
                                          ("directory", "Is a directory"),
                                          ("not UTF-8", "not UTF-8")])
def test_cli_exits_2_naming_an_unreadable_config(tmp_path, capsys, kind, reason):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not UTF-8":
        path.write_bytes(b"\xff\xfe{")
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and reason in err


@pytest.mark.parametrize("where, reason", [("file", "File exists"),
                                           ("under a file", "Not a directory")])
def test_cli_exits_2_naming_an_unusable_output_directory(tmp_path, capsys, where, reason):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory")
    out = blocker if where == "file" else blocker / "reports"
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"suite": "moves", "n_chains": 5, "search_depth": 2}))
    assert cli.main(["--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(out) in captured.err and reason in captured.err
    assert "suite moves" not in captured.out  # refused before the suite ran
    assert blocker.read_text() == "not a directory"
