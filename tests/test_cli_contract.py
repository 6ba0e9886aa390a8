"""Property test of the CLI contract on configs drawn from a fixed menu.

Every run of ``main`` must exit 0, exit 1 with a FAIL line for a named
check, or exit 2 with a ConfigError naming a field; exit 3 (a stage
raised) fails the test. Configs are tiny, and at most one field is
replaced by an invalid value, joined by an unknown key, or (a numeric
field) replaced by a boolean or a string, which must exit 2 naming it. An
invalid value must exit 2 naming its field when the field is top-level;
inside a section a number can still give a valid domain or law. The menu
of numeric fields is read from the parser's schema.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflected_stable.cli_report import KINDS, SCHEMA, default_config, main

# each domain with an in-domain law of every family
DOMAINS = {
    "interval": ({"kind": "interval", "a": -1.0, "b": 1.0}, (
        {"family": "constant-uniform", "a": -0.5, "b": 0.5},
        {"family": "dirac", "point": 0.3},
        {"family": "projection", "depth": 0.3, "width": 0.2})),
    "short": ({"kind": "interval", "a": 0.0, "b": 0.3}, (
        {"family": "constant-uniform", "a": 0.1, "b": 0.2},
        {"family": "dirac", "point": 0.15},
        {"family": "projection", "depth": 0.05, "width": 0.04})),
    "ball": ({"kind": "ball", "center": [0.5], "radius": 2.0}, (
        {"family": "constant-uniform", "a": 0.0, "b": 1.0},
        {"family": "dirac", "point": 0.5},
        {"family": "projection", "depth": 0.5, "width": 0.4})),
    # a domain of diameter 2e9, where the generator's entries are 1e9**-alpha
    # times those on (-1, 1)
    "huge": ({"kind": "interval", "a": -1e9, "b": 1e9}, (
        {"family": "constant-uniform", "a": -1e8, "b": 1e8},
        {"family": "dirac", "point": 3e8},
        {"family": "projection", "depth": 3e8, "width": 2e8})),
    # laws much narrower than a cell
    "narrow": ({"kind": "interval", "a": -1.0, "b": 1.0}, (
        {"family": "constant-uniform", "a": 0.3, "b": 0.300001},
        {"family": "dirac", "point": 0.3},
        {"family": "projection", "depth": 1e-6, "width": 1e-6})),
    "union": ({"kind": "grid1d", "intervals": [[-1.0, -0.2], [0.1, 1.0]]}, (
        {"family": "constant-uniform", "a": 0.3, "b": 0.8},
        {"family": "dirac", "point": 0.5},
        {"family": "projection", "depth": 0.2, "width": 0.1})),
    # pieces that share an endpoint: not a Lipschitz set, so every run exits
    # 2 naming the domain
    "touching": ({"kind": "grid1d", "intervals": [[-1.0, 0.0], [0.0, 1.0]]}, (
        {"family": "constant-uniform", "a": 0.3, "b": 0.8},
        {"family": "dirac", "point": 0.5},
        {"family": "projection", "depth": 0.2, "width": 0.1})),
}
INVALID = ("x", None, float("inf"), -2.5)
NOT_NUMBERS = (True, False, "x")


def numeric_keys(raw, owner):
    """The keys of a config (owner None) or of one of its sections that hold numbers."""
    if owner is None:
        return sorted(field for field, (default, _) in SCHEMA.items()
                      if isinstance(default, (int, float)) and not isinstance(default, bool))
    tag, kinds = SCHEMA[owner][1]
    return sorted(kinds if tag is None else kinds[raw[owner][tag]][0])


@st.composite
def configs(draw):
    """(raw config, the field it must exit 2 naming or None) from the menu,
    perhaps made invalid."""
    domain, laws = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    raw = dict(
        default_config(), kind=draw(st.sampled_from(KINDS)), seed=draw(st.integers(0, 1000)),
        params={"d": 1, "alpha": draw(st.sampled_from([0.5, 1.0, 1.5, 1.9]))},
        domain=dict(domain), mu=dict(draw(st.sampled_from(laws))),
        n_cells=draw(st.integers(4, 40)), dt=draw(st.sampled_from([1e-3, 1e-2, 0.1])),
        horizon=draw(st.sampled_from([0.5, 2.0, 5.0])),
        replicas=draw(st.sampled_from([0, 1, 3, 20])),
        # repeats are invalid values, so each list draws distinct ones
        t_list=draw(st.lists(st.sampled_from([1e-6, 0.01, 0.3, 1.0, 20.0, 50.0]),
                             min_size=1, max_size=2, unique=True)),
        lambda_list=draw(st.lists(st.sampled_from([1e-6, 0.1, 1.0, 100.0]),
                                  min_size=1, max_size=2, unique=True)),
        threads=draw(st.sampled_from([1, 2])), chain_samples=2000)
    expected = "domain" if domain is DOMAINS["touching"][0] else None
    change = draw(st.sampled_from(["none", "value", "unknown key", "not a number"]))
    if change == "none":
        return raw, expected
    owner = draw(st.sampled_from([None, "params", "domain", "mu"]))
    target = raw if owner is None else raw[owner]
    prefix = "" if owner is None else owner + "."
    if change == "unknown key":
        target["bogus"] = 1
        return raw, prefix + "bogus"
    if change == "not a number":
        key = draw(st.sampled_from(numeric_keys(raw, owner)))
        target[key] = draw(st.sampled_from(NOT_NUMBERS))
        return raw, prefix + key
    # out_dir stays valid: any string names a directory to write in
    field = draw(st.sampled_from(sorted(set(target) - {"out_dir"})))
    target[field] = draw(st.sampled_from(INVALID))
    return raw, field if owner is None else None


def run_main(raw):
    """(exit code, stdout, stderr) of ``main`` on the config ``raw``, written
    to a temporary directory with its outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        raw = dict(raw, out_dir=os.path.join(tmp, "out"))
        cfg_path = os.path.join(tmp, "cfg.json")
        with open(cfg_path, "w") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", cfg_path])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(configs())
def test_cli_runs_fails_a_check_or_names_a_field(drawn):
    raw, named = drawn
    code, out, err = run_main(raw)
    lines = [line.split() for line in out.splitlines()]
    if named is not None:
        assert code == 2
    if code == 0:
        assert err == "" and ["status:", "pass"] in [line[:2] for line in lines]
    elif code == 1:
        assert err == ""
        assert any(len(line) == 2 and line[1] == "FAIL" for line in lines), out
    else:
        assert code == 2, err
        payload = json.loads(err)
        assert payload["type"] == "ConfigError", payload
        prefix = "config field '%s'" % named if named else "config field '"
        assert payload["error"].startswith(prefix), payload


# full-triangulation runs at the extremes of scale: a projection law of
# width 1e-6, a component of length 1e-7 and a domain of diameter 2e9
SCALE_BASE = {"kind": "full-triangulation", "seed": 1, "n_cells": 100, "replicas": 20,
              "horizon": 20.0, "chain_samples": 2000, "t_list": [0.5], "lambda_list": [1.0]}


@pytest.mark.parametrize("change", [
    {"mu": {"family": "projection", "depth": 1e-6, "width": 1e-6}},
    {"domain": {"kind": "grid1d", "intervals": [[-1.0, 0.5], [0.6, 0.6000001]]}},
    {"domain": {"kind": "interval", "a": -1e9, "b": 1e9},
     "mu": {"family": "constant-uniform", "a": -1e8, "b": 1e8}},
], ids=["narrow-projection", "thin-union", "huge-interval"])
def test_scale_extremes_run_or_fail_a_check(change):
    code, _, err = run_main(dict(default_config(), **SCALE_BASE, **change))
    assert code in (0, 1), err
    assert err == ""


@pytest.mark.parametrize("kind", ["chain", "stationary", "full-triangulation"])
def test_six_interval_projection_runs_or_fails_a_check(kind):
    # a projection law with m = 12 row directions, two per interval
    six = [[2 * k, 2 * k + 1] for k in range(6)]
    code, _, err = run_main(dict(default_config(), **dict(
        SCALE_BASE, kind=kind, n_cells=60, domain={"kind": "grid1d", "intervals": six},
        mu={"family": "projection", "depth": 0.2, "width": 0.1})))
    assert code in (0, 1), err
    assert err == ""
