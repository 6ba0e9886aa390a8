import json
import logging
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from reflected_stable import cli_report, pathsim
from reflected_stable.cli_report import (KINDS, SCHEMA, ConfigError, _Run, _start_law,
                                         build_domain, build_mu, default_config,
                                         describe, main, parse_config, run)
from reflected_stable.perturbation import duhamel_series


def small_config(**over):
    cfg = default_config()
    cfg.update(
        n_cells=100,
        replicas=40,
        horizon=30.0,
        t_list=[0.1, 0.5],
        chain_samples=2000,
        chain_steps=2,
    )
    cfg.update(over)
    return cfg


def test_parse_roundtrip_and_hash():
    cfg = parse_config(default_config())
    again = parse_config(cfg.to_dict())
    assert cfg.to_dict() == again.to_dict()
    assert cfg.hash() == again.hash()
    other = parse_config(dict(default_config(), seed=1))
    assert other.hash() != cfg.hash()


def test_validation_errors_name_fields():
    with pytest.raises(ConfigError) as e:
        parse_config({k: v for k, v in default_config().items() if k != "seed"})
    assert e.value.field == "seed"
    with pytest.raises(ConfigError) as e:
        parse_config(dict(default_config(), params={"d": 1, "alpha": 2.0}))
    assert e.value.field == "params.alpha"
    with pytest.raises(ConfigError) as e:
        parse_config(dict(default_config(), kind="nonsense"))
    assert e.value.field == "kind"
    with pytest.raises(ConfigError) as e:
        parse_config(dict(default_config(), bogus=1))
    assert e.value.field == "bogus"
    # below 2000 samples the 20-bin chain check's noise floor reaches its tolerance
    with pytest.raises(ConfigError) as e:
        parse_config(dict(default_config(), chain_samples=1999))
    assert e.value.field == "chain_samples"


def test_describe_lists_stages():
    cfg = parse_config(default_config())
    text = describe(cfg)
    assert "stages (6):" in text
    assert text.count("\n  ") == 6
    cfg2 = parse_config(dict(default_config(), kind="chain"))
    assert "stages (2):" in describe(cfg2)


def _described_stages(config):
    return [line.split(". ", 1)[1] for line in describe(config).splitlines()
            if line.startswith("  ")]


def _per_value_csv(header, columns):
    """Reference CSV text: every value formatted on its own."""
    def fmt(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return "%.17g" % float(x)

    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
    floats[:6] = [0.0, -0.0, 1e-320, np.inf, np.nan, 0.1]
    tables = {
        "floats.csv": (["x", "y", "density"],
                       [floats, np.repeat(floats[:20], 10), np.tile(floats[:10], 20)]),
        "mixed.csv": (["replica", "t", "n", "paths", "R"],
                      [np.repeat(np.arange(20), 10), np.repeat([0.1, 2.0], 100),
                       np.tile(np.arange(10), 20), rng.integers(0, 2 ** 62, 200),
                       floats[::-1]]),
        "empty.csv": (["step", "x"], [np.arange(0), np.zeros(0)]),
    }
    runner = _Run(parse_config(dict(default_config(), out_dir=str(tmp_path))))
    for name, (header, columns) in tables.items():
        path = runner.write_csv(name, header, columns)
        with open(path, "rb") as fh:
            assert fh.read() == _per_value_csv(header, columns).encode(), name


def test_run_semigroup_check(tmp_path):
    cfg = parse_config(small_config(kind="semigroup-check", t_list=[0.3],
                                    out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0
    assert manifest["status"] == "pass"
    names = set(manifest["outputs"])
    assert "series_diagnostics.json" in names
    assert any(n.startswith("reflected_kernel") for n in names)
    for name in names:
        assert (tmp_path / name).exists()
    assert (tmp_path / "manifest.json").exists()
    # every output is referenced exactly once
    assert len(manifest["outputs"]) == len(set(manifest["outputs"]))
    # the series stage records in the manifest the diagnostics it writes
    written = json.loads((tmp_path / "manifest.json").read_text())
    stage, = [s for s in written["stages"] if s["name"] == cli_report._series.__doc__]
    diagnostics = json.loads((tmp_path / "series_diagnostics.json").read_text())
    assert set(diagnostics) == {"series"}
    series = diagnostics["series"]
    assert stage["diagnostics"]["series"] == series and len(series) == 1
    # and, in the manifest only, the reference's path, mirror asymmetry and time:
    # (-1, 1) with uniform(-0.5, 0.5) is unchanged by the mirror
    reference = stage["diagnostics"]["reference"]
    assert reference["path"] == "mirror"
    assert 0 <= reference["mirror_asymmetry"] <= reference["mirror_threshold"]
    assert 0 < reference["wall_s"] < stage["wall_s"]


def test_run_stationary_kind(tmp_path):
    cfg = parse_config(small_config(kind="stationary", out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0
    tri = json.loads((tmp_path / "triangulation.json").read_text())
    assert "pairwise_tv" in tri and tri["dobrushin_two_step"] < 1.0
    # the contraction stage records its coefficient, overlap and direction
    # count (one direction for a constant law); other stages only their time
    stages = {s["name"]: s for s in manifest["stages"]}
    entry = stages.pop(cli_report._contraction.__doc__)
    assert entry["diagnostics"] == {"beta": tri["dobrushin_two_step"],
                                    "min_overlap": tri["min_row_overlap"], "m": 1}
    # the densities stage records what its two solvers observed: a constant
    # law's chain is exact after one step, so its second eigenvalue is round-off
    diag = stages.pop(cli_report._densities.__doc__)["diagnostics"]
    assert set(diag["chain_law"]) == {"r", "lambda2", "fixed_point_tv"}
    assert diag["chain_law"]["r"] == 1 and diag["chain_law"]["lambda2"] < 1e-9
    assert diag["chain_law"]["fixed_point_tv"] <= 2e-12
    null = diag["null_vector"]
    assert set(null) == {"error_estimate", "step_ratio", "min_off_diagonal", "residual"}
    assert 0 <= null["error_estimate"] <= 1e-14 and 0 <= null["step_ratio"] <= 1e-3
    assert null["min_off_diagonal"] > 0 and 0 <= null["residual"] <= 1e-6
    assert all(set(s) == {"name", "wall_s"} for s in stages.values())


def test_full_triangulation_stage_diagnostics(tmp_path):
    cfg = parse_config(small_config(kind="full-triangulation", horizon=60.0,
                                    mu=INTERVAL_MUS["projection"], out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0
    stages = {s["name"]: s.get("diagnostics") for s in manifest["stages"]}
    # the chain's exact rate is within the one that its contraction allows
    beta = stages[cli_report._contraction.__doc__]["beta"]
    law = stages[cli_report._densities.__doc__]["chain_law"]
    assert 0 < law["lambda2"] and law["lambda2"] ** 2 <= beta + 1e-9
    assert set(stages[cli_report._densities.__doc__]["null_vector"]) == {
        "error_estimate", "step_ratio", "min_off_diagonal", "residual"}
    ergodic = stages[cli_report._ergodic.__doc__]
    assert ergodic["chains"] == 40 and ergodic["burn_in"] == 2.0
    assert ergodic["reflections_per_chain"] >= 50
    assert ergodic["balls_per_reflection"] >= 1
    # 25 knot points per ball, from the balls of the excursions after the burn-in
    balls = ergodic["chains"] * ergodic["reflections_per_chain"] * ergodic["balls_per_reflection"]
    assert ergodic["knot_points"] % 25 == 0
    assert 0 < ergodic["knot_points"] <= 25 * round(balls)


def test_run_simulate_and_chain(tmp_path):
    cfg = parse_config(small_config(kind="simulate", replicas=30, horizon=20.0,
                                    out_dir=str(tmp_path / "sim")))
    code, manifest = run(cfg)
    assert code == 0
    assert "reflection_counts.csv" in manifest["outputs"]
    # the ensemble stage records its size, reflection rate and throughput
    stage, = [s for s in manifest["stages"] if s["name"] == cli_report._ensemble.__doc__]
    diag = stage["diagnostics"]
    assert diag["paths"] == 30 and diag["path_steps"] == 30 * 20000
    assert diag["reflections_per_path"] > 1 and diag["path_steps_per_s"] > 0
    cfg2 = parse_config(small_config(kind="chain", out_dir=str(tmp_path / "chain")))
    code2, man2 = run(cfg2)
    assert code2 == 0
    assert "chain_samples.csv" in man2["outputs"]


def test_simulate_runs_one_ensemble(tmp_path, monkeypatch):
    # the excursion statistics come from the ensemble stage's reflection
    # records: simulate_ensemble runs once per block, on the block streams
    stream_ids = []
    simulate_ensemble = pathsim.simulate_ensemble

    def recorded(*args, **kwargs):
        stream_ids.append(kwargs["stream_id"])
        return simulate_ensemble(*args, **kwargs)

    monkeypatch.setattr(pathsim, "simulate_ensemble", recorded)
    cfg = parse_config(small_config(kind="simulate", replicas=60, horizon=20.0,
                                    out_dir=str(tmp_path)))
    code, _ = run(cfg)
    assert code == 0
    assert stream_ids == [1, 2]   # blocks of 50 and 10 paths
    stats = json.loads((tmp_path / "excursion_stats.json").read_text())
    assert stats["n_paths"] == 60


def test_run_excessive(tmp_path):
    cfg = parse_config(small_config(kind="excessive", lambda_list=[1.0],
                                    out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0
    assert "excessive_lam1.csv" in manifest["outputs"]
    radii = json.loads((tmp_path / "excessive_radii_lam1.json").read_text())
    assert len(radii["radii"]) == 6
    # the stage's diagnostics: per lambda, the shell levels and the check's value and time
    stage, = [s for s in manifest["stages"] if s["name"] == cli_report._excessive.__doc__]
    diag, = stage["diagnostics"]
    check, = [c for c in manifest["checks"] if c["name"] == "supermedian-lam1"]
    assert diag["lambda"] == 1.0 and diag["shell_levels"] == 6
    assert diag["supermedian_violation"] == check["value"] <= 1e-8
    assert 0 < diag["check_s"] < stage["wall_s"]


def test_byte_identical_reruns_and_threads(tmp_path):
    out1, out2, out3 = (tmp_path / s for s in ("a", "b", "c"))
    base = small_config(kind="full-triangulation", replicas=30, horizon=60.0,
                        t_list=[0.2])
    for out, threads in ((out1, 1), (out2, 1), (out3, 2)):
        cfg = parse_config(dict(base, out_dir=str(out), threads=threads))
        code, _ = run(cfg)
        assert code == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2)) == sorted(os.listdir(out3))
    for name in names:
        if name == "manifest.json":
            continue
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes(), name
        assert b1 == (out3 / name).read_bytes(), name
    # manifests agree on everything except wall time and out_dir/threads
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["checks"] == m2["checks"]
    assert m1["seed"] == m2["seed"]


INTERVAL = {"kind": "interval", "a": -1.0, "b": 1.0}
UNION = {"kind": "grid1d", "intervals": [[-1.0, -0.2], [0.1, 1.0]]}
INTERVAL_MUS = {
    "constant-uniform": {"family": "constant-uniform", "a": -0.5, "b": 0.5},
    "dirac": {"family": "dirac", "point": 0.3},
    "projection": {"family": "projection", "depth": 0.3, "width": 0.2},
}
SWEEP = {
    "interval": (INTERVAL, INTERVAL_MUS),
    "grid1d": (UNION, {
        "constant-uniform": {"family": "constant-uniform", "a": 0.3, "b": 0.8},
        "dirac": {"family": "dirac", "point": 0.5},
        "projection": {"family": "projection", "depth": 0.2, "width": 0.1},
    }),
}


@pytest.mark.parametrize("family", sorted(INTERVAL_MUS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("domain", sorted(SWEEP))
def test_config_sweep_runs(domain, kind, family, tmp_path):
    spec, mus = SWEEP[domain]
    cfg = parse_config(small_config(kind=kind, domain=spec, mu=mus[family],
                                    horizon=60.0, out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0, [c for c in manifest["checks"] if not c["passed"]]
    # the stages run are the stages described
    assert [s["name"] for s in manifest["stages"]] == _described_stages(cfg)


@pytest.mark.parametrize("domain, mu, field", [
    (UNION, INTERVAL_MUS["constant-uniform"], "mu"),   # uniform over the gap
    (INTERVAL, {"family": "dirac", "point": 5.0}, "mu"),
    (INTERVAL, {"family": "dirac", "point": 1.0}, "mu"),   # atom on the boundary
    (INTERVAL, {"family": "dirac", "point": None}, "mu.point"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, INTERVAL_MUS["dirac"],
     "domain.kind"),   # ball is no CLI domain kind
])
def test_unrunnable_domain_or_law_exits_2(domain, mu, field, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(domain=domain, mu=mu,
                                                out_dir=str(tmp_path / "o"))))
    for kind in KINDS:
        assert main(["--config", str(cfg_path), "--kind", kind]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"].startswith("config field '%s'" % field), err


def _stage_references(A, t_list):
    """exp(tA) at each t as the series stage forms it, by the stage's helper."""
    reference = cli_report._Reference(A, t_list)
    return [reference.at(t) for t in t_list]


@pytest.mark.parametrize("family", sorted(INTERVAL_MUS))
@pytest.mark.parametrize("domain", ["interval", "grid1d"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_series_reference_matches_per_t_expm(alpha, domain, family, tmp_path):
    spec, mus = SWEEP[domain]
    cfg = parse_config(dict(default_config(), params={"d": 1, "alpha": alpha}, domain=spec,
                            mu=mus[family], out_dir=str(tmp_path)))
    A = _Run(cfg).A.entries
    t_list = cfg.t_list
    assert t_list == [0.1, 0.5, 2.0] and cfg.n_cells == 400
    for t, E in zip(t_list, _stage_references(A, t_list)):
        assert np.abs(E - scipy.linalg.expm(t * A)).max() < 1e-13, t


# at an odd cell count the centre node enters the even parity block, and an
# atom at the centre is mirror-symmetric (at 400 cells it lies on a cell edge)
MIRROR_401_MUS = dict(INTERVAL_MUS, dirac0={"family": "dirac", "point": 0.0})


@pytest.mark.parametrize("family", sorted(MIRROR_401_MUS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_series_reference_matches_per_t_expm_at_401_cells(alpha, family, tmp_path):
    cfg = parse_config(dict(default_config(), params={"d": 1, "alpha": alpha}, n_cells=401,
                            mu=MIRROR_401_MUS[family], out_dir=str(tmp_path)))
    A = _Run(cfg).A.entries
    assert cli_report._Reference(A, cfg.t_list).mirror == (family != "dirac")
    for t, E in zip(cfg.t_list, _stage_references(A, cfg.t_list)):
        assert np.abs(E - scipy.linalg.expm(t * A)).max() < 1e-13, t


@pytest.mark.parametrize("n_cells", [400, 401])
def test_series_reference_takes_the_mirror_path_only_on_symmetric_configs(n_cells, tmp_path):
    def reference(mu, domain=INTERVAL):
        cfg = parse_config(dict(default_config(), domain=domain, mu=mu, n_cells=n_cells,
                                out_dir=str(tmp_path)))
        A = _Run(cfg).A.entries
        return A, cli_report._Reference(A, [0.7])

    for family in ("constant-uniform", "projection"):
        _, ref = reference(INTERVAL_MUS[family])
        assert ref.mirror and ref.asymmetry <= ref.threshold, family
    # an atom off centre and the union are asymmetric by far more than round-off
    for mu, domain in ((INTERVAL_MUS["dirac"], INTERVAL), (SWEEP["grid1d"][1]["projection"], UNION)):
        A, ref = reference(mu, domain)
        assert not ref.mirror and ref.asymmetry > 1e10 * ref.threshold
        # the full path: a single t is one _expm of A, exactly
        E, = _stage_references(A, [0.7])
        assert np.array_equal(E, cli_report._expm(A, 0.7))
    # a uniform law moved off centre by 2e-12 reads 2.85 to 12 times n eps ||A||_inf
    _, ref = reference({"family": "constant-uniform", "a": -0.5, "b": 0.5 + 2e-12})
    assert not ref.mirror and ref.asymmetry > ref.threshold


def test_series_reference_powers_from_the_largest_integer_ratio():
    # each t powers from the largest E(t') already formed whose ratio t / t' is an
    # integer, else from E(t1) with a remainder; a power is kept only while a later
    # t powers from it, and E(t1) while such a t' is still to be formed
    rng = np.random.default_rng(3)
    A = rng.random((7, 7))
    A -= np.diag(A.sum(axis=1) + 0.5)
    cases = [([0.1, 0.5, 2.0], [0.1, 0.1, 0.5], [{0.1}, {0.5}, set()]),
             ([0.1, 2.0, 0.5], [0.1, 0.1, 0.1], [{0.1}, {0.1}, set()]),
             ([0.5, 2.0, 0.3], [0.3, 0.5, 0.3], [{0.3, 0.5}, {0.3}, set()]),
             ([0.3, 0.7, 1.4], [0.3, 0.3, 0.7], [{0.3}, {0.7}, set()]),
             # 0.6 = 3 * 0.2: E(0.5) is larger, but 0.6 / 0.5 is no integer
             ([0.2, 0.5, 0.6], [0.2, 0.2, 0.2], [{0.2}, {0.2}, set()])]
    for t_list, plan, kept in cases:
        reference = cli_report._Reference(A, t_list)
        assert not reference.mirror and reference._plan == plan, t_list
        for t, kept_after in zip(t_list, kept):
            E = reference.at(t)
            assert set(reference._formed) == kept_after, (t_list, t)
            assert np.abs(E - scipy.linalg.expm(t * A)).max() < 1e-13, (t_list, t)
            E[:] = np.nan   # the caller owns E: later t's read no array it wrote
    # a failed series leaves its t unformed: E(t1) stays while a later t's
    # E(t') is still to be formed, and that t powers from it instead
    reference = cli_report._Reference(A, [0.1, 0.2, 0.4, 0.8])
    assert reference._plan == [0.1, 0.1, 0.2, 0.4]
    reference.at(0.1)
    reference.at(0.2)
    assert set(reference._formed) == {0.1, 0.2}
    E = reference.at(0.8)   # no series at 0.4
    assert set(reference._formed) == set()
    assert np.abs(E - scipy.linalg.expm(0.8 * A)).max() < 1e-13


@pytest.mark.parametrize("t_list, tol", [
    ([0.3, 0.7], 1e-13),     # 0.7 = 2 * 0.3 + 0.1: the remainder factor
    ([2.0, 0.1], 1e-13),     # unsorted: E(0.1) is reused after E(2) = E(0.1)^20
    # E(0.0001)^20480: the error of storing E(0.0001), powered, is about k eps
    ([1e-4, 2.048], 20480 * np.finfo(float).eps),
])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_series_reference_remainder_order_and_long_powers(alpha, t_list, tol, tmp_path):
    cfg = parse_config(dict(default_config(), params={"d": 1, "alpha": alpha},
                            out_dir=str(tmp_path)))
    A = _Run(cfg).A.entries
    for t, E in zip(t_list, _stage_references(A, t_list)):
        assert np.abs(E - scipy.linalg.expm(t * A)).max() < tol, t
    # the default config is mirror-symmetric: a single t is one _expm per
    # parity block, exactly
    assert cli_report._Reference(A, [0.7]).mirror
    E, = _stage_references(A, [0.7])
    blocks = [cli_report._expm(B, 0.7) for B in cli_report._parity_blocks(A)]
    assert np.array_equal(E, cli_report._from_parity_blocks(*blocks))


# (dirac(0.3) is not mirror-symmetric: one block, A; uniform(-0.5, 0.5) is: two)
SERIES_STAGE_MUS = ((INTERVAL_MUS["dirac"], 1), (INTERVAL_MUS["constant-uniform"], 2))


@pytest.mark.parametrize("t_list, expm_calls", [
    ([0.1, 0.5, 2.0], 1), ([2.0, 0.1], 1), ([0.3, 0.7], 2), ([0.5], 1)])
def test_series_stage_gaps_from_one_expm(t_list, expm_calls, tmp_path, monkeypatch):
    # the stage calls _expm once at the smallest t (and once per remainder) on each
    # block it powers, leaves the kept powers intact for later t's, and reports
    # the gaps that per-t _expm gives: exactly so for a single t on the full
    # path, and exactly the helper's on the mirror path
    expm, calls = cli_report._expm, []
    monkeypatch.setattr(cli_report, "_expm", lambda A, t: calls.append(len(A)) or expm(A, t))
    for mu, blocks in SERIES_STAGE_MUS:
        cfg = parse_config(small_config(kind="semigroup-check", t_list=t_list, mu=mu,
                                        out_dir=str(tmp_path / mu["family"])))
        del calls[:]
        code, manifest = run(cfg)
        assert code == 0 and calls == [cfg.n_cells // blocks] * (blocks * expm_calls), mu
        gaps = {c["name"]: c["value"] for c in manifest["checks"]}
        runner = _Run(cfg)
        A = runner.A.entries
        for t, E in zip(t_list, _stage_references(A, t_list)):
            K = duhamel_series(runner.L, runner.M, t).total
            gap = np.abs(expm(A, t) - K).max()
            stage_gap = gaps["series-vs-exponential-t%g" % t]
            if blocks == 2:
                assert stage_gap == np.abs(E - K).max()
            elif len(t_list) == 1:
                assert stage_gap == gap
            assert abs(stage_gap - gap) < 1e-13, t


def test_series_stage_takes_the_reference_before_any_series(tmp_path, monkeypatch):
    # E(t1) is taken once per block, before the first series, so that no series
    # array is alive at the expm; a run whose every series fails still pays it
    events, expm = [], cli_report._expm

    def failing_series(L, M, t):
        events.append(("series", t))
        raise cli_report.SeriesError("no series at t=%g" % t)

    monkeypatch.setattr(cli_report, "_expm", lambda A, t: events.append(("expm", t)) or expm(A, t))
    monkeypatch.setattr(cli_report, "duhamel_series", failing_series)
    for mu, blocks in SERIES_STAGE_MUS:
        cfg = parse_config(small_config(kind="semigroup-check", t_list=[0.5, 0.1], mu=mu,
                                        out_dir=str(tmp_path / mu["family"])))
        del events[:]
        code, manifest = run(cfg)
        assert code == 1
        assert events == [("expm", 0.1)] * blocks + [("series", 0.5), ("series", 0.1)]
        failed = {c["name"] for c in manifest["checks"] if not c["passed"]}
        assert {"series-t0.5", "series-t0.1"} <= failed


def test_expm_of_zero_and_of_scalars():
    # exp(0) = I exactly (the Pade denominator's constant term is 1), and a
    # 1 x 1 exponential is within 2 eps of math.exp: absolute below 1, relative
    # above (the squarings at x = -50 carry the scaled value's relative error)
    assert np.array_equal(cli_report._expm(np.zeros((5, 5)), 1.0), np.eye(5))
    eps = np.finfo(float).eps
    for x in (-50.0, -1.0, 0.5):
        e = math.exp(x)
        assert abs(cli_report._expm(np.array([[x]]), 1.0)[0, 0] - e) <= 2 * eps * max(1.0, e), x


def _traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_stage_working_set(tmp_path):
    # a whole 400-cell semigroup-check run holds at most about nine n x n arrays
    # at once: on the full path L, its eigenvectors, A and _expm's six buffers,
    # with no series array alive at the expm and one t's series, sum and gap
    # (with the power kept for a later t) at a time after it; the mirror path's
    # expm holds six buffers of a quarter of that, and its peak is lower
    for mu, path in ((INTERVAL_MUS["projection"], "mirror"), (INTERVAL_MUS["dirac"], "full")):
        cfg = parse_config(dict(default_config(), kind="semigroup-check", t_list=[0.1, 0.5, 2.0],
                                mu=mu, out_dir=str(tmp_path / mu["family"])))
        n = cfg.n_cells
        assert n == 400
        (code, manifest), peak = _traced_peak(run, cfg)
        assert code == 0
        stage, = [s for s in manifest["stages"] if s["name"] == cli_report._series.__doc__]
        assert stage["diagnostics"]["reference"]["path"] == path
        assert peak <= 9.5 * n * n * 8, (mu, peak / (n * n * 8))
    # _expm itself allocates at most six n x n arrays beyond its input. tracemalloc
    # sees numpy's buffers only: the work copies that LAPACK makes inside
    # np.linalg.solve are not traced, so the solve phase is checked by the max RSS
    # of a 1600-cell full-triangulation run (recorded with each change to it)
    A = _Run(cfg).A.entries
    _, peak = _traced_peak(cli_report._expm, A, 0.1)
    assert peak <= 6.05 * n * n * 8, peak / (n * n * 8)


def test_identical_chain_rows_give_zero_contraction(tmp_path):
    # a constant return law makes all chain rows one law, so round-off can
    # push the two-step overlap past 1; beta must stay >= 0 and stationary_p
    # must not take the square root of a negative number. At 80 cells the
    # overlap exceeds 1 by about 1.2e-14, well clear of the last bit of the
    # gamma function the kernels read (at 40 cells it was 9e-15 either side)
    cfg = parse_config(dict(default_config(), kind="stationary", seed=1, n_cells=80,
                            out_dir=str(tmp_path)))
    code, _ = run(cfg)
    assert code == 0
    tri = json.loads((tmp_path / "triangulation.json").read_text())
    # the overlap passed 1 here, so the clamp ran
    assert tri["min_row_overlap"] > 1.0
    assert 0.0 <= tri["dobrushin_two_step"] < 1e-12


def test_union_start_law_lies_in_domain():
    # a one-law kernel starts at its law; a projection kernel (one law per
    # endpoint) starts uniformly in the middle of the start point's component
    domain = build_domain(UNION)
    for family, raw in sorted(SWEEP["grid1d"][1].items()):
        mu = build_mu(raw, domain)
        law = _start_law(mu)
        assert (law is mu.laws[0]) == (family != "projection"), family
        starts = law.sample(np.random.default_rng(3), size=10000)
        assert domain.contains(starts).all(), family


def test_main_cli_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(kind="stationary",
                                                out_dir=str(tmp_path / "o"))))
    assert main(["--config", str(cfg_path), "--describe"]) == 0
    out = capsys.readouterr().out
    assert "stages (3):" in out
    code = main(["--config", str(cfg_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "status: pass" in out
    # too short a horizon for the excursion statistics: a failed check, not a crash
    cfg_path.write_text(json.dumps(small_config(kind="simulate", horizon=0.3, replicas=10,
                                                t_list=[0.1], out_dir=str(tmp_path / "s"))))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert any(line.split() == ["excursions-completed", "FAIL"]
               for line in captured.out.splitlines())
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    check = next(c for c in manifest["checks"] if c["name"] == "excursions-completed")
    assert check["value"] < 20 and check["tolerance"] == 20
    # too short a horizon for the ergodic leg: a failed check, and the two grid
    # legs are still triangulated
    out = tmp_path / "f"
    cfg_path.write_text(json.dumps(small_config(kind="full-triangulation", n_cells=24,
                                                horizon=4.0, replicas=10,
                                                out_dir=str(out))))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ["ergodic-reflections", "FAIL"] in [line.split()
                                               for line in captured.out.splitlines()]
    manifest = json.loads((out / "manifest.json").read_text())
    check = next(c for c in manifest["checks"] if c["name"] == "ergodic-reflections")
    assert check["value"] < 50 and check["tolerance"] == 50
    assert "kappa_ergodic.csv" not in manifest["outputs"]
    assert not (out / "kappa_ergodic.csv").exists()
    tri = json.loads((out / "triangulation.json").read_text())
    assert list(tri["pairwise_tv"]) == ["closed-form|null-vector"]


def test_exit_codes(tmp_path, capsys, monkeypatch):
    def exit_code(**over):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(
            kind="semigroup-check", n_cells=24, out_dir=str(tmp_path / "o"), **over)))
        code = main(["--config", str(cfg_path)])
        return code, capsys.readouterr().err

    assert exit_code(t_list=[0.3]) == (0, "")
    assert exit_code(t_list=[1e6]) == (1, "")      # a failed conservation check
    code, err = exit_code(mu={"family": "dirac", "point": 5.0})
    assert code == 2 and json.loads(err)["type"] == "ConfigError"

    def broken_series(*args, **kwargs):
        raise RuntimeError("series diverged")

    monkeypatch.setattr(cli_report, "duhamel_series", broken_series)
    code, err = exit_code(t_list=[0.3])
    assert code == 3
    assert json.loads(err) == {"error": "series diverged", "type": "RuntimeError",
                               "stage": cli_report._series.__doc__}
    assert cli_report._series.__doc__ in _described_stages(
        parse_config(small_config(kind="semigroup-check")))


def test_stages_log_at_debug_only(tmp_path, caplog):
    cfg = parse_config(small_config(kind="chain", n_cells=24, out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0 and not caplog.records
    caplog.set_level(logging.DEBUG, logger="reflected_stable")
    code, manifest = run(cfg)
    assert code == 0
    records = [r for r in caplog.records if r.name == "reflected_stable.cli_report"]
    assert [r.levelno for r in records] == [logging.DEBUG] * len(manifest["stages"])
    for record, stage in zip(records, manifest["stages"]):
        assert stage["name"] in record.getMessage()
    assert all(s["wall_s"] >= 0 for s in manifest["stages"])
    assert sum(s["wall_s"] for s in manifest["stages"]) <= manifest["wall_time_s"]


def test_main_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in default_config().items()
                               if k != "seed"}))
    assert main(["--config", str(bad)]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip())
    assert "seed" in payload["error"]
    alpha_bad = tmp_path / "alpha.json"
    alpha_bad.write_text(json.dumps(dict(default_config(),
                                         params={"d": 1, "alpha": 2.0})))
    assert main(["--config", str(alpha_bad)]) == 2
    err = capsys.readouterr().err
    assert "(0, 2)" in json.loads(err.strip())["error"]
    assert main(["--config", str(tmp_path / "missing.json")]) == 2


def test_main_default_config_print(capsys):
    assert main(["--print-default-config"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "full-triangulation"


def test_readme_config_section_matches_schema():
    # the README's default config, and its table of rules: one row per field,
    # in the schema's order, with the field's default
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("Config schema", 1)[1].split("Notes on the rules", 1)[0]
    assert json.loads(section.split("```json", 1)[1].split("```", 1)[0]) == default_config()
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, re.M)
    assert [field for field, _ in rows] == list(SCHEMA)
    assert {field: json.loads(default) for field, default in rows} == default_config()


@pytest.mark.parametrize("over, field", [
    ({"domain": {"kind": "interval", "a": "x", "b": 1.0}}, "domain.a"),
    ({"params": {"d": 1, "alpha": "x"}}, "params.alpha"),
    ({"params": {"d": 1, "alpha": None}}, "params.alpha"),
    ({"params": {"d": 2, "alpha": 1.0}}, "params.d"),   # the CLI runs d = 1
    ({"lambda_list": ["a"]}, "lambda_list"),
    ({"mu": {"family": "constant-uniform", "a": "x", "b": 0.5}}, "mu.a"),
    ({"domain": {"kind": "interval", "a": -1.0, "b": "r"}}, "domain.b"),
    ({"horizon": float("inf")}, "horizon"),
    ({"dt": float("inf")}, "dt"),
    ({"t_list": [0.1, float("inf")]}, "t_list"),
    ({"lambda_list": [float("inf")]}, "lambda_list"),
    ({"n_time": 64}, "n_time"),   # removed field: unknown
    ({"kind": "simulate", "horizon": 4.0, "t_list": [0.5, 5.0], "replicas": 50},
     "t_list"),   # a mark past the horizon
    ({"kind": "simulate", "replicas": 0}, "replicas"),
    ({"kind": "simulate", "n_cells": 24, "dt": 5.0, "horizon": 2.0, "t_list": [0.5],
      "replicas": 10}, "dt"),   # no step left after the burn-in
    ({"mu": {"family": "dirac", "point": 0.0, "bogus": 1}}, "mu.bogus"),
    ({"params": {"d": 1, "alpha": 1.0, "bogus": 1}}, "params.bogus"),
    ({"n_cells": 4, "mu": {"family": "dirac", "point": 0.5}, "domain": {
        "kind": "grid1d", "intervals": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]}},
     "n_cells"),   # fewer cells than intervals
    ({"domain": {"kind": "interval", "a": -1.0, "b": 1.0, "bogus": 1}}, "domain.bogus"),
    ({"domain": {"kind": "interval", "a": -1.0, "b": 1.0, "intervals": [[-1.0, 1.0]]}},
     "domain.intervals"),   # a key of another domain kind
    ({"domain": {"kind": "grid1d", "intervals": [[-1.0, 0.0], [0.0, 1.0]]}},
     "domain"),   # pieces that share an endpoint: not a Lipschitz set
    ({"seed": True}, "seed"),
    ({"params": {"d": True, "alpha": 1.0}}, "params.d"),
    ({"replicas": True}, "replicas"),
    ({"threads": True}, "threads"),
    ({"chain_steps": True}, "chain_steps"),
    ({"domain": {"kind": ["interval"], "a": -1.0, "b": 1.0}}, "domain.kind"),
    ({"mu": {"family": {"constant-uniform": 1}, "a": -0.5, "b": 0.5}}, "mu.family"),
    # booleans in float fields
    ({"domain": {"kind": "grid1d", "intervals": [[-1.0, True], [2.0, 3.0]]},
      "mu": {"family": "dirac", "point": 2.5}}, "domain.intervals"),
    ({"domain": {"kind": "interval", "a": -1.0, "b": True}}, "domain.b"),
    ({"domain": {"kind": "interval", "a": False, "b": 1.0}}, "domain.a"),
    ({"mu": {"family": "constant-uniform", "a": False, "b": 0.5}}, "mu.a"),
    ({"domain": {"kind": "interval", "a": 0.0, "b": 2.0},
      "mu": {"family": "dirac", "point": True}}, "mu.point"),
    # entries alike under %g would write the same result files
    ({"seed": 1, "kind": "excessive", "n_cells": 40, "lambda_list": [0.1, 0.1000001]},
     "lambda_list"),
    ({"t_list": [0.1, 0.1]}, "t_list"),
    # the jump-Euler sampler's least alpha is 0.05: below it increments are nan
    ({"seed": 1, "kind": "simulate", "params": {"d": 1, "alpha": 1e-3}, "n_cells": 100,
      "replicas": 20, "horizon": 20, "chain_samples": 2000, "t_list": [0.5],
      "lambda_list": [1.0]}, "params.alpha"),
    # walk-on-spheres shares that least alpha: below it some Beta exit-radius
    # draws underflow to 0 (2.4 % at alpha = 0.01) and the radius is inf
    ({"seed": 1, "kind": "chain", "params": {"d": 1, "alpha": 0.01}, "n_cells": 100,
      "chain_samples": 2000, "mu": {"family": "projection", "depth": 0.3, "width": 0.2}},
     "params.alpha"),
    ({"seed": 1, "kind": "full-triangulation", "params": {"d": 1, "alpha": 0.049},
      "n_cells": 100, "replicas": 20, "horizon": 20, "chain_samples": 2000,
      "t_list": [0.5], "lambda_list": [1.0]}, "params.alpha"),
], ids=["domain.a", "alpha-str", "alpha-null", "d-2", "lambda_list", "mu.a", "b-str",
        "horizon-inf", "dt-inf", "t_list-inf", "lambda_list-inf", "n_time",
        "t_list-past-horizon", "simulate-replicas-0", "simulate-dt-past-horizon",
        "mu-unknown-key", "params-unknown-key",
        "cells-below-intervals", "domain-unknown-key", "interval-union-key",
        "touching-union", "seed-bool", "d-bool", "replicas-bool", "threads-bool",
        "chain_steps-bool", "domain-kind-list", "mu-family-object", "intervals-bool",
        "b-bool", "a-bool", "mu.a-bool", "point-bool",
        "lambda_list-alike-under-g", "t_list-repeat", "simulate-alpha-below-sampler",
        "chain-alpha-below-sampler", "full-triangulation-alpha-below-sampler"])
def test_non_numeric_fields_exit_2(over, field, tmp_path, capsys):
    # parse_config builds the domain and the return kernel, so --describe
    # rejects every one of these as run does
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(out_dir=str(tmp_path / "o"), **over)))
    for extra in ([], ["--describe"]):
        assert main(["--config", str(cfg_path)] + extra) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "ConfigError"
        assert err["error"].startswith("config field '%s'" % field), err


def test_grid_only_kinds_accept_alpha_below_the_sampler_floor(tmp_path):
    # they draw nothing, so the samplers' least alpha (rows above) does not bind them
    for kind in ("semigroup-check", "excessive", "stationary"):
        raw = small_config(kind=kind, params={"d": 1, "alpha": 0.01},
                           out_dir=str(tmp_path))
        assert parse_config(raw).alpha == 0.01


def test_full_triangulation_reads_no_dt(tmp_path, capsys):
    # its ergodic leg has no time step, so a dt past half the horizon is
    # accepted there; simulate still rejects it (the row above)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(kind="full-triangulation", dt=20.0,
                                                horizon=30.0, out_dir=str(tmp_path / "o"))))
    assert main(["--config", str(cfg_path), "--describe"]) == 0
    assert parse_config(json.loads(cfg_path.read_text())).dt == 20.0


@pytest.mark.parametrize("text", ["5", "null", "[[1]]", '"abc"'])
def test_config_that_is_not_an_object_exits_2(text, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    for extra in ([], ["--describe"], ["--seed", "3"]):
        assert main(["--config", str(cfg_path)] + extra) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "config field 'config': must be a JSON object",
                       "type": "ConfigError"}


def test_out_dir_naming_a_file_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    cfg_path.write_text(json.dumps(small_config(kind="stationary", n_cells=24,
                                                out_dir=str(taken))))
    assert main(["--config", str(cfg_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["type"] == "ConfigError"
    assert err["error"].startswith("config field 'out_dir'"), err
    assert taken.read_text() == "not a directory"


def test_series_with_no_level_above_drop_tol_fails_its_check(tmp_path, capsys):
    # at t = 1e6 every level's mass lies below drop_tol: there is no decay
    # profile to fit, and the run fails its conservation check, not a crash
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(kind="semigroup-check", n_cells=24,
                                                t_list=[1e6], out_dir=str(out))))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ["conservation-t1e+06", "FAIL"] in [line.split()
                                               for line in captured.out.splitlines()]
    manifest = json.loads((out / "manifest.json").read_text())
    failed = {c["name"] for c in manifest["checks"] if not c["passed"]}
    assert {"conservation-t1e+06", "series-vs-exponential-t1e+06"} <= failed
    # no fitted decay rate is no failed one: the rate check passes with value null
    gamma = next(c for c in manifest["checks"] if c["name"] == "gamma-below-1-t1e+06")
    assert gamma["passed"] and gamma["value"] is None
    for name in manifest["outputs"]:
        assert (out / name).is_file()
    # an envelope that was not fitted is reported as null, not made up
    diag = json.loads((out / "series_diagnostics.json").read_text())["series"][0]
    assert diag["fit_c"] is None and diag["fit_gamma"] is None and diag["tail_bound"] is None


@pytest.mark.parametrize("t", [1e-18, 1e-16, 1e-10])
def test_series_with_no_fitted_rate_passes_at_tiny_t(t, tmp_path, capsys):
    # at a tiny t the series converges with fewer than two positive level
    # masses past level 0: there is no rate to fit, and no check fails
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(default_config(), kind="semigroup-check", t_list=[t],
                                        out_dir=str(tmp_path / "o"))))
    assert main(["--config", str(cfg_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    gamma = next(c for c in manifest["checks"] if c["name"].startswith("gamma-below-1"))
    assert gamma["passed"] and gamma["value"] is None


@pytest.mark.parametrize("over, check", [
    ({"kind": "semigroup-check", "t_list": [20.0]}, "series-t20"),
    ({"kind": "excessive", "lambda_list": [1e-6]}, "excessive-lam1e-06"),
    ({"kind": "semigroup-check", "params": {"d": 1, "alpha": 0.5},
      "domain": {"kind": "interval", "a": -1.5, "b": 2.5}, "n_cells": 4,
      "mu": {"family": "projection", "depth": 0.05, "width": 0.02}, "t_list": [50.0]},
     "series-t50"),
    ({"kind": "semigroup-check", "params": {"d": 1, "alpha": 1.9},
      "domain": {"kind": "grid1d", "intervals": [[0.0, 0.1], [0.2, 5.0]]}, "n_cells": 16,
      "mu": {"family": "projection", "depth": 0.01, "width": 0.01}, "t_list": [50.0]},
     "series-t50"),
], ids=["level-clip", "shell-below-floor", "level-decay-above-1", "no-decay-in-128-levels"])
def test_failed_series_or_excessive_construction_exits_1(over, check, tmp_path, capsys):
    # the library raises; the CLI fails the named check with a null value,
    # writes no output for that t or lambda, and still writes its manifest
    out = tmp_path / "o"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(default_config(), seed=1, out_dir=str(out), **over)))
    assert main(["--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [check, "FAIL"] in [line.split() for line in captured.out.splitlines()]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [c for c in manifest["checks"] if c["name"] == check] == [
        {"name": check, "passed": False, "value": None, "tolerance": None}]
    entry = check.split("-", 1)[1]
    assert not [name for name in manifest["outputs"] if entry in name]
    for name in manifest["outputs"]:
        assert (out / name).is_file()


@pytest.mark.parametrize("kind, stage", [
    ("semigroup-check", cli_report._series), ("excessive", cli_report._excessive),
    ("full-triangulation", cli_report._series)])
def test_failed_perturbation_exits_3_naming_its_stage(kind, stage, tmp_path, capsys,
                                                      monkeypatch):
    # only the series or excessive construction fails a named check: an operator
    # the stage reads before it, here M, fails the stage once, under one exit code
    calls = []

    def broken_perturbation(*args):
        calls.append(args)
        raise cli_report.SeriesError("return-kernel row sums miss the killing intensity")

    monkeypatch.setattr(cli_report, "perturbation_matrix", broken_perturbation)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(
        kind=kind, n_cells=24, replicas=0, t_list=[0.1, 0.5], lambda_list=[0.1, 1.0],
        out_dir=str(tmp_path / "o"))))
    assert main(["--config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {
        "error": "return-kernel row sums miss the killing intensity",
        "type": "SeriesError", "stage": stage.__doc__}
    assert "FAIL" not in captured.out
    assert len(calls) == 1


def test_reflected_kernel_written_as_npy(tmp_path):
    cfg = parse_config(small_config(kind="semigroup-check", n_cells=24, t_list=[0.3, 1.0],
                                    out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0
    assert "reflected_kernel_t0.3.npy" in manifest["outputs"]
    assert "reflected_kernel_t1.npy" not in manifest["outputs"]
    density = np.load(tmp_path / "reflected_kernel_t0.3.npy")
    x, width = np.loadtxt(tmp_path / "reflected_kernel_nodes.csv", delimiter=",",
                          skiprows=1, unpack=True)
    assert density.shape == (24, 24) and x.shape == width.shape == (24,)
    # rows of the cell masses are transition laws
    assert np.abs((density * width).sum(axis=1) - 1.0).max() < 1e-4
