import json
import os

import numpy as np
import pytest

from reflected_stable.cli_report import (KINDS, ConfigError, _Run, _start_law,
                                         build_domain, build_mu, default_config,
                                         describe, main, parse_config, run)


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


def test_describe_lists_stages():
    cfg = parse_config(default_config())
    text = describe(cfg)
    assert "stages (6):" in text
    assert text.count("\n  ") == 6
    cfg2 = parse_config(dict(default_config(), kind="chain"))
    assert "stages (3):" in describe(cfg2)


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
    runner = _Run(parse_config(default_config()), str(tmp_path))
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


def test_run_stationary_kind(tmp_path):
    cfg = parse_config(small_config(kind="stationary", out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0
    tri = json.loads((tmp_path / "triangulation.json").read_text())
    assert "pairwise_tv" in tri and tri["dobrushin_two_step"] < 1.0


def test_run_simulate_and_chain(tmp_path):
    cfg = parse_config(small_config(kind="simulate", replicas=30, horizon=20.0,
                                    out_dir=str(tmp_path / "sim")))
    code, manifest = run(cfg)
    assert code == 0
    assert "reflection_counts.csv" in manifest["outputs"]
    cfg2 = parse_config(small_config(kind="chain", out_dir=str(tmp_path / "chain")))
    code2, man2 = run(cfg2)
    assert code2 == 0
    assert "chain_samples.csv" in man2["outputs"]


def test_run_excessive(tmp_path):
    cfg = parse_config(small_config(kind="excessive", lambda_list=[1.0],
                                    out_dir=str(tmp_path)))
    code, manifest = run(cfg)
    assert code == 0
    assert "excessive_lam1.csv" in manifest["outputs"]
    radii = json.loads((tmp_path / "excessive_radii_lam1.json").read_text())
    assert len(radii["radii"]) == 6


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
    "ball": ({"kind": "ball", "center": [0.0], "radius": 1.0}, INTERVAL_MUS),
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


@pytest.mark.parametrize("domain, mu, field", [
    (UNION, INTERVAL_MUS["constant-uniform"], "mu"),   # uniform over the gap
    (INTERVAL, {"family": "dirac", "point": 5.0}, "mu"),
    (INTERVAL, {"family": "dirac", "point": 1.0}, "mu"),   # atom on the boundary
    (INTERVAL, {"family": "dirac", "point": None}, "mu"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, INTERVAL_MUS["dirac"],
     "domain"),
])
def test_unrunnable_domain_or_law_exits_2(domain, mu, field, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(domain=domain, mu=mu,
                                                out_dir=str(tmp_path / "o"))))
    for kind in KINDS:
        assert main(["--config", str(cfg_path), "--kind", kind]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"].startswith("config field '%s'" % field), err


def test_identical_chain_rows_give_zero_contraction(tmp_path):
    # a constant return law makes all chain rows one law, so round-off can
    # push the two-step overlap past 1; beta must stay >= 0 and stationary_p
    # must not take the square root of a negative number
    cfg = parse_config(dict(default_config(), kind="stationary", seed=1, n_cells=24,
                            domain={"kind": "grid1d", "intervals": [[-1.0, 0.0], [0.0, 1.0]]},
                            out_dir=str(tmp_path)))
    code, _ = run(cfg)
    assert code == 0
    beta = json.loads((tmp_path / "triangulation.json").read_text())["dobrushin_two_step"]
    assert 0.0 <= beta < 1e-12


def test_union_start_law_lies_in_domain():
    domain = build_domain(UNION)
    mu = build_mu(SWEEP["grid1d"][1]["projection"], domain)
    starts = _start_law(mu, domain).sample(np.random.default_rng(3), size=10000)
    assert domain.contains(starts).all()


def test_main_cli_flags(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(kind="stationary",
                                                out_dir=str(tmp_path / "o"))))
    assert main(["--config", str(cfg_path), "--describe"]) == 0
    out = capsys.readouterr().out
    assert "stages (4):" in out
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


@pytest.mark.parametrize("over, field, at_parse", [
    ({"domain": {"kind": "interval", "a": "x", "b": 1.0}}, "domain", False),
    ({"params": {"d": 1, "alpha": "x"}}, "params.alpha", True),
    ({"params": {"d": 1, "alpha": None}}, "params.alpha", True),
    ({"lambda_list": ["a"]}, "lambda_list", True),
    ({"mu": {"family": "constant-uniform", "a": "x", "b": 0.5}}, "mu", False),
    ({"domain": {"kind": "ball", "center": [0.0], "radius": "r"}}, "domain", False),
    ({"horizon": float("inf")}, "horizon", True),
    ({"dt": float("inf")}, "dt", True),
    ({"t_list": [0.1, float("inf")]}, "t_list", True),
    ({"lambda_list": [float("inf")]}, "lambda_list", True),
    ({"n_time": 64}, "n_time", True),   # removed field: unknown
    ({"kind": "simulate", "horizon": 4.0, "t_list": [0.5, 5.0], "replicas": 50},
     "t_list", True),   # a mark past the horizon
    ({"kind": "simulate", "replicas": 0}, "replicas", True),
], ids=["domain.a", "alpha-str", "alpha-null", "lambda_list", "mu.a", "ball.radius",
        "horizon-inf", "dt-inf", "t_list-inf", "lambda_list-inf", "n_time",
        "t_list-past-horizon", "simulate-replicas-0"])
def test_non_numeric_fields_exit_2(over, field, at_parse, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(out_dir=str(tmp_path / "o"), **over)))
    runs = [[], ["--describe"]] if at_parse else [[]]
    for extra in runs:
        assert main(["--config", str(cfg_path)] + extra) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "ConfigError"
        assert err["error"].startswith("config field '%s'" % field), err
