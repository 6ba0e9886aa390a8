"""The benchmark's tracer resolves every name it wraps and restores them all.

``bench/run.py --trace 1`` wraps package functions by name (see
``bench/tracing.py``), so a rename in ``src/`` breaks it; this test runs
one traced ``simulate`` job between ``install`` and ``uninstall``.
"""

import importlib.util
import sys
from pathlib import Path

from reflected_stable import cli_report

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(targets):
    """Every attribute of the package's modules and of the traced owners."""
    owners = {id(owner): owner for owner, *_ in targets}
    owners.update((id(m), m) for name, m in sys.modules.items()
                  if name.startswith("reflected_stable"))
    return {(id(owner), key): value for owner in owners.values()
            for key, value in list(vars(owner).items())}


def test_tracer_wraps_every_target_and_restores_it(tmp_path):
    tracing = _tracing()
    targets = tracing.targets()
    for owner, attr, name, _, _ in targets:
        assert attr in vars(owner), name
    before = _bindings(targets)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, name, _, _ in targets:
            assert hasattr(vars(owner)[attr], "__wrapped__"), name
        cfg = cli_report.parse_config(dict(
            cli_report.default_config(), kind="simulate", n_cells=100, replicas=20,
            horizon=2.0, t_list=[0.5, 1.0], out_dir=str(tmp_path)))
        cli_report.run(cfg)
    finally:
        tracer.uninstall()
    after = _bindings(targets)
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    ensemble = tracer.totals["pathsim.simulate_ensemble_blocks"]
    assert ensemble["calls"] == 1 and ensemble["paths"] == 20
    assert ensemble["path_steps"] == 20 * 2000 and ensemble["reflections"] > 0
    assert tracer.totals["pathsim.excursion_statistics"]["calls"] == 1
    assert {"cli_report.run", "geometry.contains", "reflection.sample"} <= set(tracer.totals)
