"""The package runs on numpy alone: no run of the CLI loads a scipy module.

scipy stays the tests' reference (its ``expm``, quadratures and special
functions), so the check runs the CLI in a fresh interpreter, where only
what the package itself imports is loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reflected_stable import cli_report

SRC = str(Path(cli_report.__file__).resolve().parents[1])
# run main on the config, then print the loaded scipy modules as JSON on stderr
PROBE = """
import contextlib, io, json, sys
from reflected_stable.cli_report import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}),
      file=sys.stderr)
"""


@pytest.mark.parametrize("extra", [[], ["--describe"]], ids=["run", "describe"])
def test_cli_loads_no_scipy(extra, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(
        cli_report.default_config(), seed=1, kind="full-triangulation", n_cells=60,
        replicas=20, horizon=60.0, t_list=[0.1, 0.5], chain_samples=2000,
        out_dir=str(tmp_path / "out"))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", PROBE, "--config", str(cfg_path)] + extra,
                          env=env, capture_output=True, text=True, timeout=300)
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report == {"code": 0, "scipy": []}, proc.stderr
