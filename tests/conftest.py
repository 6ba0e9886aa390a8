import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from reflected_stable.geometry import Interval
from reflected_stable.killed_kernels import default_operators
from reflected_stable.perturbation import duhamel_series, full_generator, perturbation_matrix
from reflected_stable.reflection import (AtomMeasure, ConstantKernel, ProjectionKernel,
                                         UniformMeasure)
from reflected_stable.stable_core import StableParams

DOMAIN = Interval(-1.0, 1.0)
N_CELLS = 400

_ops_cache = {}
_series_cache = {}


class Workbench:
    """Cached operator bundles and series builds for the default domain."""

    domain = DOMAIN

    def params(self, alpha):
        return StableParams(1, alpha)

    def ops(self, alpha, n_cells=N_CELLS):
        key = (alpha, n_cells)
        if key not in _ops_cache:
            p = self.params(alpha)
            grid, L, G, H = default_operators(p, DOMAIN, n_cells)
            _ops_cache[key] = {"params": p, "grid": grid, "L": L, "G": G, "H": H}
        return _ops_cache[key]

    def mu(self, name, alpha=None, n_cells=N_CELLS):
        if name == "uniform":
            return ConstantKernel(DOMAIN, UniformMeasure(-0.5, 0.5))
        if name == "dirac":
            return ConstantKernel(DOMAIN, AtomMeasure([0.3]))
        if name == "projection":
            return ProjectionKernel(DOMAIN, 0.3, 0.2)
        raise KeyError(name)

    def M(self, alpha, mu_name, n_cells=N_CELLS):
        key = ("M", alpha, mu_name, n_cells)
        if key not in _ops_cache:
            ops = self.ops(alpha, n_cells)
            _ops_cache[key] = perturbation_matrix(ops["grid"], ops["params"],
                                                  self.mu(mu_name))
        return _ops_cache[key]

    def A(self, alpha, mu_name, n_cells=N_CELLS):
        key = ("A", alpha, mu_name, n_cells)
        if key not in _ops_cache:
            ops = self.ops(alpha, n_cells)
            _ops_cache[key] = full_generator(ops["L"], self.M(alpha, mu_name, n_cells))
        return _ops_cache[key]

    def series(self, alpha, mu_name, t):
        key = (alpha, mu_name, float(t))
        if key not in _series_cache:
            ops = self.ops(alpha)
            _series_cache[key] = duhamel_series(ops["L"], self.M(alpha, mu_name), t)
        return _series_cache[key]


@pytest.fixture(scope="session")
def wb():
    return Workbench()


@pytest.fixture(scope="session")
def rng_factory():
    def make(seed=0):
        return np.random.default_rng(seed)
    return make
