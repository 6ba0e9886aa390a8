import numpy as np
import pytest
from scipy import stats

from reflected_stable.geometry import Interval, IntervalUnion, Region1D, build_grid
from reflected_stable.reflection import (AtomMeasure, GridDensityMeasure, KernelError,
                                         UniformMeasure, default_probes,
                                         make_constant_kernel, make_projection_kernel,
                                         validate_concentration)

D = Interval(-1.0, 1.0)


def test_constant_kernel_masses_ignore_z():
    mu = make_constant_kernel(D, UniformMeasure(-0.5, 0.5))
    reg = Region1D([(0.0, 0.5)])
    for z in (1.5, -40.0, 1.0001):
        assert mu.mass(z, reg) == pytest.approx(0.5)


def test_constant_kernel_rejects_unnormalized():
    grid = build_grid(D, 10)
    masses = np.full(10, 0.09)  # sums to 0.9
    with pytest.raises(KernelError):
        make_constant_kernel(D, GridDensityMeasure(grid, masses))


def test_constant_kernel_rejects_mass_outside_open_domain():
    U = IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])
    for dom, m in ((U, UniformMeasure(-0.5, 0.5)),   # covers the gap
                   (D, UniformMeasure(0.5, 1.5)),
                   (D, AtomMeasure([5.0])),
                   (D, AtomMeasure([1.0])),          # atom on the boundary
                   (D, AtomMeasure([0.0, -1.0], [0.5, 0.5]))):
        with pytest.raises(KernelError, match="outside the open domain"):
            make_constant_kernel(dom, m)
    with pytest.raises(KernelError):
        UniformMeasure(-np.inf, 0.5)
    with pytest.raises(KernelError):
        AtomMeasure([np.nan])
    # boundary contact of measure zero is admissible
    make_constant_kernel(D, UniformMeasure(-1.0, 1.0))
    make_constant_kernel(U, UniformMeasure(0.1, 1.0))
    grid = build_grid(U, 20)
    make_constant_kernel(U, GridDensityMeasure(grid, np.full(20, 0.05)))


def test_dirac_kernel():
    mu = make_constant_kernel(D, AtomMeasure([0.3]))
    assert mu.mass(2.0, Region1D([(0.3, 0.3)])) == 1.0
    assert mu.witness_theta == 1.0
    rep = validate_concentration(mu, default_probes(D))
    assert rep.passed and rep.theta_hat == 1.0


def test_constant_kernel_z_independent_histograms():
    mu = make_constant_kernel(D, UniformMeasure(-0.5, 0.5))
    rng = np.random.default_rng(42)
    a = mu.sample(1.5, rng, size=10 ** 5)
    b = mu.sample(-9.0, rng, size=10 ** 5)
    edges = np.linspace(-0.5, 0.5, 21)
    res = stats.chi2_contingency(np.array([np.histogram(a, edges)[0],
                                           np.histogram(b, edges)[0]]))
    assert res.pvalue > 0.01


def test_sampler_matches_evaluator_chi2():
    grid = build_grid(D, 40)
    rng = np.random.default_rng(3)
    for name, mu in [
        ("uniform", make_constant_kernel(D, UniformMeasure(-0.5, 0.5))),
        ("projection", make_projection_kernel(D, 0.3, 0.2)),
    ]:
        for z in (1.0, 1.2, -1.7, 5.0, -50.0):
            x = np.atleast_1d(mu.sample(z, rng, size=10 ** 5))
            masses = mu.cell_masses(z, grid)
            obs = np.bincount(grid.cell_index(x), minlength=grid.n)
            keep = masses > 0
            assert obs[~keep].sum() == 0, (name, z)
            res = stats.chisquare(obs[keep], masses[keep] / masses[keep].sum() * len(x))
            assert res.pvalue > 0.01, (name, z)


def test_normalization_at_probes():
    whole = Region1D([(-1.0, 1.0)])
    for mu in (make_constant_kernel(D, UniformMeasure(-0.5, 0.5)),
               make_projection_kernel(D, 0.3, 0.2)):
        for z in default_probes(D):
            assert mu.mass(z, whole) == pytest.approx(1.0, abs=1e-10)


def test_projection_kernel_geometry():
    mu = make_projection_kernel(D, 0.3, 0.2)
    lo, hi = mu._insertion(2.0)
    assert (lo[0], hi[0]) == pytest.approx((0.6, 0.8))
    lo, hi = mu._insertion(-5.0)
    assert (lo[0], hi[0]) == pytest.approx((-0.8, -0.6))
    rng = np.random.default_rng(1)
    x = mu.sample(2.0, rng, size=2000)
    assert x.min() >= 0.6 and x.max() <= 0.8
    ks = stats.kstest(x, stats.uniform(loc=0.6, scale=0.2).cdf)
    assert ks.pvalue > 0.01


def test_projection_kernel_witness_positive():
    mu = make_projection_kernel(D, 0.3, 0.2)
    assert mu.witness_theta == pytest.approx(0.5)
    rep = validate_concentration(mu, default_probes(D))
    assert rep.passed
    assert rep.theta_hat >= mu.witness_theta - 1e-9


def test_projection_kernel_on_union_gap_sides():
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    mu = make_projection_kernel(U, 0.15, 0.1)
    # z just right of the gap midpoint projects inward from +0.2
    lo, hi = mu._insertion(0.11)
    assert (lo[0], hi[0]) == pytest.approx((0.3, 0.4))
    # z just left of the gap midpoint projects inward from -0.2
    lo, hi = mu._insertion(-0.11)
    assert (lo[0], hi[0]) == pytest.approx((-0.4, -0.3))
    rep = validate_concentration(mu, default_probes(U))
    assert rep.passed


def test_projection_kernel_precondition():
    with pytest.raises(KernelError):
        make_projection_kernel(D, 0.9, 0.4)  # depth + width/2 >= half length
    with pytest.raises(KernelError):
        make_projection_kernel(D, 0.05, 0.2)  # sticks out of D


def test_validate_concentration_brute_force_min():
    mu = make_projection_kernel(D, 0.3, 0.2)
    probes = np.array([-10.0, -1.5, -1.01, 1.01, 1.5, 10.0])
    rep = validate_concentration(mu, probes)
    direct = min(mu.mass(z, mu.witness_H) for z in probes)
    assert rep.theta_hat == pytest.approx(direct)


def test_validate_concentration_rejects_interior_probes():
    mu = make_constant_kernel(D, UniformMeasure(-0.5, 0.5))
    with pytest.raises(ValueError):
        validate_concentration(mu, np.array([0.0]))
    with pytest.raises(ValueError):
        validate_concentration(mu, np.array([]))


def test_grid_density_measure_witness():
    grid = build_grid(D, 40)
    masses = np.zeros(40)
    masses[10:30] = 1.0 / 20
    m = GridDensityMeasure(grid, masses)
    mu = make_constant_kernel(D, m)
    assert mu.witness_theta >= 0.5 - 1e-9
    rep = validate_concentration(mu, default_probes(D))
    assert rep.passed
