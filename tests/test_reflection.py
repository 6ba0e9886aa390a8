import numpy as np
import pytest
from scipy import stats

from reflected_stable.geometry import Interval, IntervalUnion, Region1D, build_grid
from reflected_stable.reflection import (AtomMeasure, ConstantKernel, KernelError,
                                         ProjectionKernel, UniformMeasure,
                                         default_probes, validate_concentration)

D = Interval(-1.0, 1.0)


def test_constant_kernel_masses_ignore_z():
    mu = ConstantKernel(D, UniformMeasure(-0.5, 0.5))
    reg = Region1D([(0.0, 0.5)])
    for z in (1.5, -40.0, 1.0001):
        assert mu.law(z).mass(reg) == pytest.approx(0.5)


def test_constant_kernel_rejects_unnormalized():
    with pytest.raises(KernelError):
        ConstantKernel(D, AtomMeasure([0.1, 0.2], [0.45, 0.45]))  # sums to 0.9


def test_constant_kernel_rejects_mass_outside_open_domain():
    U = IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])
    for dom, m in ((U, UniformMeasure(-0.5, 0.5)),   # covers the gap
                   (D, UniformMeasure(0.5, 1.5)),
                   (D, AtomMeasure([5.0])),
                   (D, AtomMeasure([1.0])),          # atom on the boundary
                   (D, AtomMeasure([0.0, -1.0], [0.5, 0.5]))):
        with pytest.raises(KernelError, match="outside the open domain"):
            ConstantKernel(dom, m)
    with pytest.raises(KernelError):
        UniformMeasure(-np.inf, 0.5)
    with pytest.raises(KernelError):
        AtomMeasure([np.nan])
    # boundary contact of measure zero is admissible
    ConstantKernel(D, UniformMeasure(-1.0, 1.0))
    ConstantKernel(U, UniformMeasure(0.1, 1.0))


def test_dirac_kernel():
    mu = ConstantKernel(D, AtomMeasure([0.3]))
    assert mu.law(2.0).mass(Region1D([(0.3, 0.3)])) == 1.0
    assert mu.witness_theta == 1.0
    rep = validate_concentration(mu, default_probes(D))
    assert rep.passed and rep.theta_hat == 1.0


def test_constant_kernel_z_independent_histograms():
    mu = ConstantKernel(D, UniformMeasure(-0.5, 0.5))
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
        ("uniform", ConstantKernel(D, UniformMeasure(-0.5, 0.5))),
        ("projection", ProjectionKernel(D, 0.3, 0.2)),
    ]:
        for z in (1.0, 1.2, -1.7, 5.0, -50.0):
            x = mu.sample(z, rng, size=10 ** 5)
            masses = mu.law(z).cell_masses(grid)
            obs = np.bincount(grid.cell_index(x), minlength=grid.n)
            keep = masses > 0
            assert obs[~keep].sum() == 0, (name, z)
            res = stats.chisquare(obs[keep], masses[keep] / masses[keep].sum() * len(x))
            assert res.pvalue > 0.01, (name, z)


def test_normalization_at_probes():
    whole = Region1D([(-1.0, 1.0)])
    for mu in (ConstantKernel(D, UniformMeasure(-0.5, 0.5)),
               ProjectionKernel(D, 0.3, 0.2)):
        for z in default_probes(D):
            assert mu.law(z).mass(whole) == pytest.approx(1.0, abs=1e-10)


def test_projection_kernel_geometry():
    mu = ProjectionKernel(D, 0.3, 0.2)
    law = mu.law(2.0)
    assert (law.a, law.b) == pytest.approx((0.6, 0.8))
    law = mu.law(-5.0)
    assert (law.a, law.b) == pytest.approx((-0.8, -0.6))
    rng = np.random.default_rng(1)
    x = mu.sample(2.0, rng, size=2000)
    assert x.min() >= 0.6 and x.max() <= 0.8
    ks = stats.kstest(x, stats.uniform(loc=0.6, scale=0.2).cdf)
    assert ks.pvalue > 0.01


def test_projection_kernel_witness_positive():
    mu = ProjectionKernel(D, 0.3, 0.2)
    assert mu.witness_theta == pytest.approx(0.5)
    rep = validate_concentration(mu, default_probes(D))
    assert rep.passed
    assert rep.theta_hat >= mu.witness_theta - 1e-9


def test_projection_kernel_on_union_gap_sides():
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    mu = ProjectionKernel(U, 0.15, 0.1)
    # z just right of the gap midpoint projects inward from +0.2
    law = mu.law(0.11)
    assert (law.a, law.b) == pytest.approx((0.3, 0.4))
    # z just left of the gap midpoint projects inward from -0.2
    law = mu.law(-0.11)
    assert (law.a, law.b) == pytest.approx((-0.4, -0.3))
    rep = validate_concentration(mu, default_probes(U))
    assert rep.passed


def test_projection_kernel_precondition():
    with pytest.raises(KernelError):
        ProjectionKernel(D, 0.9, 0.4)  # depth + width/2 >= half length
    with pytest.raises(KernelError):
        ProjectionKernel(D, 0.05, 0.2)  # sticks out of D


def test_validate_concentration_brute_force_min():
    mu = ProjectionKernel(D, 0.3, 0.2)
    probes = np.array([-10.0, -1.5, -1.01, 1.01, 1.5, 10.0])
    rep = validate_concentration(mu, probes)
    direct = min(mu.law(z).mass(mu.witness_H) for z in probes)
    assert rep.theta_hat == pytest.approx(direct)


def test_validate_concentration_rejects_interior_probes():
    mu = ConstantKernel(D, UniformMeasure(-0.5, 0.5))
    with pytest.raises(ValueError):
        validate_concentration(mu, np.array([0.0]))
    with pytest.raises(ValueError):
        validate_concentration(mu, np.array([]))


GAP_UNION = IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])
SIX_INTERVALS = IntervalUnion([[2.0 * k, 2.0 * k + 1.0] for k in range(6)])


def nearest_insertion(domain, depth, width, z):
    """Insertion interval inward from the endpoint nearest to z, by direct search."""
    ends = domain.intervals.ravel()
    k = int(np.argmin(np.abs(ends - z)))
    center = ends[k] + (depth if k % 2 == 0 else -depth)
    return center - width / 2.0, center + width / 2.0


@pytest.mark.parametrize("domain", [GAP_UNION, SIX_INTERVALS], ids=["gap", "six"])
def test_projection_law_of_z_is_the_nearest_endpoint_insertion(domain):
    # one lookup serves the law, its cell masses and the sampler: on both
    # sides of every gap midpoint, at the boundary and far out, all three
    # follow the insertion interval of the nearest endpoint
    mu = ProjectionKernel(domain, 0.2, 0.1)
    grid = build_grid(domain, 120)
    ivs = domain.intervals
    zs = list(ivs.ravel()) + [ivs[0, 0] - f for f in (1e-9, 0.5, 1e3)] \
        + [ivs[-1, 1] + f for f in (1e-9, 0.5, 1e3)]
    for a, b in zip(ivs[:-1, 1], ivs[1:, 0]):
        mid = 0.5 * (a + b)
        zs += [mid + s * f * (b - a) for s in (-1, 1) for f in (1e-9, 1e-3, 0.25, 0.49)]
    rng = np.random.default_rng(7)
    for z in zs:
        lo, hi = nearest_insertion(domain, 0.2, 0.1, z)
        law = mu.law(z)
        assert (law.a, law.b) == (lo, hi), z
        x = mu.sample(z, rng, size=200)
        assert lo <= x.min() and x.max() <= hi, z
        assert np.array_equal(mu.law(z).cell_masses(grid), UniformMeasure(lo, hi).cell_masses(grid)), z


def test_law_lookup_rejects_interior_z():
    # z in open D has no re-entry law; the complement is closed, so a
    # boundary point has one
    grid = build_grid(GAP_UNION, 40)
    whole = Region1D(GAP_UNION.intervals)
    for mu in (ConstantKernel(GAP_UNION, UniformMeasure(0.3, 0.8)),
               ProjectionKernel(GAP_UNION, 0.2, 0.1)):
        for z in (-0.5, 0.5, -0.2 - 1e-12, 0.1 + 1e-12):
            with pytest.raises(ValueError, match="z = %r" % z):
                mu.law(z).mass(whole)
            with pytest.raises(ValueError, match="open domain"):
                mu.law(z).cell_masses(grid)
        for z in (-1.0, -0.2, 0.1, 1.0, 0.0):
            assert mu.law(z).mass(whole) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="z = 0.0"):
        ProjectionKernel(D, 0.3, 0.2).law(0.0).mass(Region1D([(-1.0, 1.0)]))
