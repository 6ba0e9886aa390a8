import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy import stats

from reflected_stable.geometry import IntervalUnion, Region1D, build_grid, exterior_shell
from reflected_stable.killed_kernels import (assemble_dirichlet_generator,
                                             exterior_nu_vector, green_operator,
                                             heat_kernel, killing_intensity,
                                             resolvent_u)
from reflected_stable.pathsim import sample_first_exit, stream, walk_on_spheres_exit
from reflected_stable.stable_core import StableParams, ball_mean_exit_time, levy_interval_mass

import oracles


def test_killing_intensity_closed_value(wb):
    # (c/alpha) [(1-x)^-alpha + (1+x)^-alpha] at x=0, alpha=1 gives 2/pi
    p = wb.params(1.0)
    assert killing_intensity(p, wb.domain, 0.0) == pytest.approx(2.0 / np.pi, rel=1e-13)
    assert killing_intensity(p, wb.domain, 0.9) > killing_intensity(p, wb.domain, 0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_generator_row_sums(wb, alpha):
    ops = wb.ops(alpha)
    kappa = killing_intensity(ops["params"], wb.domain, ops["grid"].nodes)
    assert np.abs(ops["L"].row_sums() + kappa).max() < 1e-10 * max(1.0, kappa.max())
    off = ops["L"].entries.copy()
    np.fill_diagonal(off, 0.0)
    assert off.min() >= 0.0


def test_generator_rejects_non_1d():
    from reflected_stable.geometry import Ball
    p = StableParams(2, 1.0)
    with pytest.raises(Exception):
        grid = build_grid(Ball([0.0, 0.0], 1.0), 10)


def test_heat_kernel_semigroup_and_monotone(wb):
    ops = wb.ops(1.0)
    P1 = heat_kernel(ops["L"], 0.4)
    P2 = heat_kernel(ops["L"], 0.8)
    assert np.abs(P1.entries @ P1.entries - P2.entries).max() < 1e-8
    # row sums are survival probabilities: decreasing in t, vanishing as t grows
    rs1, rs2 = P1.row_sums(), P2.row_sums()
    assert np.all(rs2 <= rs1 + 1e-12)
    assert np.all(rs1 < 1.0)
    assert heat_kernel(ops["L"], 50.0).row_sums().max() < 1e-12
    with pytest.raises(ValueError):
        heat_kernel(ops["L"], 0.0)


def test_heat_kernel_symmetry(wb):
    ops = wb.ops(1.5)
    P = heat_kernel(ops["L"], 0.3)
    dens = P.density()
    assert np.abs(dens - dens.T).max() < 1e-8


def test_heat_kernel_matches_spectral_oracle(wb):
    ops = wb.ops(1.0)
    sp = oracles.SpectralHeat(ops["L"].entries)
    P = heat_kernel(ops["L"], 0.25)
    assert np.abs(P.entries - sp.at(0.25)).max() < 1e-10


def test_green_row_sum_mean_exit_time(wb):
    ops = wb.ops(1.0)
    i0 = np.argmin(np.abs(ops["grid"].nodes))
    est = ops["G"].row_sums()[i0]
    assert est == pytest.approx(1.0, abs=0.02)


def test_green_symmetry(wb):
    ops = wb.ops(1.0)
    dens = ops["G"].density()
    assert np.abs(dens - dens.T).max() < 1e-8


def test_green_pointwise_vs_closed_form(wb):
    # 3% pointwise accuracy away from the diagonal and outside the boundary
    # layer, where the scheme's low order meets the vanishing of the Green
    # function; near-boundary relative errors are governed by the h^(2-alpha)
    # consistency order instead (see the convergence-rate test)
    ops = wb.ops(1.0)
    grid = ops["grid"]
    dens = ops["G"].density()
    nodes = grid.nodes
    sel = (np.abs(nodes[:, None] - nodes[None, :]) > 0.1) \
        & (np.abs(nodes[:, None]) < 0.95) & (np.abs(nodes[None, :]) < 0.95)
    exact = oracles.interval_green(1.0, nodes[:, None], nodes[None, :] + 0 * nodes[:, None])
    rel = np.abs(dens - exact)[sel] / exact[sel]
    assert rel.max() < 0.03


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_green_pointwise_error_shrinks_under_refinement(wb, alpha):
    def bulk_err(n):
        ops = wb.ops(alpha, n_cells=n)
        nodes = ops["grid"].nodes
        dens = ops["G"].density()
        sel = (np.abs(nodes[:, None] - nodes[None, :]) > 0.1) \
            & (np.abs(nodes[:, None]) < 0.95) & (np.abs(nodes[None, :]) < 0.95)
        exact = oracles.interval_green(alpha, nodes[:, None],
                                       nodes[None, :] + 0 * nodes[:, None])
        return (np.abs(dens - exact)[sel] / exact[sel]).max()

    assert bulk_err(400) < 0.7 * bulk_err(100)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_green_grid_convergence_rate(wb, alpha):
    # row-sum error at the center node scales like h^min(1, 2-alpha)
    errs, hs = [], []
    for n in (100, 200, 400):
        ops = wb.ops(alpha, n_cells=n)
        grid = ops["grid"]
        i0 = np.argmin(np.abs(grid.nodes))
        exact = ball_mean_exit_time(ops["params"], 1.0, abs(grid.nodes[i0]))
        errs.append(abs(ops["G"].row_sums()[i0] - exact))
        hs.append(grid.h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - min(1.0, 2.0 - alpha)) < 0.3


def test_harmonic_total_mass(wb):
    ops = wb.ops(1.0)
    tm = ops["H"].total_masses()
    assert np.abs(tm - 1.0).max() < 5e-3


def test_harmonic_symmetry_and_tail(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    i0 = np.argmin(np.abs(grid.nodes))
    right = ops["H"].mass(i0, Region1D([(1.0, np.inf)]))
    assert right == pytest.approx(0.5, abs=5e-3)
    far = ops["H"].mass(i0, Region1D([(-np.inf, -2.0), (2.0, np.inf)]))
    assert far == pytest.approx(1.0 - 2.0 / np.pi * np.arctan(np.sqrt(3.0)), abs=0.01)


def test_harmonic_rejects_interior_region(wb):
    ops = wb.ops(1.0)
    with pytest.raises(ValueError):
        ops["H"].masses(Region1D([(-0.5, 0.5)]))
    with pytest.raises(ValueError):
        ops["H"].masses(Region1D([(0.5, 1.5)]))  # partially inside D
    # touching the boundary from outside is fine
    assert ops["H"].masses(Region1D([(1.0, 1.5)])).max() > 0


def test_resolvent_u_discount_below_one(wb):
    ops = wb.ops(1.0)
    for lam in (0.1, 1.0):
        u = resolvent_u(ops["L"], lam, 1.0, ops["params"])
        assert u.max() < 1.0
        assert u.min() > 0.0


def test_resolvent_u_small_lambda_limit(wb):
    ops = wb.ops(1.0)
    u = resolvent_u(ops["L"], 1e-7, 1.0, ops["params"])
    assert np.abs(u - 1.0).max() < 1e-6


def test_resolvent_u_shell_boundary_trend(wb):
    ops = wb.ops(1.0)
    sh = exterior_shell(wb.domain, 0.5)
    u = resolvent_u(ops["L"], 0.1, sh, ops["params"])
    i0 = np.argmin(np.abs(ops["grid"].nodes))
    assert u[0] > u[i0]
    assert u[0] >= 0.9
    # trend toward 1 under refinement
    ops8 = wb.ops(1.0, n_cells=800)
    u8 = resolvent_u(ops8["L"], 0.1, sh, ops8["params"])
    assert u8[0] > u[0]
    with pytest.raises(ValueError):
        resolvent_u(ops["L"], -1.0, sh, ops["params"])
    # payoffs are 1 or a Region1D; a callable raises
    with pytest.raises(TypeError):
        resolvent_u(ops["L"], 0.1, lambda z: 1.0, ops["params"])


def test_resolvent_matches_monte_carlo_discount(wb):
    # E e^{-lam tau} by jump-Euler paths vs the linear solve
    ops = wb.ops(1.0)
    lam = 0.5
    u = resolvent_u(ops["L"], lam, 1.0, ops["params"])
    et, _, _ = sample_first_exit(ops["params"], wb.domain, 0.0, 1e-3, 77, 10 ** 5)
    disc = np.exp(-lam * et)
    i0 = np.argmin(np.abs(ops["grid"].nodes))
    se = disc.std() / np.sqrt(len(disc))
    assert disc.mean() == pytest.approx(u[i0], abs=3 * se + 0.01)


def test_exit_position_histogram_matches_harmonic(wb):
    # walk-on-spheres exits from x=0 against harmonic-kernel masses (chi2)
    ops = wb.ops(1.0)
    grid = ops["grid"]
    rng = stream(913, 1)
    z = walk_on_spheres_exit(ops["params"], wb.domain, 0.0, rng, size=10 ** 5)
    left = -np.geomspace(8.0, 1.0, 11)
    right = np.geomspace(1.0, 8.0, 11)
    regs = [Region1D([(-np.inf, left[0])])]
    regs += [Region1D([(a, b)]) for a, b in zip(left[:-1], left[1:])]
    regs += [Region1D([(a, b)]) for a, b in zip(right[:-1], right[1:])]
    regs += [Region1D([(right[-1], np.inf)])]
    i0 = np.argmin(np.abs(grid.nodes))
    probs = np.array([ops["H"].mass(i0, r) for r in regs])
    obs = np.array([np.sum(r.contains(z)) for r in regs], dtype=float)
    obs_m, exp_m = oracles.chi2_merge(obs, probs)
    res = stats.chisquare(obs_m, exp_m)
    assert res.pvalue > 0.01


def test_union_domain_generator_and_green():
    # two-component domain: cross-component entries positive, Green solve sane
    p = StableParams(1, 1.0)
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    grid = build_grid(U, 120)
    L = assemble_dirichlet_generator(grid, p)
    left = grid.nodes < 0
    assert L.entries[np.ix_(left, ~left)].min() > 0
    G = green_operator(L)
    assert G.entries.min() > -1e-12
    kappa = killing_intensity(p, U, grid.nodes)
    assert np.abs(L.row_sums() + kappa).max() < 1e-10 * kappa.max()


UNION = IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])


def _generator(wb, domain, alpha):
    if domain is None:
        return wb.ops(alpha)["L"]
    return assemble_dirichlet_generator(build_grid(domain, 240), wb.params(alpha))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("domain", [None, UNION], ids=["interval", "union"])
def test_spectral_kernels_match_expm_and_solve(wb, domain, alpha):
    # the eigendecomposition route against independent dense routes
    L = _generator(wb, domain, alpha)
    for t in (0.1, 2.0):
        P = heat_kernel(L, t)
        assert np.abs(P.entries - scipy.linalg.expm(t * L.entries)).max() < 1e-10
    G = green_operator(L)
    exact = scipy.linalg.solve(L.entries, -np.eye(L.n))
    assert np.abs(G.entries - exact).max() < 1e-10 * np.abs(exact).max()
    params, shell = wb.params(alpha), exterior_shell(L.grid.domain, 0.5)
    b = exterior_nu_vector(params, L.grid, shell)
    for lam in (0.1, 1.0):
        u = resolvent_u(L, lam, shell, params)
        exact = scipy.linalg.solve(lam * np.eye(L.n) - L.entries, b)
        assert np.abs(u - exact).max() < 1e-10 * np.abs(exact).max()


@pytest.mark.parametrize("domain", [None, UNION], ids=["interval", "union"])
def test_generator_is_width_symmetric(wb, domain):
    for alpha in (0.5, 1.0, 1.5):
        L = _generator(wb, domain, alpha)
        B = L.grid.widths[:, None] * L.entries
        assert np.abs(B - B.T).max() <= 1e-15 * np.abs(B).max()


def test_union_generator_stays_near_cell_integrals(wb):
    # symmetrizing moves the union's entries by less than 1e-7 of their row's largest
    for alpha in (0.5, 1.0, 1.5):
        p = wb.params(alpha)
        L = _generator(wb, UNION, alpha)
        grid = L.grid
        for i in range(grid.n):
            mask = np.arange(grid.n) != i
            raw = levy_interval_mass(p, grid.nodes[i], grid.cells[mask, 0], grid.cells[mask, 1])
            assert np.abs(L.entries[i, mask] - raw).max() <= 1e-7 * raw.max(), (alpha, i)


def test_spectrum_is_tied_to_the_entries(wb):
    L = wb.ops(1.0)["L"]
    with pytest.raises(ValueError):
        L.entries[0, 0] = 0.0
    moved = dataclasses.replace(L, entries=2.0 * L.entries)
    for use in (lambda: heat_kernel(moved, 0.1), lambda: green_operator(moved)):
        with pytest.raises(ValueError):
            use()
