import numpy as np
import pytest

from reflected_stable.pathsim import reflection_chain, simulate_ensemble_blocks, stream
from reflected_stable.reflection import UniformMeasure
from reflected_stable.stationary import (GridMeasure, StationaryError, chain_kernel,
                                         dobrushin_coefficient, kappa_closed_form,
                                         kappa_ergodic, kappa_generator_nullvector,
                                         stationary_p, total_variation,
                                         triangulation_report)


def test_grid_measure_validation(wb):
    grid = wb.ops(1.0)["grid"]
    with pytest.raises(ValueError):
        GridMeasure(grid, np.full(grid.n, 2.0 / grid.n))
    with pytest.raises(ValueError):
        GridMeasure(grid, np.ones(grid.n - 1) / (grid.n - 1))
    m = GridMeasure(grid, np.full(grid.n, 1.0 / grid.n))
    assert m.tv(m) == 0.0


def test_chain_kernel_rows(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    C_u = chain_kernel(ops["H"], wb.mu("uniform"))
    assert np.abs(C_u.row_sums() - 1.0).max() < 1e-6
    # constant law: every row equals the cell masses of the measure
    mcells = wb.mu("uniform").cell_masses(2.0, grid)
    assert np.abs(C_u.entries - mcells[None, :]).max() < 1e-10
    C_d = chain_kernel(ops["H"], wb.mu("dirac"))
    j0 = grid.cell_index(np.array([0.3]))[0]
    expect = np.zeros(grid.n)
    expect[j0] = 1.0
    assert np.abs(C_d.entries - expect[None, :]).max() < 1e-10


def test_chain_two_step_dobrushin_bound(wb):
    # pairwise l1 distances of two-step rows equal twice (1 - overlap), so
    # the minimal measured overlap bounds every pair
    ops = wb.ops(1.0)
    C = chain_kernel(ops["H"], wb.mu("projection"))
    beta, overlap = dobrushin_coefficient(C, steps=2)
    P2 = C.entries @ C.entries
    worst_l1 = 0.0
    for i in range(0, P2.shape[0], 37):
        worst_l1 = max(worst_l1, np.abs(P2[i][None, :] - P2).sum(axis=1).max())
    assert worst_l1 <= 2.0 * (1.0 - overlap) + 1e-12
    assert beta == pytest.approx(1.0 - overlap)
    assert beta < 1.0


def test_stationary_p_constant_families(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    p_u = stationary_p(chain_kernel(ops["H"], wb.mu("uniform")))
    mcells = wb.mu("uniform").cell_masses(2.0, grid)
    assert total_variation(p_u.masses, mcells) < 1e-10
    p_d = stationary_p(chain_kernel(ops["H"], wb.mu("dirac")))
    j0 = grid.cell_index(np.array([0.3]))[0]
    assert p_d.masses[j0] == pytest.approx(1.0, abs=1e-10)


def test_stationary_p_projection_vs_monte_carlo(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    mu = wb.mu("projection")
    p_hat = stationary_p(chain_kernel(ops["H"], mu))
    rng = stream(515, 0)
    burn, keep = 100, 1000
    chains = reflection_chain(wb.params(1.0), wb.domain, mu, 0.0, burn + keep,
                              rng, size=100)
    samples = chains[:, burn:].ravel()
    emp = np.bincount(grid.cell_index(samples), minlength=grid.n).astype(float)
    emp /= emp.sum()
    assert total_variation(emp, p_hat.masses) <= 0.05


def test_kappa_closed_form_properties(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    # uniform-on-D chain law: density proportional to Green column sums
    unif = GridMeasure(grid, grid.widths / grid.widths.sum())
    k_u = kappa_closed_form(unif, ops["G"])
    cols = grid.widths @ ops["G"].entries
    assert total_variation(k_u.masses, cols / cols.sum()) < 1e-12
    # symmetric chain law gives a symmetric density
    p_sym = stationary_p(chain_kernel(ops["H"], wb.mu("uniform")))
    k_sym = kappa_closed_form(p_sym, ops["G"])
    assert np.abs(k_sym.masses - k_sym.masses[::-1]).max() < 1e-8


def test_kappa_nullvector_matches_closed_form(wb):
    for name in ("uniform", "dirac", "projection"):
        ops = wb.ops(1.0)
        A = wb.A(1.0, name)
        p_hat = stationary_p(chain_kernel(ops["H"], wb.mu(name)))
        k_cf = kappa_closed_form(p_hat, ops["G"])
        k_nv = kappa_generator_nullvector(A)
        assert k_cf.tv(k_nv) <= 0.01, name


def test_kappa_nullvector_dirac_green_row(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    k_nv = kappa_generator_nullvector(wb.A(1.0, "dirac"))
    row = ops["G"].entries[grid.cell_index(np.array([0.3]))[0]]
    assert total_variation(k_nv.masses, row / row.sum()) <= 0.01


def test_kappa_invariant_under_series_kernel(wb):
    from reflected_stable.perturbation import reflected_kernel
    k_nv = kappa_generator_nullvector(wb.A(1.0, "uniform"))
    for t in (0.5, 2.0):
        K = reflected_kernel(wb.series(1.0, "uniform", t))
        assert total_variation(k_nv.masses @ K.entries, k_nv.masses) <= 2e-3


def test_kappa_ergodic_uniform(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    mu = wb.mu("uniform")
    m = UniformMeasure(-0.5, 0.5)
    ens = simulate_ensemble_blocks(wb.params(1.0), wb.domain, mu, m, 200.0, 1e-3,
                                   123, 200, grid=grid, burn_in=2.0)
    k_er = kappa_ergodic(ens, grid)
    p_hat = stationary_p(chain_kernel(ops["H"], mu))
    k_cf = kappa_closed_form(p_hat, ops["G"])
    assert k_er.tv(k_cf) <= 0.05


def test_kappa_ergodic_initial_law_independence(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    mu = wb.mu("uniform")
    common = dict(grid=grid, burn_in=2.0)
    a = simulate_ensemble_blocks(wb.params(1.0), wb.domain, mu, 0.9, 120.0, 1e-3,
                                 7, 150, **common)
    b = simulate_ensemble_blocks(wb.params(1.0), wb.domain, mu,
                                 UniformMeasure(-0.5, 0.5), 120.0, 1e-3,
                                 8, 150, **common)
    assert kappa_ergodic(a, grid).tv(kappa_ergodic(b, grid)) <= 0.05


def test_kappa_ergodic_requires_enough_reflections(wb):
    grid = wb.ops(1.0)["grid"]
    mu = wb.mu("uniform")
    ens = simulate_ensemble_blocks(wb.params(1.0), wb.domain, mu, 0.0, 2.0, 1e-3,
                                   3, 20, grid=grid)
    with pytest.raises(StationaryError):
        kappa_ergodic(ens, grid)


def test_kappa_ergodic_from_paths(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    mu = wb.mu("uniform")
    ens = simulate_ensemble_blocks(wb.params(1.0), wb.domain, mu, 0.0, 60.0, 1e-3,
                                   909, 40, grid=grid, burn_in=1.0)
    k_er = kappa_ergodic(ens, grid)
    p_hat = stationary_p(chain_kernel(ops["H"], mu))
    k_cf = kappa_closed_form(p_hat, ops["G"])
    assert k_er.tv(k_cf) <= 0.08


def test_geometric_chain_convergence(wb):
    # matrix laws approach the fixed point at the two-step Dobrushin rate
    ops = wb.ops(1.0)
    grid = ops["grid"]
    C = chain_kernel(ops["H"], wb.mu("projection"))
    beta, _ = dobrushin_coefficient(C, steps=2)
    p_hat = stationary_p(C)
    law = np.zeros(grid.n)
    law[0] = 1.0
    laws = {}
    for n in range(1, 9):
        law = law @ C.entries
        laws[n] = law.copy()
    tv2 = total_variation(laws[2], p_hat.masses)
    for n in (4, 6, 8):
        tvn = total_variation(laws[n], p_hat.masses)
        assert tvn <= tv2 * beta ** (n // 2 - 1) + 1e-12


def test_triangulation_report(wb):
    ops = wb.ops(1.0)
    p_hat = stationary_p(chain_kernel(ops["H"], wb.mu("uniform")))
    k_cf = kappa_closed_form(p_hat, ops["G"])
    k_nv = kappa_generator_nullvector(wb.A(1.0, "uniform"))
    rep = triangulation_report({"cf": k_cf, "nv": k_nv, "p": p_hat})
    assert set(rep) == {"cf|nv", "cf|p", "nv|p"}
    assert rep["cf|nv"] <= 0.01
