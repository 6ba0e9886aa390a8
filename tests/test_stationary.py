import functools
import logging
import math

import numpy as np
import pytest
from scipy.integrate import quad

from reflected_stable.geometry import Interval, IntervalUnion, build_grid
from reflected_stable.killed_kernels import (GridOperator, assemble_dirichlet_generator,
                                             default_operators)
from reflected_stable.pathsim import reflection_chain, simulate_ensemble_blocks, stream
from reflected_stable.perturbation import full_generator, perturbation_matrix
from reflected_stable.reflection import (AtomMeasure, ConstantKernel, ProjectionKernel,
                                         UniformMeasure)
from reflected_stable.stable_core import StableParams
from reflected_stable.stationary import (GridMeasure, StationaryError, chain_directions,
                                         chain_kernel, dobrushin_coefficient, kappa_closed_form,
                                         kappa_ergodic, kappa_generator_nullvector,
                                         stationary_p, total_variation,
                                         triangulation_report)

import oracles


def test_grid_measure_validation(wb):
    grid = wb.ops(1.0)["grid"]
    with pytest.raises(ValueError):
        GridMeasure(grid, np.full(grid.n, 2.0 / grid.n))
    with pytest.raises(ValueError):
        GridMeasure(grid, np.ones(grid.n - 1) / (grid.n - 1))
    m = GridMeasure(grid, np.full(grid.n, 1.0 / grid.n))
    assert m.tv(m) == 0.0


def test_grid_measure_rejects_non_finite_masses(wb):
    # an empty occupation normalized by its zero total
    grid = wb.ops(1.0)["grid"]
    for bad in (np.nan, np.inf):
        masses = np.full(grid.n, 1.0 / grid.n)
        masses[3] = bad
        with pytest.raises(ValueError, match="finite"):
            GridMeasure(grid, masses)


def test_chain_kernel_rows(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    C_u = chain_kernel(ops["H"], wb.mu("uniform"))
    assert np.abs(C_u.row_sums() - 1.0).max() < 1e-6
    # constant law: every row equals the cell masses of the measure
    mcells = wb.mu("uniform").law(2.0).cell_masses(grid)
    assert np.abs(oracles.dense(C_u) - mcells[None, :]).max() < 1e-10
    C_d = chain_kernel(ops["H"], wb.mu("dirac"))
    j0 = grid.cell_index(np.array([0.3]))[0]
    expect = np.zeros(grid.n)
    expect[j0] = 1.0
    assert np.abs(oracles.dense(C_d) - expect[None, :]).max() < 1e-10


def test_chain_two_step_dobrushin_bound(wb):
    # pairwise l1 distances of two-step rows equal twice (1 - overlap), so
    # the minimal measured overlap bounds every pair
    ops = wb.ops(1.0)
    C = chain_kernel(ops["H"], wb.mu("projection"))
    beta, overlap = dobrushin_coefficient(C)
    P = oracles.dense(C)
    P2 = P @ P
    worst_l1 = 0.0
    for i in range(0, P2.shape[0], 37):
        worst_l1 = max(worst_l1, np.abs(P2[i][None, :] - P2).sum(axis=1).max())
    assert worst_l1 <= 2.0 * (1.0 - overlap) + 1e-12
    assert beta == pytest.approx(1.0 - overlap)
    assert beta < 1.0


DOBRUSHIN_DOMAINS = {"interval": Interval(-1.0, 1.0),
                     "union": IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])}


@functools.lru_cache(maxsize=None)
def harmonic_400(alpha, domain_name):
    return default_operators(StableParams(1, alpha), DOBRUSHIN_DOMAINS[domain_name], 400)[3]


def laws_of_every_family(domain):
    """(row directions, return kernel) for a constant-uniform, a dirac and a
    projection law on ``domain``."""
    return [(1, ConstantKernel(domain, UniformMeasure(0.3, 0.8))),
            (1, ConstantKernel(domain, AtomMeasure([0.5]))),
            (2 * len(domain.intervals), ProjectionKernel(domain, 0.2, 0.1))]


def assert_matches_dense_scan(C):
    """dobrushin_coefficient(C) equals the pairwise scan of C^2 to 1e-12."""
    beta, overlap = dobrushin_coefficient(C)
    beta_ref, overlap_ref = oracles.dobrushin_dense(C)
    assert abs(beta - beta_ref) <= 1e-12 and abs(overlap - overlap_ref) <= 1e-12


@pytest.mark.parametrize("domain_name", sorted(DOBRUSHIN_DOMAINS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_dobrushin_matches_dense_scan(alpha, domain_name):
    # the factored coefficient equals the pairwise scan of C^2 for every
    # family; a constant law has one row direction, a projection kernel two
    # per interval
    domain = DOBRUSHIN_DOMAINS[domain_name]
    H = harmonic_400(alpha, domain_name)
    for m, mu in laws_of_every_family(domain):
        C = chain_kernel(H, mu)
        assert_matches_dense_scan(C)
        assert chain_directions(C.factors[1]).shape[1] == m


@pytest.mark.parametrize("domain_name", sorted(DOBRUSHIN_DOMAINS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_stationary_p_matches_power_iteration(alpha, domain_name):
    # the law from the r x r reduction equals the power iteration on the
    # dense chain for every family, is a fixed point to round-off, and its
    # exact rate is within the two-step contraction
    domain = DOBRUSHIN_DOMAINS[domain_name]
    H = harmonic_400(alpha, domain_name)
    for _, mu in laws_of_every_family(domain):
        C = chain_kernel(H, mu)
        beta, _ = dobrushin_coefficient(C)
        p = stationary_p(C, beta)
        assert total_variation(p.masses, oracles.stationary_power(C)) <= 1e-11
        assert total_variation(p.masses @ oracles.dense(C), p.masses) <= 2e-12
        assert p.diagnostics["r"] == C.factors[0].shape[1]
        assert p.diagnostics["lambda2"] ** 2 <= beta + 1e-9


def test_stationary_p_certifies_the_exact_rate():
    # on the interval the projection chain's second eigenvalue, 0.590 at
    # alpha = 1, is within sqrt(beta) = 0.746 but not within sqrt(0.1). The
    # uniform start is symmetric here, so a power iteration stops after two
    # steps and observes no rate at all
    domain = DOBRUSHIN_DOMAINS["interval"]
    C = chain_kernel(harmonic_400(1.0, "interval"), ProjectionKernel(domain, 0.2, 0.1))
    assert stationary_p(C).diagnostics["lambda2"] == pytest.approx(0.590, abs=1e-3)
    with pytest.raises(StationaryError, match="rate"):
        stationary_p(C, beta=0.1)


@pytest.mark.parametrize("K", [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
                         ids=["reducible", "periodic"])
def test_stationary_p_rejects_a_second_unit_eigenvalue(K):
    # V's columns a = 0, 1 are laws on cells {2a, 2a + 1}, and B's rows for
    # those cells are row a of K, so V^T B = K: a second eigenvalue of
    # modulus 1 leaves the stationary law not unique
    grid = build_grid(Interval(-1.0, 1.0), 4)
    B, V = np.repeat(K, 2, axis=0), np.kron(np.eye(2), [[0.5], [0.5]])
    C = GridOperator(grid=grid, entries=None, kind="chain-kernel", factors=(B, V))
    with pytest.raises(StationaryError, match="not unique"):
        stationary_p(C)


def test_dobrushin_on_one_cell():
    # no pair of rows: no overlap to take a minimum of
    grid, _, _, H = default_operators(StableParams(1, 1.0), Interval(-1.0, 1.0), 1)
    C = chain_kernel(H, ConstantKernel(grid.domain, UniformMeasure(-0.5, 0.5)))
    assert dobrushin_coefficient(C) == oracles.dobrushin_dense(C) == (0.0, np.inf)


def test_dobrushin_of_identical_rows_is_zero():
    # every row is the law v; its dyadic masses make each sum exact
    grid = build_grid(Interval(-1.0, 1.0), 4)
    B, V = np.ones((4, 1)), np.array([[0.5], [0.25], [0.125], [0.125]])
    C = GridOperator(grid=grid, entries=None, kind="chain-kernel", factors=(B, V))
    assert dobrushin_coefficient(C) == oracles.dobrushin_dense(C) == (0.0, 1.0)


def test_dobrushin_rejects_unfactored_and_takes_many_directions(wb):
    C = chain_kernel(wb.ops(1.0)["H"], wb.mu("projection"))
    with pytest.raises(ValueError, match="factors"):
        dobrushin_coefficient(GridOperator(grid=C.grid, entries=oracles.dense(C),
                                           kind="chain-kernel"))
    # eleven rows of V each in their own direction
    grid = build_grid(Interval(-1.0, 1.0), 12)
    B, V = np.full((12, 11), 1.0 / 11), np.eye(12, 11)
    many = GridOperator(grid=grid, entries=None, kind="chain-kernel", factors=(B, V))
    assert chain_directions(V).shape[1] == 11
    assert_matches_dense_scan(many)


SIX_INTERVALS = IntervalUnion([[2.0 * k, 2.0 * k + 1.0] for k in range(6)])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_dobrushin_matches_dense_scan_on_six_intervals(alpha):
    # a projection law there has m = 12 row directions, two per interval
    H = default_operators(StableParams(1, alpha), SIX_INTERVALS, 60)[3]
    for m, mu in laws_of_every_family(SIX_INTERVALS):
        C = chain_kernel(H, mu)
        assert chain_directions(C.factors[1]).shape[1] == m
        assert_matches_dense_scan(C)


def test_stationary_p_constant_families(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    p_u = stationary_p(chain_kernel(ops["H"], wb.mu("uniform")))
    mcells = wb.mu("uniform").law(2.0).cell_masses(grid)
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
    chains = reflection_chain(wb.params(1.0), mu, 0.0, burn + keep,
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


# each domain with a constant-uniform, a dirac and a projection law in it
NULLVECTOR_DOMAINS = {
    "interval": (Interval(-1.0, 1.0), (UniformMeasure(-0.5, 0.5), AtomMeasure([0.3]),
                                       (0.3, 0.2))),
    "union": (IntervalUnion([[-1.0, -0.2], [0.1, 1.0]]),
              (UniformMeasure(0.3, 0.8), AtomMeasure([0.5]), (0.2, 0.1))),
}


def small_full_generator(alpha, domain_name, law_index, n_cells=60):
    domain, laws = NULLVECTOR_DOMAINS[domain_name]
    law = laws[law_index]
    mu = (ProjectionKernel(domain, *law) if isinstance(law, tuple)
          else ConstantKernel(domain, law))
    params = StableParams(1, alpha)
    grid = build_grid(domain, n_cells)
    return full_generator(assemble_dirichlet_generator(grid, params),
                          perturbation_matrix(grid, params, mu))


@pytest.mark.parametrize("law_index", [0, 1, 2], ids=["uniform", "dirac", "projection"])
@pytest.mark.parametrize("domain_name", sorted(NULLVECTOR_DOMAINS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_kappa_nullvector_checks_agree_with_dense_reference(alpha, domain_name, law_index,
                                                            caplog):
    # the three checks pass, and so does the dense certificate they replace:
    # a clear singular-value gap and invariance under exp(tA) at t = 0.5, 2
    A = small_full_generator(alpha, domain_name, law_index)
    caplog.set_level(logging.DEBUG, logger="reflected_stable")
    kappa = kappa_generator_nullvector(A).masses
    (steps, ratio, off_min, residual), = [
        r.args for r in caplog.records if r.name == "reflected_stable.stationary"]
    assert steps >= 2 and ratio <= 1e-3 and off_min > 0 and residual <= 1e-6
    sv, tvs = oracles.nullvector_reference_checks(A.entries, kappa)
    assert sv[0] >= 1e3 * sv[1] + 1e-12
    assert max(tvs) <= 1e-6


@pytest.mark.parametrize("coupling, match", [(0.0, "irreducible"), (1e-8, "spectral gap")])
def test_kappa_nullvector_rejects_decoupled_generators(coupling, match):
    # scale the rates between the union's two pieces; the diagonal keeps the
    # rows summing to 0. With no coupling the null space is two-dimensional;
    # a weak one leaves it one-dimensional but with no clear spectral gap
    A = small_full_generator(1.0, "union", 2)
    left = A.grid.nodes < 0
    entries = np.where(left[:, None] != left[None, :], coupling * A.entries, A.entries)
    np.fill_diagonal(entries, 0.0)
    np.fill_diagonal(entries, -entries.sum(axis=1))
    weak = GridOperator(grid=A.grid, entries=entries, kind="full-generator")
    with pytest.raises(StationaryError, match=match):
        kappa_generator_nullvector(weak)


# grid minus exact reflections per 200 time units on (-1, 1) at 400 cells,
# as measured when this ledger was added; the grid's count is below the exact one
RATE_ERRORS = {("uniform", 0.5): -0.0422, ("uniform", 1.0): -0.2862, ("uniform", 1.5): -8.791,
               ("dirac", 0.5): -0.1165, ("dirac", 1.0): -0.4589, ("dirac", 1.5): -9.192}


@pytest.mark.parametrize("family, alpha", sorted(RATE_ERRORS))
def test_reflection_rate_ledger(wb, family, alpha):
    # by renewal a path reflects 1 / E_p[E_x tau] times per unit time, p the
    # chain's stationary law (here the constant re-entry law; uniform(-0.5, 0.5)
    # has density 1), and on (-1, 1) E_x tau = (1 - x^2)^(alpha/2) / Gamma(1 + alpha);
    # the grid's mean excursion is p . G1, G1 the Green operator's row sums
    ops = wb.ops(alpha)
    p = stationary_p(chain_kernel(ops["H"], wb.mu(family)))
    grid_rate = 200.0 / (p.masses @ ops["G"].entries.sum(axis=1))

    def exit_time(x):
        return (1.0 - x * x) ** (alpha / 2) / math.gamma(1.0 + alpha)

    mean = quad(exit_time, -0.5, 0.5)[0] if family == "uniform" else exit_time(0.3)
    error = grid_rate - 200.0 / mean
    assert -1.05 * abs(RATE_ERRORS[family, alpha]) <= error < 0.0


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
    ens = simulate_ensemble_blocks(wb.params(1.0), mu, m, 200.0, 1e-3,
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
    a = simulate_ensemble_blocks(wb.params(1.0), mu, 0.9, 120.0, 1e-3,
                                 7, 150, **common)
    b = simulate_ensemble_blocks(wb.params(1.0), mu,
                                 UniformMeasure(-0.5, 0.5), 120.0, 1e-3,
                                 8, 150, **common)
    assert kappa_ergodic(a, grid).tv(kappa_ergodic(b, grid)) <= 0.05


def test_kappa_ergodic_requires_enough_reflections(wb):
    grid = wb.ops(1.0)["grid"]
    mu = wb.mu("uniform")
    ens = simulate_ensemble_blocks(wb.params(1.0), mu, 0.0, 2.0, 1e-3,
                                   3, 20, grid=grid)
    with pytest.raises(StationaryError):
        kappa_ergodic(ens, grid)


def test_kappa_ergodic_from_paths(wb):
    ops = wb.ops(1.0)
    grid = ops["grid"]
    mu = wb.mu("uniform")
    ens = simulate_ensemble_blocks(wb.params(1.0), mu, 0.0, 60.0, 1e-3,
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
    beta, _ = dobrushin_coefficient(C)
    p_hat = stationary_p(C)
    law = np.zeros(grid.n)
    law[0] = 1.0
    laws = {}
    for n in range(1, 9):
        law = law @ oracles.dense(C)
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
