import math

import numpy as np
import pytest
import scipy.linalg

from reflected_stable.geometry import IntervalUnion, build_grid, exterior_shell
from reflected_stable.killed_kernels import (GridOperator, assemble_dirichlet_generator,
                                             green_operator, harmonic_kernel, heat_kernel,
                                             killing_intensity, resolvent_u)
from reflected_stable.perturbation import (ConservationError, SeriesError,
                                           build_excessive, duhamel_series,
                                           ladder_kernel, ladder_lift,
                                           ladder_supermedian_violation,
                                           perturbation_matrix, reflected_kernel,
                                           supermedian_v, supermedian_violation)
from reflected_stable.reflection import (ReflectionKernel, UniformMeasure, default_probes,
                                         make_constant_kernel, make_projection_kernel)
from reflected_stable.stationary import chain_kernel

import oracles


def test_perturbation_matrix_row_sums(wb):
    for name in ("uniform", "dirac", "projection"):
        M = wb.M(1.0, name)
        kappa = killing_intensity(wb.params(1.0), wb.domain, M.grid.nodes)
        assert np.abs(M.row_sums() - kappa).max() < 1e-6 * kappa.max()


def test_perturbation_matrix_constant_separable(wb):
    M = wb.M(1.0, "uniform")
    kappa = killing_intensity(wb.params(1.0), wb.domain, M.grid.nodes)
    mcells = wb.mu("uniform").cell_masses(2.0, M.grid)
    assert np.abs(M.entries - np.outer(kappa, mcells)).max() < 1e-12 * kappa.max()


def test_perturbation_matrix_dirac_single_column(wb):
    M = wb.M(1.0, "dirac")
    j0 = M.grid.cell_index(np.array([0.3]))[0]
    nz = np.flatnonzero(M.entries.sum(axis=0))
    assert np.array_equal(nz, [j0])


def test_perturbation_matrix_requires_z_pieces(wb):
    class SmoothReturn(ReflectionKernel):
        domain = wb.domain

    ops = wb.ops(1.0)
    with pytest.raises(SeriesError, match="SmoothReturn"):
        perturbation_matrix(ops["grid"], ops["params"], SmoothReturn())
    M = wb.M(1.0, "uniform")
    bare = GridOperator(grid=M.grid, entries=M.entries, kind="perturbation")
    with pytest.raises(SeriesError):
        duhamel_series(ops["L"], bare, 0.5)


def test_one_cell_grid_builds_operators_and_series(wb):
    # on one cell every jump out returns to it, so the reflection count is
    # Poisson with the killing intensity at the node as its rate
    p, D = wb.params(1.0), wb.domain
    grid = build_grid(D, 1)
    L = assemble_dirichlet_generator(grid, p)
    kappa = killing_intensity(p, D, grid.nodes)
    for mu in (make_projection_kernel(D, 0.2, 0.1),
               make_constant_kernel(D, UniformMeasure(-0.5, 0.5))):
        M = perturbation_matrix(grid, p, mu)
        assert M.entries[0, 0] == pytest.approx(kappa[0], rel=1e-13)
        C = chain_kernel(harmonic_kernel(green_operator(L), p), mu)
        assert C.entries[0, 0] == pytest.approx(1.0, rel=1e-12)
        series = duhamel_series(L, M, 0.5)
        rate = 0.5 * kappa[0]
        poisson = [np.exp(-rate) * rate ** k / math.factorial(k)
                   for k in range(series.truncation_N)]
        assert np.allclose(series.level_masses[:len(poisson)], poisson, rtol=1e-9, atol=1e-15)


UNION = IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_series_levels_match_block_exponential(wb, alpha):
    # levels 0-4 against the (0, k) blocks of one block-bidiagonal expm, on
    # the interval with every return family and on a two-interval union
    params = wb.params(alpha)
    cases = [(wb.domain, wb.mu(name)) for name in ("uniform", "dirac", "projection")]
    cases.append((UNION, make_projection_kernel(UNION, 0.2, 0.1)))
    for domain, mu in cases:
        grid = build_grid(domain, 120)
        L = assemble_dirichlet_generator(grid, params)
        M = perturbation_matrix(grid, params, mu)
        U, V = M.factors
        assert np.abs(U @ V.T - M.entries).max() <= 1e-12 * M.entries.max()
        assert np.abs(U.sum(axis=1) - killing_intensity(params, domain, grid.nodes)).max() \
            <= 1e-12 * U.max()
        for t in (0.1, 2.0):
            ser = duhamel_series(L, M, t)
            exact = oracles.series_levels_by_block_expm(L.entries, M.entries, t, 5)
            for n in range(5):
                gap = np.abs(ser.terms[n] - exact[n]).max()
                assert gap <= 1e-10, (domain, type(mu).__name__, t, n, gap)


def test_series_level_zero_is_heat_kernel(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    P = heat_kernel(wb.ops(1.0)["L"], 0.5)
    assert np.abs(ser.terms[0] - P.entries).max() < 1e-10


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_series_conservation(wb, alpha):
    # operator-type invariant: the reflected kernel is conservative to 1e-6
    # (tighter than the acceptance tolerance of 1e-4)
    for t in (0.1, 0.5, 2.0):
        ser = wb.series(alpha, "uniform", t)
        K = reflected_kernel(ser)
        rs = K.row_sums()
        assert rs.min() > 1.0 - 1e-6 and rs.max() < 1.0 + 1e-6
        assert K.entries.min() >= 0.0


def test_series_matches_full_generator_exponential(wb):
    for name in ("uniform", "dirac", "projection"):
        A = wb.A(1.0, name)
        ser = wb.series(1.0, name, 0.5)
        expA = scipy.linalg.expm(0.5 * A.entries)
        assert np.abs(ser.sum() - expA).max() < 1e-3


def test_series_dominates_heat_kernel(wb):
    ser = wb.series(1.0, "projection", 0.5)
    P = heat_kernel(wb.ops(1.0)["L"], 0.5)
    K = reflected_kernel(ser)
    assert (K.entries - P.entries).min() > -1e-12


def test_level_chapman_kolmogorov(wb):
    # sum_m K_m(s) K_{n-m}(t) = K_n(s+t); the mixed pair (0.1, 0.5) uses
    # unrelated panel grids, so the check is a genuine cross-build test
    for (s, t) in ((0.1, 0.1), (0.1, 0.5), (0.5, 0.5)):
        sa, sb, sab = (wb.series(1.0, "uniform", u) for u in (s, t, s + t))
        for n in range(5):
            acc = sum(sa.terms[m] @ sb.terms[n - m]
                      for m in range(n + 1)
                      if m < len(sa.terms) and n - m < len(sb.terms))
            assert np.abs(acc - sab.terms[n]).max() < 1e-4, (s, t, n)


def test_level_one_dirac_two_factor_quadrature(wb):
    # with a point return law the first correction factorizes; integrate the
    # two scalar factors on a fine Simpson grid with spectral heat kernels
    ops = wb.ops(1.0)
    grid, L, p = ops["grid"], ops["L"], ops["params"]
    t = 0.5
    ser = wb.series(1.0, "dirac", t)
    sp = oracles.SpectralHeat(L.entries)
    kappa = killing_intensity(p, wb.domain, grid.nodes)
    j0 = grid.cell_index(np.array([0.3]))[0]
    ck = sp.V.T @ kappa
    c1 = sp.V.T @ np.ones(grid.n)
    row0 = sp.V[j0]
    m = 4096
    s_nodes = np.linspace(0.0, t, m + 1)
    fvals = np.array([
        (sp.V @ (np.exp(s * sp.w) * ck)) * float(row0 @ (np.exp((t - s) * sp.w) * c1))
        for s in s_nodes
    ])
    w = np.ones(m + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    oracle_mass = (t / m / 3.0) * (w[:, None] * fvals).sum(axis=0)
    assert np.abs(ser.terms[1].sum(axis=1) - oracle_mass).max() < 1e-4


def test_series_geometric_decay_fit(wb):
    for t in (0.1, 0.5, 2.0):
        ser = wb.series(1.0, "uniform", t)
        assert 0.0 < ser.fit_gamma < 1.0
        assert ser.fit_c >= 1.0
        masses = ser.level_masses
        assert np.all(masses <= ser.fit_c * ser.fit_gamma ** np.arange(len(masses)) + 1e-12)
        slope = np.polyfit(np.arange(1, len(masses)), np.log(masses[1:] + 1e-300), 1)[0]
        assert slope < 0


def test_series_exit_bound(wb):
    # mass of all reflected levels is bounded by the exit probability
    ser = wb.series(1.0, "uniform", 0.5)
    P = heat_kernel(wb.ops(1.0)["L"], 0.5)
    lhs = sum(term.sum(axis=1) for term in ser.terms[1:])
    rhs = 1.0 - P.row_sums()
    assert (lhs - rhs).max() < 1e-6


def test_series_rejects_bad_inputs(wb):
    ops = wb.ops(1.0)
    M = wb.M(1.0, "uniform")
    with pytest.raises(ValueError):
        duhamel_series(ops["L"], M, -0.5)
    with pytest.raises(SeriesError):
        duhamel_series(ops["L"], M, 2.0, max_levels=6)


def test_series_without_decay_profile_leaves_envelope_unfitted(wb):
    # at t = 1e6 no level past level 0 reaches drop_tol: nothing to fit, and
    # no tail is credited, so the lost mass fails conservation
    ser = duhamel_series(wb.ops(1.0)["L"], wb.M(1.0, "uniform"), 1e6)
    assert ser.truncation_N == 0
    assert ser.fit_c is None and ser.fit_gamma is None and ser.tail_bound is None
    with pytest.raises(ConservationError):
        reflected_kernel(ser)
    with pytest.raises(ValueError):
        ladder_kernel(ser, 4)


def test_reflected_kernel_conservation_error_report(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    import dataclasses
    broken = dataclasses.replace(ser, terms=[0.9 * ser.terms[0]] + ser.terms[1:])
    with pytest.raises(ConservationError) as exc:
        reflected_kernel(broken)
    assert "row_sum_min" in exc.value.report


def test_full_generator_row_sums_and_nonnegativity(wb):
    A = wb.A(1.0, "projection")
    assert np.abs(A.row_sums()).max() < 1e-10
    P = scipy.linalg.expm(0.7 * A.entries)
    assert P.min() > -1e-12
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-8


def test_full_generator_null_space_dimension(wb):
    A = wb.A(1.0, "uniform")
    sv = np.linalg.svd(A.entries.T, compute_uv=False)
    assert sv[-1] < 1e-8 * sv[0]
    assert sv[-2] > 1e3 * sv[-1]


def test_ladder_kernel_blocks_and_recovery(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    lad = ladder_kernel(ser, m_levels=ser.truncation_N + 5)
    n = ser.grid.n
    # lower-triangular blocks vanish
    assert np.all(lad.block(3, 1) == 0.0)
    # level-constant function recovers the flat kernel at level 0
    f = np.cos(ser.grid.nodes)
    F = np.tile(f, (lad.m_levels + 1, 1))
    out = lad.apply(F)
    target = ser.sum() @ f
    assert np.abs(out[0] - target).max() < 1e-6 + lad.tail_bound * np.abs(f).max()


def test_ladder_kernel_total_mass_with_tail(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    lad = ladder_kernel(ser, m_levels=ser.truncation_N + 3)
    for m in (0, 1, 2):
        mass = lad.level_mass_from(m).sum(axis=0)
        assert mass.max() <= 1.0 + 1e-6
        assert mass.min() >= 1.0 - 1e-6 - lad.tail_bound


def test_ladder_kernel_rejects_small_m(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    with pytest.raises(ValueError):
        ladder_kernel(ser, m_levels=ser.truncation_N - 1)


def test_supermedian_v_dominates_and_bounds(wb):
    ops = wb.ops(1.0)
    A = wb.A(1.0, "uniform")
    mu = wb.mu("uniform")
    for lam in (0.1, 1.0):
        u = resolvent_u(ops["L"], lam, 1.0, ops["params"])
        v = supermedian_v(A, lam, 1.0, ops["params"])
        assert (v - u).min() > -1e-12
        probes = default_probes(wb.domain)
        eps = 1.0 - max(mu.average(z, ops["grid"], u) for z in probes)
        assert eps > 0
        assert v.max() <= 1.0 / eps


def test_supermedian_v_identity(wb):
    # v = u + (lam - A)^{-1} M u, the discrete resolvent identity
    ops = wb.ops(1.0)
    A = wb.A(1.0, "projection")
    M = wb.M(1.0, "projection")
    lam = 0.1
    u = resolvent_u(ops["L"], lam, 1.0, ops["params"])
    v = supermedian_v(A, lam, 1.0, ops["params"])
    rhs = u + scipy.linalg.solve(lam * np.eye(ops["grid"].n) - A.entries,
                                 M.entries @ u)
    assert np.abs(v - rhs).max() < 1e-8


def test_supermedian_inequality(wb):
    A = wb.A(1.0, "uniform")
    for lam in (0.1, 1.0):
        v = supermedian_v(A, lam, 1.0, wb.params(1.0))
        assert supermedian_violation(A, lam, v, (0.1, 1.0, 10.0)) <= 1e-8


def test_supermedian_v_with_shell_payoff(wb):
    A = wb.A(1.0, "uniform")
    sh = exterior_shell(wb.domain, 0.25)
    v = supermedian_v(A, 0.5, sh, wb.params(1.0))
    u = resolvent_u(wb.ops(1.0)["L"], 0.5, sh, wb.params(1.0))
    assert (v - u).min() > -1e-12
    with pytest.raises(ValueError):
        supermedian_v(A, 0.0, sh, wb.params(1.0))


def test_build_excessive_structure(wb):
    A = wb.A(1.0, "uniform")
    exc = build_excessive(A, 1.0, wb.params(1.0), n_max=6)
    grid = wb.ops(1.0)["grid"]
    assert np.all(np.diff(exc.radii) <= 0)
    assert exc.values.min() > 0
    i0 = np.argmin(np.abs(grid.nodes))
    assert exc.values[0] > 2.0 * exc.values[i0]
    assert exc.values[-1] > 2.0 * exc.values[i0]
    assert supermedian_violation(A, 1.0, exc.values, (0.1, 1.0, 10.0)) <= 1e-8
    # shell targets hold on the exhaustion sets
    delta = wb.domain.boundary_distance(grid.nodes)
    for nlev, (r, thr) in enumerate(zip(exc.radii, exc.thresholds), start=1):
        on = delta >= thr
        assert exc.summands[nlev - 1][on].max() <= 2.0 ** (-nlev) * (1 + 1e-9)


def test_build_excessive_summand_continuity(wb):
    # neighbor jumps of each summand shrink proportionally to h on a fixed
    # compact (continuity is locally uniform; gradients blow up at the
    # boundary together with the function itself)
    A4 = wb.A(1.0, "uniform", n_cells=400)
    A8 = wb.A(1.0, "uniform", n_cells=800)
    e4 = build_excessive(A4, 1.0, wb.params(1.0), n_max=4)
    e8 = build_excessive(A8, 1.0, wb.params(1.0), n_max=4)
    g4, g8 = wb.ops(1.0, 400)["grid"], wb.ops(1.0, 800)["grid"]

    def bulk_jump(exc, grid, k):
        delta = wb.domain.boundary_distance(grid.nodes)
        sel = (delta[:-1] >= 0.1) & (delta[1:] >= 0.1)
        return np.abs(np.diff(exc.summands[k]))[sel].max()

    for k in range(4):
        C = bulk_jump(e4, g4, k) / g4.h
        assert bulk_jump(e8, g8, k) <= 1.25 * C * g8.h


def test_build_excessive_refinement_strengthens_dominance(wb):
    A4 = wb.A(1.0, "uniform", n_cells=400)
    A8 = wb.A(1.0, "uniform", n_cells=800)
    e4 = build_excessive(A4, 1.0, wb.params(1.0), n_max=6)
    e8 = build_excessive(A8, 1.0, wb.params(1.0), n_max=6)
    g4, g8 = wb.ops(1.0, 400)["grid"], wb.ops(1.0, 800)["grid"]
    r4 = e4.values[0] / e4.values[np.argmin(np.abs(g4.nodes))]
    r8 = e8.values[0] / e8.values[np.argmin(np.abs(g8.nodes))]
    assert r8 > r4 > 2.0


def test_build_excessive_floor_error(wb):
    A = wb.A(1.0, "uniform")
    with pytest.raises(SeriesError):
        build_excessive(A, 1.0, wb.params(1.0), n_max=6, r_floor_factor=0.5)


def test_ladder_lift_checks_input(wb):
    A = wb.A(1.0, "uniform")
    ones = np.ones(wb.ops(1.0)["grid"].n)
    lifted = ladder_lift(ones, 0.5, 10, A=A, lam=0.0)
    assert np.allclose(lifted[3], 0.125)
    with pytest.raises(ValueError):
        ladder_lift(ones, 1.5, 10)
    bad = np.linspace(0.0, 1.0, len(ones))  # not supermedian: mass flows up
    with pytest.raises(ValueError):
        ladder_lift(bad, 1.0, 10, A=A, lam=0.0)


def test_ladder_lift_supermedian_on_ladder(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    lad = ladder_kernel(ser, m_levels=max(20, ser.truncation_N))
    A = wb.A(1.0, "uniform")
    ones = np.ones(ser.grid.n)
    # alpha=1/2 halves each level: the ladder image stays below 2^-m
    H1 = ladder_lift(ones, 0.5, lad.m_levels)
    out = lad.apply(H1)
    lev = 0.5 ** np.arange(lad.m_levels + 1)
    assert np.all(out <= lev[:, None] + lad.tail_bound + 1e-12)
    assert ladder_supermedian_violation(lad, 0.0, H1) <= 1e-8
    v = build_excessive(A, 1.0, wb.params(1.0), n_max=6).values
    Hv = ladder_lift(v, 1.0, lad.m_levels, A=A, lam=1.0)
    assert ladder_supermedian_violation(lad, 1.0, Hv) <= 1e-8


def test_ladder_lift_separation_ratio(wb):
    # ratio of the geometric lift of 1 to the flat lift of the exploding
    # function decreases in the level and toward the boundary
    A = wb.A(1.0, "uniform")
    grid = wb.ops(1.0)["grid"]
    v = build_excessive(A, 1.0, wb.params(1.0), n_max=6).values
    num = ladder_lift(np.ones(grid.n), 0.5, 8)
    den = ladder_lift(v, 1.0, 8)
    ratio = num / den
    assert np.all(np.diff(ratio, axis=0) < 0)
    i0 = np.argmin(np.abs(grid.nodes))
    assert ratio[0, 0] < ratio[0, i0]
    assert ratio[0, -1] < ratio[0, i0]
