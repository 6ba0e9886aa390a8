import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from reflected_stable import cli_report, perturbation
from reflected_stable.geometry import Interval, IntervalUnion, build_grid, exterior_shell
from reflected_stable.killed_kernels import (GridOperator, assemble_dirichlet_generator,
                                             default_operators, exterior_nu_vector,
                                             green_operator,
                                             harmonic_kernel, heat_kernel, killing_intensity,
                                             resolvent_u)
from reflected_stable.perturbation import (ConservationError, SeriesError,
                                           build_excessive, duhamel_series,
                                           full_generator, ladder_kernel, ladder_lift,
                                           ladder_supermedian_violation,
                                           perturbation_matrix, reflected_kernel,
                                           semigroup_apply, supermedian_v,
                                           supermedian_violation)
from reflected_stable.reflection import (AtomMeasure, ConstantKernel, ProjectionKernel,
                                         UniformMeasure, default_probes)
from reflected_stable.stable_core import StableParams
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
    mcells = wb.mu("uniform").law(2.0).cell_masses(M.grid)
    assert np.abs(oracles.dense(M) - np.outer(kappa, mcells)).max() < 1e-12 * kappa.max()


def test_perturbation_matrix_dirac_single_column(wb):
    M = wb.M(1.0, "dirac")
    j0 = M.grid.cell_index(np.array([0.3]))[0]
    nz = np.flatnonzero(oracles.dense(M).sum(axis=0))
    assert np.array_equal(nz, [j0])


def test_grid_must_have_the_kernels_domain():
    # the grid side reads D off the return kernel too: operators built on
    # (-1.1, 1.1) with a kernel on (-1, 1) raise, and a grid on an equal but
    # distinct (-1, 1) runs
    p = StableParams(1, 1.0)
    mu = ProjectionKernel(Interval(-1.0, 1.0), 0.3, 0.2)
    grid, _, _, H = default_operators(p, Interval(-1.1, 1.1), 100)
    with pytest.raises(ValueError):
        perturbation_matrix(grid, p, mu)
    with pytest.raises(ValueError):
        chain_kernel(H, mu)
    grid, _, _, H = default_operators(p, Interval(-1.0, 1.0), 100)
    assert grid.domain is not mu.domain
    assert perturbation_matrix(grid, p, mu).factors[0].shape == (100, 2)
    assert chain_kernel(H, mu).row_sums() == pytest.approx(np.ones(100), abs=1e-6)


def test_duhamel_series_requires_factors(wb):
    ops = wb.ops(1.0)
    M = wb.M(1.0, "uniform")
    bare = GridOperator(grid=M.grid, entries=oracles.dense(M), kind="perturbation")
    with pytest.raises(SeriesError):
        duhamel_series(ops["L"], bare, 0.5)
    with pytest.raises(ValueError, match="perturbation_matrix"):
        full_generator(ops["L"], bare)


@pytest.mark.parametrize("domain", [Interval(-1.0, 1.0),
                                    IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])],
                         ids=["interval", "union"])
def test_perturbation_matrix_has_one_column_per_law(domain):
    # M's rank is the number of re-entry laws: one for a constant law, whose
    # U column is the killing intensity, and one per endpoint for projection
    p = StableParams(1, 1.0)
    grid = build_grid(domain, 60)
    kappa = killing_intensity(p, domain, grid.nodes)
    for mu, r in ((ConstantKernel(domain, UniformMeasure(0.3, 0.8)), 1),
                  (ConstantKernel(domain, AtomMeasure([0.5])), 1),
                  (ProjectionKernel(domain, 0.2, 0.1), 2 * len(domain.intervals))):
        U, V = perturbation_matrix(grid, p, mu).factors
        assert U.shape[1] == V.shape[1] == r
        if r == 1:
            assert np.array_equal(U[:, 0], kappa)


def test_one_cell_grid_builds_operators_and_series(wb):
    # on one cell every jump out returns to it, so the reflection count is
    # Poisson with the killing intensity at the node as its rate
    p, D = wb.params(1.0), wb.domain
    grid = build_grid(D, 1)
    L = assemble_dirichlet_generator(grid, p)
    kappa = killing_intensity(p, D, grid.nodes)
    for mu in (ProjectionKernel(D, 0.2, 0.1),
               ConstantKernel(D, UniformMeasure(-0.5, 0.5))):
        M = perturbation_matrix(grid, p, mu)
        assert oracles.dense(M)[0, 0] == pytest.approx(kappa[0], rel=1e-13)
        C = chain_kernel(harmonic_kernel(green_operator(L), p), mu)
        assert oracles.dense(C)[0, 0] == pytest.approx(1.0, rel=1e-12)
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
    cases.append((UNION, ProjectionKernel(UNION, 0.2, 0.1)))
    for domain, mu in cases:
        grid = build_grid(domain, 120)
        L = assemble_dirichlet_generator(grid, params)
        M = perturbation_matrix(grid, params, mu)
        U, V = M.factors
        assert np.abs(U.sum(axis=1) - killing_intensity(params, domain, grid.nodes)).max() \
            <= 1e-12 * U.max()
        for t in (0.1, 2.0):
            levels = duhamel_series(L, M, t).levels()
            exact = oracles.series_levels_by_block_expm(L.entries, oracles.dense(M), t, 5)
            for n in range(5):
                gap = np.abs(levels[n] - exact[n]).max()
                assert gap <= 1e-10, (domain, type(mu).__name__, t, n, gap)


SERIES_LAWS = {
    "constant-uniform": lambda d: ConstantKernel(d, UniformMeasure(0.3, 0.8)),
    "projection": lambda d: ProjectionKernel(d, 0.2, 0.1),
    "dirac": lambda d: ConstantKernel(d, AtomMeasure([0.3])),
}


@pytest.mark.parametrize("domain", [Interval(-1.0, 1.0), UNION], ids=["interval", "union"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_streamed_series_equals_the_level_list(alpha, domain):
    # the running sum, the masses and N against the list of every level, and
    # the replayed levels against that list, float for float
    params = StableParams(1, alpha)
    grid = build_grid(domain, 400)
    L = assemble_dirichlet_generator(grid, params)
    for family, law in SERIES_LAWS.items():
        M = perturbation_matrix(grid, params, law(domain))
        for t in (0.1, 2.0):
            case = (family, t)
            ser = duhamel_series(L, M, t)
            terms = oracles.duhamel_terms(L, M, t)
            assert np.array_equal(ser.total, np.sum(terms, axis=0)), case
            assert np.array_equal(ser.level_masses,
                                  [term.sum(axis=1).max() for term in terms]), case
            assert ser.truncation_N == len(terms) - 1, case
            levels = ser.levels()
            assert len(levels) == len(terms), case
            for n, (level, term) in enumerate(zip(levels, terms)):
                assert np.array_equal(level, term), (case, n)


def test_series_memory_does_not_grow_with_its_levels(wb):
    # 21 levels (N = 20) stream into one sum: the build's peak stays below
    # six n x n arrays, where keeping every level would take about 2N of them
    L, M = wb.ops(1.0)["L"], wb.M(1.0, "uniform")
    tracemalloc.start()
    try:
        ser = duhamel_series(L, M, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ser.truncation_N >= 20
    assert peak < 6 * L.grid.n ** 2 * 8, peak


def test_series_level_zero_is_heat_kernel(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    P = heat_kernel(wb.ops(1.0)["L"], 0.5)
    assert np.abs(ser.levels()[0] - P.entries).max() < 1e-10


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
        assert np.abs(ser.total - expA).max() < 1e-3


def test_series_dominates_heat_kernel(wb):
    ser = wb.series(1.0, "projection", 0.5)
    P = heat_kernel(wb.ops(1.0)["L"], 0.5)
    K = reflected_kernel(ser)
    assert (K.entries - P.entries).min() > -1e-12


def test_level_chapman_kolmogorov(wb):
    # sum_m K_m(s) K_{n-m}(t) = K_n(s+t); the mixed pair (0.1, 0.5) uses
    # unrelated panel grids, so the check is a genuine cross-build test
    for (s, t) in ((0.1, 0.1), (0.1, 0.5), (0.5, 0.5)):
        la, lb, lab = (wb.series(1.0, "uniform", u).levels() for u in (s, t, s + t))
        for n in range(5):
            acc = sum(la[m] @ lb[n - m]
                      for m in range(n + 1)
                      if m < len(la) and n - m < len(lb))
            assert np.abs(acc - lab[n]).max() < 1e-4, (s, t, n)


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
    assert np.abs(ser.levels()[1].sum(axis=1) - oracle_mass).max() < 1e-4


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
    lhs = sum(level.sum(axis=1) for level in ser.levels()[1:])
    rhs = 1.0 - P.row_sums()
    assert (lhs - rhs).max() < 1e-6


def test_series_rejects_bad_inputs(wb):
    ops = wb.ops(1.0)
    M = wb.M(1.0, "uniform")
    for t in (-0.5, 0.0):
        with pytest.raises(ValueError):
            duhamel_series(ops["L"], M, t)
    # the CLI's no-decay-in-128-levels row: at t = 50, with re-entry 0.01
    # inside the boundary, the level masses are still above 1e-6 at the cap
    p = StableParams(1, 1.9)
    dom = IntervalUnion([[0.0, 0.1], [0.2, 5.0]])
    grid = build_grid(dom, 16)
    M = perturbation_matrix(grid, p, ProjectionKernel(dom, 0.01, 0.01))
    with pytest.raises(SeriesError, match="128 levels"):
        duhamel_series(assemble_dirichlet_generator(grid, p), M, 50.0)


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
    broken = dataclasses.replace(ser, total=0.9 * ser.total)
    with pytest.raises(ConservationError) as exc:
        reflected_kernel(broken)
    assert "row_sum_min" in exc.value.report


def test_library_and_cli_share_one_conservation_rule(wb, tmp_path, monkeypatch):
    # every row 5e-4 short of 1 beside a tail bound of 1e-3: the tail buys no
    # slack, so reflected_kernel and the CLI's conservation check both fail it
    ser = wb.series(1.0, "uniform", 0.5)
    short = dataclasses.replace(
        ser, total=ser.total * ((1.0 - 5e-4) / ser.total.sum(axis=1))[:, None], tail_bound=1e-3)
    with pytest.raises(ConservationError) as exc:
        reflected_kernel(short)
    assert exc.value.report["defect"] == pytest.approx(5e-4)
    monkeypatch.setattr(cli_report, "duhamel_series", lambda L, M, t: short)
    code, manifest = cli_report.run(cli_report.parse_config(dict(
        cli_report.default_config(), kind="semigroup-check", t_list=[0.5],
        out_dir=str(tmp_path))))
    check, = [c for c in manifest["checks"] if c["name"] == "conservation-t0.5"]
    assert code == 1 and not check["passed"]
    assert check["value"] == exc.value.report["defect"]


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
    # level-constant function recovers the flat kernel at level 0
    f = np.cos(ser.L.grid.nodes)
    F = np.tile(f, (lad.m_levels + 1, 1))
    out = lad.apply(F)
    target = ser.total @ f
    assert np.abs(out[0] - target).max() < 1e-6 + lad.series.tail_bound * np.abs(f).max()


def test_ladder_kernel_total_mass_with_tail(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    lad = ladder_kernel(ser, m_levels=ser.truncation_N + 3)
    # row m of apply(1) is the mass carried from level m, over every reachable level
    masses = lad.apply(np.ones((lad.m_levels + 1, ser.L.grid.n)))
    for mass in masses[:3]:
        assert mass.max() <= 1.0 + 1e-6
        assert mass.min() >= 1.0 - 1e-6 - lad.series.tail_bound
    # the law of the reflection count from (0, node i) carries level 0's mass
    for i in (0, 137, ser.L.grid.n - 1):
        assert abs(lad.counts_law(i).sum() - masses[0][i]) <= 1e-12


def test_ladder_kernel_rejects_small_m(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    with pytest.raises(ValueError):
        ladder_kernel(ser, m_levels=ser.truncation_N - 1)


def test_supermedian_v_dominates_and_bounds(wb):
    ops = wb.ops(1.0)
    A = wb.A(1.0, "uniform")
    mu = wb.mu("uniform")
    for lam in (0.1, 1.0):
        u = resolvent_u(ops["L"], lam, 1.0)
        v = supermedian_v(A, lam, 1.0)
        assert (v - u).min() > -1e-12
        probes = default_probes(wb.domain)
        eps = 1.0 - max(mu.law(z).cell_masses(ops["grid"]) @ u for z in probes)
        assert eps > 0
        assert v.max() <= 1.0 / eps


def test_supermedian_v_identity(wb):
    # v = u + (lam - A)^{-1} M u, the discrete resolvent identity
    ops = wb.ops(1.0)
    A = wb.A(1.0, "projection")
    M = wb.M(1.0, "projection")
    lam = 0.1
    u = resolvent_u(ops["L"], lam, 1.0)
    v = supermedian_v(A, lam, 1.0)
    rhs = u + scipy.linalg.solve(lam * np.eye(ops["grid"].n) - A.entries,
                                 oracles.dense(M) @ u)
    assert np.abs(v - rhs).max() < 1e-8


def test_supermedian_inequality(wb):
    A = wb.A(1.0, "uniform")
    for lam in (0.1, 1.0):
        v = supermedian_v(A, lam, 1.0)
        assert supermedian_violation(A, lam, v) <= 1e-8


SUPERMEDIAN_TIMES = (0.1, 1.0, 10.0)
GATE_INTERVAL = Interval(-1.0, 1.0)
GATE_UNION = IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])
GATE_LAWS = {
    "interval-uniform": (GATE_INTERVAL, lambda d: ConstantKernel(
        d, UniformMeasure(-0.5, 0.5))),
    "interval-projection": (GATE_INTERVAL, lambda d: ProjectionKernel(d, 0.2, 0.1)),
    "interval-dirac": (GATE_INTERVAL, lambda d: ConstantKernel(d, AtomMeasure([0.3]))),
    "union-projection": (GATE_UNION, lambda d: ProjectionKernel(d, 0.2, 0.1)),
}


def gate_generator(alpha, case, n_cells):
    """Full generator of one gate case."""
    domain, law = GATE_LAWS[case]
    params = StableParams(1, alpha)
    grid = build_grid(domain, n_cells)
    return full_generator(assemble_dirichlet_generator(grid, params),
                          perturbation_matrix(grid, params, law(domain)))


def gate_case(alpha, case, n_cells):
    """Full generator of one gate case and the boundary-exploding h = build_excessive(A, 1)."""
    A = gate_generator(alpha, case, n_cells)
    return A, build_excessive(A, 1.0).values


@pytest.mark.parametrize("case", sorted(GATE_LAWS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_semigroup_apply_matches_expm(alpha, case):
    # exp(tA) h on the Talbot contour against the dense exponential, and the
    # supermedian check against its expm oracle
    A, h = gate_case(alpha, case, 400)
    for t in SUPERMEDIAN_TIMES:
        exact = scipy.linalg.expm(t * A.entries) @ h
        assert np.abs(semigroup_apply(A, h, t) - exact).max() <= 1e-10 * np.abs(exact).max()
    for lam in (0.1, 1.0):
        viol = supermedian_violation(A, lam, h)
        ref = oracles.supermedian_violation_expm(A.entries, lam, h, SUPERMEDIAN_TIMES)
        assert abs(viol - ref) <= 1e-10


def lu_discounted_solver(A, lam):
    """The dense-LU route of ``perturbation._discounted_solver``."""
    solve = oracles.discounted_solver_lu(A.entries, lam)
    return lambda g: solve(exterior_nu_vector(A.parts[0].params, A.grid, g))


@pytest.mark.parametrize("case", sorted(GATE_LAWS))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_discounted_solve_matches_lu(alpha, case, monkeypatch):
    # the Woodbury resolvent at the real node lam against a dense LU of
    # lam - A: v to 1e-10 and the same shell radii from build_excessive
    A = gate_generator(alpha, case, 400)
    for lam in (0.1, 1.0):
        ref = lu_discounted_solver(A, lam)(1.0)
        assert np.abs(supermedian_v(A, lam, 1.0) - ref).max() <= 1e-10 * np.abs(ref).max()
        radii = build_excessive(A, lam).radii
        with monkeypatch.context() as patch:
            patch.setattr(perturbation, "_discounted_solver", lu_discounted_solver)
            assert np.array_equal(build_excessive(A, lam).radii, radii)


def test_discounted_solves_read_the_process_from_the_generator():
    # two processes on one grid: each solve integrates the payoff against the jump
    # kernel of the generator it is given, matching a dense solve with that
    # generator's own exterior vector
    grid = build_grid(GATE_INTERVAL, 200)
    mu = ConstantKernel(GATE_INTERVAL, UniformMeasure(-0.5, 0.5))
    shell = exterior_shell(GATE_INTERVAL, 0.1)
    eye = np.eye(grid.n)

    def close(x, ref):
        return np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()

    for alpha in (0.5, 1.5):
        params = StableParams(1, alpha)
        L = assemble_dirichlet_generator(grid, params)
        A = full_generator(L, perturbation_matrix(grid, params, mu))
        assert A.parts[0].params is params
        b = exterior_nu_vector(params, grid, shell)
        assert close(resolvent_u(L, 1.0, shell), np.linalg.solve(eye - L.entries, b))
        assert close(supermedian_v(A, 1.0, shell), np.linalg.solve(eye - A.entries, b))
        exc = build_excessive(A, 1.0)
        for r, summand in zip(exc.radii, exc.summands):
            b = exterior_nu_vector(params, grid, exterior_shell(GATE_INTERVAL, r))
            assert close(summand, np.linalg.solve(eye - A.entries, b)), (alpha, r)


def test_semigroup_apply_converged_in_the_node_count(monkeypatch):
    # at 1600 cells and alpha = 1.5, expm itself is about 5e-10 off, so the
    # reference is the same contour with 32 nodes
    A, h = gate_case(1.5, "interval-uniform", 1600)
    ours = [semigroup_apply(A, h, t) for t in SUPERMEDIAN_TIMES]
    monkeypatch.setattr(perturbation, "_TALBOT_NODES", 32)
    for t, mine in zip(SUPERMEDIAN_TIMES, ours):
        ref = semigroup_apply(A, h, t)
        assert not np.array_equal(mine, ref)    # the 32 nodes were used
        assert np.abs(mine - ref).max() <= 1e-10 * np.abs(ref).max()


def test_semigroup_apply_needs_the_parts_of_full_generator(wb):
    A = wb.A(1.0, "uniform")
    h = np.ones(A.grid.n)
    assert not A.entries.flags.writeable
    for bad in (GridOperator(grid=A.grid, entries=A.entries, kind="full-generator"),
                dataclasses.replace(A, entries=A.entries.copy())):
        with pytest.raises(ValueError, match="full_generator"):
            supermedian_violation(bad, 1.0, h)
        with pytest.raises(ValueError, match="full_generator"):
            supermedian_v(bad, 1.0, 1.0)
    with pytest.raises(ValueError, match="time"):
        semigroup_apply(A, h, 0.0)


def test_supermedian_v_with_shell_payoff(wb):
    A = wb.A(1.0, "uniform")
    sh = exterior_shell(wb.domain, 0.25)
    v = supermedian_v(A, 0.5, sh)
    u = resolvent_u(wb.ops(1.0)["L"], 0.5, sh)
    assert (v - u).min() > -1e-12
    with pytest.raises(ValueError):
        supermedian_v(A, 0.0, sh)


def test_build_excessive_structure(wb):
    A = wb.A(1.0, "uniform")
    exc = build_excessive(A, 1.0)
    grid = wb.ops(1.0)["grid"]
    assert np.all(np.diff(exc.radii) <= 0)
    assert exc.values.min() > 0
    i0 = np.argmin(np.abs(grid.nodes))
    assert exc.values[0] > 2.0 * exc.values[i0]
    assert exc.values[-1] > 2.0 * exc.values[i0]
    assert supermedian_violation(A, 1.0, exc.values) <= 1e-8
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
    # summands 0-3 of the six-shell construction: the bisection for shell k
    # does not look at later shells
    e4 = build_excessive(A4, 1.0)
    e8 = build_excessive(A8, 1.0)
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
    e4 = build_excessive(A4, 1.0)
    e8 = build_excessive(A8, 1.0)
    g4, g8 = wb.ops(1.0, 400)["grid"], wb.ops(1.0, 800)["grid"]
    r4 = e4.values[0] / e4.values[np.argmin(np.abs(g4.nodes))]
    r8 = e8.values[0] / e8.values[np.argmin(np.abs(g8.nodes))]
    assert r8 > r4 > 2.0


def test_build_excessive_floor_error(wb):
    # the CLI's shell-below-floor row: at lambda = 1e-6 even the shell at the
    # 1e-9 * diam floor pays more than its level's target
    A = wb.A(1.0, "uniform")
    with pytest.raises(SeriesError, match="resolution floor"):
        build_excessive(A, 1e-6)


def test_ladder_lift_checks_input(wb):
    A = wb.A(1.0, "uniform")
    ones = np.ones(wb.ops(1.0)["grid"].n)
    assert supermedian_violation(A, 0.0, ones) <= 1e-8
    lifted = ladder_lift(ones, 0.5, 10)
    assert np.allclose(lifted[3], 0.125)
    with pytest.raises(ValueError):
        ladder_lift(ones, 1.5, 10)
    bad = np.linspace(0.0, 1.0, len(ones))  # not supermedian: mass flows up
    assert supermedian_violation(A, 0.0, bad) > 1e-8


def test_ladder_lift_supermedian_on_ladder(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    lad = ladder_kernel(ser, m_levels=max(20, ser.truncation_N))
    A = wb.A(1.0, "uniform")
    ones = np.ones(ser.L.grid.n)
    # alpha=1/2 halves each level: the ladder image stays below 2^-m
    H1 = ladder_lift(ones, 0.5, lad.m_levels)
    out = lad.apply(H1)
    lev = 0.5 ** np.arange(lad.m_levels + 1)
    assert np.all(out <= lev[:, None] + lad.series.tail_bound + 1e-12)
    assert ladder_supermedian_violation(lad, 0.0, H1) <= 1e-8
    v = build_excessive(A, 1.0).values
    assert supermedian_violation(A, 1.0, v) <= 1e-8
    Hv = ladder_lift(v, 1.0, lad.m_levels)
    assert ladder_supermedian_violation(lad, 1.0, Hv) <= 1e-8


def test_ladder_lift_separation_ratio(wb):
    # ratio of the geometric lift of 1 to the flat lift of the exploding
    # function decreases in the level and toward the boundary
    A = wb.A(1.0, "uniform")
    grid = wb.ops(1.0)["grid"]
    v = build_excessive(A, 1.0).values
    num = ladder_lift(np.ones(grid.n), 0.5, 8)
    den = ladder_lift(v, 1.0, 8)
    ratio = num / den
    assert np.all(np.diff(ratio, axis=0) < 0)
    i0 = np.argmin(np.abs(grid.nodes))
    assert ratio[0, 0] < ratio[0, i0]
    assert ratio[0, -1] < ratio[0, i0]
