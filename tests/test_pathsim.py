import numpy as np
import pytest
from scipy import stats

from reflected_stable.geometry import IntervalUnion, Region1D, build_grid
from reflected_stable.killed_kernels import (assemble_dirichlet_generator,
                                             green_operator, harmonic_kernel,
                                             heat_kernel)
from reflected_stable.pathsim import (excursion_statistics, reflection_chain,
                                      sample_first_exit, simulate_ensemble,
                                      simulate_ensemble_blocks,
                                      simulate_killed_excursion, simulate_ladder,
                                      stream, walk_on_spheres_exit)
from reflected_stable.reflection import UniformMeasure, make_constant_kernel
from reflected_stable.stationary import chain_kernel
from reflected_stable.stable_core import StableParams, ball_exit_position

import oracles


def test_stream_independence_and_determinism():
    a = stream(1, 2, 3).random(5)
    b = stream(1, 2, 3).random(5)
    c = stream(1, 2, 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_killed_excursion_records(wb):
    p = wb.params(1.0)
    rng = stream(5, 0)
    exc = simulate_killed_excursion(p, wb.domain, 0.2, 1e-3, rng, store_positions=True)
    assert exc.completed
    assert not wb.domain.contains(exc.exit_point)
    assert wb.domain.contains(exc.pre_exit)
    assert exc.duration == pytest.approx(exc.n_steps * 1e-3)
    assert len(exc.positions) == exc.n_steps + 1
    assert np.all(wb.domain.contains(exc.positions[:-1]))
    with pytest.raises(ValueError):
        simulate_killed_excursion(p, wb.domain, 1.5, 1e-3, rng)


def test_killed_excursion_chunk_invariance(wb):
    # same stream, same draws: chunking only re-bases the float summation,
    # so the trajectory agrees to roundoff and the step count exactly
    p = wb.params(1.0)
    a = simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, stream(9, 1), chunk=64)
    b = simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, stream(9, 1), chunk=4096)
    assert a.n_steps == b.n_steps
    assert a.exit_point == pytest.approx(b.exit_point, abs=1e-9)
    c = simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, stream(9, 1), chunk=64)
    assert a.exit_point == c.exit_point and a.duration == c.duration


def test_mean_exit_time_jump_euler(wb):
    p = wb.params(1.0)
    et, _, _ = sample_first_exit(p, wb.domain, 0.0, 1e-3, 42, 2 * 10 ** 4)
    se = et.std() / np.sqrt(len(et))
    assert et.mean() == pytest.approx(1.0, abs=3 * se + 0.02)


def test_exact_mode_exit_matches_poisson_kernel(wb):
    # exact-mode excursions from the center reproduce the closed-form exit law
    p = wb.params(1.0)
    rng = stream(31, 2)
    z = np.array([simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, rng,
                                            exact=True).exit_point
                  for _ in range(4000)])
    tail = np.mean(np.abs(z) > 2.0)
    assert tail == pytest.approx(1.0 / 3.0, abs=4 * np.sqrt(2.0 / 9.0 / len(z)))


def test_exact_vs_euler_exit_laws(wb):
    # the jump-Euler exit law approaches the exact one as dt shrinks
    p = wb.params(1.0)
    rng = stream(77, 3)
    z_exact = walk_on_spheres_exit(p, wb.domain, 0.0, rng, size=2 * 10 ** 4)
    edges = np.array([-np.inf, -3, -2, -1.5, -1.2, -1, 1, 1.2, 1.5, 2, 3, np.inf])
    h_exact = np.histogram(z_exact, edges)[0]
    pvals = {}
    for dt in (1e-2, 1e-3):
        _, _, z_euler = sample_first_exit(p, wb.domain, 0.0, dt, 55, 2 * 10 ** 4)
        h_euler = np.histogram(z_euler, edges)[0]
        table = np.array([h_exact, h_euler])
        table = table[:, table.sum(axis=0) > 0]  # drop the empty (-1, 1) bin
        res = stats.chi2_contingency(table)
        pvals[dt] = res.pvalue
    assert pvals[1e-3] > 0.01
    assert pvals[1e-2] > 1e-4


def test_ladder_counts_and_invariants(wb):
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    path = simulate_ladder(p, wb.domain, mu, 0.0, 30.0, 1e-3, seed=8, replica=0,
                           store_positions=True)
    assert path.validate(wb.domain)
    assert path.count_at(0.0) == 0
    counts = [path.count_at(t) for t in np.linspace(0.0, 30.0, 50)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert len(path.tau) > 10


def test_ladder_validate_raises_on_corrupted_paths(wb):
    import dataclasses
    path = simulate_ladder(wb.params(1.0), wb.domain, wb.mu("uniform"), 0.0, 10.0, 1e-3,
                           seed=8, replica=1, store_positions=True)
    assert len(path.tau) > 3
    corrupt = [
        dict(tau=path.tau[::-1]),
        dict(tau=np.where(np.arange(len(path.tau)) == 1, np.inf, path.tau)),
        dict(R=path.R[:-1]),
        dict(R=np.where(np.arange(len(path.R)) == 0, 5.0, path.R)),
    ]
    for change in corrupt:
        with pytest.raises(ValueError):
            dataclasses.replace(path, **change).validate(wb.domain)
    seg = next(s for s in path.segments if s.completed)
    for field, value in (("exit_point", 0.0), ("entry_point", 5.0)):
        bad = dataclasses.replace(path, segments=[dataclasses.replace(seg, **{field: value})])
        with pytest.raises(ValueError):
            bad.validate(wb.domain)
    moved = dataclasses.replace(seg, positions=np.append(5.0, seg.positions))
    with pytest.raises(ValueError):
        dataclasses.replace(path, segments=[moved]).validate(wb.domain)


def test_ladder_reproducibility(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    a = simulate_ladder(p, wb.domain, mu, 0.1, 10.0, 1e-3, seed=4, replica=7)
    b = simulate_ladder(p, wb.domain, mu, 0.1, 10.0, 1e-3, seed=4, replica=7)
    assert np.array_equal(a.tau, b.tau) and np.array_equal(a.R, b.R)
    c = simulate_ladder(p, wb.domain, mu, 0.1, 10.0, 1e-3, seed=4, replica=8)
    assert not np.array_equal(a.tau, c.tau)


def test_first_entry_histogram_matches_chain_kernel(wb):
    # the first re-entry point follows the exit-then-return law
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    grid = wb.ops(1.0)["grid"]
    C = chain_kernel(wb.ops(1.0)["H"], mu)
    ens = simulate_ensemble(p, wb.domain, mu, 0.0, 6.0, 1e-3, 21, 20000)
    r1 = ens.first_entry
    # a handful of paths may not reflect within the horizon (P ~ 1e-3)
    finite = np.isfinite(r1)
    assert (~finite).mean() < 5e-3
    r1 = r1[finite]
    i0 = np.argmin(np.abs(grid.nodes))
    law = C.entries[i0]
    # bin the grid cells into 20 groups for the chi2
    groups = np.array_split(np.arange(grid.n), 20)
    probs = np.array([law[g].sum() for g in groups])
    idx = grid.cell_index(r1)
    cell_counts = np.bincount(idx, minlength=grid.n)
    obs = np.array([cell_counts[g].sum() for g in groups], dtype=float)
    obs_m, exp_m = oracles.chi2_merge(obs, probs)
    assert stats.chisquare(obs_m, exp_m).pvalue > 0.01


def test_no_reflection_probability_matches_heat_kernel(wb):
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    ops = wb.ops(1.0)
    t = 0.5
    ens = simulate_ensemble(p, wb.domain, mu, 0.0, t, 1e-3, 13, 20000, t_marks=[t])
    emp = np.mean(ens.counts_at_marks[:, 0] == 0)
    i0 = np.argmin(np.abs(ops["grid"].nodes))
    target = heat_kernel(ops["L"], t).row_sums()[i0]
    se = np.sqrt(target * (1 - target) / ens.n_paths)
    assert emp == pytest.approx(target, abs=3 * se + 0.01)


def test_pre_reflection_joint_law(wb):
    # P(X_t in A, no reflection by t, first re-entry in B) against the
    # kernel factorization: heat kernel into A, then exit-and-return into B
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    ops = wb.ops(1.0)
    grid = ops["grid"]
    t = 0.2
    sp = oracles.SpectralHeat(ops["L"].entries)
    i0 = np.argmin(np.abs(grid.nodes))
    pt_row = sp.at(t)[i0]
    C = chain_kernel(ops["H"], mu)
    in_a = (grid.nodes >= -0.5) & (grid.nodes <= 0.0)
    in_b = (grid.nodes >= 0.0) & (grid.nodes <= 0.5)
    target = float(pt_row[in_a] @ C.entries[np.ix_(in_a, in_b)].sum(axis=1))
    n = 10 ** 4
    k = int(round(t / 1e-3))
    hits = 0
    rng = stream(777, 0)
    for _ in range(n):
        exc = simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, rng,
                                        store_positions=True)
        if exc.n_steps <= k:
            continue
        r1 = mu.sample(exc.exit_point, rng)
        if -0.5 <= exc.positions[k] <= 0.0 and 0.0 <= r1 <= 0.5:
            hits += 1
    emp = hits / n
    se = np.sqrt(target * (1 - target) / n)
    assert emp == pytest.approx(target, abs=3 * se + 0.01)


def test_reflection_chain_constant_mu_exact(wb):
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    rng = stream(12, 0)
    chains = reflection_chain(p, wb.domain, mu, 0.9, 4, rng, size=5000)
    # every step is an independent uniform draw on (-0.5, 0.5)
    for k in range(4):
        ks = stats.kstest(chains[:, k], stats.uniform(loc=-0.5, scale=1.0).cdf)
        assert ks.pvalue > 0.005
    mu_d = wb.mu("dirac")
    chains_d = reflection_chain(p, wb.domain, mu_d, 0.9, 3, rng, size=100)
    assert np.all(chains_d == 0.3)


def test_reflection_chain_matches_matrix_power(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    ops = wb.ops(1.0)
    grid = ops["grid"]
    C = chain_kernel(ops["H"], mu)
    rng = stream(2024, 5)
    x0 = 0.25
    chains = reflection_chain(p, wb.domain, mu, x0, 3, rng, size=3 * 10 ** 4)
    law = np.zeros(grid.n)
    law[grid.cell_index(np.array([x0]))[0]] = 1.0
    for _ in range(3):
        law = law @ C.entries
    groups = np.array_split(np.arange(grid.n), 25)
    probs = np.array([law[g].sum() for g in groups])
    counts = np.bincount(grid.cell_index(chains[:, -1]), minlength=grid.n)
    obs = np.array([counts[g].sum() for g in groups], dtype=float)
    obs_m, exp_m = oracles.chi2_merge(obs, probs)
    assert stats.chisquare(obs_m, exp_m).pvalue > 0.01


def test_walk_on_spheres_interval_center_single_step(wb):
    p = wb.params(1.2)
    rng = stream(3, 3)
    z, iters = walk_on_spheres_exit(p, wb.domain, 0.0, rng, size=2000,
                                    return_iterations=True)
    # the maximal ball centered at 0 is the whole interval: many exits need
    # a single step, and all exits land outside
    assert np.all(~wb.domain.contains(z))
    assert iters.min() == 1
    one_step = z[iters == 1]
    assert len(one_step) > 0.5 * len(z)


def test_walk_on_spheres_two_component_domain():
    p = StableParams(1, 1.0)
    U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
    rng = stream(17, 1)
    z, iters = walk_on_spheres_exit(p, U, 0.6, rng, size=4 * 10 ** 4,
                                    return_iterations=True)
    assert np.all(~U.contains(z))
    assert iters.mean() > 1.0  # some walks hop into the other component
    grid = build_grid(U, 160)
    L = assemble_dirichlet_generator(grid, p)
    H = harmonic_kernel(green_operator(L), p)
    i0 = grid.cell_index(np.array([0.6]))[0]
    regs = [Region1D([(-np.inf, -1.5)]), Region1D([(-1.5, -1.0)]),
            Region1D([(-0.2, 0.0)]), Region1D([(0.0, 0.2)]),
            Region1D([(1.0, 1.2)]), Region1D([(1.2, 1.5)]), Region1D([(1.5, 2.5)]),
            Region1D([(2.5, np.inf)])]
    probs = np.array([H.mass(i0, r) for r in regs])
    obs = np.array([np.sum(r.contains(z)) for r in regs], dtype=float)
    obs_m, exp_m = oracles.chi2_merge(obs, probs / probs.sum())
    assert stats.chisquare(obs_m, f_exp=exp_m * obs_m.sum() / exp_m.sum()).pvalue > 0.01


def test_excursion_statistics_independence(wb):
    p = wb.params(1.0)
    m = UniformMeasure(-0.5, 0.5)
    mu = make_constant_kernel(wb.domain, m)
    paths = [simulate_ladder(p, wb.domain, mu, float(m.sample(stream(1000, r))),
                             8.0, 1e-3, seed=2000, replica=r)
             for r in range(1200)]
    st_ = excursion_statistics(paths)
    assert st_.n_completed > 5000
    bound = 4.0 / np.sqrt(st_.lag1_pairs)
    assert abs(st_.lag1_autocorrelation) < bound
    d1 = st_.duration_sample(1)
    d5 = st_.duration_sample(5)
    res = stats.ks_2samp(d1, d5)
    assert res.pvalue > 0.01
    with pytest.raises(ValueError):
        excursion_statistics(paths[:1], min_completed=100000)


def test_occupation_identity(wb):
    # mean time spent in [0, 0.5] before the first exit, started from the
    # uniform re-entry law, equals the Green-kernel integral
    p = wb.params(1.0)
    ops = wb.ops(1.0)
    grid = ops["grid"]
    m = UniformMeasure(-0.5, 0.5)
    rng = stream(3333, 0)
    n = 4000
    acc = 0.0
    for _ in range(n):
        exc = simulate_killed_excursion(p, wb.domain, float(m.sample(rng)), 1e-3,
                                        rng, store_positions=True)
        inside = (exc.positions[:-1] >= 0.0) & (exc.positions[:-1] <= 0.5)
        acc += inside.sum() * 1e-3
    emp = acc / n
    mcells = m.cell_masses(grid)
    target_cols = (grid.nodes >= 0.0) & (grid.nodes <= 0.5)
    target = float(mcells @ ops["G"].entries[:, target_cols].sum(axis=1))
    assert emp == pytest.approx(target, abs=3 * 0.5 / np.sqrt(n) + 0.01)


def test_ensemble_blocks_worker_invariance(wb):
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    grid = wb.ops(1.0)["grid"]
    kw = dict(t_marks=[0.5], grid=grid, burn_in=0.5)
    a = simulate_ensemble_blocks(p, wb.domain, mu, 0.0, 2.0, 1e-3, 5, 120,
                                 workers=1, **kw)
    b = simulate_ensemble_blocks(p, wb.domain, mu, 0.0, 2.0, 1e-3, 5, 120,
                                 workers=3, **kw)
    assert np.array_equal(a.counts_at_marks, b.counts_at_marks)
    assert np.array_equal(a.occupancy, b.occupancy)
    assert np.array_equal(a.first_entry, b.first_entry, equal_nan=True)


def test_d2_ball_monte_carlo():
    # d=2 ball: mean exit time from the center matches the closed form
    from reflected_stable.geometry import Ball
    from reflected_stable.stable_core import ball_mean_exit_time
    p = StableParams(2, 1.0)
    B = Ball([0.0, 0.0], 1.0)
    et, _, _ = sample_first_exit(p, B, np.zeros(2), 1e-3, 60, 10 ** 4)
    se = et.std() / np.sqrt(len(et))
    assert et.mean() == pytest.approx(ball_mean_exit_time(p, 1.0, 0.0),
                                      abs=3 * se + 0.02)
    rng = stream(61, 0)
    z = ball_exit_position(p, np.zeros(2), 1.0, np.zeros(2), rng, size=2 * 10 ** 4)
    r = np.linalg.norm(z, axis=1)
    assert r.min() > 1.0
    # radial exit law is dimension-free: 1/r^2 ~ Beta(1/2, 1/2)
    res = stats.kstest(1.0 / r ** 2, stats.beta(0.5, 0.5).cdf)
    assert res.pvalue > 0.01
