import numpy as np
import pytest
from scipy import stats

from reflected_stable.geometry import IntervalUnion, Region1D, build_grid
from reflected_stable.killed_kernels import (assemble_dirichlet_generator,
                                             default_operators, green_operator,
                                             harmonic_kernel, heat_kernel)
from reflected_stable.pathsim import (excursion_statistics, reflection_chain,
                                      sample_first_exit, simulate_ensemble,
                                      simulate_ensemble_blocks,
                                      simulate_killed_excursion, simulate_ladder,
                                      stream, walk_on_spheres_exit)
from reflected_stable.reflection import (UniformMeasure, make_constant_kernel,
                                         make_projection_kernel)
from reflected_stable.stationary import (chain_kernel, kappa_closed_form, stationary_p,
                                         total_variation)
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
    assert not wb.domain.contains(exc.exit_point)
    assert wb.domain.contains(exc.pre_exit)
    assert exc.duration == pytest.approx(exc.n_steps * 1e-3)
    assert len(exc.positions) == exc.n_steps + 1
    assert np.all(wb.domain.contains(exc.positions[:-1]))
    with pytest.raises(ValueError):
        simulate_killed_excursion(p, wb.domain, 1.5, 1e-3, rng)


def test_killed_excursion_chunk_invariance(wb):
    # same stream, same draws, same excursion
    p = wb.params(1.0)
    a = simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, stream(9, 1))
    c = simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, stream(9, 1))
    assert a.exit_point == c.exit_point and a.duration == c.duration


def test_mean_exit_time_jump_euler(wb):
    p = wb.params(1.0)
    et, _, _ = sample_first_exit(p, wb.domain, 0.0, 1e-3, 42, 2 * 10 ** 4)
    se = et.std() / np.sqrt(len(et))
    assert et.mean() == pytest.approx(1.0, abs=3 * se + 0.02)


def test_exact_mode_exit_matches_poisson_kernel(wb):
    # exact exits from the center reproduce the closed-form exit law
    p = wb.params(1.0)
    rng = stream(31, 2)
    z = np.array([walk_on_spheres_exit(p, wb.domain, 0.0, rng, size=1)[0]
                  for _ in range(4000)])
    tail = np.mean(np.abs(z) > 2.0)
    assert tail == pytest.approx(1.0 / 3.0, abs=4 * np.sqrt(2.0 / 9.0 / len(z)))


FIRST_EXIT_CASES = {
    "a0.5": (0.5, "interval", 0.0),
    "a1": (1.0, "interval", 0.0),
    "a1.5": (1.5, "interval", 0.0),
    "a1-union": (1.0, "union", 0.5),
    "a1-d2-ball": (1.0, "ball", np.zeros(2)),
}


@pytest.mark.parametrize("case", list(FIRST_EXIT_CASES))
def test_chunked_first_exit_matches_per_step_reference(wb, case):
    # the chunked sampler against the one-step-at-a-time loop: the same
    # exit laws (two-sample KS on times and exit points), and the
    # structural invariants of every sampled path
    from reflected_stable.geometry import Ball
    alpha, kind, start = FIRST_EXIT_CASES[case]
    domain = {"interval": wb.domain, "union": IntervalUnion([[-1.0, -0.2], [0.1, 1.0]]),
              "ball": Ball([0.0, 0.0], 1.0)}[kind]
    p = StableParams(np.ndim(start) + 1, alpha)
    seed = 4100 + list(FIRST_EXIT_CASES).index(case)
    dt, n = 1e-3, 10 ** 4
    et, pre, ex = sample_first_exit(p, domain, start, dt, seed, n)
    et_ref, _, ex_ref = oracles.first_exit_per_step(p, domain, start, dt,
                                                    stream(seed, 1), n)
    assert not np.any(domain.contains(ex))
    assert np.all(domain.contains(pre))
    steps = et / dt
    assert np.all(steps >= 1) and np.allclose(steps, np.round(steps), rtol=0, atol=1e-6)
    if p.d == 1:
        points, points_ref = np.clip(ex, -10, 10), np.clip(ex_ref, -10, 10)
    else:
        points, points_ref = (np.minimum(np.linalg.norm(z, axis=1), 10) for z in (ex, ex_ref))
    assert stats.ks_2samp(et, et_ref).pvalue > 0.001
    assert stats.ks_2samp(points, points_ref).pvalue > 0.001


def test_single_path_first_exit_is_the_killed_excursion(wb):
    # one path steps in 1024-step chunks from the stream keyed
    # (seed, 0xF1, 0), exactly as an excursion drawn from that stream
    p = wb.params(1.0)
    n_steps = []
    for seed in range(16):
        et, pre, ex = sample_first_exit(p, wb.domain, 0.3, 1e-3, seed, 1)
        exc = simulate_killed_excursion(p, wb.domain, 0.3, 1e-3, stream(seed, 0xF1, 0))
        assert (et[0], pre[0], ex[0]) == (exc.duration, exc.pre_exit, exc.exit_point)
        n_steps.append(exc.n_steps)
    assert max(n_steps) > 1024     # some exits come after the first chunk


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
    path = simulate_ladder(p, wb.domain, mu, 0.0, 30.0, 1e-3, seed=8, n_paths=1)[0]
    assert path.validate(wb.domain)
    assert path.count_at(0.0) == 0
    counts = [path.count_at(t) for t in np.linspace(0.0, 30.0, 50)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert len(path.tau) > 10
    with pytest.raises(ValueError):
        simulate_ladder(p, wb.domain, mu, 1.5, 1.0, 1e-3, seed=8, n_paths=2)
    with pytest.raises(ValueError):
        simulate_ensemble(p, wb.domain, mu, UniformMeasure(0.5, 1.5), 1.0, 1e-3, 8, 20)


def test_ladder_validate_raises_on_corrupted_paths(wb):
    import dataclasses
    path = simulate_ladder(wb.params(1.0), wb.domain, wb.mu("uniform"), 0.0, 10.0, 1e-3,
                           seed=8, n_paths=2)[1]
    assert len(path.tau) > 3
    assert path.validate(wb.domain)
    first = np.arange(len(path.tau)) == 0
    corrupt = [
        dict(tau=path.tau[::-1]),
        dict(tau=np.where(np.arange(len(path.tau)) == 1, np.inf, path.tau)),
        dict(R=path.R[:-1]),
        dict(R=np.where(first, 5.0, path.R)),
        dict(exit_point=np.where(first, 0.0, path.exit_point)),
        dict(pre_exit=np.where(first, 5.0, path.pre_exit)),
        dict(pre_exit=path.pre_exit[:-1]),
    ]
    for change in corrupt:
        with pytest.raises(ValueError):
            dataclasses.replace(path, **change).validate(wb.domain)


def test_ladder_reproducibility(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    a = simulate_ladder(p, wb.domain, mu, 0.1, 10.0, 1e-3, seed=4, n_paths=9)
    b = simulate_ladder(p, wb.domain, mu, 0.1, 10.0, 1e-3, seed=4, n_paths=9)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.tau, pb.tau) and np.array_equal(pa.R, pb.R)
    assert not np.array_equal(a[7].tau, a[8].tau)


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
        r1 = mu.sample(exc.exit_point, rng, size=1)[0]
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
    paths = simulate_ladder(p, wb.domain, mu, m, 8.0, 1e-3, seed=2000, n_paths=1200)
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
        exc = simulate_killed_excursion(p, wb.domain, m.sample(rng, size=1)[0], 1e-3,
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
    assert np.array_equal(a.offsets, b.offsets)
    for name in ("tau", "pre_exit", "exit_point", "entry"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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


UNION = IntervalUnion([[-1.0, -0.2], [0.1, 1.0]])
_union_ops = {}


def _ergodic_case(wb, alpha, mu_name):
    """(params, domain, return kernel, start law, grid, closed-form kappa)."""
    if mu_name == "union-projection":
        if not _union_ops:
            p = StableParams(1, 1.0)
            _union_ops.update(zip(("grid", "L", "G", "H"), default_operators(p, UNION, 400)))
        ops, domain = _union_ops, UNION
        mu, start = make_projection_kernel(UNION, 0.2, 0.1), UniformMeasure(0.3, 0.8)
    else:
        ops, domain, mu = wb.ops(alpha), wb.domain, wb.mu(mu_name)
        start = mu.m if hasattr(mu, "m") else UniformMeasure(-0.5, 0.5)
    k_cf = kappa_closed_form(stationary_p(chain_kernel(ops["H"], mu)), ops["G"])
    return StableParams(1, alpha), domain, mu, start, ops["grid"], k_cf


@pytest.mark.parametrize("alpha, mu_name", [
    (a, m) for a in (0.5, 1.0, 1.5) for m in ("uniform", "dirac", "projection")
] + [(1.0, "union-projection")])
def test_chunked_ensemble_occupation_matches_closed_form(wb, alpha, mu_name):
    # the lockstep ensemble's time average against the closed-form
    # stationary density, on 20 merged bins, within the CLI's tolerance
    p, domain, mu, start, grid, k_cf = _ergodic_case(wb, alpha, mu_name)
    ens = simulate_ensemble_blocks(p, domain, mu, start, 100.0, 1e-3, 2026, 200,
                                   grid=grid, burn_in=2.0)
    groups = np.array_split(np.arange(grid.n), 20)
    emp = np.array([ens.occupancy[g].sum() for g in groups])
    ref = np.array([k_cf.masses[g].sum() for g in groups])
    assert emp.sum() == pytest.approx(1.0, abs=1e-12)
    assert total_variation(emp, ref) <= 0.06


def test_chunked_ensemble_invariants(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    grid = wb.ops(1.0)["grid"]
    dt, n = 1e-3, 200
    chunk = 1024    # steps per chunk for 200 paths
    edge1, edge2 = chunk * dt, 2 * chunk * dt
    marks = [0.5, edge1, edge2, 3.0]
    ens = simulate_ensemble(p, wb.domain, mu, 0.2, 3.0, dt, 31, n, t_marks=marks,
                            grid=grid, burn_in=0.7)
    assert np.array_equal(ens.counts_at_marks[:, -1], ens.total_reflections)
    assert np.all(np.diff(ens.counts_at_marks, axis=1) >= 0)
    assert ens.total_reflections.mean() > 1.0
    assert ens.occupancy.sum() == pytest.approx(1.0, abs=1e-12)
    done = ens.total_reflections > 0
    assert np.all(np.isnan(ens.first_exit_time[~done]))
    assert not np.any(wb.domain.contains(ens.first_exit_point[done]))
    assert np.all(wb.domain.contains(ens.first_pre_exit[done]))
    assert np.all(wb.domain.contains(ens.first_entry[done]))
    steps = ens.first_exit_time[done] / dt
    assert np.allclose(steps, np.round(steps), rtol=0, atol=1e-6)
    assert np.all((steps >= 1) & (steps <= 3000.5))
    # horizons of whole chunks replay the same draws, so their totals are
    # the counts at the chunk-edge marks of the longer run
    for k, edge in ((1, edge1), (2, edge2)):
        short = simulate_ensemble(p, wb.domain, mu, 0.2, edge, dt, 31, n)
        assert np.array_equal(short.total_reflections, ens.counts_at_marks[:, k])
        hit = short.total_reflections > 0
        assert np.array_equal(short.first_entry[hit], ens.first_entry[hit])


def test_chunked_ensemble_marks_every_step(wb):
    # 2**14 paths make 64-step chunks; with a mark at every step, each
    # path's count first turns positive at its first exit step
    dt, n, n_steps = 1e-3, 2 ** 14, 150
    marks = dt * np.arange(1, n_steps + 1)
    ens = simulate_ensemble(wb.params(1.0), wb.domain, wb.mu("projection"), 0.8,
                            n_steps * dt, dt, 41, n, t_marks=marks)
    counts = ens.counts_at_marks
    assert np.array_equal(counts[:, -1], ens.total_reflections)
    assert np.all(np.diff(counts, axis=1) >= 0)
    done = ens.total_reflections > 0
    first_step = np.argmax(counts[done] > 0, axis=1) + 1
    assert np.array_equal(first_step, np.round(ens.first_exit_time[done] / dt))
    assert np.any(first_step == 64) and np.any(first_step == 65)


def test_ensemble_rejects_marks_past_the_horizon(wb):
    # a mark past the horizon has no count to report
    args = (wb.params(1.0), wb.domain, wb.mu("uniform"), 0.0, 2.0, 1e-3, 3, 20)
    with pytest.raises(ValueError):
        simulate_ensemble(*args, t_marks=[1.0, 5.0])
    ens = simulate_ensemble(*args, t_marks=[1.0, 2.0])
    assert np.array_equal(ens.counts_at_marks[:, 1], ens.total_reflections)


def test_chunked_ensemble_ball():
    from reflected_stable.geometry import Ball
    from reflected_stable.reflection import BallUniformMeasure
    p = StableParams(2, 1.0)
    B = Ball([0.0, 0.0], 1.0)
    mu = make_constant_kernel(B, BallUniformMeasure([0.0, 0.0], 0.5))
    ens = simulate_ensemble(p, B, mu, np.zeros(2), 2.0, 1e-3, 5, 40, t_marks=[2.0])
    done = ens.total_reflections > 0
    assert done.mean() > 0.5
    assert ens.first_exit_point.shape == (40, 2)
    assert not np.any(B.contains(ens.first_exit_point[done]))
    assert np.all(B.contains(ens.first_pre_exit[done]))
    assert np.all(np.linalg.norm(ens.first_entry[done], axis=1) < 0.5)
    assert np.array_equal(ens.counts_at_marks[:, 0], ens.total_reflections)


@pytest.mark.parametrize("alpha, sampler", [
    pytest.param(0.5, "ensemble", id="0.5"),
    pytest.param(1.0, "ensemble", id="1.0"),
    pytest.param(1.0, "first-exit", id="first-exit"),
])
def test_chunked_ensemble_memory_is_bounded(wb, alpha, sampler):
    # a chunk holds at most 2**20 positions, so 1e5 paths need no full
    # 1024-step block (about 0.8 GB per array)
    import tracemalloc
    grid = wb.ops(1.0)["grid"]
    tracemalloc.start()
    try:
        if sampler == "ensemble":
            ens = simulate_ensemble(wb.params(alpha), wb.domain, wb.mu("uniform"), 0.0,
                                    0.1, 1e-3, 17, 10 ** 5, grid=grid)
            exited = ens.total_reflections.sum() > 0
        else:
            et, _, _ = sample_first_exit(wb.params(alpha), wb.domain, 0.0, 1e-3, 17,
                                         10 ** 5)
            exited = np.all(et > 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exited
    assert peak < 64 * 2 ** 20
