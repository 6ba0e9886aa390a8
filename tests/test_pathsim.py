import numpy as np
import pytest
from scipy import stats

from reflected_stable.geometry import Interval, IntervalUnion, Region1D, build_grid
from reflected_stable.killed_kernels import (assemble_dirichlet_generator,
                                             default_operators, green_operator,
                                             harmonic_kernel, heat_kernel)
from reflected_stable import pathsim
from reflected_stable.pathsim import (excursion_statistics, reflection_chain,
                                      renewal_occupation, sample_first_exit,
                                      simulate_ensemble, simulate_ensemble_blocks,
                                      simulate_killed_excursion, simulate_ladder,
                                      stream, walk_on_spheres_exit)
from reflected_stable.reflection import (ConstantKernel, ProjectionKernel,
                                         UniformMeasure)
from reflected_stable.stationary import (chain_kernel, kappa_closed_form, stationary_p,
                                         total_variation)
from reflected_stable.stable_core import (StableParams, ball_exit_position,
                                          ball_occupation_cdf, walk_on_spheres)

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
    exc = simulate_killed_excursion(p, wb.domain, 0.2, 1e-3, rng)
    assert not wb.domain.contains(exc.exit_point)
    assert wb.domain.contains(exc.pre_exit)
    assert exc.duration == pytest.approx(exc.n_steps * 1e-3)
    assert len(exc.positions) == exc.n_steps + 1
    assert np.all(wb.domain.contains(exc.positions[:-1]))
    with pytest.raises(ValueError):
        simulate_killed_excursion(p, wb.domain, 1.5, 1e-3, rng)
    for dt in (0.0, -1e-3):   # the increment sampler rejects the time step
        with pytest.raises(ValueError):
            simulate_killed_excursion(p, wb.domain, 0.2, dt, rng)


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
    ens = simulate_ladder(p, mu, 0.0, 30.0, 1e-3, seed=8, n_paths=1)
    assert oracles.validate_ladder(ens, wb.domain)
    assert ens.counts_at([0.0])[0, 0] == 0
    counts = ens.counts_at(np.linspace(0.0, 30.0, 50))[0]
    assert np.all(np.diff(counts) >= 0)
    assert len(ens.tau) > 10
    with pytest.raises(ValueError):
        simulate_ladder(p, mu, 1.5, 1.0, 1e-3, seed=8, n_paths=2)
    with pytest.raises(ValueError):
        simulate_ensemble(p, mu, UniformMeasure(0.5, 1.5), 1.0, 1e-3, 8, 20)


def test_ladder_validate_raises_on_corrupted_paths(wb):
    import dataclasses
    ens = simulate_ladder(wb.params(1.0), wb.mu("uniform"), 0.0, 10.0, 1e-3,
                          seed=8, n_paths=2)
    assert ens.total_reflections[1] > 3
    assert oracles.validate_ladder(ens, wb.domain)
    first = np.arange(len(ens.steps)) == 0
    last = np.arange(len(ens.steps)) == len(ens.steps) - 1
    corrupt = [
        dict(steps=ens.steps[::-1]),
        dict(steps=np.where(last, round(ens.horizon / ens.dt) + 1, ens.steps)),
        dict(dt=np.inf),
        dict(entry=ens.entry[:-1]),
        dict(entry=np.where(first, 5.0, ens.entry)),
        dict(exit_point=np.where(first, 0.0, ens.exit_point)),
        dict(pre_exit=np.where(first, 5.0, ens.pre_exit)),
        dict(pre_exit=ens.pre_exit[:-1]),
    ]
    for change in corrupt:
        with pytest.raises(ValueError):
            oracles.validate_ladder(dataclasses.replace(ens, **change), wb.domain)


def test_ladder_reproducibility(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    a = simulate_ladder(p, mu, 0.1, 10.0, 1e-3, seed=4, n_paths=9)
    b = simulate_ladder(p, mu, 0.1, 10.0, 1e-3, seed=4, n_paths=9)
    for name in ("offsets", "steps", "entry"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    tau7, tau8 = (a.tau[a.offsets[j]:a.offsets[j + 1]] for j in (7, 8))
    assert not np.array_equal(tau7, tau8)


def test_first_entry_histogram_matches_chain_kernel(wb):
    # the first re-entry point follows the exit-then-return law
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    grid = wb.ops(1.0)["grid"]
    C = chain_kernel(wb.ops(1.0)["H"], mu)
    ens = simulate_ensemble(p, mu, 0.0, 6.0, 1e-3, 21, 20000)
    r1 = oracles.first_records(ens, ens.entry)
    # a handful of paths may not reflect within the horizon (P ~ 1e-3)
    finite = np.isfinite(r1)
    assert (~finite).mean() < 5e-3
    r1 = r1[finite]
    i0 = np.argmin(np.abs(grid.nodes))
    law = oracles.dense(C)[i0]
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
    ens = simulate_ensemble(p, mu, 0.0, t, 1e-3, 13, 20000)
    emp = np.mean(ens.counts_at([t])[:, 0] == 0)
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
    target = float(pt_row[in_a] @ oracles.dense(C)[np.ix_(in_a, in_b)].sum(axis=1))
    n = 10 ** 4
    k = int(round(t / 1e-3))
    hits = 0
    rng = stream(777, 0)
    for _ in range(n):
        exc = simulate_killed_excursion(p, wb.domain, 0.0, 1e-3, rng)
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
    chains = reflection_chain(p, mu, 0.9, 4, rng, size=5000)
    # every step is an independent uniform draw on (-0.5, 0.5)
    for k in range(4):
        ks = stats.kstest(chains[:, k], stats.uniform(loc=-0.5, scale=1.0).cdf)
        assert ks.pvalue > 0.005
    mu_d = wb.mu("dirac")
    chains_d = reflection_chain(p, mu_d, 0.9, 3, rng, size=100)
    assert np.all(chains_d == 0.3)


def test_reflection_chain_rejects_bad_starts(wb):
    # walk_on_spheres_exit broadcasts the start to the chains and checks it
    p, mu, rng = wb.params(1.0), wb.mu("uniform"), stream(12, 1)
    for start in (1.5, -1.0, [0.1, 0.2]):
        with pytest.raises(ValueError):
            reflection_chain(p, mu, start, 2, rng, size=3)


def test_reflection_chain_matches_matrix_power(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    ops = wb.ops(1.0)
    grid = ops["grid"]
    C = chain_kernel(ops["H"], mu)
    rng = stream(2024, 5)
    x0 = 0.25
    chains = reflection_chain(p, mu, x0, 3, rng, size=3 * 10 ** 4)
    law = np.zeros(grid.n)
    law[grid.cell_index(np.array([x0]))[0]] = 1.0
    for _ in range(3):
        law = law @ oracles.dense(C)
    groups = np.array_split(np.arange(grid.n), 25)
    probs = np.array([law[g].sum() for g in groups])
    counts = np.bincount(grid.cell_index(chains[:, -1]), minlength=grid.n)
    obs = np.array([counts[g].sum() for g in groups], dtype=float)
    obs_m, exp_m = oracles.chi2_merge(obs, probs)
    assert stats.chisquare(obs_m, exp_m).pvalue > 0.01


def test_walk_on_spheres_interval_center_single_step(wb):
    p = wb.params(1.2)
    rng = stream(3, 3)
    z, balls = walk_on_spheres(p, wb.domain, np.full(2000, 0.0), rng)
    iters = np.bincount(np.concatenate([idx for idx, _, _ in balls]), minlength=2000)
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
    z, balls = walk_on_spheres(p, U, np.full(4 * 10 ** 4, 0.6), rng)
    iters = np.bincount(np.concatenate([idx for idx, _, _ in balls]), minlength=4 * 10 ** 4)
    assert np.all(~U.contains(z))
    assert iters.mean() > 1.0  # some walks hop into the other component
    # a 640-cell reference: at 160 cells the grid's own bias shows at 4e4 draws
    grid = build_grid(U, 640)
    L = assemble_dirichlet_generator(grid, p)
    H = harmonic_kernel(green_operator(L), p)
    i0 = grid.cell_index(np.array([0.6]))[0]
    regs = [Region1D([(-np.inf, -1.5)]), Region1D([(-1.5, -1.0)]),
            Region1D([(-0.2, 0.0)]), Region1D([(0.0, 0.2)]),
            Region1D([(1.0, 1.2)]), Region1D([(1.2, 1.5)]), Region1D([(1.5, 2.5)]),
            Region1D([(2.5, np.inf)])]
    probs = np.array([H.masses(r)[i0] for r in regs])
    obs = np.array([np.sum(r.contains(z)) for r in regs], dtype=float)
    obs_m, exp_m = oracles.chi2_merge(obs, probs / probs.sum())
    assert stats.chisquare(obs_m, f_exp=exp_m * obs_m.sum() / exp_m.sum()).pvalue > 0.01


def test_excursion_statistics_independence(wb):
    p = wb.params(1.0)
    m = UniformMeasure(-0.5, 0.5)
    mu = ConstantKernel(wb.domain, m)
    ens = simulate_ladder(p, mu, m, 8.0, 1e-3, seed=2000, n_paths=1200)
    st_ = excursion_statistics(ens)
    assert st_.n_completed > 5000
    bound = 4.0 / np.sqrt(st_.lag1_pairs)
    assert abs(st_.lag1_autocorrelation) < bound
    d1 = st_.duration_sample(1)
    d5 = st_.duration_sample(5)
    res = stats.ks_2samp(d1, d5)
    assert res.pvalue > 0.01
    with pytest.raises(ValueError):
        excursion_statistics(ens, min_completed=100000)


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
        exc = simulate_killed_excursion(p, wb.domain, m.sample(rng, size=1)[0], 1e-3, rng)
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
    kw = dict(grid=grid, burn_in=0.5)
    a = simulate_ensemble_blocks(p, mu, 0.0, 2.0, 1e-3, 5, 120,
                                 workers=1, **kw)
    b = simulate_ensemble_blocks(p, mu, 0.0, 2.0, 1e-3, 5, 120,
                                 workers=3, **kw)
    assert np.array_equal(a.counts_at([0.5]), b.counts_at([0.5]))
    assert np.array_equal(a.occupancy, b.occupancy)
    assert np.array_equal(oracles.first_records(a, a.entry), oracles.first_records(b, b.entry),
                          equal_nan=True)
    assert np.array_equal(a.offsets, b.offsets)
    for name in ("steps", "pre_exit", "exit_point", "entry"):
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
    """(params, return kernel, start law, grid, closed-form kappa)."""
    if mu_name.startswith("union-"):
        if alpha not in _union_ops:
            _union_ops[alpha] = dict(zip(("grid", "L", "G", "H"),
                                         default_operators(StableParams(1, alpha), UNION, 400)))
        ops, start = _union_ops[alpha], UniformMeasure(0.3, 0.8)
        mu = (ProjectionKernel(UNION, 0.2, 0.1) if mu_name == "union-projection"
              else ConstantKernel(UNION, start))
    else:
        ops, mu = wb.ops(alpha), wb.mu(mu_name)
        start = mu.laws[0] if len(mu.laws) == 1 else UniformMeasure(-0.5, 0.5)
    k_cf = kappa_closed_form(stationary_p(chain_kernel(ops["H"], mu)), ops["G"])
    return StableParams(1, alpha), mu, start, ops["grid"], k_cf


@pytest.mark.parametrize("alpha, mu_name", [
    (a, m) for a in (0.5, 1.0, 1.5) for m in ("uniform", "dirac", "projection")
] + [(1.0, "union-projection")])
def test_chunked_ensemble_occupation_matches_closed_form(wb, alpha, mu_name):
    # the lockstep ensemble's time average against the closed-form
    # stationary density, on 20 merged bins, within the CLI's tolerance
    p, mu, start, grid, k_cf = _ergodic_case(wb, alpha, mu_name)
    ens = simulate_ensemble_blocks(p, mu, start, 100.0, 1e-3, 2026, 200,
                                   grid=grid, burn_in=2.0)
    groups = np.array_split(np.arange(grid.n), 20)
    emp = np.array([ens.occupancy[g].sum() for g in groups])
    ref = np.array([k_cf.masses[g].sum() for g in groups])
    assert emp.sum() == pytest.approx(1.0, abs=1e-12)
    assert total_variation(emp, ref) <= 0.06


@pytest.mark.parametrize("alpha, mu_name", [
    (a, m) for a in (0.5, 1.0, 1.5)
    for m in ("uniform", "dirac", "projection", "union-uniform", "union-projection")])
def test_renewal_occupation_matches_closed_form_and_euler(wb, alpha, mu_name):
    # the renewal leg against the closed-form stationary density on the full
    # 400-cell grid, and against the Euler ensemble's time average on 20
    # merged bins, each within the CLI's triangulation tolerance of 0.06
    p, mu, start, grid, k_cf = _ergodic_case(wb, alpha, mu_name)
    occ = renewal_occupation(p, mu, start, 100.0, 2.0, 2027, 200, grid)
    assert occ.occupancy.sum() == pytest.approx(1.0, abs=1e-12)
    assert total_variation(occ.occupancy, k_cf.masses) <= 0.06
    ens = simulate_ensemble_blocks(p, mu, start, 30.0, 1e-3, 2028, 100,
                                   grid=grid, burn_in=2.0)
    groups = np.array_split(np.arange(grid.n), 20)
    renewal = np.array([occ.occupancy[g].sum() for g in groups])
    euler = np.array([ens.occupancy[g].sum() for g in groups])
    assert total_variation(renewal, euler) <= 0.06


def test_renewal_walk_past_the_cap_raises(wb, monkeypatch):
    # a walk of more balls than walk_on_spheres allows raises, as it does
    # there; with a cap of one ball, the first walk that stays in D does
    p, mu, start, grid, _ = _ergodic_case(wb, 1.0, "uniform")
    monkeypatch.setattr(pathsim, "_MAX_WOS_ITER", 1)
    with pytest.raises(RuntimeError, match="iteration cap"):
        renewal_occupation(p, mu, start, 10.0, 2.0, 2027, 20, grid)


def _deposited(params, grid, centre, radius, weight):
    """The renewal leg's cell masses of the given balls, and its deposit."""
    occ = pathsim._BallOccupation(params, grid)
    occ.add(np.asarray(centre, float), np.asarray(radius, float), np.asarray(weight, float))
    return occ.masses(), occ


def _interpolant(occ, v):
    """P, the deposit's interpolant of the occupation CDF: 0 left of -1, 1 from 1 on."""
    j = np.clip(np.searchsorted(occ.knots, v, side="right") - 1, 0, len(occ.knots) - 2)
    s = np.clip((v - occ.knots[j]) * occ.inv_width[j], 0.0, 1.0)
    return occ.phi[j] + s * (occ.b[j] + s * occ.c[j])


def _interpolant_masses(occ, grid, c, r, w):
    """w (P(v(e')) - P(v(e))) on every cell [e, e'], v(e) = (e - c) / r."""
    return w * (_interpolant(occ, (grid.cells[:, 1] - c) / r)
                - _interpolant(occ, (grid.cells[:, 0] - c) / r))


@pytest.mark.parametrize("alpha, largest, mean", [(0.05, 3e-2, 7e-4), (0.25, 6e-3, 2e-4),
                                                 (0.5, 1.5e-3, 8e-5), (1.0, 6e-4, 3e-5),
                                                 (1.5, 4e-5, 1e-5)])
def test_ball_interpolant_tracks_the_occupation_cdf(alpha, largest, mean):
    # the piecewise quadratic through the 25 graded knots meets the CDF
    # there, and at the segment midpoints from alpha = 0.5 on (below, some
    # segments take the nearest rising quadratic). It rises on every segment
    # and stays within its interpolation error of the CDF: largest gaps
    # about 2.7e-2, 5.1e-3, 1.4e-3, 4.8e-4 and 2.9e-5, near the centre;
    # mean gaps over u about 6.0e-4, 1.5e-4, 6.7e-5, 2.5e-5 and 7.4e-6
    p = StableParams(1, alpha)
    occ = pathsim._BallOccupation(p, build_grid(Interval(-1.0, 1.0), 10))
    assert occ.knots.size == 25
    assert np.abs(_interpolant(occ, occ.knots) - ball_occupation_cdf(p, occ.knots)).max() <= 1e-14
    mids = 0.5 * (occ.knots[1:] + occ.knots[:-1])
    if alpha >= 0.5:
        assert np.abs(_interpolant(occ, mids) - ball_occupation_cdf(p, mids)).max() <= 1e-14
    assert np.all(occ.b >= 0) and np.all(occ.b + 2.0 * occ.c >= 0)
    uniform, near = np.linspace(-1.0, 1.0, 20001), np.geomspace(1e-12, 1.0, 2001)
    v = np.sort(np.concatenate((uniform, near, -near)))
    P = _interpolant(occ, v)
    assert np.all(np.diff(P) >= 0)
    assert np.abs(P - ball_occupation_cdf(p, v)).max() <= largest
    assert np.abs(_interpolant(occ, uniform) - ball_occupation_cdf(p, uniform)).mean() <= mean


@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("domain", [Interval(-1.0, 1.0), UNION], ids=["interval", "union"])
def test_ball_deposit_is_the_interpolant_at_every_edge(alpha, domain):
    # each ball's cell masses against its interpolated occupation CDF read at
    # every cell edge. The balls: radius 1e-7 straddling an edge; radius 1e-7
    # with its first knot u from the centre's on (u_13 from alpha = 0.5 on)
    # that lies left of an edge in v = (x - c) / r while c + r u rounds onto
    # it; (0.5, 0.4), whose left end rounds below the union's
    # component (0.1, 1); (-0.6, 0.4), which touches both ends of the
    # union's (-1, -0.2); random balls with the radius of walk-on-spheres,
    # their boundary distance, and random balls within it. Balls from
    # r = 0.11 at alpha = 1 and r = 0.037 at alpha = 1.5 take the moment
    # sums, the rest the segments.
    p, grid = StableParams(1, alpha), build_grid(domain, 400)
    edge, knots = grid.cells[150, 0], pathsim._BallOccupation(p, grid).knots
    u = next(u for u in knots[13:]
             if (edge - (edge - 1e-7 * u)) / 1e-7 > u and edge - 1e-7 * u + 1e-7 * u >= edge)
    assert (u == knots[13]) == (alpha >= 0.5)
    assert 0.5 - 0.4 < 0.1
    rng = np.random.default_rng(7)
    centre = rng.uniform(-0.95, 0.95, 400)
    centre = centre[domain.contains(centre)]
    radius = domain.boundary_distance(centre) * np.where(
        np.arange(centre.size) % 2, 1.0, 10.0 ** rng.uniform(-7.0, 0.0, centre.size))
    balls = [(edge + 3e-8, 1e-7), (edge - 1e-7 * u, 1e-7), (0.5, 0.4), (-0.6, 0.4)]
    balls += list(zip(centre, radius))
    for c, r in balls:
        w = rng.uniform(0.5, 2.0)
        masses, occ = _deposited(p, grid, [c], [r], [w])
        assert np.abs(masses - _interpolant_masses(occ, grid, c, r, w)).max() <= 1e-9 * w, (c, r)
        assert occ.work == 25
    # both paths are taken where the rounding bound says
    reach = occ.reach / np.array([r for _, r in balls])
    bound = occ.rounding[0] + reach * (occ.rounding[1] + reach * occ.rounding[2])
    assert np.any(bound <= pathsim._MOMENT_TOL) == (alpha > 0.5)
    assert np.any(bound > pathsim._MOMENT_TOL)


def test_ball_deposit_adds_blocks_of_balls():
    # 5000 balls, deposited in blocks of at most 2048, add up to the sum of
    # their interpolated laws
    p, grid = StableParams(1, 1.0), build_grid(UNION, 300)
    rng = np.random.default_rng(8)
    centre = rng.uniform(-1.0, 1.0, 9000)
    centre = centre[UNION.contains(centre)][:5000]
    radius = UNION.boundary_distance(centre) * rng.uniform(0.0, 1.0, centre.size) ** 2
    weight = rng.uniform(0.5, 2.0, centre.size)
    masses, occ = _deposited(p, grid, centre, radius, weight)
    expected = sum(_interpolant_masses(occ, grid, *ball) for ball in zip(centre, radius, weight))
    assert np.abs(masses - expected).max() <= 1e-9 * weight.sum()
    assert occ.work == 25 * centre.size


def test_chunked_ensemble_invariants(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    grid = wb.ops(1.0)["grid"]
    dt, n = 1e-3, 200
    chunk = 1024    # steps per chunk for 200 paths
    edge1, edge2 = chunk * dt, 2 * chunk * dt
    marks = [0.5, edge1, edge2, 3.0]
    ens = simulate_ensemble(p, mu, 0.2, 3.0, dt, 31, n, grid=grid, burn_in=0.7)
    counts = ens.counts_at(marks)
    assert np.array_equal(counts[:, -1], ens.total_reflections)
    assert np.all(np.diff(counts, axis=1) >= 0)
    assert ens.total_reflections.mean() > 1.0
    assert ens.occupancy.sum() == pytest.approx(1.0, abs=1e-12)
    done = ens.total_reflections > 0
    tau, pre, ex, entry = (oracles.first_records(ens, r)
                           for r in (ens.tau, ens.pre_exit, ens.exit_point, ens.entry))
    assert np.all(np.isnan(tau[~done]))
    assert not np.any(wb.domain.contains(ex[done]))
    assert np.all(wb.domain.contains(pre[done]))
    assert np.all(wb.domain.contains(entry[done]))
    steps = tau[done] / dt
    assert np.allclose(steps, np.round(steps), rtol=0, atol=1e-6)
    assert np.all((steps >= 1) & (steps <= 3000.5))
    # horizons of whole chunks replay the same draws, so their totals are
    # the counts at the chunk-edge marks of the longer run
    for k, edge in ((1, edge1), (2, edge2)):
        short = simulate_ensemble(p, mu, 0.2, edge, dt, 31, n)
        assert np.array_equal(short.total_reflections, counts[:, k])
        hit = short.total_reflections > 0
        assert np.array_equal(oracles.first_records(short, short.entry)[hit], entry[hit])


def test_chunked_ensemble_marks_every_step(wb):
    # 2**14 paths make 64-step chunks; with a mark at every step, each
    # path's count first turns positive at its first exit step
    dt, n, n_steps = 1e-3, 2 ** 14, 150
    marks = dt * np.arange(1, n_steps + 1)
    ens = simulate_ensemble(wb.params(1.0), wb.mu("projection"), 0.8,
                            n_steps * dt, dt, 41, n)
    counts = ens.counts_at(marks)
    assert np.array_equal(counts[:, -1], ens.total_reflections)
    assert np.all(np.diff(counts, axis=1) >= 0)
    done = ens.total_reflections > 0
    first_step = np.argmax(counts[done] > 0, axis=1) + 1
    assert np.array_equal(first_step, np.round(oracles.first_records(ens, ens.tau)[done] / dt))
    assert np.any(first_step == 64) and np.any(first_step == 65)


def test_grid_must_partition_the_kernels_domain(wb):
    # D is read off the return kernel, and a grid is compared with it by its
    # intervals: a grid on another domain raises, one on an equal but
    # distinct domain runs
    from reflected_stable.geometry import Ball, Interval
    from reflected_stable.reflection import BallUniformMeasure
    p, mu = wb.params(1.0), wb.mu("uniform")
    for other in (Interval(0.0, 3.0), Interval(-1.0, 0.9), UNION):
        grid = build_grid(other, 40)
        with pytest.raises(ValueError):
            simulate_ensemble(p, mu, 0.0, 0.1, 1e-3, 1, 4, grid=grid)
        with pytest.raises(ValueError):
            renewal_occupation(p, mu, 0.0, 1.0, 0.0, 1, 4, grid)
    ball_mu = ConstantKernel(Ball([0.0, 0.0], 1.0), BallUniformMeasure([0.0, 0.0], 0.5))
    with pytest.raises(ValueError):
        simulate_ensemble(StableParams(2, 1.0), ball_mu, np.zeros(2), 0.1, 1e-3, 1, 4,
                          grid=build_grid(Interval(-1.0, 1.0), 40))
    twin = build_grid(Interval(-1.0, 1.0), 40)
    assert twin.domain is not mu.domain
    ens = simulate_ensemble(p, mu, 0.0, 0.1, 1e-3, 1, 4, grid=twin)
    assert ens.occupancy.sum() == pytest.approx(1.0, abs=1e-12)
    occ = renewal_occupation(p, mu, 0.0, 1.0, 0.0, 1, 4, twin)
    assert occ.occupancy.sum() == pytest.approx(1.0, abs=1e-12)


def test_ensemble_rejects_marks_past_the_horizon(wb):
    # a mark past the horizon has no count to report
    ens = simulate_ensemble(wb.params(1.0), wb.mu("uniform"), 0.0, 2.0, 1e-3, 3, 20)
    with pytest.raises(ValueError):
        ens.counts_at([1.0, 5.0])
    # nor has a mark before time 0
    with pytest.raises(ValueError):
        ens.counts_at([-1.0])
    assert np.array_equal(ens.counts_at([1.0, 2.0])[:, 1], ens.total_reflections)


def test_counts_at_counts_a_reflection_on_the_marks_step(wb):
    # at dt = 1e-3 the steps of t = 0.7 and 1.4 times dt exceed t in floats;
    # the path at time t is the path after step round(t / dt), so a
    # reflection on that step counts at t
    ens = simulate_ensemble(wb.params(1.0), wb.mu("uniform"), 0.0, 2.0, 1e-3, 7,
                            4000)
    marks = [0.7, 1.4]
    counts = ens.counts_at(marks)
    assert np.array_equal(counts, oracles.counts_per_path(ens, marks))
    for k, t in enumerate(marks):
        on_mark = np.flatnonzero(ens.steps == round(t / ens.dt))
        assert on_mark.size > 0 and np.all(ens.tau[on_mark] > t)
        path = np.searchsorted(ens.offsets, on_mark, side="right") - 1
        assert np.array_equal(counts[path, k], on_mark - ens.offsets[path] + 1)


_RECORD_CASES = [(alpha, domain, seed) for alpha in (0.5, 1.0, 1.5)
                 for domain in ("interval", "union") for seed in (1, 2, 3)]


@pytest.mark.parametrize("alpha, domain, seed", _RECORD_CASES,
                         ids=["a%g-%s-%d" % case for case in _RECORD_CASES])
def test_counts_and_excursions_match_per_path_oracles(wb, alpha, domain, seed):
    # the counts and the excursion statistics read from the flat records
    # equal their path-by-path definitions, float for float
    if domain == "interval":
        mu, start = wb.mu("uniform"), 0.0
    else:
        mu, start = ProjectionKernel(IntervalUnion([[-1.0, -0.2], [0.1, 1.0]]), 0.2, 0.1), 0.5
    ens = simulate_ensemble(wb.params(alpha), mu, start, 2.0, 1e-3, seed, 200)
    marks = [0.1, 0.5, 0.7, 1.4, 2.0]
    assert np.array_equal(ens.counts_at(marks), oracles.counts_per_path(ens, marks))
    st_ = excursion_statistics(ens, min_completed=1)
    n_paths, n_completed, by_index, ac, pairs, mean = \
        oracles.excursion_statistics_per_path(ens, min_completed=1)
    assert (st_.n_paths, st_.n_completed, st_.lag1_pairs) == (n_paths, n_completed, pairs)
    assert st_.lag1_autocorrelation == ac and st_.mean_duration == mean
    assert len(st_.durations_by_index) == len(by_index)
    assert all(np.array_equal(a, b) for a, b in zip(st_.durations_by_index, by_index))


def test_chunked_ensemble_ball():
    from reflected_stable.geometry import Ball
    from reflected_stable.reflection import BallUniformMeasure
    p = StableParams(2, 1.0)
    B = Ball([0.0, 0.0], 1.0)
    mu = ConstantKernel(B, BallUniformMeasure([0.0, 0.0], 0.5))
    ens = simulate_ensemble(p, mu, np.zeros(2), 2.0, 1e-3, 5, 40)
    done = ens.total_reflections > 0
    assert done.mean() > 0.5
    pre, ex, entry = (oracles.first_records(ens, r)
                      for r in (ens.pre_exit, ens.exit_point, ens.entry))
    assert ex.shape == (40, 2)
    assert not np.any(B.contains(ex[done]))
    assert np.all(B.contains(pre[done]))
    assert np.all(np.linalg.norm(entry[done], axis=1) < 0.5)
    assert np.array_equal(ens.counts_at([2.0])[:, 0], ens.total_reflections)


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
            ens = simulate_ensemble(wb.params(alpha), wb.mu("uniform"), 0.0,
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
