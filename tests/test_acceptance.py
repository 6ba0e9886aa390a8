"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Default configuration: d=1, D=(-1,1), alpha in {0.5, 1.0, 1.5}, 400 cells,
series levels inverted on the 20-node Talbot contour, uniform return law on
(-0.5, 0.5) unless stated otherwise.
Statistical checks carry explicit discretization budgets on top of three
standard errors, per the simulation design notes.
"""

import time

import numpy as np
import scipy.linalg
from scipy import stats
from scipy.special import betaincinv

from reflected_stable.killed_kernels import resolvent_u
from reflected_stable.pathsim import (excursion_statistics, reflection_chain,
                                      sample_first_exit, simulate_ensemble,
                                      simulate_ensemble_blocks, simulate_ladder, stream)
from reflected_stable.perturbation import (build_excessive, duhamel_series,
                                           ladder_kernel, ladder_lift,
                                           ladder_supermedian_violation,
                                           supermedian_v, supermedian_violation)
from reflected_stable.reflection import ConstantKernel, UniformMeasure, default_probes
from reflected_stable.stable_core import ball_exit_position
from reflected_stable.stationary import (chain_kernel, dobrushin_coefficient,
                                         kappa_closed_form, kappa_ergodic,
                                         kappa_generator_nullvector, stationary_p,
                                         total_variation)

import oracles

ALPHAS = (0.5, 1.0, 1.5)
TS = (0.1, 0.5, 2.0)


def criterion(num, name, passed, detail=""):
    line = "ACCEPTANCE %02d %-28s %s  %s" % (num, name, "PASS" if passed else "FAIL", detail)
    print(line)
    assert passed, line


def test_criterion_01_conservation(wb):
    # fresh builds so the per-alpha runtime bound is honestly measured;
    # the results seed the shared cache for the later criteria
    import conftest
    worst = 0.0
    slowest = 0.0
    for alpha in ALPHAS:
        ops = wb.ops(alpha)
        t0 = time.time()
        for t in TS:
            ser = duhamel_series(ops["L"], wb.M(alpha, "uniform"), t)
            rs = ser.total.sum(axis=1)
            worst = max(worst, abs(rs.min() - 1.0), abs(rs.max() - 1.0))
            conftest._series_cache.setdefault((alpha, "uniform", float(t)), ser)
        slowest = max(slowest, time.time() - t0)
    criterion(1, "conservation", worst <= 1e-4 and slowest <= 120.0,
              "max |rowsum-1|=%.2e, slowest alpha %.1fs" % (worst, slowest))


def test_criterion_02_series_vs_exponential(wb):
    worst = 0.0
    for name in ("uniform", "dirac", "projection"):
        A = wb.A(1.0, name)
        for t in TS:
            K = wb.series(1.0, name, t).total
            expA = scipy.linalg.expm(t * A.entries)
            worst = max(worst, float(np.abs(K - expA).max()))
    criterion(2, "series-vs-exponential", worst <= 1e-3, "max gap %.2e" % worst)


def test_criterion_03_level_chapman_kolmogorov(wb):
    worst = 0.0
    for (s, t) in ((0.1, 0.1), (0.1, 0.5), (0.5, 0.5)):
        la, lb, lab = (wb.series(1.0, "uniform", u).levels() for u in (s, t, s + t))
        for n in range(5):
            acc = sum(la[m] @ lb[n - m]
                      for m in range(n + 1)
                      if m < len(la) and n - m < len(lb))
            worst = max(worst, float(np.abs(acc - lab[n]).max()))
    criterion(3, "level-chapman-kolmogorov", worst <= 1e-4, "max residual %.2e" % worst)


def test_criterion_04_geometric_decay(wb):
    gammas, r2s = [], []
    for alpha in ALPHAS:
        for t in TS:
            ser = wb.series(alpha, "uniform", t)
            gammas.append(ser.fit_gamma)
        ser01 = wb.series(alpha, "uniform", 0.1)
        masses = ser01.level_masses[1:9]
        assert len(masses) == 8
        ns = np.arange(1, 9)
        y = np.log(masses)
        slope, icept = np.polyfit(ns, y, 1)
        resid = y - (slope * ns + icept)
        r2 = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
        r2s.append(r2)
    ok = max(gammas) < 1.0 and min(r2s) >= 0.98
    criterion(4, "geometric-level-decay", ok,
              "max gamma %.3f, min R2 %.4f" % (max(gammas), min(r2s)))


def test_criterion_05_killed_process_oracles(wb):
    p = wb.params(1.0)
    et, _, _ = sample_first_exit(p, wb.domain, 0.0, 1e-3, 2024, 10 ** 5)
    se = et.std() / np.sqrt(len(et))
    mean_ok = abs(et.mean() - 1.0) <= 3 * se + 0.02
    # exact-mode exit positions against the closed-form law: 40 cells from
    # 20 radial quantiles (via the Beta representation) split by sign
    rng = stream(2025, 0)
    z = ball_exit_position(p, 0.0, 1.0, 0.0, rng, size=10 ** 5)
    qs = np.linspace(0.0, 1.0, 21)[1:-1]
    redges = np.concatenate([[1.0], 1.0 / np.sqrt(betaincinv(0.5, 0.5, 1.0 - qs)),
                             [np.inf]])
    obs = []
    for sign in (-1.0, 1.0):
        sel = np.sign(z) == sign
        obs.extend(np.histogram(np.abs(z[sel]), bins=redges)[0])
    res = stats.chisquare(np.asarray(obs))
    criterion(5, "killed-process-oracles", mean_ok and res.pvalue > 0.01,
              "mean exit %.4f (se %.4f), chi2 p=%.3f" % (et.mean(), se, res.pvalue))


def test_criterion_06_ikeda_watanabe(wb):
    # joint law of (exit time, pre-exit position, exit position): the boxed
    # event {tau <= 0.5, pre in [-0.5, 0.5], exit > 1} against quadrature of
    # the time-space kernel density
    p = wb.params(1.0)
    ops = wb.ops(1.0)
    grid = ops["grid"]
    sp = oracles.SpectralHeat(ops["L"].entries)
    i0 = np.argmin(np.abs(grid.nodes))
    in_a = np.abs(grid.nodes) <= 0.5
    from reflected_stable.geometry import Region1D
    from reflected_stable.killed_kernels import exterior_nu_vector
    nu_right = exterior_nu_vector(p, grid, Region1D([(1.0, np.inf)]))
    ck = sp.V.T @ (in_a * nu_right)
    row0 = sp.V[i0]
    m = 2048
    s_nodes = np.linspace(0.0, 0.5, m + 1)
    vals = np.array([row0 @ (np.exp(s * sp.w) * ck) for s in s_nodes])
    w = np.ones(m + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    target = (0.5 / m / 3.0) * float(w @ vals)
    et, pre, ex = sample_first_exit(p, wb.domain, 0.0, 1e-3, 31337, 10 ** 5)
    emp = np.mean((et <= 0.5) & (np.abs(pre) <= 0.5) & (ex > 1.0))
    se = np.sqrt(target * (1 - target) / len(et))
    ok = abs(emp - target) <= 3 * se + 0.01
    criterion(6, "ikeda-watanabe-joint", ok,
              "emp %.4f vs quad %.4f" % (emp, target))


def test_criterion_07_supermedian_suite(wb):
    ops = wb.ops(1.0)
    A = wb.A(1.0, "uniform")
    mu = wb.mu("uniform")
    grid = ops["grid"]
    ok = True
    details = []
    for lam in (0.1, 1.0):
        u = resolvent_u(ops["L"], lam, 1.0)
        v = supermedian_v(A, lam, 1.0)
        eps = 1.0 - max(mu.law(z).cell_masses(grid) @ u for z in default_probes(wb.domain))
        viol = supermedian_violation(A, lam, v)
        rhs = u + scipy.linalg.solve(lam * np.eye(grid.n) - A.entries,
                                     oracles.dense(wb.M(1.0, "uniform")) @ u)
        resid = float(np.abs(v - rhs).max())
        ok = ok and u.max() < 1.0 and eps > 0 and v.max() <= 1.0 / eps \
            and viol <= 1e-8 and resid <= 1e-8
        details.append("lam=%g: max u %.4f, eps %.3f, viol %.1e, resid %.1e"
                       % (lam, u.max(), eps, viol, resid))
    criterion(7, "supermedian-suite", ok, "; ".join(details))


def test_criterion_08_excessive_construction(wb):
    ratios = {}
    ok = True
    for n_cells in (400, 800):
        A = wb.A(1.0, "uniform", n_cells=n_cells)
        exc = build_excessive(A, 1.0)
        grid = wb.ops(1.0, n_cells)["grid"]
        i0 = np.argmin(np.abs(grid.nodes))
        ratios[n_cells] = exc.values[0] / exc.values[i0]
        ok = ok and exc.values.min() > 0
        ok = ok and supermedian_violation(A, 1.0, exc.values) <= 1e-8
        ok = ok and ratios[n_cells] >= 2.0
    ok = ok and ratios[800] > ratios[400]
    criterion(8, "excessive-construction", ok,
              "boundary/center ratio %.2f -> %.2f under refinement"
              % (ratios[400], ratios[800]))


def test_criterion_09_ladder_lift(wb):
    ser = wb.series(1.0, "uniform", 0.5)
    lad = ladder_kernel(ser, m_levels=max(20, ser.truncation_N))
    A = wb.A(1.0, "uniform")
    grid = wb.ops(1.0)["grid"]
    v = build_excessive(A, 1.0).values
    H1 = ladder_lift(np.ones(grid.n), 0.5, lad.m_levels)
    viol0 = supermedian_violation(A, 1.0, v)
    Hv = ladder_lift(v, 1.0, lad.m_levels)
    viol1 = ladder_supermedian_violation(lad, 0.0, H1)
    violv = ladder_supermedian_violation(lad, 1.0, Hv)
    ratio = ladder_lift(np.ones(grid.n), 0.5, 8) / ladder_lift(v, 1.0, 8)
    i0 = np.argmin(np.abs(grid.nodes))
    sep = np.all(np.diff(ratio, axis=0) < 0) and ratio[0, 0] < ratio[0, i0] \
        and ratio[0, -1] < ratio[0, i0]
    ok = viol0 <= 1e-8 and viol1 <= 1e-8 and violv <= 1e-8 and bool(sep)
    criterion(9, "ladder-lift", ok, "violations %.1e (v) / %.1e / %.1e, separation %s"
              % (viol0, viol1, violv, sep))


def test_criterion_10_ladder_law(wb):
    p = wb.params(1.0)
    mu = wb.mu("uniform")
    grid = wb.ops(1.0)["grid"]
    ens = simulate_ensemble(p, mu, 0.0, 2.0, 1e-3, 77001, 10 ** 5, stream_id=1)
    i0 = np.argmin(np.abs(grid.nodes))
    pvals = []
    for k, t in enumerate((0.5, 2.0)):
        ser = wb.series(1.0, "uniform", t)
        probs = np.array([level[i0].sum() for level in ser.levels()])
        counts = ens.counts_at([0.5, 2.0])[:, k]
        obs = np.bincount(counts, minlength=len(probs)).astype(float)
        if len(obs) > len(probs):
            probs = np.concatenate([probs, np.full(len(obs) - len(probs), 1e-12)])
        obs_m, exp_m = oracles.chi2_merge(obs, probs / probs.sum())
        pvals.append(stats.chisquare(obs_m, exp_m).pvalue)
    ok = all(pv > 0.01 for pv in pvals)
    criterion(10, "ladder-law", ok, "chi2 p = %.3f (t=0.5), %.3f (t=2)" % tuple(pvals))


def test_criterion_11_reflection_chain(wb):
    p = wb.params(1.0)
    mu = wb.mu("projection")
    ops = wb.ops(1.0)
    grid = ops["grid"]
    C = chain_kernel(ops["H"], mu)
    rng = stream(424242, 0)
    x0 = 0.25
    chains = reflection_chain(p, mu, x0, 3, rng, size=10 ** 5)
    law = np.zeros(grid.n)
    law[grid.cell_index(np.array([x0]))[0]] = 1.0
    for _ in range(3):
        law = law @ oracles.dense(C)
    groups = np.array_split(np.arange(grid.n), 25)
    probs = np.array([law[g].sum() for g in groups])
    counts = np.bincount(grid.cell_index(chains[:, -1]), minlength=grid.n)
    obs = np.array([counts[g].sum() for g in groups], dtype=float)
    obs_m, exp_m = oracles.chi2_merge(obs, probs)
    res = stats.chisquare(obs_m, exp_m)
    criterion(11, "reflection-chain-law", res.pvalue > 0.01, "chi2 p=%.3f" % res.pvalue)


def test_criterion_12_independence(wb):
    p = wb.params(1.0)
    m = UniformMeasure(-0.5, 0.5)
    mu = ConstantKernel(wb.domain, m)
    ens = simulate_ladder(p, mu, m, 8.0, 1e-3, seed=661, n_paths=1500)
    st_ = excursion_statistics(ens)
    ac_ok = abs(st_.lag1_autocorrelation) < 4.0 / np.sqrt(st_.lag1_pairs)
    d1, d5 = st_.duration_sample(1), st_.duration_sample(5)
    res = stats.ks_2samp(d1, d5)
    n, mm = len(d1), len(d5)
    crit = 1.6276 * np.sqrt((n + mm) / (n * mm))  # 1% two-sample critical value
    ks_ok = res.statistic < crit
    criterion(12, "independent-excursions", ac_ok and ks_ok,
              "lag1 %.4f (bound %.4f), KS %.4f (crit %.4f)"
              % (st_.lag1_autocorrelation, 4.0 / np.sqrt(st_.lag1_pairs),
                 res.statistic, crit))


def test_criterion_13_dobrushin(wb):
    ops = wb.ops(1.0)
    ok = True
    details = []
    for name in ("uniform", "dirac", "projection"):
        C = chain_kernel(ops["H"], wb.mu(name))
        beta, _ = dobrushin_coefficient(C)
        ok = ok and beta < 1.0
        p_hat = stationary_p(C)
        law = np.zeros(ops["grid"].n)
        law[0] = 1.0
        rate = np.sqrt(beta) + 0.05
        tvs = {}
        for n in range(1, 9):
            law = law @ oracles.dense(C)
            tvs[n] = total_variation(law, p_hat.masses)
        for n in (4, 6, 8):
            ok = ok and tvs[n] <= tvs[2] * rate ** (n - 2) + 1e-12
        details.append("%s beta=%.3f" % (name, beta))
    criterion(13, "dobrushin-contraction", ok, ", ".join(details))


def test_criterion_14_stationary_triangulation(wb):
    t_start = time.time()
    p = wb.params(1.0)
    ops = wb.ops(1.0)
    grid = ops["grid"]
    ok = True
    details = []
    for seed_off, name in enumerate(("uniform", "dirac", "projection")):
        mu = wb.mu(name)
        C = chain_kernel(ops["H"], mu)
        p_hat = stationary_p(C)
        k_cf = kappa_closed_form(p_hat, ops["G"])
        k_nv = kappa_generator_nullvector(wb.A(1.0, name))
        start = mu.laws[0] if len(mu.laws) == 1 else UniformMeasure(-0.5, 0.5)
        ens = simulate_ensemble_blocks(p, mu, start, 200.0, 1e-3,
                                       5150 + seed_off, 200,
                                       grid=grid, burn_in=2.0)
        k_er = kappa_ergodic(ens, grid)
        worst = max(k_cf.tv(k_nv), k_cf.tv(k_er), k_nv.tv(k_er))
        ok = ok and worst <= 0.06
        details.append("%s max TV %.3f" % (name, worst))
        if name == "dirac":
            row = ops["G"].entries[grid.cell_index(np.array([0.3]))[0]]
            extra = total_variation(k_nv.masses, row / row.sum())
            ok = ok and extra <= 0.01
            details.append("dirac green-row TV %.4f" % extra)
    elapsed = time.time() - t_start
    ok = ok and elapsed <= 1800.0
    criterion(14, "stationary-triangulation", ok,
              "%s; %.0fs" % ("; ".join(details), elapsed))


def test_criterion_15_reproducibility(tmp_path):
    import json
    import os
    from reflected_stable.cli_report import default_config, parse_config, run
    base = dict(default_config(), kind="full-triangulation", n_cells=100,
                replicas=30, horizon=60.0, t_list=[0.2], chain_samples=2000)
    outs = [tmp_path / s for s in ("r1", "r2", "r3")]
    for out, threads in zip(outs, (1, 1, 2)):
        cfg = parse_config(dict(base, out_dir=str(out), threads=threads))
        code, _ = run(cfg)
        assert code == 0
    names = sorted(os.listdir(outs[0]))
    ok = all(sorted(os.listdir(o)) == names for o in outs[1:])
    for name in names:
        if name == "manifest.json":
            continue
        blobs = [(o / name).read_bytes() for o in outs]
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    manifests = [json.loads((o / "manifest.json").read_text()) for o in outs]
    ok = ok and manifests[0]["checks"] == manifests[1]["checks"] == manifests[2]["checks"]
    criterion(15, "reproducibility", ok,
              "%d files byte-identical across reruns and thread counts" % (len(names) - 1))
