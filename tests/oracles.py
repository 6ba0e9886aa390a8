"""Independent closed-form and quadrature oracles used by the tests.

Everything here is derived from textbook formulas for the stable process
on balls/intervals (exit law, Green function) or from generic numerics
(spectral heat kernels, adaptive quadrature), independently of the code
paths under test. The one exception is ``first_exit_per_step``, the plain
one-step-at-a-time jump-Euler loop that the chunked first-exit sampler is
checked against, and ``dirichlet_generator_rows``, the row-by-row assembly
of the killed generator (near minus far endpoint of each cell, one row at a
time) that the one-pass assembly is checked against float for float.
``nullvector_reference_checks`` certifies a stationary
vector of a generator by a full SVD and matrix exponentials, and
``supermedian_violation_expm`` checks a supermedian inequality by dense
matrix exponentials of the full generator, and ``discounted_solver_lu``
solves with its discounted resolvent by a dense LU factorization.
``excessive_bisection`` is the shell-sum bisection of ``build_excessive``
as first written, re-solving every depth it reads.
``dobrushin_dense`` is the O(n^3) pairwise scan of a chain's two-step rows
that the factored contraction coefficient is checked against, and
``stationary_power`` the power iteration that the chain law from its r x r
reduction is checked against. ``duhamel_terms`` keeps every level of the
perturbation series in a list, the reference for the streamed running sum
and the replayed levels, and ``heat_kernel_all_weights`` takes exp(tL) with
every spectral weight, subnormal squares included, the reference for the
heat kernel that zeroes them. The last five functions read or check
simulator records directly from their definitions: region inclusion, the
invariants of an ensemble's reflection records, each path's first
reflection record, the reflection counts at marks path by path, and the
excursion statistics path by path (the reference for the array version).
``dense`` gives the n x n matrix of any grid operator, the factored ones
(which carry no dense entries) included.
"""

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh, expm, lu_factor, lu_solve
from scipy.special import beta, betainc, gammaln, hyp2f1

from reflected_stable.geometry import exterior_complement
from reflected_stable.killed_kernels import clip_nonnegative, heat_kernel
from reflected_stable.perturbation import _talbot_levels
from reflected_stable.stable_core import sample_stable_increment


def gamma_abs_logpath(x):
    """|Gamma(x)| via log-gamma, using reflection for negative arguments."""
    if x > 0:
        return np.exp(gammaln(x))
    # |Gamma(-a)| = pi / (sin(pi a) Gamma(1 + a)) for non-integer a > 0
    a = -x
    return np.pi / (abs(np.sin(np.pi * a)) * np.exp(gammaln(1.0 + a)))


def levy_constant_logpath(d, alpha):
    return 2.0 ** alpha * np.exp(gammaln((d + alpha) / 2.0)) / (
        np.pi ** (d / 2.0) * gamma_abs_logpath(-alpha / 2.0))


def ball_poisson_density(alpha, x, z):
    """Exit-position density of the unit interval (-1, 1) started at x."""
    c = np.sin(np.pi * alpha / 2.0) / np.pi
    return c * (1.0 - x ** 2) ** (alpha / 2.0) * np.abs(z ** 2 - 1.0) ** (-alpha / 2.0) \
        / np.abs(z - x)


def ball_exit_tail_prob(alpha, x, level):
    """P(exit position beyond +-level) from x in (-1, 1), by quadrature."""
    right = quad(lambda z: ball_poisson_density(alpha, x, z), level, np.inf)[0]
    left = quad(lambda z: ball_poisson_density(alpha, x, -z), level, np.inf)[0]
    return left + right


def interval_green(alpha, x, y):
    """Green function of the unit interval (-1, 1) for the stable process."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r0 = (1.0 - x ** 2) * (1.0 - y ** 2) / (x - y) ** 2
        a = alpha / 2.0
        # int_0^r0 s^(a-1) (1+s)^(-1/2) ds
        inc = r0 ** a / a * hyp2f1(0.5, a, a + 1.0, -r0)
        B = 1.0 / (2.0 ** alpha * np.exp(2.0 * gammaln(a)))
        return B * np.abs(x - y) ** (alpha - 1.0) * inc


def ball_occupation_cdf(alpha, u):
    """H(u) - H(0): the occupation of (0, u) by the stable process started at
    0 and killed on leaving (-1, 1), for u in [-1, 1] (odd in u).

    Integrating the Green function G(0, y) = k |y|^(alpha-1) int_0^(1-y^2)
    t^(alpha/2-1) (1-t)^(-(1+alpha)/2) dt over y in the other order gives
    (k/alpha) [u^alpha B(1-u^2; alpha/2, (1-alpha)/2)
    + B(alpha/2, 1/2) I_{u^2}(1/2, alpha/2)], k = 1/(2^alpha Gamma(alpha/2)^2),
    with B(x; a, b) the incomplete beta function. For alpha > 1 (b < 0) it
    takes B(x; a, b) = ((a+b)/b) B(x; a, b+1) - x^a (1-x)^b / b, which
    cancels near alpha = 1; at alpha = 1 the closed form is
    (u arcsech(u) + arcsin(u)) / pi.
    """
    u = np.asarray(u, dtype=float)
    x = np.abs(u)
    a, b = alpha / 2.0, (1.0 - alpha) / 2.0
    z = 1.0 - x ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha == 1.0:
            near = np.where(x > 0, x * np.arccosh(1.0 / x), 0.0)
            return np.sign(u) * (near + np.arcsin(x)) / np.pi
        if b > 0:
            low = betainc(a, b, z) * beta(a, b)
        else:
            low = (a + b) / b * betainc(a, b + 1.0, z) * beta(a, b + 1.0) \
                - z ** a * (1.0 - z) ** b / b
        # u^alpha B(1 - u^2; ...) tends to 0 with u
        near = np.where(x > 0, x ** alpha * low, 0.0)
    k = 1.0 / (2.0 ** alpha * np.exp(2.0 * gammaln(a)))
    return np.sign(u) * k / alpha * (near + beta(a, 0.5) * betainc(0.5, a, x ** 2))


def interval_mean_exit_time_quad(alpha, x):
    """Mean exit time from (-1, 1) by quadrature of the Green function."""
    return quad(lambda y: interval_green(alpha, x, y), -1.0, 1.0,
                points=[x], limit=200)[0]


class SpectralHeat:
    """Killed heat kernels at arbitrary times from one symmetric
    eigendecomposition of the generator matrix (uniform grids only)."""

    def __init__(self, L_entries):
        asym = np.abs(L_entries - L_entries.T).max()
        if asym > 1e-8 * np.abs(L_entries).max():
            raise ValueError("generator not symmetric; spectral oracle invalid")
        S = 0.5 * (L_entries + L_entries.T)
        self.w, self.V = eigh(S)

    def at(self, t):
        return (self.V * np.exp(t * self.w)) @ self.V.T


def series_levels_by_block_expm(L_entries, M_entries, t, levels):
    """Levels 0..levels-1 of the reflected series from one big exponential.

    The k-fold time convolution of exp(sL) with M is the (0, k) block of
    the exponential of the block-bidiagonal matrix with L on the diagonal
    and M above it.
    """
    n = L_entries.shape[0]
    big = np.zeros((levels * n, levels * n))
    for b in range(levels):
        big[b * n:(b + 1) * n, b * n:(b + 1) * n] = L_entries
        if b + 1 < levels:
            big[b * n:(b + 1) * n, (b + 1) * n:(b + 2) * n] = M_entries
    top = expm(t * big)[:n]
    return [top[:, k * n:(k + 1) * n] for k in range(levels)]


def duhamel_terms(L, M, t):
    """Levels 0..N of the series at time t as a list, kept one by one.

    Level 0 is ``heat_kernel``, the next ones ``_talbot_levels``, each
    clipped at zero; the list stops before level 128 or before the first
    level whose row mass is below 1e-14, as ``duhamel_series`` stops.
    """
    terms = [heat_kernel(L, t).entries]
    for term in _talbot_levels(L, *M.factors, t):
        if len(terms) >= 128 or term.sum(axis=1).max() < 1e-14:
            break
        clip_nonnegative(term, "level %d of the series" % len(terms))
        terms.append(term)
    return terms


def heat_kernel_all_weights(L, t):
    """exp(tL) as ``W^-1/2 X X^T W^1/2`` with X = Q diag(exp(t lam / 2)) over
    every eigenvalue of the generator's spectrum, clipped at zero."""
    lam, Q, _ = L.spectrum
    sw = np.sqrt(L.grid.widths)
    X = Q * np.exp(0.5 * t * lam)
    P = X @ X.T
    P *= sw[None, :]
    P /= sw[:, None]
    return np.clip(P, 0.0, None, out=P)


def chi2_merge(observed, probs, min_expected=5.0):
    """Merge low-expectation bins (into the previous bin) for a chi2 test."""
    n = observed.sum()
    obs_m, exp_m = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, p in zip(observed, probs):
        acc_o += o
        acc_e += p * n
        if acc_e >= min_expected:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0 and obs_m:
        obs_m[-1] += acc_o
        exp_m[-1] += acc_e
    obs_m = np.asarray(obs_m, dtype=float)
    exp_m = np.asarray(exp_m, dtype=float)
    exp_m *= obs_m.sum() / exp_m.sum()
    return obs_m, exp_m


def first_exit_per_step(params, domain, start, dt, rng, n_paths):
    """First-exit (time, pre-exit, exit point) of killed jump-Euler paths.

    The reference loop: one increment per surviving path and step, drawn
    from ``rng``, with exited paths dropped after each step.
    """
    n = int(n_paths)
    shape = (n,) if params.d == 1 else (n, params.d)
    pos = np.array(np.broadcast_to(np.asarray(start, float), shape), dtype=float)
    alive = np.arange(n)
    exit_time = np.empty(n)
    pre_exit = np.empty(shape)
    exit_point = np.empty(shape)
    k = 0
    while alive.size:
        newpos = pos[alive] + sample_stable_increment(params, dt, rng, size=alive.size)
        out = ~domain.contains(newpos)
        gone = alive[out]
        exit_time[gone] = (k + 1) * dt
        pre_exit[gone] = pos[gone]
        exit_point[gone] = newpos[out]
        alive = alive[~out]
        pos[alive] = newpos[~out]
        k += 1
    return exit_time, pre_exit, exit_point


def _interval_mass_near_far(params, x, a, b):
    """(c/alpha) (near - far) over (a, b) from x: the distances to the near and
    the far endpoint, raised to -alpha (+inf at 0, 0 at inf)."""
    al = params.alpha
    lo = np.abs(np.where(a >= x, a - x, b - x))
    far_arg = np.where(a >= x, b - x, a - x)
    near = np.where(lo == 0.0, np.inf, lo ** (-al))
    inf = np.isinf(far_arg)
    far = np.where(inf, 0.0, np.abs(np.where(inf, 1.0, far_arg)) ** (-al))
    return params.c_levy / al * (near - far)


def dirichlet_generator_rows(grid, params):
    """(entries, eigenvalues) of the killed generator, assembled one row at a time.

    Row i holds the jump-kernel masses of the other cells from node i, taken
    as near minus far endpoint; each pair is averaged in the cell-width
    inner product, the diagonal is minus the killing intensity minus the
    row, and the eigenvalues are those of ``W^1/2 L W^-1/2`` by
    ``numpy.linalg.eigh``, as ``assemble_dirichlet_generator`` takes them.
    """
    nodes, cells, w = grid.nodes, grid.cells, grid.widths
    n = grid.n
    B = np.zeros((n, n))
    for i in range(n):
        mask = np.arange(n) != i
        B[i, mask] = w[i] * _interval_mass_near_far(params, nodes[i], cells[mask, 0],
                                                    cells[mask, 1])
    B = 0.5 * (B + B.T)
    L = B / w[:, None]
    kappa = np.zeros(n)
    for a, b in exterior_complement(grid.domain).pieces:
        kappa += _interval_mass_near_far(params, nodes, a, b)
    diag = -L.sum(axis=1) - kappa
    np.fill_diagonal(L, diag)
    S = B / np.sqrt(np.outer(w, w))
    np.fill_diagonal(S, diag)
    return L, np.linalg.eigh(S)[0]


def nullvector_reference_checks(A_entries, kappa):
    """The dense certificate of a generator's stationary vector ``kappa``.

    Returns (sv, tvs): ``sv`` holds the two smallest singular values of A,
    second-smallest first (the null space is clearly one-dimensional when
    the first is 1e3 times the second), and ``tvs`` the total variation of
    kappa exp(tA) from kappa at t = 0.5 and 2.
    """
    sv = np.linalg.svd(A_entries, compute_uv=False)
    tvs = [0.5 * np.abs(kappa @ expm(t * A_entries) - kappa).sum() for t in (0.5, 2.0)]
    return sv[-2:], tvs


def supermedian_violation_expm(A_entries, lam, h, times):
    """Worst violation of exp(-lam t) exp(tA) h <= h, with exp(tA) by ``expm``."""
    worst = -np.inf
    for t in times:
        P = expm(t * A_entries)
        worst = max(worst, float(np.max(np.exp(-lam * t) * (P @ h) - h)))
    return worst


def dense(op):
    """The n x n matrix of a GridOperator: ``U @ V.T`` from its factors when it
    carries them (a factored operator keeps no dense entries), else its entries."""
    if op.factors is None:
        return op.entries
    U, V = op.factors
    return U @ V.T


def discounted_solver_lu(A_entries, lam):
    """Map b to the solution of ``(lam I - A) v = b``; ``lam I - A`` is
    factored once, by a dense LU factorization."""
    lu = lu_factor(lam * np.eye(A_entries.shape[0]) - A_entries)
    return lambda b: lu_solve(lu, b)


def excessive_bisection(payoff, delta, diam):
    """The shell-sum construction of ``build_excessive`` with every depth re-solved.

    ``payoff(r)`` is the discounted payoff of the exterior shell of depth r,
    ``delta`` the grid nodes' boundary distances and ``diam`` the domain's
    diameter. Each of six levels re-solves the floor 1e-9 diam and its upper
    bracket (diam, then the last level's depth), bisects, and solves its
    accepted depth again for its summand. Returns (values, radii, thresholds,
    depths), ``depths`` every depth solved, in order and with repeats.
    """
    depths = []

    def solved(r):
        depths.append(r)
        return payoff(r)

    radii, summands, thresholds = [], [], []
    r_hi = diam
    for nlev in range(1, 7):
        thr = delta.max() * 2.0 ** (-nlev)
        on_set = delta >= thr
        target = 2.0 ** (-nlev)
        lo, hi = 1e-9 * diam, r_hi
        if solved(lo)[on_set].max() > target:
            raise ValueError("no shell depth above the floor at level %d" % nlev)
        if solved(hi)[on_set].max() <= target:
            r_n = hi
        else:
            while hi - lo > 1e-3 * hi:
                mid = 0.5 * (lo + hi)
                if solved(mid)[on_set].max() <= target:
                    lo = mid
                else:
                    hi = mid
            r_n = lo
        radii.append(r_n)
        thresholds.append(thr)
        summands.append(solved(r_n))
        r_hi = r_n
    return np.sum(summands, axis=0), np.array(radii), np.array(thresholds), depths


def dobrushin_dense(op):
    """Two-step contraction coefficient by a pairwise scan of the rows of C^2.

    Returns (beta, min_overlap) as ``stationary.dobrushin_coefficient``:
    min_overlap is the least ``sum_k min(P[i, k], P[j, k])`` over pairs
    i != j of rows of ``P = C @ C`` (inf on one cell), beta = 1 - min_overlap
    clamped at 0. Rows are taken in blocks whose pairwise minima hold at
    most 2**19 values (4 MB).
    """
    C = dense(op)
    P = C @ C
    n = P.shape[0]
    min_overlap = np.inf
    block = max(1, 2 ** 19 // (n * n))
    for i0 in range(0, n, block):
        ov = np.minimum(P[i0 : i0 + block][:, None, :], P[None, :, :]).sum(axis=2)
        # exclude self-pairs
        for r in range(ov.shape[0]):
            ov[r, i0 + r] = np.inf
        min_overlap = min(min_overlap, float(ov.min()))
    return max(0.0, 1.0 - min_overlap), min_overlap


def stationary_power(op):
    """Stationary law of a chain kernel by power iteration on its dense entries.

    Iterates p <- pC from the uniform start, at most 100000 times, until the
    total variation of a step drops below 1e-12, and returns p clipped at 0
    and normalized; raises ValueError when it does not converge.
    """
    C = dense(op)
    p = np.full(C.shape[0], 1.0 / C.shape[0])
    for _ in range(100000):
        nxt = p @ C
        delta = 0.5 * np.abs(nxt - p).sum()
        p = nxt
        if delta < 1e-12:
            p = np.maximum(p, 0.0)
            return p / p.sum()
    raise ValueError("power iteration did not converge (last step %.3g)" % delta)


def is_subset(small, big):
    """Whether each piece of the Region1D ``small`` lies in one piece of ``big``."""
    return all(np.any((big.pieces[:, 0] <= a) & (big.pieces[:, 1] >= b))
               for a, b in small.pieces)


def _require(ok, message):
    if not ok:
        raise ValueError(message)


def _paths(ens):
    """(start, end) record bounds of each path of an EnsembleResult."""
    return zip(ens.offsets[:-1].tolist(), ens.offsets[1:].tolist())


def validate_ladder(ens, domain):
    """Check the invariants of an EnsembleResult's reflection records path by
    path; raises ValueError on failure."""
    n = ens.offsets[-1]
    _require(len(ens.steps) == len(ens.pre_exit) == len(ens.exit_point) == len(ens.entry) == n,
             "one step, pre-exit, exit and re-entry point is needed per reflection")
    tau = ens.tau
    _require(np.all(np.isfinite(tau)), "recorded reflection times must be finite")
    _require(np.all((ens.steps >= 1) & (ens.steps <= round(ens.horizon / ens.dt))),
             "reflection steps must lie within the horizon")
    _require(all(np.all(np.diff(tau[a:b]) > 0) for a, b in _paths(ens)),
             "reflection times must increase strictly along each path")
    _require(np.all(domain.contains(ens.pre_exit)), "pre-exit points must lie in D")
    _require(not np.any(domain.contains(ens.exit_point)), "exit points must lie outside D")
    _require(np.all(domain.contains(ens.entry)), "re-entry points must lie in D")
    return True


def first_records(ens, records):
    """Each path's first entry of an EnsembleResult record array such as
    ``ens.tau`` or ``ens.entry``; nan where the path never reflected."""
    out = np.full((ens.n_paths,) + records.shape[1:], np.nan)
    hit = ens.total_reflections > 0
    out[hit] = records[ens.offsets[:-1][hit]]
    return out


def counts_per_path(ens, marks):
    """Each path's reflection count at each mark: its records whose step
    rint(tau / dt) is at most rint(t / dt), found path by path."""
    steps = np.rint(ens.tau / ens.dt)
    mark_steps = np.rint(np.asarray(marks, dtype=float) / ens.dt)
    return np.array([np.searchsorted(steps[a:b], mark_steps, side="right")
                     for a, b in _paths(ens)]).reshape(ens.n_paths, len(mark_steps))


def excursion_statistics_per_path(ens, min_completed):
    """``pathsim.excursion_statistics`` computed path by path from each
    path's reflection times, as (n_paths, n_completed, durations_by_index,
    lag1_autocorrelation, lag1_pairs, mean_duration)."""
    taus = [ens.tau[a:b] for a, b in _paths(ens)]
    per_path = [np.diff(tau, prepend=0.0) for tau in taus]
    # pair k is (d[k], d[k + 1]); the second excursion began at tau[k]
    kept = [tau[:-1] <= 0.5 * ens.horizon for tau in taus]
    total = int(sum(len(d) for d in per_path))
    if total < min_completed:
        raise ValueError("insufficient data: %d completed excursions < %d" % (total, min_completed))
    max_len = max(len(d) for d in per_path)
    by_index = [np.concatenate([d[i:i + 1] for d in per_path if len(d) > i])
                for i in range(max_len)]
    first = np.concatenate([d[:-1][k] for d, k in zip(per_path, kept)])
    second = np.concatenate([d[1:][k] for d, k in zip(per_path, kept)])
    if len(first) >= 2 and first.std() > 0 and second.std() > 0:
        ac = float(np.corrcoef(first, second)[0, 1])
    else:
        ac = 0.0
    return (len(per_path), total, by_index, ac, len(first),
            float(np.concatenate(per_path).mean()))
