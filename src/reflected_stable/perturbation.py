"""Perturbation series for the reflected kernel and its ladder lift.

The reflected transition kernel is built as a series whose level-n term
carries the paths with exactly n reflections: level 0 is the killed heat
kernel, and each next level is the time convolution of the previous one
with the low-rank jump-and-return operator, integrated against the killed
kernel; each level is inverted from its Laplace transform on a contour.
The series sum is conservative; its levels satisfy their own
Chapman-Kolmogorov system, which is what the ladder operator exposes.

The full generator A = L + U V^T has one resolvent, from L's spectrum by
Woodbury. Summed over the contour it applies exp(tA) to one function
(``semigroup_apply``, which the supermedian checks use), and at one real
node lam it is the discounted solve of ``build_excessive``: no step
exponentiates or factors A.
"""

import dataclasses

import numpy as np

from .geometry import Region1D, exterior_complement, exterior_shell
from .killed_kernels import (GridOperator, clip_nonnegative, exterior_nu_vector,
                             generator_spectrum, heat_kernel, killing_intensity,
                             region_mass)

# nodes of the fixed Talbot contour; its round-off grows like exp(2J/5) eps
_TALBOT_NODES = 20
# the series' level cap: a level mass still above 1e-6 here raises
_MAX_LEVELS = 128
# supermedian_violation's times, and the largest violation a supermedian check passes
_SUPERMEDIAN_TIMES = (0.1, 1.0, 10.0)
_SUPERMEDIAN_TOL = 1e-8
# the largest |row sum - 1| of a conservative series sum, on every row
_CONSERVATION_TOL = 1e-4


class SeriesError(RuntimeError):
    """Series construction failed (non-convergent levels or bad input)."""


class ConservationError(RuntimeError):
    """Summed kernel is not conservative within tolerance."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def perturbation_matrix(grid, params, mu):
    """Jump-and-return operator: integrate the jump kernel against mu.

    Entry (i, j) is the rate of jumping from node i out of D and re-entering
    into cell j. The operator is exactly ``U @ V.T`` with one column per
    re-entry law of ``mu`` (see ReflectionKernel): column k of U is the jump
    mass from every node into the complement between the law's cuts, and
    column k of V the law's cell masses, so M's rank is the number of laws.
    The result carries only the factors (U, V) and no dense entries (see
    GridOperator). Row sums, ``U @ V.sum(0)``, must match the exact killing
    intensity to 1e-6. The grid must have the intervals of ``mu.domain``,
    else ValueError.
    """
    mu.check_grid(grid)
    nodes = grid.nodes
    ext = exterior_complement(grid.domain)
    edges = np.concatenate(([-np.inf], mu.cuts, [np.inf]))
    U = np.empty((grid.n, len(mu.laws)))
    for k in range(len(mu.laws)):
        U[:, k] = region_mass(params, nodes, ext.intersect(Region1D([edges[k:k + 2]])))
    V = mu.reentry_columns(grid)
    M = GridOperator(grid=grid, entries=None, kind="perturbation", factors=(U, V))
    kappa = killing_intensity(params, grid.domain, nodes)
    err = np.abs(M.row_sums() - kappa)
    if err.max() > 1e-6 * max(1.0, kappa.max()):
        raise SeriesError(
            "perturbation matrix row sums deviate from the killing intensity "
            "by %.3g (tail tolerance unmet)" % err.max()
        )
    return M


def full_generator(L, M):
    """Generator of the reflected process: killed generator plus returns.

    M is the factored ``U V^T`` of ``perturbation_matrix`` (an M without
    factors raises ValueError), and A is formed as ``U @ V.T + L`` in one
    n x n array. The two summands are kept on the result as ``parts`` (see
    GridOperator), and the entries are read-only: ``semigroup_apply`` takes
    exp(tA) h from L's spectrum and M's factors, with no matrix exponential.
    """
    if M.factors is None:
        raise ValueError("expected the factored return operator of perturbation_matrix")
    U, V = M.factors
    if L.entries.shape != (len(U), len(V)):
        raise ValueError("shape mismatch between generator and perturbation")
    A = U @ V.T
    A += L.entries
    A.setflags(write=False)
    return GridOperator(grid=L.grid, entries=A, kind="full-generator", parts=(L, M, A))


@dataclasses.dataclass
class DuhamelSeries:
    """The reflected kernel at a fixed time, summed over reflection counts.

    ``total`` is the sum of levels 0..N (read-only) on the grid ``L.grid``,
    level n the operator carrying mass that has reflected exactly n times by
    time t; the levels themselves are not kept, and ``levels()`` replays them
    from the killed generator ``L`` and the return operator ``M``.
    ``level_masses[n]`` is level n's largest row mass. ``tail_bound`` estimates the total mass of
    all dropped levels; ``fit_c``/``fit_gamma`` are the fitted geometric
    envelope of the per-level masses. All three are None when the level
    masses give no decay profile to fit.
    """

    L: object
    M: object
    t: float
    total: np.ndarray
    level_masses: np.ndarray
    truncation_N: int
    tail_bound: float
    fit_c: float
    fit_gamma: float

    def levels(self):
        """Levels 0..N as a list, replayed by the recursion that built the
        series: each equal, float for float, to the level summed into
        ``total``. Costs one more build of the series and N + 1 n x n arrays."""
        return [level for level, _ in
                _series_levels(self.L, self.M, self.t, self.truncation_N + 1)]


def _talbot_nodes(t):
    """Nodes s and weights w (J each) of the fixed Talbot rule at time t.

    The rule (Abate & Valko 2004) sums ``w_k g(s_k)`` over the nodes
    ``s(theta) = rho theta (cot theta + i)``, ``rho = 2J / (5t)``, with
    ``J = _TALBOT_NODES``; conjugate nodes are folded into the real part.
    """
    J = _TALBOT_NODES
    rho = 2.0 * J / (5.0 * t)
    theta = np.pi * np.arange(1, J) / J
    cot = 1.0 / np.tan(theta)
    s = np.concatenate([[rho], rho * theta * (cot + 1j)])
    sigma = np.concatenate([[0.0], theta + (theta * cot - 1.0) * cot])
    w = (rho / J) * np.exp(t * s) * (1.0 + 1j * sigma)
    w[0] *= 0.5
    return s, w


def _resolvent_basis(L, U, V, s):
    """L's resolvents at the nodes s, in L's spectral basis.

    ``R = (s - L)^-1 = W^-1/2 Q diag(1/(s - lam)) Q^T W^1/2``, so with
    ``Ut = Q^T W^1/2 U`` and ``Vt = Q^T W^-1/2 V`` the r x r matrix
    ``F_k = V^T R U = Vt^T D_k Ut`` at node k costs O(nr^2). Returns
    ``(Q, sqrt(w), D, Ut, Vt, F)``; column k of D is ``1/(s_k - lam)``.
    """
    lam, Q, sw = generator_spectrum(L)
    Ut = Q.T @ (sw[:, None] * U)
    Vt = Q.T @ (V / sw[:, None])
    D = 1.0 / (s[None, :] - lam[:, None])  # (n, K): diag of Q^T W^1/2 R W^-1/2 Q
    F = np.einsum("ia,ik,ib->kab", Vt, D, Ut)
    return Q, sw, D, Ut, Vt, F


def _generator_basis(A, s):
    """``_resolvent_basis`` of a full generator A = L + U V^T; an A without
    the parts of ``full_generator`` raises ValueError."""
    if A.parts is None or A.parts[2] is not A.entries:
        raise ValueError("expected a full generator from full_generator")
    L, M, _ = A.parts
    return _resolvent_basis(L, *M.factors, s)


def _woodbury(basis, h):
    """Columns y_k with ``(s_k - A)^-1 h = W^-1/2 Q y_k`` at the basis' nodes.

    By Woodbury, ``(s - A)^-1 h = R h + R U (I - F)^-1 V^T R h``; with
    ``hh = Q^T W^1/2 h``, ``y_k = D_k hh + D_k Ut (I - F_k)^-1 Vt^T D_k hh``.
    """
    Q, sw, D, Ut, Vt, F = basis
    Dh = D * (Q.T @ (sw * h))[:, None]                  # column k: D_k hh
    z = np.einsum("ia,ik->ka", Vt, Dh)[:, :, None]      # Vt^T D_k hh, (K, r, 1)
    x = np.linalg.solve(np.eye(Ut.shape[1]) - F, z)[:, :, 0]
    return Dh + D * (Ut @ x.T)


def _talbot_levels(L, U, V, t):
    """Levels 1, 2, ... of the series at time t, by fixed-Talbot inversion.

    The Laplace transform of level n is ``R U F**(n-1) V^T R`` with
    ``R = (s - L)^-1`` and ``F = V^T R U`` (r x r), summed over the nodes of
    ``_talbot_nodes`` in the basis of ``_resolvent_basis``. ``R U`` and
    ``V^T R`` at every node come from one real product with Q, and each
    level then costs one ``(n x 2rJ) @ (2rJ x n)`` product.
    """
    s, w = _talbot_nodes(t)
    Q, sw, D, Ut, Vt, F = _resolvent_basis(L, U, V, s)
    n, r = U.shape
    J = len(w)
    # column (k, a) of Q @ (D_k UVt): R U (first r) and (V^T R)^T (last r)
    UVt = D[:, :, None] * np.concatenate([Ut, Vt], axis=1)[:, None, :]
    QUV = (Q @ UVt.reshape(n, -1).view(np.float64)).view(np.complex128)
    QUV = QUV.reshape(n, J, 2 * r)
    P = (w[:, None, None] * QUV[:, :, :r].transpose(1, 0, 2)) / sw[:, None]
    right = (sw[:, None] * QUV[:, :, r:].reshape(n, J * r)).T  # node k: V^T R
    right = np.concatenate([right.real, right.imag])
    while True:  # P[k] = w_k R U F**(level-1) at node k
        flat = P.transpose(1, 0, 2).reshape(n, -1)
        yield np.concatenate([flat.real, -flat.imag], axis=1) @ right
        P = P @ F


def semigroup_apply(A, h, t):
    """exp(tA) h for a full generator A = L + U V^T, on the Talbot contour.

    ``exp(tA) h = W^-1/2 Q Re sum_k w_k y_k`` over ``_talbot_nodes``, y_k
    from ``_woodbury``: one product with Q^T, one with Q and J solves of
    size r x r, to about 1e-11 of ``expm(tA) @ h``. An A not from
    ``full_generator`` raises ValueError.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    s, w = _talbot_nodes(t)
    basis = _generator_basis(A, s)
    Q, sw = basis[:2]
    return (Q @ (_woodbury(basis, h) @ w).real) / sw


def _series_levels(L, M, t, max_levels):
    """Levels 0, 1, ... of the series at time t, each with its largest row mass.

    Level 0 is the killed heat kernel, the next ones come from
    ``_talbot_levels``. A level's entries are clipped at zero (a clip
    beyond 1e-9 raises), and its row sums are taken once before the clip,
    again only if the clip moved an entry. The stream ends before level
    ``max_levels`` or before the first level whose row mass (before the
    clip) is below 1e-14. The stream drops each level before it forms the
    next, so a consumer that does the same holds one level at a time.
    """
    level = heat_kernel(L, t).entries
    yield level, level.sum(axis=1).max()
    talbot = _talbot_levels(L, *M.factors, t)
    for n in range(1, max_levels):
        del level   # dropped before the next level is formed
        level = next(talbot)
        rows = level.sum(axis=1)
        if rows.max() < 1e-14:
            return
        if clip_nonnegative(level, "level %d of the series" % n):
            rows = level.sum(axis=1)
        yield level, rows.max()


def duhamel_series(L, M, t):
    """Sum the series levels at time t, built on a Laplace contour.

    Level 0 is the killed heat kernel ``exp(tL)``. With the return operator
    factored as ``M = U V^T`` (see ``perturbation_matrix``), every level
    n >= 1 is inverted from its Laplace transform on a fixed Talbot contour
    of ``_TALBOT_NODES`` nodes, to about 1e-13 of the exact block
    exponential. Both come from the eigendecomposition that the generator
    carries (see ``assemble_dirichlet_generator``), so no step factors or
    exponentiates a matrix. Entries are clipped at zero, and a clip beyond
    1e-9 raises. Levels are kept until their row mass drops below 1e-14 (at
    most 128 levels); a last kept level above 1e-6 at the cap, or
    a non-decaying level profile, raises. With fewer than two positive level
    masses past level 0 there is no decay profile to fit: the envelope and
    the tail are then not estimated (None). The levels stream into one
    running sum in level order, one level alive at a time, so the build's
    memory does not grow with N; ``DuhamelSeries.levels`` replays them.
    """
    levels = _series_levels(L, M, t, _MAX_LEVELS)
    total, mass = next(levels)   # level 0: heat_kernel rejects t <= 0
    if M.factors is None:
        raise SeriesError("the return operator carries no low-rank factors; "
                          "build it with perturbation_matrix")
    masses = [mass]
    for level, mass in levels:
        total += level
        masses.append(mass)
        del level   # not held while the stream forms the next level
    total.setflags(write=False)
    masses = np.array(masses)
    N = len(masses) - 1
    if N >= _MAX_LEVELS - 1 and masses[-1] > 1e-6:
        raise SeriesError(
            "level masses did not decay below tolerance within %d levels; "
            "the return kernel may lack uniform concentration, or the discretization failed" % _MAX_LEVELS
        )
    decaying = masses[1:] < masses[:-1]
    if N >= 2 and not decaying[-1]:
        raise SeriesError("level masses still growing at level %d" % N)
    pos = masses[1:] > 0
    c_fit = gamma_fit = tail = None
    if np.count_nonzero(pos) >= 2:
        slope, _ = np.polyfit(np.arange(1, N + 1)[pos], np.log(masses[1:][pos]), 1)
        gamma_fit = float(np.exp(slope))
        if gamma_fit >= 1.0:
            raise SeriesError("fitted level decay gamma=%.4g >= 1" % gamma_fit)
        c_fit = max(1.0, float(np.max(masses / gamma_fit ** np.arange(N + 1))))
        gamma_loc = float(masses[-1] / masses[-2]) if masses[-2] > 0 else 0.0
        gamma_loc = min(gamma_loc, 0.999)
        tail = float(masses[-1] * gamma_loc / (1.0 - gamma_loc))
    return DuhamelSeries(
        L=L,
        M=M,
        t=t,
        total=total,
        level_masses=masses,
        truncation_N=N,
        tail_bound=tail,
        fit_c=c_fit,
        fit_gamma=gamma_fit,
    )


def _conservation_defect(row_sums):
    """The largest |row sum - 1| of a kernel, given its row sums: a series sum
    is conservative when it is at most ``_CONSERVATION_TOL``."""
    return float(np.abs(row_sums - 1.0).max())


def reflected_kernel(series):
    """The series sum as the reflected transition operator.

    Every row sum must equal one within ``_CONSERVATION_TOL`` = 1e-4
    (``_conservation_defect``), with no credit for the truncation tail; a
    violation raises with a diagnostic report attached.
    """
    K = series.total
    rs = K.sum(axis=1)
    defect = _conservation_defect(rs)
    if not defect <= _CONSERVATION_TOL:
        report = {"row_sum_min": float(rs.min()), "row_sum_max": float(rs.max()),
                  "defect": defect, "tolerance": _CONSERVATION_TOL,
                  "worst_rows": np.argsort(np.abs(rs - 1.0))[-5:].tolist()}
        raise ConservationError("conservation violated: |row sum - 1| up to %.3g > %g "
                                "(row sums in [%.6g, %.6g])"
                                % (defect, _CONSERVATION_TOL, rs.min(), rs.max()), report)
    return GridOperator(grid=series.L.grid, entries=K, kind="reflected")


def series_diagnostics(series):
    """JSON-ready summary: per-level masses, fitted envelope, tail bound."""
    return {
        "t": series.t,
        "levels": series.truncation_N,
        "level_masses": [float(m) for m in series.level_masses],
        "fit_c": series.fit_c,
        "fit_gamma": series.fit_gamma,
        "tail_bound": series.tail_bound,
    }


@dataclasses.dataclass
class LadderKernel:
    """Upper-triangular block operator over reflection-count levels.

    ``apply`` moves mass from level m to level n >= m by the series level of
    order n - m; ``levels`` holds the series levels 0..N, replayed once by
    ``ladder_kernel``. The time and the tail bound are the series'
    (``series.t``, ``series.tail_bound``). Levels beyond ``m_levels`` are
    truncated and their mass is covered by that tail bound.
    """

    series: DuhamelSeries
    m_levels: int
    levels: list

    def apply(self, ladder_values):
        """Apply the operator to a ladder function given as (m_levels+1, n)."""
        F = np.asarray(ladder_values, dtype=float)
        if F.shape[0] != self.m_levels + 1:
            raise ValueError("ladder function must have m_levels+1 rows")
        out = np.zeros_like(F)
        for m in range(self.m_levels + 1):
            top = min(self.m_levels - m, self.series.truncation_N)
            for j in range(top + 1):
                out[m] += self.levels[j] @ F[m + j]
        return out

    def counts_law(self, start_index):
        """Distribution of the level at time t from (0, node): truncated."""
        return np.array([level[start_index].sum() for level in self.levels])


def ladder_kernel(series, m_levels):
    """Ladder lift of the series; requires enough levels for the tail."""
    if series.tail_bound is None:
        raise ValueError("the series carries no tail estimate to lift")
    if m_levels < series.truncation_N:
        raise ValueError(
            "m_levels=%d too small for the series truncation N=%d"
            % (m_levels, series.truncation_N)
        )
    return LadderKernel(series=series, m_levels=m_levels, levels=series.levels())


# ---------------------------------------------------------------------------
# supermedian machinery

def _discounted_solver(A, lam):
    """Map g to the solution of ``(lam I - A) v = b``, b the jump-kernel integral
    of g over the complement for A's process (its killed generator's ``params``):
    ``_woodbury`` at the one real node lam, one product with Q^T and one with Q."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    basis = _generator_basis(A, np.array([float(lam)]))
    Q, sw = basis[:2]
    params = A.parts[0].params
    return lambda g: (Q @ _woodbury(basis, exterior_nu_vector(params, A.grid, g))[:, 0]) / sw


def supermedian_v(A, lam, g):
    """Discounted occupation of the boundary payoff under the reflected flow.

    Solves ``(lam I - A) v = b``, A from ``full_generator``, with b the jump-kernel
    integral of g over the complement for A's process, by A's Woodbury
    resolvent; v dominates the killed analogue and is lam-supermedian for
    the reflected kernel.
    """
    return _discounted_solver(A, lam)(g)


def supermedian_violation(A, lam, h):
    """Worst violation of exp(-lam t) exp(tA) h <= h at t = 0.1, 1 and 10.

    A is a full generator from ``full_generator``; exp(tA) h comes from
    ``semigroup_apply``, so no matrix exponential is formed.
    """
    worst = -np.inf
    for t in _SUPERMEDIAN_TIMES:
        Ph = semigroup_apply(A, h, t)
        worst = max(worst, float(np.max(np.exp(-lam * t) * Ph - h)))
    return worst


@dataclasses.dataclass
class ExcessiveFunction:
    """Shell-sum supermedian function with boundary blow-up on the grid."""

    values: np.ndarray
    radii: np.ndarray
    summands: np.ndarray
    thresholds: np.ndarray


def build_excessive(A, lam):
    """Construct the boundary-exploding supermedian function.

    For an exhaustion of the grid by six boundary-distance thresholds, find
    decreasing shell depths so the payoff of ``supermedian_v(A, lam, shell)``
    is at most 2**-n on the n-th compact (bisected to 1e-3 relative), then sum
    those payoffs. The result is strictly positive, finite, lam-supermedian,
    and largest near the boundary. A shell depth is sought no lower than 1e-9
    times the domain's diameter; a level that needs a thinner shell raises.
    """
    grid = A.grid
    domain = grid.domain
    delta = domain.boundary_distance(grid.nodes)
    dmax = delta.max()
    solve = _discounted_solver(A, lam)

    def v_of(r):
        return solve(exterior_shell(domain, r))

    lo_b, hi_b = domain.bounding_box
    diam = hi_b - lo_b
    radii = []
    summands = []
    thresholds = []
    r_hi = diam
    for nlev in range(1, 7):
        thr = dmax * 2.0 ** (-nlev)
        on_set = delta >= thr
        target = 2.0 ** (-nlev)
        lo, hi = 1e-9 * diam, r_hi

        def worst(r):
            return float(v_of(r)[on_set].max())

        if worst(lo) > target:
            raise SeriesError(
                "shell radius not found above the resolution floor at level %d" % nlev)
        if worst(hi) <= target:
            r_n = hi
        else:
            while hi - lo > 1e-3 * hi:
                mid = 0.5 * (lo + hi)
                if worst(mid) <= target:
                    lo = mid
                else:
                    hi = mid
            r_n = lo
        radii.append(r_n)
        thresholds.append(thr)
        summands.append(v_of(r_n))
        r_hi = r_n
    summands = np.array(summands)
    return ExcessiveFunction(
        values=summands.sum(axis=0),
        radii=np.array(radii),
        summands=summands,
        thresholds=np.array(thresholds),
    )


def ladder_lift(h, alpha_lift, m_levels):
    """Geometric lift of a grid function to the ladder: level m carries
    ``alpha_lift**m`` times the function.

    The lift does not check that h is supermedian; a caller that needs it
    checks ``supermedian_violation(A, lam, h) <= _SUPERMEDIAN_TOL`` first.
    """
    if not (0.0 < alpha_lift <= 1.0):
        raise ValueError("alpha_lift must lie in (0, 1]")
    h = np.asarray(h, dtype=float)
    return alpha_lift ** np.arange(m_levels + 1)[:, None] * h[None, :]


def ladder_supermedian_violation(ladder, lam, lifted):
    """Worst violation of the discounted ladder inequality, net of tail slack.

    Returns ``max(exp(-lam t) K_ladder F - F) - slack`` where the slack
    covers the truncated levels: the dropped blocks carry at most the
    recorded series tail times the sup of the lifted function.
    """
    F = np.asarray(lifted, dtype=float)
    out = ladder.apply(F)
    slack = ladder.series.tail_bound * float(np.abs(F).max())
    viol = np.exp(-lam * ladder.series.t) * out - F
    return float(viol.max()) - slack
