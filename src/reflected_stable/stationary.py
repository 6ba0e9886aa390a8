"""Stationary measures of the reflection chain and the reflected semigroup.

Three routes to the stationary density are provided: the closed form
(chain stationary measure composed with the Green operator), the left null
vector of the full generator, and ergodic time averages of simulated
paths. Their triangulation is the main validation artifact.
"""

import dataclasses

import numpy as np
import scipy.linalg

from .killed_kernels import GridOperator
from .perturbation import perturbation_matrix


class StationaryError(RuntimeError):
    """Stationary computation failed to converge or validate."""


@dataclasses.dataclass
class GridMeasure:
    """Probability measure given by nonnegative cell masses on a grid."""

    grid: object
    masses: np.ndarray

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != (self.grid.n,):
            raise ValueError("masses must have one entry per cell")
        if np.any(self.masses < -1e-12):
            raise ValueError("cell masses must be nonnegative")
        total = self.masses.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValueError("masses must sum to 1 (got %.12g)" % total)

    def density(self):
        return self.masses / self.grid.widths

    def tv(self, other):
        return total_variation(self.masses, other.masses)


def total_variation(p, q):
    """Total variation distance as half the l1 distance of cell masses."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def chain_kernel(harmonic, mu):
    """Transition matrix of the post-reflection chain: exit then re-enter.

    Composes the exit-position kernel with the return kernel; with the
    Green-operator representation of the exit law this is the Green matrix
    times the jump-and-return operator, so row sums inherit the exactness
    of the killing-intensity identity.
    """
    grid = harmonic.grid
    M = perturbation_matrix(grid, harmonic.params, mu)
    C = harmonic.green.entries @ M.entries
    rs = C.sum(axis=1)
    if np.abs(rs - 1.0).max() > 1e-6:
        raise StationaryError(
            "chain kernel row sums deviate from 1 by %.3g" % np.abs(rs - 1.0).max()
        )
    return GridOperator(grid=grid, entries=C, kind="chain-kernel")


def dobrushin_coefficient(op, steps=2):
    """Contraction coefficient of the given power of a stochastic matrix.

    Returns (beta, min_overlap): beta is the maximal pairwise total
    variation of rows of the matrix power (in the half-l1 metric), and
    min_overlap the minimal pairwise overlap mass, so beta = 1 - min_overlap
    (clamped at 0).
    """
    P = np.linalg.matrix_power(op.entries, steps)
    n = P.shape[0]
    # overlap of rows i and j: sum_k min(P[i,k], P[j,k]); vectorized in
    # blocks of rows whose pairwise minima hold at most 2**19 values (4 MB)
    min_overlap = np.inf
    block = max(1, 2 ** 19 // (n * n))
    for i0 in range(0, n, block):
        Pi = P[i0 : i0 + block][:, None, :]
        ov = np.minimum(Pi, P[None, :, :]).sum(axis=2)
        # exclude self-pairs, which have overlap 1
        for r in range(ov.shape[0]):
            ov[r, i0 + r] = np.inf
        min_overlap = min(min_overlap, float(ov.min()))
    # round-off can push the overlap of identical rows just past 1
    beta = max(0.0, 1.0 - min_overlap)
    return beta, min_overlap


def stationary_p(chain, beta=None, tol=1e-12, max_iter=100000):
    """Stationary law of the reflection chain by power iteration.

    Iterates from the uniform start until successive total variation drops
    below ``tol``; verifies the fixed point within twice the tolerance and
    that the empirical per-step rate does not exceed the square root of the
    two-step contraction coefficient ``beta`` (with slack). ``beta`` is
    measured here when the caller has not already done so.
    """
    if beta is None:
        beta, _ = dobrushin_coefficient(chain, steps=2)
    C = chain.entries
    n = chain.grid.n
    p = np.full(n, 1.0 / n)
    rates = []
    prev_delta = None
    for _ in range(max_iter):
        nxt = p @ C
        delta = total_variation(nxt, p)
        if prev_delta and prev_delta > 0:
            rates.append(delta / prev_delta)
        prev_delta = delta
        p = nxt
        if delta < tol:
            break
    else:
        raise StationaryError(
            "power iteration did not converge (last delta %.3g, two-step "
            "contraction %.4g)" % (delta, beta)
        )
    fixed_err = total_variation(p @ C, p)
    if fixed_err > 2 * tol:
        raise StationaryError("fixed point violated: TV=%.3g > 2 tol" % fixed_err)
    tail_rates = [r for r in rates[-20:] if r > 0]
    if tail_rates:
        rate = float(np.median(tail_rates))
        if rate > np.sqrt(beta) + 0.05:
            raise StationaryError(
                "empirical rate %.4g exceeds sqrt(two-step contraction) %.4g + 0.05"
                % (rate, np.sqrt(beta))
            )
    p = np.maximum(p, 0.0)
    return GridMeasure(grid=chain.grid, masses=p / p.sum())


def kappa_closed_form(p_or_m, green):
    """Stationary density of the reflected semigroup from the chain law.

    Integrates the Green kernel against the chain's stationary measure and
    normalizes; this is the closed-form expression of the stationary
    density (occupation of one excursion started from the stationary
    re-entry law).
    """
    w = p_or_m.masses @ green.entries
    total = w.sum()
    if total <= 0:
        raise StationaryError("degenerate closed-form mass")
    return GridMeasure(grid=green.grid, masses=w / total)


def kappa_generator_nullvector(A, tol=1e-12, t_checks=(0.5, 2.0), check_tol=1e-6):
    """Stationary density as the normalized left null vector of the full
    generator, by shifted inverse iteration.

    Verifies the null space is one-dimensional (second-smallest singular
    value bounded away from zero) and that the vector is invariant under
    the transition operators at the given times.
    """
    if A.kind != "full-generator":
        raise ValueError("expected the full generator")
    n = A.grid.n
    At = A.entries.T
    shift = 1e-10 * max(1.0, np.abs(np.diag(At)).max())
    lu = scipy.linalg.lu_factor(At + shift * np.eye(n))
    v = np.full(n, 1.0 / n)
    for _ in range(200):
        w = scipy.linalg.lu_solve(lu, v)
        w = w / np.abs(w).sum()
        if total_variation(np.abs(w), np.abs(v)) < tol:
            v = w
            break
        v = w
    kappa = np.abs(v)
    kappa = kappa / kappa.sum()
    sv = np.linalg.svd(A.entries, compute_uv=False)
    if sv[-2] < 1e3 * sv[-1] + 1e-12:
        raise StationaryError(
            "null space of the generator is not clearly one-dimensional "
            "(trailing singular values %.3g, %.3g)" % (sv[-2], sv[-1])
        )
    for t in t_checks:
        P = scipy.linalg.expm(t * A.entries)
        if total_variation(kappa @ P, kappa) > check_tol:
            raise StationaryError("null vector not invariant under exp(tA) at t=%g" % t)
    return GridMeasure(grid=A.grid, masses=kappa)


def kappa_ergodic(ens, grid, min_mean_reflections=50):
    """Stationary density from the time-averaged occupation of an ensemble.

    ``ens`` is an EnsembleResult run with an occupation histogram on the
    right grid (its burn-in was applied by the simulation). Requires enough
    reflections per path for the averages to mix.
    """
    if ens.occupancy is None:
        raise ValueError("ensemble was run without a grid/occupancy")
    if ens.total_reflections.mean() < min_mean_reflections:
        raise StationaryError(
            "insufficient horizon: %.1f reflections per path on average"
            % ens.total_reflections.mean()
        )
    masses = np.maximum(ens.occupancy, 0.0)
    return GridMeasure(grid=grid, masses=masses / masses.sum())


def triangulation_report(measures):
    """All pairwise total variation distances of named grid measures."""
    names = list(measures)
    out = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            out["%s|%s" % (a, b)] = measures[a].tv(measures[b])
    return out
