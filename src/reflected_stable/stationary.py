"""Stationary measures of the reflection chain and the reflected semigroup.

Three routes to the stationary density are provided: the closed form
(chain stationary measure composed with the Green operator), the left null
vector of the full generator, and ergodic time averages of simulated
paths. Their triangulation is the main validation artifact.
The reflection chain C = (G U) V^T is used in factored form only: its row
sums, contraction, stationary law and exact rate come from n x r factors.
"""

import dataclasses
import logging

import numpy as np

from .killed_kernels import GridOperator
from .perturbation import _conservation_defect, perturbation_matrix

logger = logging.getLogger(__name__)

# mean reflections per path for an ensemble's time average to mix
_ERGODIC_REFLECTIONS = 50


class StationaryError(RuntimeError):
    """Stationary computation failed to converge or validate."""


@dataclasses.dataclass
class GridMeasure:
    """Probability measure given by nonnegative cell masses on a grid.

    ``diagnostics`` holds the numbers that the solver which made it observed.
    """

    grid: object
    masses: np.ndarray
    diagnostics: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != (self.grid.n,):
            raise ValueError("masses must have one entry per cell")
        if not np.all(np.isfinite(self.masses)):
            raise ValueError("cell masses must be finite")
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
    times the jump-and-return operator ``M = U V^T``, so row sums inherit
    the exactness of the killing-intensity identity (checked to 1e-6 from
    the factors). It is built as ``C = (G U) V^T`` in O(n^2 r), r the number
    of the return kernel's re-entry laws, and keeps the factors ``(G U, V)``:
    ``dobrushin_coefficient`` reads the two-step contraction from them in
    O(n^2 m) for a return law of m row directions, ``stationary_p`` the
    stationary law from the r x r matrix ``V^T G U``, and a law of the chain
    steps as ``(law G U) V^T`` in O(n r). The result carries only the
    factors and no dense entries (see GridOperator).
    """
    grid = harmonic.grid
    U, V = perturbation_matrix(grid, harmonic.params, mu).factors
    C = GridOperator(grid=grid, entries=None, kind="chain-kernel",
                     factors=(harmonic.green.entries @ U, V))
    deviation = _conservation_defect(C.row_sums())
    if deviation > 1e-6:
        raise StationaryError("chain kernel row sums deviate from 1 by %.3g" % deviation)
    return C


def chain_directions(V):
    """Group sums of the rows of V, one column per exact row direction.

    V is the return law's ``reentry_columns``, the factor of a chain kernel
    ``B V^T``. Rows of V that are positive multiples of one direction form
    a group (rows are compared after division by their largest entry; zero
    rows are dropped) and column g of the result is the sum of group g's
    rows, an r x m matrix. Every built-in family has m = r, one direction
    per law, when no cell meets two of its laws: one for a constant law,
    one per endpoint (2 per interval) for a projection kernel.
    """
    scale = V.max(axis=1)
    rows = scale > 0
    directions, group = np.unique(V[rows] / scale[rows, None], axis=0, return_inverse=True)
    return V[rows].T @ (group.reshape(-1, 1) == np.arange(len(directions)))


def dobrushin_coefficient(op):
    """Contraction coefficient of the square of a stochastic matrix.

    Returns (beta, min_overlap): beta is the maximal pairwise total
    variation of rows of the two-step matrix (in the half-l1 metric), and
    min_overlap the minimal pairwise overlap mass, so beta = 1 - min_overlap
    (clamped at 0; a one-cell grid has no pair and gives (0.0, inf)).

    Exact from the factors ``(B, V)`` of ``op`` (see ``chain_kernel``): the
    two-step matrix is ``a V^T`` with ``a = B (V^T B)``. Rows of V in one
    direction share their minima, so with ``A = a W`` (W from
    ``chain_directions``, m columns) the overlap of rows i and j is
    ``sum_g min(A[i, g], A[j, g])``, taken over all pairs i != j: O(n^2 m)
    after the O(n r^2) product, against the O(n^3) of a scan of the dense
    two-step rows. An operator without factors raises ValueError.
    """
    if op.factors is None:
        raise ValueError("the operator carries no factors; build it with chain_kernel")
    B, V = op.factors
    A = B @ ((V.T @ B) @ chain_directions(V))
    if A.shape[0] < 2:
        min_overlap = np.inf
    else:
        overlap = sum(np.minimum.outer(a, a) for a in A.T)
        np.fill_diagonal(overlap, np.inf)
        min_overlap = float(overlap.min())
    # round-off can push the overlap of identical rows just past 1
    beta = max(0.0, 1.0 - min_overlap)
    return beta, min_overlap


def stationary_p(chain, beta=None):
    """Stationary law of the reflection chain from its r x r reduction.

    With ``chain.factors = (B, V)``, r the number of the return kernel's
    re-entry laws, K = V^T B is r x r stochastic, and p = pC
    iff q = pB has qK = q and p = qV^T: q is K's left eigenvector for the
    eigenvalue nearest 1, and p = qV^T is clipped at 0 and normalized. K has
    C's nonzero eigenvalues, so |lambda2(K)| is the chain's exact rate.
    Raises StationaryError when it is >= 1 (the law is not unique), when its
    square exceeds the two-step contraction ``beta`` (measured here unless
    given) by 1e-9, or when TV((pB)V^T, p) > max(2e-12, the largest row-sum
    deviation of C, which no vector beats). Logs, at DEBUG, and keeps as
    diagnostics r, lambda2 and that TV.
    """
    if beta is None:
        beta, _ = dobrushin_coefficient(chain)
    B, V = chain.factors
    evals, left = np.linalg.eig((V.T @ B).T)
    order = np.argsort(np.abs(evals - 1.0))
    lambda2 = float(np.abs(evals[order[1:]]).max(initial=0.0))
    p = V @ left[:, order[0]].real
    p = np.maximum(p / p.sum(), 0.0)
    p /= p.sum()
    fixed_tv = total_variation((p @ B) @ V.T, p)
    tol = max(2e-12, _conservation_defect(chain.row_sums()))
    logger.debug("chain law: r=%d, lambda2 %.4g, fixed-point TV %.3g", B.shape[1], lambda2,
                 fixed_tv)
    if not lambda2 < 1.0:
        raise StationaryError("second eigenvalue %.4g: the law is not unique" % lambda2)
    if lambda2 ** 2 > beta + 1e-9:
        raise StationaryError("chain rate %.4g exceeds sqrt(beta) %.4g" % (lambda2, beta ** 0.5))
    if not fixed_tv <= tol:
        raise StationaryError("fixed point violated: TV=%.3g > %.3g" % (fixed_tv, tol))
    return GridMeasure(grid=chain.grid, masses=p, diagnostics={
        "r": B.shape[1], "lambda2": lambda2, "fixed_point_tv": fixed_tv})


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


def kappa_generator_nullvector(A):
    """Stationary density as the normalized left null vector of the full
    generator, by inverse iteration with the shift 1e-10 max|diag A|, which
    scales with A (to 1e-12 in total variation). Each step is one
    ``np.linalg.solve`` with the shifted transpose, which factors it anew:
    numpy keeps no LU factors, and the iteration takes about three steps.

    Raises StationaryError unless every off-diagonal entry of A is positive
    (A is irreducible, so by Perron-Frobenius its null space is
    one-dimensional), the iteration's second step is at most 1e-3 times its
    first (a clear spectral gap) and ||kappa A||_1 <= 1e-6. A is Metzler with
    rows summing to 0 within a round-off d (below 2e-11 up to 1600 cells), so
    TV(kappa exp(tA), kappa) <= (t/2) ||kappa A||_1 exp(t d): invariance to
    1e-6 up to t = 2. Logs the step count and the three numbers at DEBUG,
    and keeps them as the measure's diagnostics.
    """
    if A.kind != "full-generator":
        raise ValueError("expected the full generator")
    n = A.grid.n
    At = A.entries.T
    shift = 1e-10 * np.abs(np.diag(At)).max()
    B = At.copy()
    B.flat[::n + 1] += shift
    v = np.full(n, 1.0 / n)
    steps = []
    for _ in range(200):
        w = np.linalg.solve(B, v)
        w = w / np.abs(w).sum()
        steps.append(total_variation(np.abs(w), np.abs(v)))
        v = w
        if steps[-1] < 1e-12:
            break
    kappa = np.abs(v)
    kappa = kappa / kappa.sum()
    # the off-diagonal entries are the flat matrix less every (n + 1)-th entry
    ratio = steps[1] / steps[0] if len(steps) > 1 else np.inf
    off_min = float(np.ravel(A.entries)[1:].reshape(n - 1, n + 1)[:, :-1].min(initial=np.inf))
    residual = float(np.abs(kappa @ A.entries).sum())
    logger.debug("null vector: %d steps, step ratio %.3g, smallest off-diagonal %.3g, "
                 "residual %.3g", len(steps), ratio, off_min, residual)
    if not off_min > 0:
        raise StationaryError("generator not irreducible: off-diagonal entry %.3g" % off_min)
    if not ratio <= 1e-3:
        raise StationaryError("no clear spectral gap: step ratio %.3g > 1e-3" % ratio)
    if not residual <= 1e-6:
        raise StationaryError("null vector residual ||kappa A||_1 = %.3g > 1e-6" % residual)
    return GridMeasure(grid=A.grid, masses=kappa, diagnostics={
        "steps": len(steps), "step_ratio": ratio, "min_off_diagonal": off_min,
        "residual": residual})


def kappa_ergodic(ens, grid):
    """Stationary density from the occupation of simulated paths.

    ``ens`` is an EnsembleResult run with an occupation histogram on the
    right grid, or a RenewalResult (each applied its own burn-in).
    Requires at least 50 reflections per path on average, for the averages
    to mix.
    """
    if ens.occupancy is None:
        raise ValueError("ensemble was run without a grid/occupancy")
    if ens.total_reflections.mean() < _ERGODIC_REFLECTIONS:
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
