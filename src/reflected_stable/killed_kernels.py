"""Grid numerics for the stable process killed outside a 1-D domain.

The generator is assembled from exact cell integrals of the jump kernel,
all taken in one array pass from the signed potential of
``stable_core.levy_potential``, the formula of every exterior integral too;
the self-cell principal value is dropped (it cancels against constants and
linear functions by symmetry), giving consistency order ``h**(2-alpha)``
with a provably Metzler sign structure. The assembled generator is
self-adjoint in the cell-width inner product, and one symmetric
eigendecomposition taken at assembly gives the heat kernels (exp(t lam_k)),
the Green operator (-1/lam_k) and the resolvents (1/(lam - lam_k)) from the
generator's eigenvalues lam_k. Exit-related quantities follow by composing
these with exact exterior integrals of the jump kernel.
"""

import dataclasses

import numpy as np

from .geometry import Region1D, build_grid, exterior_complement
from .stable_core import levy_interval_mass, levy_potential


@dataclasses.dataclass
class GridOperator:
    """Operator on grid functions, dense or factored, with its cell geometry attached.

    ``entries[i, j]`` maps a grid function f to ``sum_j entries[i, j] f[j]``;
    for kernel-type operators the matrix entry equals the kernel density
    integrated over cell j. ``factors``, when set, is a pair (U, V) of n x r
    arrays and the operator is ``U @ V.T``, carried only in that form: a
    factored operator has ``entries`` None, and ``row_sums`` reads it from
    the factors. ``spectrum``, set on an assembled generator, is
    a triple (lam, Q, of) with ``W^1/2 of W^-1/2 == Q diag(lam) Q^T``, W the
    diagonal of cell widths and Q orthogonal; ``of`` is the read-only array
    the spectrum was taken of, and the spectrum is used only while it is
    still ``entries`` (so ``dataclasses.replace(L, entries=...)`` drops it).
    ``parts``, set on a full generator, is a triple (L, M, of) with
    ``of == U @ V.T + L.entries``, (U, V) the factors of M: the killed generator,
    the return operator and the read-only array they were summed into, used on
    the same terms as ``spectrum``. ``params``, set only by
    ``assemble_dirichlet_generator``, is the StableParams of the process.
    """

    grid: object
    entries: np.ndarray
    kind: str
    factors: tuple = None
    spectrum: tuple = None
    parts: tuple = None
    params: object = None

    def row_sums(self):
        if self.factors is not None:
            U, V = self.factors
            return U @ V.sum(axis=0)
        return self.entries.sum(axis=1)


def region_mass(params, x, region):
    """Jump-kernel mass of a Region1D from each point of the 1-D array x: one
    ``levy_interval_mass`` call, its columns summed in piece order."""
    pieces = region.pieces
    out = np.zeros(x.shape)
    for col in levy_interval_mass(params, x[:, None], pieces[:, 0], pieces[:, 1]).T:
        out += col
    return out


def killing_intensity(params, domain, x):
    """Exact rate of jumping from x in D to the complement of D (d=1), as an array."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return region_mass(params, x, exterior_complement(domain))


def assemble_dirichlet_generator(grid, params):
    """Generator of the killed process on the grid, with its spectrum.

    Off-diagonal entries are exact cell integrals of the jump kernel from
    each node, ``(c/alpha) (P(x_i, a_j) - P(x_i, b_j))`` over cell
    (a_j, b_j) with P the signed potential of ``levy_potential``: two n x n
    powers in one array pass, equal float for float to n calls of
    ``levy_interval_mass``. The cells must be sorted and disjoint with each
    node strictly inside its own (ValueError otherwise), so no other cell
    holds a node. Each pair is averaged so that ``w_i L[i, j] == w_j L[j, i]``
    (w the cell widths; this moves entries only at round-off on equal cells,
    and by less than 1e-7 of the row's largest entry on an interval union,
    where widths differ between components); the diagonal
    makes every row sum to minus the (exact) killing intensity at the node.
    L is thus self-adjoint for the inner product weighted by W = diag(w),
    and one ``eigh`` of the symmetric ``W^1/2 L W^-1/2`` is kept on the
    result as ``spectrum`` (see GridOperator), with ``params``; the entries are read-only.
    """
    nodes, cells, w = grid.nodes, grid.cells, grid.widths
    a, b = cells[:, 0], cells[:, 1]
    if not (np.all((a < nodes) & (nodes < b)) and np.all(b[:-1] <= a[1:])):
        raise ValueError("grid cells must be sorted and disjoint, each holding its "
                         "node strictly inside")
    # raw[i, j] = (c/alpha) w_i (P(x_i, a_j) + (-P(x_i, b_j))), w_i L[i, j] before the pair average
    raw = levy_potential(params, a - nodes[:, None])
    raw += levy_potential(params, nodes[:, None] - b)
    raw *= params.c_levy / params.alpha
    raw *= w[:, None]
    np.fill_diagonal(raw, 0.0)
    B = np.add(raw, raw.T)
    B *= 0.5
    L = np.divide(B, w[:, None], out=raw)
    diag = -L.sum(axis=1) - killing_intensity(params, grid.domain, nodes)
    np.fill_diagonal(L, diag)
    S = np.outer(w, w)
    np.sqrt(S, out=S)
    np.divide(B, S, out=S)
    del B   # before the eigh, L and S are the only n x n arrays held
    np.fill_diagonal(S, diag)
    L.setflags(write=False)
    return GridOperator(grid=grid, entries=L, kind="generator",
                        spectrum=(*np.linalg.eigh(S), L), params=params)


def clip_nonnegative(P, what):
    """Clip a kernel matrix at zero in place and return whether an entry moved;
    a clip beyond 1e-9 means ``what`` failed."""
    low = P.min()
    if low < -1e-9:
        raise FloatingPointError("%s produced entries below -1e-9 (%g)" % (what, low))
    np.clip(P, 0.0, None, out=P)
    return bool(low < 0)


def generator_spectrum(L):
    """(lam, Q, sqrt(w)) of an assembled generator; see GridOperator.spectrum."""
    if L.kind != "generator" or L.spectrum is None or L.spectrum[2] is not L.entries:
        raise ValueError("expected a Dirichlet generator from assemble_dirichlet_generator")
    lam, Q, _ = L.spectrum
    return lam, Q, np.sqrt(L.grid.widths)


def _spectral_function(L, f_half, kind):
    """``W^-1/2 Q diag(f) Q^T W^1/2`` with ``f = f_half**2``, as X X^T for X = Q diag(f_half)."""
    lam, Q, sw = generator_spectrum(L)
    f = f_half(lam)
    # a weight whose square is below the least normal float adds only
    # subnormal products to X X^T: slow, and no entry moves on the grids tested
    f[f * f < np.finfo(float).tiny] = 0.0
    X = Q * f
    P = X @ X.T
    P *= sw[None, :]
    P /= sw[:, None]
    return GridOperator(grid=L.grid, entries=P, kind=kind)


def heat_kernel(L, t):
    """Transition operator exp(t L) of the killed process.

    Read off the generator's spectrum: ``W^-1/2 Q diag(exp(t lam)) Q^T W^1/2``.
    Entries are clipped to zero below; a clip beyond 1e-9 signals a failed
    exponential and raises.
    """
    if t <= 0:
        raise ValueError("time t must be positive")
    P = _spectral_function(L, lambda lam: np.exp(0.5 * t * lam), "transition")
    clip_nonnegative(P.entries, "matrix exponential")
    return P


def green_operator(L):
    """Green operator -L^{-1}; row sums approximate mean exit times.

    Read off the generator's spectrum: ``W^-1/2 Q diag(-1/lam) Q^T W^1/2``
    (every eigenvalue is negative, at most minus the least killing
    intensity, by Gershgorin's theorem on the rows of L).
    """
    return _spectral_function(L, lambda lam: 1.0 / np.sqrt(-lam), "green")


class HarmonicKernel:
    """Exit-position law from each grid node, as masses of exterior regions.

    Composes the Green operator with exact exterior integrals of the jump
    kernel: the mass of an exterior region B seen from node i is
    ``sum_v G[i, v] * nu(x_v, B)``.
    """

    def __init__(self, green, params):
        self.grid = green.grid
        self.green = green
        self.params = params

    def masses(self, region):
        """Vector over nodes of the exit probability into the region.

        The region must lie in the complement of D (it may touch the
        boundary); a region entering D raises.
        """
        if isinstance(region, Region1D):
            for a, b in region.pieces:
                for da, db in self.grid.domain.intervals:
                    if min(b, db) - max(a, da) > 0:
                        raise ValueError(
                            "region piece (%g, %g) enters the domain" % (a, b))
        return self.green.entries @ exterior_nu_vector(self.params, self.grid, region)

    def total_masses(self):
        """Exit probabilities into the whole complement (should be ~1)."""
        return self.green.entries @ killing_intensity(self.params, self.grid.domain, self.grid.nodes)


def harmonic_kernel(green, params):
    """Exit-position kernel built from a Green operator."""
    if green.kind != "green":
        raise ValueError("harmonic_kernel expects a Green operator")
    return HarmonicKernel(green, params)


# ---------------------------------------------------------------------------
# exterior integrals of the jump kernel against a payoff g

def exterior_nu_vector(params, grid, g):
    """Vector of integrals of nu(x_i, z) g(z) over the complement of D.

    ``g`` is 1 for the constant function or a Region1D for an indicator;
    both use exact antiderivatives. Anything else raises TypeError.
    """
    nodes = grid.nodes
    domain = grid.domain
    if isinstance(g, (int, float)) and float(g) == 1.0:
        return killing_intensity(params, domain, nodes)
    if not isinstance(g, Region1D):
        raise TypeError("g must be 1 or a Region1D")
    return region_mass(params, nodes, g.intersect(exterior_complement(domain)))


def resolvent_u(L, lam, g):
    """Expected discounted boundary payoff of the killed process.

    Solves ``(lam I - L) u = b`` where b integrates the jump kernel of
    ``L.params`` against g over the complement; u approximates the expectation
    of ``exp(-lam tau) g(exit point)``. Read off the generator's spectrum:
    ``u = W^-1/2 Q diag(1/(lam - lam_k)) Q^T W^1/2 b``.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lam_k, Q, sw = generator_spectrum(L)
    b = exterior_nu_vector(L.params, L.grid, g)
    return Q @ ((Q.T @ (sw * b)) / (lam - lam_k)) / sw


def default_operators(params, domain, n_cells):
    """Convenience bundle: grid, generator, Green operator, harmonic kernel."""
    grid = build_grid(domain, n_cells)
    L = assemble_dirichlet_generator(grid, params)
    G = green_operator(L)
    H = harmonic_kernel(G, params)
    return grid, L, G, H
