"""Grid numerics for the stable process killed outside a 1-D domain.

The generator is assembled from exact cell integrals of the jump kernel;
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
from .stable_core import levy_interval_mass


@dataclasses.dataclass
class GridOperator:
    """Dense operator on grid functions, with its cell geometry attached.

    ``entries[i, j]`` maps a grid function f to ``sum_j entries[i, j] f[j]``;
    for kernel-type operators the matrix entry equals the kernel density
    integrated over cell j. ``factors``, when set, is a pair (U, V) with
    ``entries == U @ V.T``. ``spectrum``, set on an assembled generator, is
    a triple (lam, Q, of) with ``W^1/2 of W^-1/2 == Q diag(lam) Q^T``, W the
    diagonal of cell widths and Q orthogonal; ``of`` is the read-only array
    the spectrum was taken of, and the spectrum is used only while it is
    still ``entries`` (so ``dataclasses.replace(L, entries=...)`` drops it).
    """

    grid: object
    entries: np.ndarray
    kind: str
    time: float = None
    factors: tuple = None
    spectrum: tuple = None

    @property
    def n(self):
        return self.grid.n

    def row_sums(self):
        return self.entries.sum(axis=1)

    def density(self):
        """Kernel density values at node pairs: entries divided by cell widths."""
        return self.entries / self.grid.widths[None, :]


def killing_intensity(params, domain, x):
    """Exact rate of jumping from x in D to the complement of D (d=1), as an array."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for a, b in exterior_complement(domain).pieces:
        out += levy_interval_mass(params, x, a, b)
    return out


def assemble_dirichlet_generator(grid, params):
    """Generator of the killed process on the grid, with its spectrum.

    Off-diagonal entries are exact cell integrals of the jump kernel from
    each node, with each pair averaged so that ``w_i L[i, j] == w_j L[j, i]``
    (w the cell widths; this moves entries only at round-off on equal cells,
    and by less than 1e-7 of the row's largest entry on an interval union,
    where widths differ between components); the diagonal
    makes every row sum to minus the (exact) killing intensity at the node.
    L is thus self-adjoint for the inner product weighted by W = diag(w),
    and one ``eigh`` of the symmetric ``W^1/2 L W^-1/2`` is kept on the
    result as ``spectrum`` (see GridOperator); the entries are read-only.
    """
    if grid.domain.d != 1:
        raise ValueError("grid generators are implemented for d=1 only")
    nodes, cells, w = grid.nodes, grid.cells, grid.widths
    n = grid.n
    B = np.zeros((n, n))  # B[i, j] = w_i * L[i, j], symmetrized below
    for i in range(n):
        mask = np.arange(n) != i
        B[i, mask] = w[i] * levy_interval_mass(params, nodes[i], cells[mask, 0],
                                               cells[mask, 1])
    B = 0.5 * (B + B.T)
    L = B / w[:, None]
    diag = -L.sum(axis=1) - killing_intensity(params, grid.domain, nodes)
    np.fill_diagonal(L, diag)
    S = B / np.sqrt(np.outer(w, w))
    np.fill_diagonal(S, diag)
    L.setflags(write=False)
    return GridOperator(grid=grid, entries=L, kind="generator",
                        spectrum=(*np.linalg.eigh(S), L))


def clip_nonnegative(P, what):
    """Clip a kernel matrix at zero in place; a clip beyond 1e-9 means ``what`` failed."""
    low = P.min()
    if low < -1e-9:
        raise FloatingPointError("%s produced entries below -1e-9 (%g)" % (what, low))
    return np.clip(P, 0.0, None, out=P)


def generator_spectrum(L):
    """(lam, Q, sqrt(w)) of an assembled generator; see GridOperator.spectrum."""
    if L.kind != "generator" or L.spectrum is None or L.spectrum[2] is not L.entries:
        raise ValueError("expected a Dirichlet generator from assemble_dirichlet_generator")
    lam, Q, _ = L.spectrum
    return lam, Q, np.sqrt(L.grid.widths)


def _spectral_function(L, f_half, kind, time=None):
    """``W^-1/2 Q diag(f) Q^T W^1/2`` with ``f = f_half**2``, as X X^T for X = Q diag(f_half)."""
    lam, Q, sw = generator_spectrum(L)
    X = Q * f_half(lam)
    P = X @ X.T
    P *= sw[None, :]
    P /= sw[:, None]
    return GridOperator(grid=L.grid, entries=P, kind=kind, time=time)


def heat_kernel(L, t):
    """Transition operator exp(t L) of the killed process.

    Read off the generator's spectrum: ``W^-1/2 Q diag(exp(t lam)) Q^T W^1/2``.
    Entries are clipped to zero below; a clip beyond 1e-9 signals a failed
    exponential and raises.
    """
    if t <= 0:
        raise ValueError("time t must be positive")
    P = _spectral_function(L, lambda lam: np.exp(0.5 * t * lam), "transition", t)
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

    def nu_vector(self, region):
        """Exact jump-kernel masses nu(x_v, region) at all nodes."""
        return exterior_nu_vector(self.params, self.grid, region)

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
        return self.green.entries @ self.nu_vector(region)

    def mass(self, i, region):
        return float(self.masses(region)[i])

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

    ``g`` is 1 (or None) for the constant function or a Region1D for an
    indicator; both use exact antiderivatives. Anything else raises
    TypeError.
    """
    nodes = grid.nodes
    domain = grid.domain
    if g is None or (isinstance(g, (int, float)) and float(g) == 1.0):
        return killing_intensity(params, domain, nodes)
    if not isinstance(g, Region1D):
        raise TypeError("g must be 1 or a Region1D")
    out = np.zeros(grid.n)
    for a, b in g.intersect(exterior_complement(domain)).pieces:
        out += levy_interval_mass(params, nodes, a, b)
    return out


def resolvent_u(L, lam, g, params):
    """Expected discounted boundary payoff of the killed process.

    Solves ``(lam I - L) u = b`` where b integrates the jump kernel against
    g over the complement; u approximates the expectation of
    ``exp(-lam tau) g(exit point)``. Read off the generator's spectrum:
    ``u = W^-1/2 Q diag(1/(lam - lam_k)) Q^T W^1/2 b``.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lam_k, Q, sw = generator_spectrum(L)
    b = exterior_nu_vector(params, L.grid, g)
    return Q @ ((Q.T @ (sw * b)) / (lam - lam_k)) / sw


def default_operators(params, domain, n_cells):
    """Convenience bundle: grid, generator, Green operator, harmonic kernel."""
    grid = build_grid(domain, n_cells)
    L = assemble_dirichlet_generator(grid, params)
    G = green_operator(L)
    H = harmonic_kernel(G, params)
    return grid, L, G, H
