"""Grid numerics for the stable process killed outside a 1-D domain.

The generator is assembled from exact cell integrals of the jump kernel;
the self-cell principal value is dropped (it cancels against constants and
linear functions by symmetry), giving consistency order ``h**(2-alpha)``
with a provably Metzler sign structure. Heat kernels are matrix
exponentials, the Green operator is the negative inverse, and exit-related
quantities follow by composing these with exact exterior integrals of the
jump kernel.
"""

import dataclasses

import numpy as np
import scipy.linalg

from .geometry import Region1D, build_grid, exterior_complement
from .stable_core import levy_interval_mass


@dataclasses.dataclass
class GridOperator:
    """Dense operator on grid functions, with its cell geometry attached.

    ``entries[i, j]`` maps a grid function f to ``sum_j entries[i, j] f[j]``;
    for kernel-type operators the matrix entry equals the kernel density
    integrated over cell j. ``factors``, when set, is a pair (U, V) with
    ``entries == U @ V.T``.
    """

    grid: object
    entries: np.ndarray
    kind: str
    time: float = None
    factors: tuple = None

    @property
    def n(self):
        return self.grid.n

    def row_sums(self):
        return self.entries.sum(axis=1)

    def density(self):
        """Kernel density values at node pairs: entries divided by cell widths."""
        return self.entries / self.grid.widths[None, :]


def killing_intensity(params, domain, x):
    """Exact rate of jumping from x in D to the complement of D (d=1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for a, b in exterior_complement(domain).pieces:
        out += levy_interval_mass(params, x, a, b)
    return out if out.size > 1 else float(out[0])


def assemble_dirichlet_generator(grid, params):
    """Generator of the killed process on the grid.

    Off-diagonal entries are exact cell integrals of the jump kernel from
    each node; the diagonal makes every row sum to minus the (exact)
    killing intensity at the node.
    """
    if grid.domain.d != 1:
        raise ValueError("grid generators are implemented for d=1 only")
    nodes, cells = grid.nodes, grid.cells
    n = grid.n
    L = np.zeros((n, n))
    for i in range(n):
        mask = np.arange(n) != i
        L[i, mask] = levy_interval_mass(params, nodes[i], cells[mask, 0], cells[mask, 1])
    kappa = killing_intensity(params, grid.domain, nodes)
    L[np.arange(n), np.arange(n)] = -L.sum(axis=1) - kappa
    return GridOperator(grid=grid, entries=L, kind="generator")


def clip_nonnegative(P, what):
    """Clip a kernel matrix at zero in place; a clip beyond 1e-9 means ``what`` failed."""
    low = P.min()
    if low < -1e-9:
        raise FloatingPointError("%s produced entries below -1e-9 (%g)" % (what, low))
    return np.clip(P, 0.0, None, out=P)


def heat_kernel(L, t):
    """Transition operator exp(t L) of the killed process.

    Entries are clipped to zero below; a clip beyond 1e-9 signals a failed
    exponential and raises.
    """
    if t <= 0:
        raise ValueError("time t must be positive")
    if L.kind != "generator":
        raise ValueError("heat_kernel expects a Dirichlet generator")
    P = clip_nonnegative(scipy.linalg.expm(t * L.entries), "matrix exponential")
    return GridOperator(grid=L.grid, entries=P, kind="transition", time=t)


def green_operator(L):
    """Green operator -L^{-1}; row sums approximate mean exit times."""
    if L.kind != "generator":
        raise ValueError("green_operator expects a Dirichlet generator")
    n = L.grid.n
    G = scipy.linalg.solve(L.entries, -np.eye(n))
    return GridOperator(grid=L.grid, entries=G, kind="green")


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
# exterior integrals of the jump kernel against a bounded function g

def _graded_edges(lo, hi, toward_lo, scale):
    """Panel edges on [lo, hi], geometrically refined toward one end."""
    width = hi - lo
    offs = [0.0]
    g = min(1e-4 * scale, width / 4.0)
    while g < width:
        offs.append(g)
        g *= 1.7
    offs.append(width)
    offs = np.unique(np.clip(offs, 0.0, width))
    return lo + offs if toward_lo else hi - offs[::-1]


def exterior_nu_vector(params, grid, g, cutoff_factor=50.0, n_gauss=12):
    """Vector of integrals of nu(x_i, z) g(z) over the complement of D.

    ``g`` may be 1 (or None) for the constant function, a Region1D for an
    indicator, or a callable. Indicators and constants use exact
    antiderivatives; callables use graded Gauss panels near the boundary
    plus an analytic power-law tail on which g is frozen at its value at
    the cutoff.
    """
    nodes = grid.nodes
    domain = grid.domain
    if g is None or (isinstance(g, (int, float)) and float(g) == 1.0):
        return killing_intensity(params, domain, nodes)
    if isinstance(g, Region1D):
        out = np.zeros(grid.n)
        ext = exterior_complement(domain)
        for a, b in g.intersect(ext).pieces:
            out += levy_interval_mass(params, nodes, a, b)
        return out
    if not callable(g):
        raise TypeError("g must be 1, a Region1D, or callable")
    lo_d, hi_d = domain.bounding_box
    diam = hi_d - lo_d
    cutoff = cutoff_factor * diam
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_gauss)
    out = np.zeros(grid.n)
    for a, b in exterior_complement(domain).pieces:
        if np.isinf(a):
            edges = _graded_edges(b - cutoff, b, toward_lo=False, scale=diam)
            far_rep = b - cutoff
            tail = levy_interval_mass(params, nodes, -np.inf, b - cutoff) * g(far_rep)
            out += tail
        elif np.isinf(b):
            edges = _graded_edges(a, a + cutoff, toward_lo=True, scale=diam)
            far_rep = a + cutoff
            tail = levy_interval_mass(params, nodes, a + cutoff, np.inf) * g(far_rep)
            out += tail
        else:
            mid = 0.5 * (a + b)
            e1 = _graded_edges(a, mid, toward_lo=True, scale=b - a)
            e2 = _graded_edges(mid, b, toward_lo=False, scale=b - a)
            edges = np.unique(np.concatenate([e1, e2]))
        for plo, phi in zip(edges[:-1], edges[1:]):
            zq = 0.5 * (phi - plo) * gl_x + 0.5 * (phi + plo)
            wq = 0.5 * (phi - plo) * gl_w
            gz = np.array([g(z) for z in zq], dtype=float)
            dist = np.abs(nodes[:, None] - zq[None, :])
            out += (params.c_levy * dist ** (-1.0 - params.alpha)) @ (wq * gz)
    return out


def _discounted_solve(op, lam, g, params):
    """Solve ``(lam I - op) x = b``, b the jump-kernel integral of g over the complement."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    b = exterior_nu_vector(params, op.grid, g)
    return scipy.linalg.solve(lam * np.eye(op.n) - op.entries, b)


def resolvent_u(L, lam, g, params):
    """Expected discounted boundary payoff of the killed process.

    Solves ``(lam I - L) u = b`` where b integrates the jump kernel against
    g over the complement; u approximates the expectation of
    ``exp(-lam tau) g(exit point)``.
    """
    if L.kind != "generator":
        raise ValueError("resolvent_u expects a Dirichlet generator")
    return _discounted_solve(L, lam, g, params)


def default_operators(params, domain, n_cells):
    """Convenience bundle: grid, generator, Green operator, harmonic kernel."""
    grid = build_grid(domain, n_cells)
    L = assemble_dirichlet_generator(grid, params)
    G = green_operator(L)
    H = harmonic_kernel(G, params)
    return grid, L, G, H
