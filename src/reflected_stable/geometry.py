"""Domains, boundary distance, exterior shells, and 1-D grids."""

import dataclasses

import numpy as np


class DomainError(ValueError):
    """Invalid domain description."""


class Region1D:
    """Finite union of closed intervals on the line; endpoints may be infinite.

    Used for exterior sets (complements, shells) and target regions of
    reflection kernels. Pieces are stored sorted and non-overlapping.
    """

    def __init__(self, pieces):
        arr = np.atleast_2d(np.asarray(pieces, dtype=float))
        if arr.size == 0:
            arr = np.zeros((0, 2))
        if arr.shape[1] != 2 or np.any(arr[:, 0] > arr[:, 1]):
            raise ValueError("pieces must be (k, 2) with a <= b")
        order = np.argsort(arr[:, 0])
        merged = []
        for a, b in arr[order]:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        self.pieces = np.array(merged) if merged else np.zeros((0, 2))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for a, b in self.pieces:
            out |= (x >= a) & (x <= b)
        return out

    def intersect(self, other):
        out = []
        for a, b in self.pieces:
            for c, d in other.pieces:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    out.append((lo, hi))
        return Region1D(out)

    def length(self):
        return float(np.sum(self.pieces[:, 1] - self.pieces[:, 0])) if len(self.pieces) else 0.0

    def is_subset_of(self, other):
        for a, b in self.pieces:
            if not np.any((other.pieces[:, 0] <= a) & (other.pieces[:, 1] >= b)):
                return False
        return True

    def __repr__(self):
        return "Region1D(%s)" % (self.pieces.tolist(),)


class Domain:
    """Base class: a nonempty open bounded set."""

    d = 1

    def contains(self, x):
        raise NotImplementedError

    def boundary_distance(self, x):
        """Euclidean distance from x to the boundary: zero exactly on it, positive elsewhere."""
        raise NotImplementedError

    def measure(self):
        raise NotImplementedError


class IntervalUnion(Domain):
    """Open union of finitely many disjoint intervals: the 1-D domain."""

    def __init__(self, intervals):
        arr = np.atleast_2d(np.asarray(intervals, dtype=float))
        if arr.shape[0] < 1 or arr.shape[1] != 2:
            raise DomainError("need a nonempty (k, 2) list of intervals")
        if not np.all(np.isfinite(arr)):
            raise DomainError("intervals must be bounded")
        arr = arr[np.argsort(arr[:, 0])]
        if np.any(arr[:, 0] >= arr[:, 1]):
            raise DomainError("each interval needs positive length")
        if np.any(arr[1:, 0] < arr[:-1, 1]):
            raise DomainError("intervals must be disjoint")
        self.intervals = arr
        self.bounding_box = (float(arr[0, 0]), float(arr[-1, 1]))

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (x > a) & (x < b)
        return out

    def boundary_distance(self, x):
        x = np.asarray(x, dtype=float)
        endpoints = self.intervals.ravel()
        return np.min(np.abs(x[..., None] - endpoints), axis=-1)

    def measure(self):
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))

    def __repr__(self):
        return "IntervalUnion(%s)" % (self.intervals.tolist(),)


class Interval(IntervalUnion):
    """Open interval (a, b): the one-piece IntervalUnion."""

    def __init__(self, a, b):
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise DomainError("interval requires finite a < b")
        self.a, self.b = float(a), float(b)
        super().__init__([[self.a, self.b]])

    def contains(self, x):
        # two comparisons instead of the union loop: the per-step hot path
        x = np.asarray(x, dtype=float)
        return (x > self.a) & (x < self.b)

    def __repr__(self):
        return "Interval(%g, %g)" % (self.a, self.b)


class Ball(Domain):
    """Open ball in R^d, d >= 2; the 1-D ball is the Interval(c - r, c + r)."""

    def __init__(self, center, radius):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        if self.center.size < 2:
            raise DomainError("a 1-D ball is the interval: use Interval(c - r, c + r)")
        if radius <= 0:
            raise DomainError("ball requires radius > 0")
        self.radius = float(radius)
        self.d = self.center.size

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(np.atleast_2d(x) - self.center, axis=-1) < self.radius

    def boundary_distance(self, x):
        x = np.asarray(x, dtype=float)
        return np.abs(np.linalg.norm(x - self.center, axis=-1) - self.radius)

    def measure(self):
        from scipy.special import gamma
        return float(np.pi ** (self.d / 2.0) / gamma(self.d / 2.0 + 1.0) * self.radius ** self.d)

    def __repr__(self):
        return "Ball(%s, %g)" % (self.center.tolist(), self.radius)


class AnnularShell:
    """Exterior shell of a ball: radii in [r_inner, r_outer] about the center."""

    def __init__(self, center, r_inner, r_outer):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.r_inner, self.r_outer = float(r_inner), float(r_outer)

    def contains(self, x):
        r = np.linalg.norm(np.atleast_2d(np.asarray(x, float)) - self.center, axis=-1)
        return (r >= self.r_inner) & (r <= self.r_outer)


def exterior_complement(domain):
    """The complement of a 1-D domain as a Region1D (boundary included)."""
    ivs = _intervals_of(domain)
    pieces = [(-np.inf, ivs[0, 0])]
    for k in range(len(ivs) - 1):
        pieces.append((ivs[k, 1], ivs[k + 1, 0]))
    pieces.append((ivs[-1, 1], np.inf))
    return Region1D(pieces)


def exterior_shell(domain, r):
    """Exterior collar of depth ``r``: points of the complement within
    boundary distance ``r``.

    Returns a Region1D for 1-D domains and an AnnularShell for balls.
    """
    if r <= 0:
        raise ValueError("shell depth r must be positive")
    if isinstance(domain, Ball):
        return AnnularShell(domain.center, domain.radius, domain.radius + r)
    ivs = _intervals_of(domain)
    near = Region1D([(e - r, e + r) for e in ivs.ravel()])
    return exterior_complement(domain).intersect(near)


def _intervals_of(domain):
    if isinstance(domain, IntervalUnion):
        return domain.intervals
    raise DomainError("operation needs a 1-D domain, got %r" % (domain,))


@dataclasses.dataclass(frozen=True)
class Grid:
    """Uniform cell partition of a 1-D domain.

    Attributes
    ----------
    domain : Domain
    cells : ndarray, shape (n, 2)
    nodes : ndarray, shape (n,)
        Cell midpoints.
    widths : ndarray, shape (n,)
    h : float
        Maximal cell width.
    """

    domain: Domain
    cells: np.ndarray
    nodes: np.ndarray
    widths: np.ndarray
    h: float

    @property
    def n(self):
        return len(self.nodes)

    def cell_index(self, x):
        """Index of the cell containing each point (nearest cell if outside).

        Always equals ``searchsorted(cells[:, 0], x, side="right") - 1``
        clipped to ``[0, n - 1]``, so nan and +inf land in the last cell and
        -inf in the first. On a one-interval grid the cells share one width
        h, and the index is ``floor((x - a) / h)`` corrected by at most one
        cell against the cell edges, O(1) per point; an interval union keeps
        the binary search.
        """
        x = np.asarray(x, dtype=float)
        if len(self.domain.intervals) > 1:
            idx = np.searchsorted(self.cells[:, 0], x, side="right") - 1
            return np.clip(idx, 0, self.n - 1)
        a, b = self.domain.intervals[0]
        guess = np.subtract(x, a, out=np.empty(x.shape))
        with np.errstate(over="ignore"):
            guess *= self.n / (b - a)
        # fmin sends nan to the last cell, as the binary search does; the
        # clamped guess is >= 0, so the integer cast is its floor
        np.fmin(guess, self.n - 1, out=guess)
        np.maximum(guess, 0, out=guess)
        idx = guess.astype(np.intp)
        idx -= self.cells[:, 0].take(idx) > x
        # idx is -1 only for x < a, and cells[-1, 1] = b > x keeps it there
        idx += self.cells[:, 1].take(idx) <= x
        return np.clip(idx, 0, self.n - 1)


def build_grid(domain, n_cells):
    """Uniform grid with ``n_cells`` cells over a 1-D domain.

    For interval unions, cells are allotted to components in proportion to
    their lengths (at least one each); within a component the cells share a
    common width, so the cells tile the domain exactly.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be positive")
    ivs = _intervals_of(domain)
    lengths = ivs[:, 1] - ivs[:, 0]
    total = lengths.sum()
    if len(ivs) == 1:
        counts = np.array([n_cells])
    else:
        if n_cells < len(ivs):
            raise ValueError("need at least one cell per component")
        raw = lengths / total * n_cells
        counts = np.maximum(1, np.floor(raw).astype(int))
        # largest-remainder fixup so the counts sum exactly to n_cells
        while counts.sum() < n_cells:
            counts[np.argmax(raw - counts)] += 1
        while counts.sum() > n_cells:
            adjustable = counts > 1
            k = np.argmin(np.where(adjustable, raw - counts, np.inf))
            counts[k] -= 1
    cells = []
    for (a, b), m in zip(ivs, counts):
        edges = np.linspace(a, b, m + 1)
        cells.extend(zip(edges[:-1], edges[1:]))
    cells = np.array(cells)
    widths = cells[:, 1] - cells[:, 0]
    nodes = cells.mean(axis=1)
    return Grid(domain=domain, cells=cells, nodes=nodes, widths=widths, h=float(widths.max()))
