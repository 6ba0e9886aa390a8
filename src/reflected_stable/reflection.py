"""Return kernels from the exterior into the domain, and their admissibility check.

A return kernel prescribes, for every exterior point z, the probability law
of the re-entry point in D. Admissibility (the concentration bound)
requires a compact witness set H in D whose mass is bounded below uniformly
over all exterior points; each built-in family carries such a witness.
"""

import dataclasses

import numpy as np

from .geometry import Region1D, exterior_complement


class KernelError(ValueError):
    """Invalid return-kernel construction."""


# ---------------------------------------------------------------------------
# probability measures on D used by constant kernels

class UniformMeasure:
    """Uniform probability measure on a subinterval (a, b)."""

    def __init__(self, a, b):
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise KernelError("uniform measure needs finite a < b")
        self.a, self.b = float(a), float(b)

    def total_mass(self):
        return 1.0

    def mass(self, region):
        inter = region.intersect(Region1D([(self.a, self.b)]))
        return inter.length() / (self.b - self.a)

    def cell_masses(self, grid):
        lo = np.clip(grid.cells[:, 0], self.a, self.b)
        hi = np.clip(grid.cells[:, 1], self.a, self.b)
        return np.maximum(hi - lo, 0.0) / (self.b - self.a)

    def sample(self, rng, size):
        return rng.uniform(self.a, self.b, size=size)

    def default_witness(self):
        quarter = (self.b - self.a) / 4.0
        h = Region1D([(self.a + quarter, self.b - quarter)])
        return h, 0.5


class AtomMeasure:
    """Finitely many atoms with given weights."""

    def __init__(self, points, weights=None):
        self.points = np.atleast_1d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(self.points)):
            raise KernelError("atoms must be finite points")
        if weights is None:
            weights = np.full(self.points.shape[0], 1.0 / self.points.shape[0])
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise KernelError("atom weights must be nonnegative")

    def total_mass(self):
        return float(self.weights.sum())

    def mass(self, region):
        return float(self.weights[region.contains(self.points)].sum())

    def cell_masses(self, grid):
        out = np.zeros(grid.n)
        np.add.at(out, grid.cell_index(self.points), self.weights)
        return out

    def sample(self, rng, size):
        idx = rng.choice(len(self.points), size=size, p=self.weights / self.weights.sum())
        return self.points[idx]

    def default_witness(self):
        return Region1D([(p, p) for p in self.points]), float(self.weights.sum())


class BallUniformMeasure:
    """Uniform probability measure on a ball (for d >= 2 simulations)."""

    def __init__(self, center, radius):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        self.d = self.center.size

    def total_mass(self):
        return 1.0

    def radial_band_mass(self, r_lo, r_hi):
        r_lo = max(0.0, min(r_lo, self.radius))
        r_hi = max(0.0, min(r_hi, self.radius))
        return (r_hi ** self.d - r_lo ** self.d) / self.radius ** self.d

    def sample(self, rng, size):
        g = rng.standard_normal(size=(size, self.d))
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        r = self.radius * rng.random(size=size) ** (1.0 / self.d)
        return self.center + r[:, None] * u

    def default_witness(self):
        # central ball of half radius
        return ("ball", self.center, self.radius / 2.0), self.radial_band_mass(0.0, self.radius / 2.0)


# ---------------------------------------------------------------------------
# kernels

class ReflectionKernel:
    """Markov kernel mapping exterior points to re-entry laws on D.

    Attributes
    ----------
    domain : Domain
    witness_H : Region1D
        Compact witness set for the concentration bound.
    witness_theta : float
        Claimed uniform lower bound for the witness mass.
    """

    domain = None
    witness_H = None
    witness_theta = None

    def mass(self, z, region):
        raise NotImplementedError

    def cell_masses(self, z, grid):
        raise NotImplementedError

    def sample(self, z, rng, size):
        raise NotImplementedError

    def average(self, z, grid, values):
        """Integral of a grid function against mu(z, .) (cellwise-constant)."""
        return float(np.dot(self.cell_masses(z, grid), values))

    def z_pieces(self):
        """Partition of the exterior on which z -> mu(z, .) is constant.

        Returns a list of (piece, representative z) with pieces covering the
        complement. The perturbation operator requires it.
        """
        raise NotImplementedError


class ConstantKernel(ReflectionKernel):
    """Kernel ignoring the exit point: mu(z, .) = m for every z."""

    def __init__(self, domain, m):
        self.domain = domain
        self.m = m
        total = m.total_mass()
        if abs(total - 1.0) > 1e-10:
            raise KernelError("measure not normalized: total mass %.12g" % total)
        if domain.d == 1:
            # the complement is closed, so an atom on the boundary is outside
            outside = m.mass(exterior_complement(domain))
            if outside > 0:
                raise KernelError("law puts mass %.6g outside the open domain %r"
                                  % (outside, domain))
        self.witness_H, self.witness_theta = m.default_witness()
        if self.witness_theta <= 0:
            raise KernelError("witness mass must be positive")

    def mass(self, z, region):
        return self.m.mass(region)

    def cell_masses(self, z, grid):
        return self.m.cell_masses(grid)

    def sample(self, z, rng, size):
        return self.m.sample(rng, size=size)

    def z_pieces(self):
        ext = exterior_complement(self.domain)
        rep = ext.pieces[-1][0] + 1.0
        return [(Region1D([p]) , rep) for p in ext.pieces]


class ProjectionKernel(ReflectionKernel):
    """Insert uniformly at a fixed depth inward from the boundary point
    nearest to the exit point (1-D domains).

    The re-entry interval has length ``width`` and is centered ``depth``
    inside D, measured from the nearest boundary point; it depends on z only
    through that nearest boundary point, so the kernel is constant on
    finitely many exterior pieces.
    """

    def __init__(self, domain, depth, width):
        if domain.d != 1:
            raise KernelError("projection kernel is implemented for 1-D domains")
        self.domain = domain
        self.depth, self.width = float(depth), float(width)
        ivs = domain.intervals
        min_len = np.min(ivs[:, 1] - ivs[:, 0])
        if not (0 < width and width / 2.0 < depth and depth + width / 2.0 < min_len / 2.0):
            raise KernelError(
                "need width/2 < depth and depth + width/2 < half the minimal "
                "component length (depth=%g, width=%g, min component=%g)"
                % (depth, width, min_len)
            )
        self.intervals = ivs
        lo, hi = depth - width / 4.0, depth + width / 4.0
        pieces = []
        for a, b in ivs:
            pieces.append((a + lo, a + hi))
            pieces.append((b - hi, b - lo))
        self.witness_H = Region1D(pieces)
        self.witness_theta = min(
            self.mass(z, self.witness_H) for _, z in self.z_pieces()
        )
        if self.witness_theta <= 0:
            raise KernelError("projection kernel witness failed (geometry bug)")

    def _insertion(self, z):
        """Insertion interval (lo, hi) for each exterior point z."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        endpoints = self.intervals.ravel()
        # inward direction: +1 at left endpoints, -1 at right endpoints
        inward = np.tile([1.0, -1.0], len(self.intervals))
        k = np.argmin(np.abs(z[:, None] - endpoints), axis=1)
        center = endpoints[k] + inward[k] * self.depth
        return center - self.width / 2.0, center + self.width / 2.0

    def mass(self, z, region):
        lo, hi = self._insertion(z)
        total = np.zeros_like(lo)
        for a, b in region.pieces:
            total += np.maximum(np.minimum(hi, b) - np.maximum(lo, a), 0.0)
        out = total / self.width
        return float(out[0]) if np.ndim(z) == 0 else out

    def cell_masses(self, z, grid):
        lo, hi = self._insertion(z)
        cover = np.maximum(
            np.minimum(hi[:, None], grid.cells[:, 1]) - np.maximum(lo[:, None], grid.cells[:, 0]),
            0.0,
        ) / self.width
        return cover[0] if np.ndim(z) == 0 else cover

    def sample(self, z, rng, size):
        lo, hi = self._insertion(z)
        return rng.uniform(lo, hi, size=size)

    def z_pieces(self):
        ext = exterior_complement(self.domain)
        out = []
        for a, b in ext.pieces:
            if np.isinf(a):
                out.append((Region1D([(a, b)]), b - 1.0))
            elif np.isinf(b):
                out.append((Region1D([(a, b)]), a + 1.0))
            else:
                mid = 0.5 * (a + b)
                out.append((Region1D([(a, mid)]), 0.5 * (a + mid)))
                out.append((Region1D([(mid, b)]), 0.5 * (mid + b)))
        return out


def make_constant_kernel(domain, m):
    """Constant return kernel with law ``m`` regardless of the exit point.

    ``m`` may be a UniformMeasure, AtomMeasure or BallUniformMeasure. On a
    1-D domain ``m`` must carry no mass outside open D (boundary atoms
    included), else KernelError. The witness is the measure's own: a
    compact set carrying at least half of the mass of ``m``.
    """
    return ConstantKernel(domain, m)


def make_projection_kernel(domain, depth, width):
    """Return kernel inserting uniformly at a fixed depth inward from the
    boundary point nearest to the exit point."""
    return ProjectionKernel(domain, depth, width)


@dataclasses.dataclass
class ConcentrationReport:
    """Result of checking the concentration bound on a probe set."""

    theta_hat: float
    witness_theta: float
    H: Region1D
    passed: bool
    violations: list


def default_probes(domain):
    """Exterior probe points: near-boundary, shell, gap, and far points.

    Probes reach 100 times the domain diameter into the complement;
    built-in kernel families are constant beyond that by construction,
    which supplies the tail argument.
    """
    ext = exterior_complement(domain)
    ivs = domain.intervals
    lo, hi = ivs[0, 0], ivs[-1, 1]
    diam = hi - lo
    probes = []
    for e in ivs.ravel():
        probes.extend([e, e - 1e-9 * diam, e + 1e-9 * diam])
    for f in (0.01, 0.1, 0.5, 1.0, 10.0, 100.0):
        probes.extend([lo - f * diam, hi + f * diam])
    for k in range(len(ivs) - 1):
        a, b = ivs[k, 1], ivs[k + 1, 0]
        probes.extend([a, 0.25 * a + 0.75 * b, 0.5 * (a + b), b])
    probes = np.array(sorted(set(float(p) for p in probes)))
    return probes[ext.contains(probes)]


def validate_concentration(kernel, probes):
    """Check the witness mass bound at every probe.

    Passes when the minimum probe mass of the witness set is at least the
    claimed bound (within 1e-9); for the built-in families the kernel is
    piecewise constant in z, so a probe per piece makes the finite check
    exhaustive.
    """
    probes = np.atleast_1d(np.asarray(probes, dtype=float))
    if probes.size == 0:
        raise ValueError("probe set must be nonempty")
    ext = exterior_complement(kernel.domain)
    if not np.all(ext.contains(probes)):
        raise ValueError("all probes must lie in the complement of D")
    values = np.array([kernel.mass(z, kernel.witness_H) for z in probes])
    theta_hat = float(values.min())
    bad = [(float(z), float(v)) for z, v in zip(probes, values)
           if v < kernel.witness_theta - 1e-9]
    return ConcentrationReport(
        theta_hat=theta_hat,
        witness_theta=kernel.witness_theta,
        H=kernel.witness_H,
        passed=not bad,
        violations=bad,
    )
