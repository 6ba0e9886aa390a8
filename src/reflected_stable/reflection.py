"""Return kernels from the exterior into the domain, and their admissibility check.

A return kernel prescribes, for every exterior point z, the probability law
of the re-entry point in D; each kernel here is finitely many re-entry laws
and the cut points between them (see ReflectionKernel). Admissibility (the
concentration bound) requires a compact witness set H in D whose mass is
bounded below uniformly over all exterior points; each built-in family
carries such a witness.
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

    A kernel is its re-entry laws in line order and the cut points between
    them: law k governs the exterior points z with cuts[k-1] < z <= cuts[k]
    (``np.searchsorted(cuts, z)``), so z -> mu(z, .) is constant on the
    part of the complement between two consecutive cuts. Everything about
    one exit point is read off its law: ``mu.law(z).mass(region)``,
    ``mu.law(z).cell_masses(grid)``, and a grid function's integral
    ``mu.law(z).cell_masses(grid) @ values``.

    Attributes
    ----------
    domain : IntervalUnion or Ball
    laws : list of measures on D, one per law
    cuts : ndarray, one fewer than the laws, increasing
    witness_H : Region1D
        Compact witness set for the concentration bound.
    witness_theta : float
        Claimed uniform lower bound for the witness mass.
    """

    def __init__(self, domain, laws, cuts, witness_H, witness_theta):
        self.domain = domain
        self.laws = laws
        self.cuts = np.asarray(cuts, dtype=float)
        self.witness_H, self.witness_theta = witness_H, witness_theta
        if self.witness_theta <= 0:
            raise KernelError("witness mass must be positive")

    def _law_index(self, z):
        return np.searchsorted(self.cuts, z)

    def law(self, z):
        """The re-entry law mu(z, .) of one exterior point z (ValueError for z in open D)."""
        if self.domain.contains(z):
            raise ValueError("z = %r lies in the open domain %r" % (float(z), self.domain))
        return self.laws[self._law_index(z)]

    def reentry_columns(self, grid):
        """Cell masses of each law, one column per law."""
        return np.column_stack([law.cell_masses(grid) for law in self.laws])

    def check_grid(self, grid):
        """ValueError unless the grid has the intervals of D = ``domain`` (a ball has none)."""
        if not np.array_equal(grid.domain.intervals, getattr(self.domain, "intervals", None)):
            raise ValueError("the grid's domain %r is not the kernel's %r" % (grid.domain, self.domain))


class ConstantKernel(ReflectionKernel):
    """Return kernel with law ``m`` regardless of the exit point: one law, no cuts.

    ``m`` may be a UniformMeasure, AtomMeasure or BallUniformMeasure. On a
    1-D domain ``m`` must carry no mass outside open D (boundary atoms
    included), else KernelError. The witness is the measure's own: a
    compact set carrying at least half of the mass of ``m``.
    """

    def __init__(self, domain, m):
        total = m.total_mass()
        if abs(total - 1.0) > 1e-10:
            raise KernelError("measure not normalized: total mass %.12g" % total)
        if domain.d == 1:
            # the complement is closed, so an atom on the boundary is outside
            outside = m.mass(exterior_complement(domain))
            if outside > 0:
                raise KernelError("law puts mass %.6g outside the open domain %r"
                                  % (outside, domain))
        super().__init__(domain, [m], [], *m.default_witness())

    def sample(self, z, rng, size):
        return self.laws[0].sample(rng, size=size)


class ProjectionKernel(ReflectionKernel):
    """Insert uniformly at a fixed depth inward from the boundary point
    nearest to the exit point (1-D domains).

    The re-entry interval has length ``width`` and is centered ``depth``
    inside D, measured from the nearest boundary point: one uniform law per
    endpoint, cut at the midpoints of consecutive endpoints.
    """

    def __init__(self, domain, depth, width):
        if domain.d != 1:
            raise KernelError("projection kernel is implemented for 1-D domains")
        depth, width = float(depth), float(width)
        ivs = domain.intervals
        min_len = np.min(ivs[:, 1] - ivs[:, 0])
        if not (0 < width and width / 2.0 < depth and depth + width / 2.0 < min_len / 2.0):
            raise KernelError(
                "need width/2 < depth and depth + width/2 < half the minimal "
                "component length (depth=%g, width=%g, min component=%g)"
                % (depth, width, min_len)
            )
        endpoints = ivs.ravel()
        # inward direction: +1 at left endpoints, -1 at right endpoints
        center = endpoints + np.tile([1.0, -1.0], len(ivs)) * depth
        self.lo, self.hi = center - width / 2.0, center + width / 2.0
        laws = [UniformMeasure(a, b) for a, b in zip(self.lo, self.hi)]
        lo, hi = depth - width / 4.0, depth + width / 4.0
        pieces = []
        for a, b in ivs:
            pieces.append((a + lo, a + hi))
            pieces.append((b - hi, b - lo))
        H = Region1D(pieces)
        super().__init__(domain, laws, 0.5 * (endpoints[:-1] + endpoints[1:]), H,
                         min(law.mass(H) for law in laws))

    def sample(self, z, rng, size):
        k = self._law_index(z)
        return rng.uniform(self.lo[k], self.hi[k], size=size)


@dataclasses.dataclass
class ConcentrationReport:
    """Result of checking the concentration bound on a probe set."""

    theta_hat: float
    passed: bool


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
    claimed bound (within 1e-9); the kernel is constant between consecutive
    cuts, so a probe per law makes the finite check exhaustive. A probe in
    open D raises ValueError, as the law lookup does.
    """
    probes = np.atleast_1d(np.asarray(probes, dtype=float))
    if probes.size == 0:
        raise ValueError("probe set must be nonempty")
    values = np.array([kernel.law(z).mass(kernel.witness_H) for z in probes])
    theta_hat = float(values.min())
    return ConcentrationReport(theta_hat=theta_hat,
                               passed=theta_hat >= kernel.witness_theta - 1e-9)
