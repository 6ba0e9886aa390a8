"""Parameters, jump kernel, and exact samplers for the isotropic stable process.

Exit positions are sampled exactly by walk-on-spheres:
``walk_on_spheres_exit`` is the one iterated ball-exit loop, for any domain,
and ``ball_exit_position`` runs it on a ball. All samplers take an explicit
``numpy.random.Generator`` and are pure given that stream, so callers may
run many workers as long as each worker owns its own generator.
"""

import dataclasses

import numpy as np
from scipy.special import betaincinv, gamma as _gamma

from .geometry import Ball, Interval

# a walk-on-spheres batch still in D after this many ball exits raises
_MAX_WOS_ITER = 10 ** 6


class StableParamsError(ValueError):
    """Invalid dimension or stability index."""


@dataclasses.dataclass(frozen=True)
class StableParams:
    """Dimension and stability index of the isotropic stable process.

    Parameters
    ----------
    d : int
        Space dimension, at least 1.
    alpha : float
        Stability index, strictly between 0 and 2.

    Attributes
    ----------
    c_levy : float
        Constant in the jump kernel ``c_levy * |x-y|**(-d-alpha)``.
    """

    d: int
    alpha: float
    c_levy: float = dataclasses.field(init=False)

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise StableParamsError("dimension d must be a positive integer, got %r" % (self.d,))
        if not (0.0 < self.alpha < 2.0):
            raise StableParamsError("stability index alpha must lie in (0, 2), got %r" % (self.alpha,))
        object.__setattr__(self, "c_levy", levy_constant(self.d, self.alpha))


def levy_constant(d, alpha):
    """Constant of the isotropic stable jump kernel.

    Returns ``2**alpha * Gamma((d+alpha)/2) / (pi**(d/2) * |Gamma(-alpha/2)|)``.
    """
    if not (0.0 < alpha < 2.0):
        raise StableParamsError("stability index alpha must lie in (0, 2), got %r" % (alpha,))
    if d < 1:
        raise StableParamsError("dimension d must be positive, got %r" % (d,))
    return (
        2.0 ** alpha
        * _gamma((d + alpha) / 2.0)
        / (np.pi ** (d / 2.0) * abs(_gamma(-alpha / 2.0)))
    )


def levy_density(params, x, y):
    """Jump density ``c_levy * |x-y|**(-d-alpha)``; symmetric in (x, y).

    ``x`` and ``y`` are scalars for d=1, else arrays whose last axis has
    length d. Raises on coincident points (the kernel is singular there).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if params.d == 1 and x.ndim == y.ndim and (x.ndim == 0 or x.shape[-1] != params.d):
        r = np.abs(x - y)
    else:
        r = np.linalg.norm(x - y, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("levy_density is singular at x == y")
    return params.c_levy * r ** (-params.d - params.alpha)


def levy_interval_mass(params, x, a, b):
    """Exact ``integral of c|x-z|**(-1-alpha) dz`` over (a, b), d=1 only.

    The interval may be unbounded (``a=-inf`` or ``b=inf``) but must not
    contain ``x``. Inputs broadcast; vectorised over ``x``.
    """
    if params.d != 1:
        raise ValueError("closed-form interval masses are d=1 only")
    x = np.asarray(x, dtype=float)
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    if np.any(b < a):
        raise ValueError("empty interval: b < a")
    if np.any((np.minimum(a, b) - x < 0) & (np.maximum(a, b) - x > 0)):
        raise ValueError("interval must not contain the base point x")
    al = params.alpha
    scale = params.c_levy / al

    def _pot(u):
        # antiderivative magnitude |u|**(-alpha) with the convention inf -> 0
        out = np.where(np.isinf(u), 0.0, np.abs(np.where(np.isinf(u), 1.0, u)) ** (-al))
        return out

    lo = np.abs(np.where(a >= x, a - x, b - x))   # distance of the near endpoint
    hi_arg = np.where(a >= x, b - x, a - x)
    near = np.where(lo == 0.0, np.inf, lo ** (-al))
    far = _pot(hi_arg)
    return scale * (near - far)


def sample_stable_increment(params, dt, rng, size):
    """``size`` increments of the isotropic stable process over time ``dt``.

    The law has characteristic function ``exp(-dt * |xi|**alpha)``; by
    self-similarity the output equals ``dt**(1/alpha)`` times a unit-time
    increment in distribution. For d=1 the exact trigonometric transform is
    used (with a dedicated Cauchy branch at alpha=1); for d>=2 the increment
    is built as Brownian motion subordinated by a one-sided stable time.

    Returns a (size,) array for d=1, a (size, d) array otherwise.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(size)
    al = params.alpha
    if params.d == 1:
        u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
        if al == 1.0:
            x = np.tan(u)
        else:
            e = rng.standard_exponential(size=n)
            x = (np.sin(al * u) / np.cos(u) ** (1.0 / al)) * (
                np.cos((1.0 - al) * u) / e
            ) ** ((1.0 - al) / al)
        return dt ** (1.0 / al) * x
    s = _one_sided_stable(al / 2.0, rng, n) * dt ** (2.0 / al)
    g = rng.standard_normal(size=(n, params.d))
    return np.sqrt(2.0 * s)[:, None] * g


def _one_sided_stable(rho, rng, n):
    """Positive rho-stable variates with Laplace transform exp(-lam**rho)."""
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=n)
    e = rng.standard_exponential(size=n)
    th = rho * (u + np.pi / 2.0)
    return (np.sin(th) / np.cos(u) ** (1.0 / rho)) * (np.cos(u - th) / e) ** ((1.0 - rho) / rho)


def sample_ball_exit_radius(params, rng, size):
    """Exit radii (in units of the ball radius) for a start at the center.

    The squared reciprocal radius is Beta(alpha/2, 1-alpha/2) distributed;
    sampling inverts the regularized incomplete beta function, so the draw
    is an exact inverse transform of one uniform.
    """
    al = params.alpha
    t = betaincinv(al / 2.0, 1.0 - al / 2.0, rng.random(size=int(size)))
    return 1.0 / np.sqrt(t)


def _unit_direction(d, rng, n):
    if d == 1:
        return rng.integers(0, 2, size=n) * 2.0 - 1.0
    g = rng.standard_normal(size=(n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def walk_on_spheres_exit(params, domain, start, rng, size, return_iterations=False):
    """Exact exit-position sampling by iterated maximal-ball exits.

    From the current point, sample the exit of the maximal inscribed
    centered ball; continue while the landing point is still in D (it may
    land in another component of D). Terminates almost surely. Returns
    ``size`` exit points, shape (size,) for d=1 and (size, d) otherwise, and
    with ``return_iterations`` each point's number of ball exits.
    """
    d = params.d
    n = int(size)
    shape = (n,) if d == 1 else (n, d)
    pos = np.array(np.broadcast_to(np.asarray(start, dtype=float), shape))
    if not np.all(domain.contains(pos)):
        raise ValueError("start must lie in D")
    iters = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for _ in range(_MAX_WOS_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        cur = pos[idx]
        radius = domain.boundary_distance(cur)
        rho = sample_ball_exit_radius(params, rng, size=idx.size)
        direction = _unit_direction(d, rng, idx.size)
        if d == 1:
            cur = cur + radius * rho * direction
        else:
            cur = cur + (radius * rho)[:, None] * direction
        pos[idx] = cur
        iters[idx] += 1
        active[idx] = domain.contains(cur)
    else:
        raise RuntimeError("walk-on-spheres iteration cap exceeded (geometry bug?)")
    if return_iterations:
        return pos, iters
    return pos


def ball_exit_position(params, center, radius, start, rng, size):
    """Exact sample of the stable exit position from an open ball.

    For a start at the center the exit point is ``radius * rho * direction``
    with the closed-form radial law and a uniform direction. For other
    interior starts the exit law is realised by walk-on-spheres on the ball
    (the interval ``(c - r, c + r)`` when d=1), which terminates almost
    surely. The returned points lie strictly outside the closed ball.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    start = np.atleast_1d(np.asarray(start, dtype=float))
    if radius <= 0:
        raise ValueError("radius must be positive")
    if radius - np.linalg.norm(start - center) <= 0:
        raise ValueError("start must lie strictly inside the ball")
    if params.d == 1:
        domain, start = Interval(center[0] - radius, center[0] + radius), start[0]
    else:
        domain = Ball(center, radius)
    return walk_on_spheres_exit(params, domain, start, rng, size=size)


def ball_mean_exit_time(params, radius, start_offset):
    """Expected exit time from a ball of the given radius.

    ``start_offset`` is the distance of the start point from the center and
    must be smaller than the radius. Vectorised over ``start_offset``.
    """
    off = np.asarray(start_offset, dtype=float)
    if np.any(off >= radius):
        raise ValueError("start must lie strictly inside the ball")
    d, al = params.d, params.alpha
    num = _gamma(d / 2.0) * (radius ** 2 - off ** 2) ** (al / 2.0)
    den = 2.0 ** al * _gamma(1.0 + al / 2.0) * _gamma((d + al) / 2.0)
    return num / den
