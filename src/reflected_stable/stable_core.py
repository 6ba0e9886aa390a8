"""Parameters, jump kernel, and exact samplers for the isotropic stable process.

Exit positions are sampled exactly by walk-on-spheres: ``walk_on_spheres``
is the one iterated ball-exit loop, for any domain, and records its balls;
``walk_on_spheres_exit`` runs it from one start and ``ball_exit_position``
on a ball. All samplers take an explicit ``numpy.random.Generator`` and
are pure given that stream, so callers may run many workers as long as
each worker owns its own generator.
"""

import dataclasses
import math

import numpy as np

from .geometry import Ball, Interval

# a walk-on-spheres batch still in D after this many ball exits raises
_MAX_WOS_ITER = 10 ** 6
# least alpha of sample_stable_increment: below it draws come out nan (see there)
_MIN_INCREMENT_ALPHA = 0.05
# terms of the incomplete beta series of ball_occupation_cdf
_BETA_SERIES_TERMS = 60


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
        # levy_constant rejects an alpha outside (0, 2)
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
        * math.gamma((d + alpha) / 2.0)
        / (np.pi ** (d / 2.0) * abs(math.gamma(-alpha / 2.0)))
    )


def levy_potential(params, u):
    """``sign(u) |u|**(-alpha)`` in place on the float array u (0 at +-inf, +inf at +-0); d=1 only.

    With u = e - x this is the jump kernel's signed potential P(x, e): the
    mass of (a, b) off x is ``(c/alpha) (P(x, a) - P(x, b))``.
    """
    if params.d != 1:
        raise ValueError("closed-form interval masses are d=1 only")
    neg = u < 0
    np.abs(u, out=u)
    with np.errstate(divide="ignore"):   # 0 ** -alpha is the documented +inf
        u **= -params.alpha
    return np.negative(u, out=u, where=neg)


def levy_interval_mass(params, x, a, b):
    """Exact ``integral of c|x-z|**(-1-alpha) dz`` over (a, b), d=1 only.

    The interval may be unbounded (``a=-inf`` or ``b=inf``) but must not
    contain ``x``; x at an endpoint gives +inf. Inputs broadcast. The mass
    is ``(c/alpha) (P(x, a) + (-P(x, b)))`` with P from ``levy_potential``:
    near - far right of x, and (-far) + near, the same float, left of it.
    """
    x = np.asarray(x, dtype=float)
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    if np.any(b < a):
        raise ValueError("empty interval: b < a")
    if np.any((np.minimum(a, b) - x < 0) & (np.maximum(a, b) - x > 0)):
        raise ValueError("interval must not contain the base point x")
    # -P(x, b) is read off x - b, so that x == b gives +inf as x == a does
    mass = levy_potential(params, np.asarray(a - x)) + levy_potential(params, np.asarray(x - b))
    return params.c_levy / params.alpha * mass


def sample_stable_increment(params, dt, rng, size):
    """``size`` increments of the isotropic stable process over time ``dt``.

    The law has characteristic function ``exp(-dt * |xi|**alpha)``; by
    self-similarity the output equals ``dt**(1/alpha)`` times a unit-time
    increment in distribution. For d=1 the exact trigonometric transform is
    used (with a dedicated Cauchy branch at alpha=1); for d>=2 the increment
    is built as Brownian motion subordinated by a one-sided stable time.

    alpha below ``_MIN_INCREMENT_ALPHA`` = 0.05 raises ValueError. There
    ``dt**(1/alpha)`` underflows to 0 and the Chambers-Mallows-Stuck power
    ``(1 - alpha)/alpha`` overflows to inf, so draws come out nan (0 * inf).
    From alpha = 0.05 that power is at most 19, and an inf would need an
    exponential draw below about 1e-16.

    Returns a (size,) array for d=1, a (size, d) array otherwise.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(size)
    al = params.alpha
    if al < _MIN_INCREMENT_ALPHA:
        raise ValueError("alpha=%g is below the sampler's least alpha %g"
                         % (al, _MIN_INCREMENT_ALPHA))
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

    The squared reciprocal radius is Beta(alpha/2, 1-alpha/2) distributed,
    and is drawn by ``rng.beta``. At alpha=1 that is the arcsine law, whose
    inverse transform of one uniform u gives the radius 1/sin(pi u / 2)
    directly.

    Below alpha = ``_MIN_INCREMENT_ALPHA`` = 0.05 the Beta draw underflows
    to exactly 0 for a share of the draws (2.4 % at alpha = 0.01, where about
    2.9 % of the law lies below the least normal float), and the radius
    comes out inf; at 0.05 none did in 1e6 draws.
    """
    al, n = params.alpha, int(size)
    if al == 1.0:
        return 1.0 / np.sin(0.5 * np.pi * rng.random(size=n))
    return 1.0 / np.sqrt(rng.beta(al / 2.0, 1.0 - al / 2.0, size=n))


def _beta(p, q):
    return math.gamma(p) * math.gamma(q) / math.gamma(p + q)


def _incomplete_beta_series(z, p, q):
    """``z**(-p) B(z; p, q)`` for z <= 1/2: the sum over k of (1-q)_k z**k / (k! (p+k)).

    Any real q; the terms fall like 2**-k, so ``_BETA_SERIES_TERMS`` reach
    double precision.
    """
    k = np.arange(_BETA_SERIES_TERMS)
    coef = np.cumprod(np.concatenate(([1.0], (k[1:] - q) / k[1:])))
    return (z[:, None] ** k * (coef / (p + k))).sum(axis=1)


def ball_occupation_cdf(params, u):
    """CDF, at u in [-1, 1], of the occupation law of (-1, 1) by the process
    started at 0 and killed on leaving, normalised to mass 1 (d=1).

    The distance from the centre is ``sqrt(S) * V**(1/alpha)`` with
    S ~ Beta(1/2, alpha/2) and V uniform (Blumenthal, Getoor and Ray, Trans.
    AMS 1961), so P(|Y| <= x) = I_{x^2}(1/2, alpha/2) + x**alpha
    B(1 - x^2; alpha/2, (1-alpha)/2) / B(1/2, alpha/2). Each incomplete beta
    is the series of ``_incomplete_beta_series`` at argument x^2 or 1 - x^2,
    whichever is at most 1/2; below x^2 = 1/2 the second one is the complete
    beta minus its complement, whose pole at alpha = 1 cancels to about
    1e-16 / |1 - alpha|. At alpha = 1 the closed form
    (x arcsech x + arcsin x) * 2/pi is used. Returns 0 at u = -1, 1 at
    u = 1, and 1/2 + sign(u) P(|Y| <= |u|) / 2, odd about 1/2, between.
    """
    u = np.asarray(u, dtype=float)
    x = np.abs(u).ravel()
    al = params.alpha
    if al == 1.0:
        inner = np.where(x > 0, x, 1.0)
        F = 2.0 / np.pi * (np.where(x > 0, x * np.arccosh(1.0 / inner), 0.0) + np.arcsin(x))
    else:
        a, b = al / 2.0, (1.0 - al) / 2.0
        F = np.empty_like(x)
        low = x * x <= 0.5
        xl, xh = x[low], x[~low]
        F[low] = (xl * (_incomplete_beta_series(xl * xl, 0.5, a)
                        - _incomplete_beta_series(xl * xl, b, a))
                  + xl ** al * _beta(a, b)) / _beta(0.5, a)
        z = 1.0 - xh * xh
        F[~low] = 1.0 - z ** a * (_incomplete_beta_series(z, a, 0.5)
                                  - xh ** al * _incomplete_beta_series(z, a, b)) / _beta(0.5, a)
    return 0.5 + np.sign(u) * F.reshape(u.shape) / 2.0


def _unit_direction(d, rng, n):
    if d == 1:
        return rng.integers(0, 2, size=n) * 2.0 - 1.0
    g = rng.standard_normal(size=(n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _ball_step(params, domain, pos, rng):
    """One walk-on-spheres step: each point of ``pos`` (all in D) moves to the exit
    point of the maximal ball inscribed in D and centred on it.

    Draws the exit radii, then the directions, in one call each. Returns the
    balls' radii and the moved points.
    """
    radius = domain.boundary_distance(pos)
    rho = sample_ball_exit_radius(params, rng, size=len(pos))
    direction = _unit_direction(params.d, rng, len(pos))
    if params.d == 1:
        return radius, pos + radius * rho * direction
    return radius, pos + (radius * rho)[:, None] * direction


def walk_on_spheres(params, domain, pos, rng):
    """The walk-on-spheres loop: move the points ``pos`` in D until each has left D.

    Each round moves every point still in D by one ``_ball_step``; a point
    stops at its first landing outside D (it may land in another component
    of D and go on). Terminates almost surely. Returns ``pos``, moved in
    place to the exit points, and the balls: one (indices into ``pos``,
    centres, radii) triple per round.
    """
    active = np.ones(len(pos), dtype=bool)
    balls = []
    for _ in range(_MAX_WOS_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            return pos, balls
        cur = pos[idx]
        radius, moved = _ball_step(params, domain, cur, rng)
        balls.append((idx, cur, radius))
        pos[idx] = moved
        active[idx] = domain.contains(moved)
    raise RuntimeError("walk-on-spheres iteration cap exceeded (geometry bug?)")


def _start_positions(params, domain, start, n, rng):
    """n start positions in D: draws from a start law, else copies of one point."""
    if hasattr(start, "sample"):
        pos = start.sample(rng, size=n).astype(float)
    else:
        tail = () if params.d == 1 else (params.d,)
        pos = np.array(np.broadcast_to(np.asarray(start, float), (n,) + tail), dtype=float)
    if not np.all(domain.contains(pos)):
        raise ValueError("start must lie in D")
    return pos


def walk_on_spheres_exit(params, domain, start, rng, size):
    """Exact exit-position sampling by iterated maximal-ball exits.

    Runs ``walk_on_spheres`` from ``size`` starts placed by ``_start_positions``.
    Returns the exit points, shape (size,) for d=1 and (size, d) otherwise.
    """
    pos = _start_positions(params, domain, start, int(size), rng)
    return walk_on_spheres(params, domain, pos, rng)[0]


def ball_exit_position(params, center, radius, start, rng, size):
    """Exact sample of the stable exit position from an open ball.

    For a start at the center the exit point is ``radius * rho * direction``
    with the closed-form radial law and a uniform direction. For other
    interior starts the exit law is realised by walk-on-spheres on the ball
    (the interval ``(c - r, c + r)`` when d=1), which terminates almost
    surely. The returned points lie strictly outside the closed ball. A
    radius <= 0 raises DomainError, a start outside the open ball ValueError.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if params.d == 1:
        domain = Interval(center[0] - radius, center[0] + radius)
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
    num = math.gamma(d / 2.0) * (radius ** 2 - off ** 2) ** (al / 2.0)
    den = 2.0 ** al * math.gamma(1.0 + al / 2.0) * math.gamma((d + al) / 2.0)
    return num / den
