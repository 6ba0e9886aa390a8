"""Monte Carlo simulation of the reflected process and its reflection chain.

The return kernel carries D (``mu.domain``), so a call that takes ``mu``
takes no domain, and a grid handed to it must have the intervals of D.

Every killed path is stepped by one jump-Euler routine, ``_advance``: it
draws a chunk of increments for many paths in one call, sums them along
time and finds each path's first exit. Single excursions and first-exit
batches share one first-exit loop, ``_killed_chunks``; the lockstep
ensemble differs in its chunk sizes and in what it does at an exit.
Reflected paths have one simulator, the lockstep ensemble, and one
representation: its records, one per reflection with its integer step,
from which counts, durations and ladder paths are read. Exact exit
positions come from walk-on-spheres (``stable_core.walk_on_spheres_exit``,
re-exported here); reflection chains are built from them with no time
step. ``renewal_occupation`` steps its chains one walk-on-spheres ball at a
time (``stable_core._ball_step``) and adds each ball's occupation law as
exact cell masses of an interpolant of its CDF (``_BallOccupation``), so it
draws no occupation.

Random streams are counter-based (Philox; Salmon et al., SC'11) and keyed
by tuples of integers. The lockstep ensemble cuts time into chunks of at
most 1024 steps and 2**20 path positions, and keys each chunk's increments
and re-entries by (seed, stream id, chunk): ladder paths use stream id 0,
the blocks of ``simulate_ensemble_blocks`` ids 1, 2, .... The renewal
chains draw their steps and re-entries from the one stream keyed
(seed, 0xB0). Every result is thus a deterministic function of its seed,
its sizes, the time step and the horizon, whatever the worker or thread
count.
"""

import dataclasses

import numpy as np

from .stable_core import (_MAX_WOS_ITER, _ball_step, _start_positions, ball_mean_exit_time,
                          ball_occupation_cdf, sample_stable_increment, walk_on_spheres_exit)


_MASK = (1 << 64) - 1
# chunks of jump-Euler steps: at most this many steps and path positions
_CHUNK_STEPS = 1024
_CHUNK_POSITIONS = 2 ** 20
# a killed path still in D after this many steps raises
_MAX_STEPS = 10 ** 8


def _splitmix(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def stream(seed, *ids):
    """Counter-based random stream keyed by a seed and integer identifiers.

    Distinct id tuples give statistically independent Philox streams; the
    construction is pure, so any worker may rebuild any stream.
    """
    h = _splitmix(int(seed) & _MASK)
    for i in ids:
        h = _splitmix(h ^ _splitmix(int(i) & _MASK))
    key = np.array([h, _splitmix(h)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclasses.dataclass
class Excursion:
    """One killed excursion: the path and its time step.

    ``positions`` holds the start and the position after each of the
    ``n_steps`` steps, the exit point last; ``duration`` is the jump-Euler
    exit time.
    """

    positions: np.ndarray
    dt: float
    n_steps = property(lambda e: len(e.positions) - 1)
    duration = property(lambda e: e.n_steps * e.dt)
    pre_exit = property(lambda e: e.positions[-2])
    exit_point = property(lambda e: e.positions[-1])


def _advance(params, domain, pos, dt, rng, steps):
    """Jump-Euler steps for a batch of killed paths, drawn in one call.

    Draws ``steps * n`` increments (path by path) and sums them along time
    from the n start positions ``pos``. Returns ``path``, where
    ``path[j, s]`` is path j after s steps and ``path[:, 0]`` is ``pos``,
    and each path's first exit step in 1..steps (0 where it stays in D).
    """
    n, tail = len(pos), pos.shape[1:]
    inc = sample_stable_increment(params, dt, rng, size=steps * n)
    path = np.empty((n, steps + 1) + tail)
    path[:, 0] = pos
    np.cumsum(inc.reshape((n, steps) + tail), axis=1, out=path[:, 1:])
    del inc
    path[:, 1:] += pos[:, None]
    out = ~domain.contains(path[:, 1:])
    hit = out.argmax(axis=1)
    return path, np.where(out[np.arange(n), hit], hit + 1, 0)


def _killed_chunks(params, domain, pos, dt, rng):
    """The first-exit loop: the killed paths from ``pos`` advance together, in
    chunks of at most 1024 steps and 2**20 path positions drawn from ``rng``,
    and a path leaves the batch at its first exit. Yields, per chunk, the
    batch's path indices, the steps before the chunk and ``_advance``'s output.
    """
    alive, k0 = np.arange(len(pos)), 0
    while alive.size:
        if k0 >= _MAX_STEPS:
            raise RuntimeError("some paths did not exit within %d steps" % _MAX_STEPS)
        steps = min(_CHUNK_STEPS, max(1, _CHUNK_POSITIONS // alive.size))
        path, hit = _advance(params, domain, pos, dt, rng, steps)
        yield alive, k0, path, hit
        alive, pos = alive[hit == 0], path[hit == 0, -1]
        k0 += steps


def simulate_killed_excursion(params, domain, start, dt, rng):
    """One excursion of the process killed at the first exit from D.

    Increments over ``dt`` are added, 1024 steps per draw, until the path
    leaves D; the recorded exit time overshoots the true one by at most one
    step and the pre-exit position stands in for the left limit. Returns
    the excursion with its positions up to and including the exit point.
    """
    pos = _start_positions(params, domain, start, 1, rng)
    stored = [pos]
    for _, _, path, hit in _killed_chunks(params, domain, pos, dt, rng):
        stored.append(path[0, 1:hit[0] + 1] if hit[0] else path[0, 1:])
    return Excursion(positions=np.concatenate(stored), dt=dt)


def simulate_ladder(params, mu, start, horizon, dt, seed, n_paths):
    """n_paths ladder paths of the reflected process up to the horizon.

    One ``simulate_ensemble`` run on stream id 0 (``start`` is a point or a
    start law): path j's reflections are its records offsets[j]:offsets[j+1].
    """
    return simulate_ensemble(params, mu, start, horizon, dt, seed, n_paths)


def reflection_chain(params, mu, start, n_steps, rng, size):
    """``size`` Markov chains of post-reflection positions, free of time discretization.

    Each step exits D = ``mu.domain`` exactly (walk-on-spheres composed of
    closed-form ball exits) and re-enters through the return kernel. Returns
    the positions after reflections 1..n_steps, shape (size, n_steps).
    """
    n = int(size)
    if params.d != 1:
        raise NotImplementedError("reflection chains are implemented for d=1")
    x = start   # walk_on_spheres_exit places the n chains' starts
    out = np.empty((n, int(n_steps)))
    for k in range(int(n_steps)):
        z = walk_on_spheres_exit(params, mu.domain, x, rng, size=n)
        x = mu.sample(z, rng, size=n)
        out[:, k] = x
    return out


# knots of the occupation CDF's piecewise-quadratic interpolant (odd: one at
# the ball's centre); kept balls are deposited in blocks of at most
# _DEPOSIT_BLOCK; a ball's knots are added as jumps when their rounding
# bound is at most _JUMP_TOL of its mass
_OCCUPATION_KNOTS = 25
_DEPOSIT_BLOCK = 2048
_JUMP_TOL = 1e-11


class _BallOccupation:
    """Cell masses of walk-on-spheres balls' occupation laws, added without draws (d=1).

    A ball B(c, r) entered at c spends its mean exit time w in D, spread by
    the law with CDF ``ball_occupation_cdf`` of (x - c) / r. That CDF is
    replaced by P, its piecewise-quadratic interpolant through the
    ``_OCCUPATION_KNOTS`` knots u_j and the segment midpoints. The knots are
    s_j = +-(1 - (1 - t**2)**2), t = i/12, in s = |u|**beta, beta =
    min(1, alpha): near the centre the CDF rises like |u|**alpha, so in s
    the knots are graded like t**2 toward the centre and like (1 - t)**2
    toward the edges, at every alpha. Where the quadratic through a
    segment's midpoint would fall somewhere on the segment (at alpha <
    0.5), P takes the nearest rising quadratic through the segment's ends
    instead, so P rises everywhere and no cell gets a negative mass. The
    mean of |P - CDF| over u in [-1, 1] is 2.5e-5 at alpha = 1, 7e-5 at
    0.5, 1.5e-4 at 0.25 and 6e-4 at 0.05; the largest gap, near the
    centre, is 5e-4, 1.4e-3, 5e-3 and 3e-2: at small alpha the law
    spreads over many decades of |u|, which 12 segments a side follow only
    coarsely. Cell [y, y'] gets w (P(v(y')) - P(v(y))), v(y) = (y - c) / r.
    Each ball places its knots x_j = c + r u_j and finds their cells k_j,
    each within the ball's component of D (c - r may round past it, into
    the cells of another component).

    Each ball adds point masses to ``mass`` and the changes, from one cell
    to the next, of a density linear in x - o (o the centre of D's bounding
    box) to ``density``; ``masses`` reads them with one cumulative sum. A
    ball takes one of two paths:

    - **jumps**: past u_j, P gains d_j (v - u_j) + e_j (v - u_j)**2, d_j
      and e_j the jumps of its slope and half-curvature at u_j. The knot's
      cell gets w s (d_j + e_j s), s = (y' - x_j) / r at its right edge y',
      and the cells from k_j + 1 on the matching density. The centre
      knots' densities, of size w |u|**(alpha-2) / r**2, cancel past the
      ball, so this path is taken only when their rounding (``bound``) is
      at most ``_JUMP_TOL`` of the mass: on (-1, 1) in 400 cells from
      r = 0.031 at alpha = 1 and r = 0.0069 at 1.5, for no ball at
      alpha <= 0.5.
    - **segments**, exact for every r: segment j gives k_j its mass up to
      that cell's right edge, k_j+1 its mass from that cell's left edge,
      and the cells between P's density, linear in the node, added at
      k_j + 1 and removed at k_j+1. No polynomial is used outside its
      segment.

    Balls are deposited in blocks of at most ``_DEPOSIT_BLOCK``. ``work``
    counts the knot points placed.
    """

    def __init__(self, params, grid):
        half = (_OCCUPATION_KNOTS - 1) // 2
        square = (np.arange(half + 1) / half) ** 2
        side = (square * (2.0 - square)) ** (1.0 / min(1.0, params.alpha))
        self.knots = np.concatenate((-side[:0:-1], side))
        at_knots = ball_occupation_cdf(params, self.knots)
        at_mids = ball_occupation_cdf(params, 0.5 * (self.knots[1:] + self.knots[:-1]))
        left, right = at_knots[:-1], at_knots[1:]
        # segment j: P = Phi(u_j) + s (b + s c), s = (v - u_j) / (u_j+1 - u_j)
        self.phi, self.inv_width = left, 1.0 / np.diff(self.knots)
        # P rises on the segment iff 0 <= b <= 2 (b + c): clip b to that range
        rise = right - left
        self.b = np.clip(4.0 * at_mids - 3.0 * left - right, 0.0, 2.0 * rise)
        self.c = rise - self.b
        # the jumps d and e of P's slope and half-curvature in v at each knot
        # (P is 0 before the first and 1 after the last), as columns
        iw, zero = self.inv_width, [0.0]
        d = np.append(iw * self.b, zero) - np.append(zero, iw * (self.b + 2.0 * self.c))
        e = np.diff(np.concatenate((zero, iw * iw * self.c, zero)))
        self.d, self.e, self.lead = (a[:, None] for a in (d, e, d - 2.0 * e * self.knots))
        self.grid, self.edges = grid, (grid.cells[:, 0].copy(), grid.cells[:, 1].copy())
        self.origin = 0.5 * sum(grid.domain.bounding_box)
        # The jumps' rounding per unit of mass, for a ball of radius r: with
        # L = max|y - o| + max|y| over the cell edges y and h the widest cell,
        # a knot's density terms d / r, 2 e (x_j - o) / r**2 and 2 e (y - o) / r**2,
        # which cancel past the ball, are each off by at most eps (|d| + 2 L |e| / r) / r,
        # and rounding x_j (by 2 eps L) moves its jump by 2 eps L (|d| + 2 |e| s) / r.
        # The cumulative sum rounds the ball's running density on the at most
        # 2 r / h + 1 cells it spans, and the round-off persists to the grid's end:
        # a cell gets at most eps (2 + 4 h / r) (sum|d| + 2 L (sum|d| + sum|e|) / r).
        length = np.abs(grid.cells - self.origin).max() + np.abs(grid.cells).max()
        d, e = np.abs(d).sum(), np.abs(e).sum()
        self.rounding = (d, 2.0 * length * (d + e))
        self.mass = np.zeros(grid.n)
        self.density = np.zeros((2, grid.n + 1))    # changes of its constant and slope
        self.pending, self.n_pending, self.work = [], 0, 0

    def bound(self, radius):
        """The jumps' rounding bound, per unit of mass, for balls of these radii."""
        d, e = self.rounding
        return np.finfo(float).eps * (2.0 + 4.0 * self.grid.h / radius) * (d + e / radius)

    def add(self, centre, radius, weight):
        """Queue balls B(centre, radius) of mass ``weight``; a full block is deposited."""
        self.pending.append((centre, radius, weight))
        self.n_pending += len(centre)
        if self.n_pending >= _DEPOSIT_BLOCK:
            self._flush()

    def masses(self):
        """Cell masses of all balls added."""
        self._flush()
        const, slope = np.cumsum(self.density[:, :-1], axis=1)
        return self.mass + self.grid.widths * (const + slope * (self.grid.nodes - self.origin))

    def _flush(self):
        if self.pending:
            balls = [np.concatenate(col) for col in zip(*self.pending)]
            for i in range(0, len(balls[0]), _DEPOSIT_BLOCK):
                self._deposit(*(col[i:i + _DEPOSIT_BLOCK] for col in balls))
        self.pending, self.n_pending = [], 0

    def _deposit(self, centre, radius, weight):
        jumps = self.bound(radius) <= _JUMP_TOL
        self._jumps(centre[jumps], radius[jumps], weight[jumps])
        self._segments(centre[~jumps], radius[~jumps], weight[~jumps])
        self.work += _OCCUPATION_KNOTS * len(centre)

    def _knots(self, c, r):
        """The knots x_j = c + r u_j of each ball, one column per ball, and their
        cells, clipped to the ball's component of D."""
        x = self.knots[:, None] * r
        x += c
        comp = np.searchsorted(self.grid.domain.intervals[:, 0], c, "right") - 1
        first, last = self.grid.component_cells
        return x, np.clip(self.grid.cell_index(x), first[comp], last[comp])

    def _add(self, cells, mass, at, const, slope):
        """Point masses to ``cells``, and the density's changes (constant, slope) at ``at``."""
        n = self.grid.n
        self.mass += np.bincount(cells.ravel(), weights=mass.ravel(), minlength=n)
        at = at.ravel()
        for row, part in zip(self.density, (const, slope)):
            row += np.bincount(at, weights=part.ravel(), minlength=n + 1)

    def _jumps(self, c, r, w):
        # in place where it can be: a fresh array of a block's size per step
        # made the allocator return and refault its pages
        x, k = self._knots(c, r)
        s = np.subtract(self.edges[1].take(k), x, out=x)
        s /= r
        mass = self.e * s
        mass += self.d
        mass *= s
        mass *= w
        # the density from k_j + 1 on: (w / r) (d + 2 e ((x - o) - (c - o) - r u_j) / r)
        g = w / r
        slope = self.e * (2.0 * g / r)
        const = self.lead * g
        const -= np.multiply(slope, c - self.origin, out=s)
        self._add(k, mass, k + 1, const, slope)

    def _segments(self, c, r, w):
        left, right = self.edges
        k = self._knots(c, r)[1]
        # place the inner knots by v = (y - c) / r, as P is read: x_j, rounded,
        # may fall on the wrong side of an edge that v puts it next to
        inner, u = k[1:-1], self.knots[1:-1, None]
        inner -= (left.take(inner) - c) / r > u
        inner += (right.take(inner) - c) / r <= u
        steps = np.diff(k, axis=0)
        u, inv, b, cc = (a[:, None] for a in (self.knots[:-1], self.inv_width, self.b, self.c))

        def rise(edge, cells):
            """P's rise on each segment from its first knot to the cells' edges."""
            s = np.clip(((edge.take(cells) - c) / r - u) * inv, 0.0, 1.0)
            return s * (b + s * cc)

        mass = np.zeros(k.shape)
        mass[:-1] = rise(right, k[:-1])
        mass[1:] += (b + cc - rise(left, k[1:])) * (steps > 0)
        # the cells strictly between: density (b + 2 c s) w / (r (u_j+1 - u_j)),
        # linear in x - o
        gain = inv * (w / r)
        gain *= steps > 1
        slope = (2.0 * cc * inv) / r
        slope *= gain
        const = b * gain
        const -= slope * ((c - self.origin) + u * r)
        self._add(k, mass * w, np.concatenate((k[:-1] + 1, k[1:])),
                  np.concatenate((const, -const)), np.concatenate((slope, -slope)))


@dataclasses.dataclass
class RenewalResult:
    """Occupation of a renewal run over exact reflection chains.

    ``occupancy`` holds the cell masses of the occupation after the burn-in
    (summing to 1, or zeros when nothing was counted), ``total_reflections``
    each chain's reflection count, ``balls`` the walk-on-spheres balls of
    all chains and ``knot_points`` the deposit's work, no draws: the knot
    points placed, 25 per ball whose occupation is added (see ``_BallOccupation``).
    """

    occupancy: np.ndarray
    total_reflections: np.ndarray
    balls: int
    knot_points: int


def renewal_occupation(params, mu, start, horizon, burn_in, seed, n_chains, grid):
    """Stationary occupation by renewal-reward over exact reflection chains (d=1).

    The stationary law is the occupation of one excursion started from the
    chain's stationary re-entry law, so no time grid is needed.
    ``n_chains`` chains start from the start law and run in lockstep: in
    each round every running chain takes one walk-on-spheres ball
    (``stable_core._ball_step``), and a chain whose step leaves D
    re-enters through the return kernel in the same round. Each ball
    B(c, r) adds its mean exit time w = r**alpha / Gamma(1+alpha) to its
    chain's clock. An excursion that starts once its chain's clock has
    reached ``burn_in`` adds the occupation law of each of its balls to the
    histogram as the exact cell masses of an interpolant of its CDF
    (``_BallOccupation``): no occupation is drawn. A chain stops at its
    first reflection with its clock at ``horizon`` or past it; a walk of
    more than ``_MAX_WOS_ITER`` balls since its chain's last entry raises
    RuntimeError, as ``walk_on_spheres`` does. All draws (the start law
    first, then per round the steps and the re-entries) come from the stream
    keyed (seed, 0xB0), so the result is a deterministic function of its
    arguments. The grid lies on D = ``mu.domain``.
    """
    if params.d != 1:
        raise NotImplementedError("the renewal occupation is implemented for d=1")
    mu.check_grid(grid)
    rng = stream(seed, 0xB0)
    n = int(n_chains)
    x = _start_positions(params, mu.domain, start, n, rng)
    chain = np.arange(n)            # the chains still running, in order
    clock = np.zeros(n)
    counting = clock >= burn_in     # whether each running chain's excursion counts
    reflections = np.zeros(n, dtype=np.int64)
    occupation = _BallOccupation(params, grid)
    balls, walk = 0, np.zeros(n, dtype=np.int64)   # walk: balls since each chain's entry
    while chain.size:
        walk += 1
        if walk.max() > _MAX_WOS_ITER:
            raise RuntimeError("walk-on-spheres iteration cap exceeded (geometry bug?)")
        radius, z = _ball_step(params, mu.domain, x, rng)
        w = ball_mean_exit_time(params, radius, 0.0)
        occupation.add(x[counting], radius[counting], w[counting])
        clock[chain] += w
        balls += chain.size
        out = ~mu.domain.contains(z)
        reflections[chain[out]] += 1
        going = ~out | (clock[chain] < horizon)
        chain, x, counting, out, walk = (a[going] for a in (chain, z, counting, out, walk))
        if out.any():
            x[out] = mu.sample(x[out], rng, size=int(out.sum()))
            counting[out] = clock[chain[out]] >= burn_in
            walk[out] = 0
    masses = occupation.masses()
    total = masses.sum()
    return RenewalResult(occupancy=masses / total if total > 0 else masses,
                         total_reflections=reflections, balls=balls, knot_points=occupation.work)


@dataclasses.dataclass
class EnsembleResult:
    """Reflection records and occupation of a lockstep batch of reflected paths.

    One record per reflection, grouped by path: reflection k of path j is
    record ``offsets[j] + k``, with its jump-Euler step ``steps`` (time
    ``tau = steps * dt``), the last position in D before it ``pre_exit``,
    the first outside D ``exit_point`` and the re-entry point ``entry``.
    """

    dt: float
    horizon: float
    occupancy: np.ndarray            # cell masses of the time average, or None
    offsets: np.ndarray              # (n_paths + 1,) record index of each path's start
    steps: np.ndarray
    pre_exit: np.ndarray
    exit_point: np.ndarray
    entry: np.ndarray

    n_paths = property(lambda r: len(r.offsets) - 1)
    tau = property(lambda r: r.steps * r.dt)
    total_reflections = property(lambda r: np.diff(r.offsets))

    def counts_at(self, marks):
        """Each path's reflection count at each mark, shape (n_paths, len(marks)).

        A reflection counts at t when its step is at most round(t / dt), the
        step of the path at t. A mark outside [0, horizon] raises ValueError.
        """
        n_steps = int(np.round(self.horizon / self.dt))
        mark_steps = np.round(np.asarray(marks, dtype=float) / self.dt).astype(np.int64)
        if np.any((mark_steps < 0) | (mark_steps > n_steps)):
            raise ValueError("marks must lie in [0, horizon]")
        # steps lie in 1..n_steps and increase along a path, so the keys increase
        paths = np.arange(self.n_paths)
        keys = np.repeat(paths, self.total_reflections) * (n_steps + 1) + self.steps
        ends = np.searchsorted(keys, paths[:, None] * (n_steps + 1) + mark_steps, side="right")
        return ends - self.offsets[:-1, None]


def simulate_ensemble(params, mu, start, horizon, dt, seed, n_paths,
                      grid=None, burn_in=0.0, stream_id=0):
    """Advance many reflected paths in lockstep and aggregate statistics.

    Time is cut into chunks of at most 1024 steps and at most 2**20 path
    positions. Chunk c draws all its increments in one call from the stream
    keyed (seed, 0xE5, stream_id, c) and sums them along time. Each round
    then finds every path's next exit, draws all of that round's re-entries
    in one call from the same stream, in path order, and shifts each exited
    path from its exit step on by (entry - exit point); rounds repeat on the
    steps after each exit until no path exits again. The start law uses the
    stream keyed (seed, 0xE5, stream_id), so the result is a deterministic
    function of (seed, stream_id, n_paths, dt, horizon).

    Records every reflection of every path (step, pre-exit, exit and
    re-entry point; no extra draws) and, given a grid on D = ``mu.domain``,
    the occupation histogram of the time average after ``burn_in``.
    """
    if grid is not None:
        mu.check_grid(grid)
    domain, n = mu.domain, int(n_paths)
    n_steps = int(np.round(horizon / dt))
    pos = _start_positions(params, domain, start, n, stream(seed, 0xE5, stream_id))
    # occupation counts the positions at steps k with k * dt >= burn_in
    n_skip = int(np.count_nonzero(np.arange(n_steps) * dt < burn_in))
    hist = np.zeros(grid.n, dtype=np.int64) if grid is not None else None
    # one entry per round: (paths, exit steps, pre-exit, exit and entry points)
    empty = np.empty((0,) + pos.shape[1:])
    rounds = [(np.empty(0, np.int64), np.empty(0, np.int64), empty, empty, empty)]
    chunk_len = min(_CHUNK_STEPS, max(1, _CHUNK_POSITIONS // max(n, 1)))
    for c, k0 in enumerate(range(0, n_steps, chunk_len)):
        steps = min(chunk_len, n_steps - k0)
        crng = stream(seed, 0xE5, stream_id, c)
        # path[j, s] is path j after step k0 + s; path[:, 0] is the chunk start
        path, exits = _advance(params, domain, pos, dt, crng, steps)
        live = np.flatnonzero(exits)
        step = exits[live]
        while live.size:
            z = path[live, step]
            entry = np.asarray(mu.sample(z, crng, size=live.size), dtype=float)
            rounds.append((live, k0 + step, path[live, step - 1], z, entry))
            for j, s, shift in zip(live.tolist(), step.tolist(), entry - z):
                path[j, s:] += shift
            path[live, step] = entry
            # re-test only the steps after each path's last exit
            lo = int(step.min()) + 1
            if lo > steps:
                break
            out = ~domain.contains(path[live, lo:])
            out &= np.arange(lo, steps + 1) > step[:, None]
            hit = out.argmax(axis=1)
            found = out[np.arange(live.size), hit]
            live, step = live[found], hit[found] + lo
        if hist is not None and k0 + steps > n_skip:
            hist += np.bincount(grid.cell_index(path[:, max(n_skip - k0, 0):steps]).ravel(),
                                minlength=grid.n)
        pos = path[:, steps].copy()
        del path    # free the chunk before the next one is drawn
    # a histogram with no kept step is all zeros
    occupancy = None if hist is None else hist / max((n_steps - n_skip) * n, 1)
    # rounds come in time order, so a stable sort by path keeps each path's
    # reflections in time order
    who, steps_at, pre, z, entry = (np.concatenate(col) for col in zip(*rounds))
    order = np.argsort(who, kind="stable")
    return EnsembleResult(
        dt=dt, horizon=horizon, occupancy=occupancy,
        offsets=np.concatenate(([0], np.cumsum(np.bincount(who, minlength=n)))),
        steps=steps_at[order], pre_exit=pre[order], exit_point=z[order], entry=entry[order],
    )


def simulate_ensemble_blocks(params, mu, start, horizon, dt, seed, n_paths,
                             grid=None, burn_in=0.0, workers=1):
    """Block-decomposed ensemble with deterministic merging.

    Replicas are grouped into blocks of 50, each driven by its own
    keyed stream (ids 1, 2, ...); blocks may run on any number of workers
    and the merged result, reflection records included, is bit-identical
    regardless of the worker count. The thread pool stays because numpy
    releases the GIL for much of the chunk work, so blocks overlap: on the
    default ensemble (200 paths, horizon 200, 2 cores) 2 workers took
    1.71-2.03 s against 2.14-2.38 s for 1.
    """
    n = int(n_paths)
    sizes = [50] * (n // 50) + ([n % 50] if n % 50 else [])

    def run(b):
        return simulate_ensemble(params, mu, start, horizon, dt, seed,
                                 sizes[b], grid=grid, burn_in=burn_in, stream_id=b + 1)

    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=int(workers)) as ex:
            results = list(ex.map(run, range(len(sizes))))
    else:
        results = [run(b) for b in range(len(sizes))]
    total = np.concatenate([r.total_reflections for r in results])
    records = {name: np.concatenate([getattr(r, name) for r in results])
               for name in ("steps", "pre_exit", "exit_point", "entry")}
    occupancy = None if grid is None else sum(r.occupancy * r.n_paths for r in results) / n
    return EnsembleResult(
        dt=dt, horizon=horizon, occupancy=occupancy,
        offsets=np.concatenate(([0], np.cumsum(total))), **records,
    )


def sample_first_exit(params, domain, start, dt, seed, n_paths):
    """First-exit data (time, pre-exit, exit point) for a batch of killed paths.

    The paths run through ``_killed_chunks``, all drawn after the start law
    from the stream keyed (seed, 0xF1, 0).
    """
    rng = stream(seed, 0xF1, 0)
    pos = _start_positions(params, domain, start, int(n_paths), rng)
    exit_time = np.empty(len(pos))
    pre_exit, exit_point = np.empty_like(pos), np.empty_like(pos)
    for alive, k0, path, hit in _killed_chunks(params, domain, pos, dt, rng):
        rows = np.flatnonzero(hit)
        done, step = alive[rows], hit[rows]
        exit_time[done] = (k0 + step) * dt
        pre_exit[done] = path[rows, step - 1]
        exit_point[done] = path[rows, step]
    return exit_time, pre_exit, exit_point


@dataclasses.dataclass
class ExcursionStats:
    """Summary of per-excursion durations across a set of paths."""

    n_paths: int
    n_completed: int
    durations_by_index: list
    lag1_autocorrelation: float
    lag1_pairs: int
    mean_duration: float

    def duration_sample(self, index):
        """Pooled durations of the (1-based) index-th excursion of each path."""
        return self.durations_by_index[index - 1]


def excursion_statistics(ens, min_completed=100):
    """Duration statistics of the excursions of an EnsembleResult's paths.

    Reports the pooled lag-1 autocorrelation of consecutive durations within
    paths and the duration samples per excursion index; under a constant
    return law these are uncorrelated and identically distributed. A pair
    of consecutive durations is kept only when the second excursion began
    by half the horizon: a fixed window, so a long first excursion does not
    shorten the time left for the second, which would bias the correlation
    negative. ``lag1_pairs`` counts the kept pairs.
    """
    tau, total = ens.tau, int(ens.offsets[-1])
    if total < min_completed:
        raise ValueError("insufficient data: %d completed excursions < %d" % (total, min_completed))
    # index of each record within its path; excursion 1 lasts from 0 to tau
    index = np.arange(total) - np.repeat(ens.offsets[:-1], ens.total_reflections)
    durations = np.where(index == 0, tau, np.diff(tau, prepend=0.0))
    order = np.argsort(index, kind="stable")
    by_index = np.split(durations[order], np.cumsum(np.bincount(index))[:-1])
    # pair (r, r + 1) lies in one path when r + 1 starts no path; the
    # second excursion began at tau[r]
    pairs = np.flatnonzero((index[1:] > 0) & (tau[:-1] <= 0.5 * ens.horizon))
    first, second = durations[pairs], durations[pairs + 1]
    ok = len(first) >= 2 and first.std() > 0 and second.std() > 0
    ac = float(np.corrcoef(first, second)[0, 1]) if ok else 0.0
    return ExcursionStats(n_paths=ens.n_paths, n_completed=total, durations_by_index=by_index,
                          lag1_autocorrelation=ac, lag1_pairs=len(first),
                          mean_duration=float(durations.mean()))
