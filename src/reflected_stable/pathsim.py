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
step, and ``renewal_occupation`` bins the occupation of their
walk-on-spheres balls.

Random streams are counter-based (Philox; Salmon et al., SC'11) and keyed
by tuples of integers. The lockstep ensemble cuts time into chunks of at
most 1024 steps and 2**20 path positions, and keys each chunk's increments
and re-entries by (seed, stream id, chunk): ladder paths use stream id 0,
the blocks of ``simulate_ensemble_blocks`` ids 1, 2, .... The renewal
chains draw from the one stream keyed (seed, 0xB0). Every result is thus
a deterministic function of its seed, its sizes, the time step and the
horizon, whatever the worker or thread count.
"""

import dataclasses

import numpy as np

from .stable_core import (_start_positions, ball_mean_exit_time,
                          sample_ball_occupation_radius, sample_stable_increment,
                          walk_on_spheres, walk_on_spheres_exit)


_MASK = (1 << 64) - 1
# chunks of jump-Euler steps: at most this many steps and path positions
_CHUNK_STEPS = 1024
_CHUNK_POSITIONS = 2 ** 20
# a killed path still in D after this many steps raises
_MAX_STEPS = 10 ** 8
# occupation draws per walk-on-spheres ball of the renewal leg, in +- pairs
_BALL_DRAWS = 64


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


def _check_grid(mu, grid):
    """ValueError unless the grid has the intervals of D = ``mu.domain`` (a ball has none)."""
    if not np.array_equal(grid.domain.intervals, getattr(mu.domain, "intervals", None)):
        raise ValueError("the grid's domain %r is not the kernel's %r" % (grid.domain, mu.domain))


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


@dataclasses.dataclass
class RenewalResult:
    """Occupation of a renewal run over exact reflection chains.

    ``occupancy`` holds the cell masses of the occupation after the burn-in
    (summing to 1, or zeros when nothing was counted), ``total_reflections``
    each chain's reflection count, ``balls`` the walk-on-spheres balls of
    all chains and ``draws`` the occupation draws binned.
    """

    occupancy: np.ndarray
    total_reflections: np.ndarray
    balls: int
    draws: int


def renewal_occupation(params, mu, start, horizon, burn_in, seed, n_chains, grid):
    """Stationary occupation by renewal-reward over exact reflection chains (d=1).

    The stationary law is the occupation of one excursion started from the
    chain's stationary re-entry law, so no time grid is needed.
    ``n_chains`` chains start from the start law and run in lockstep, one
    excursion per round: walk-on-spheres to the exit (``walk_on_spheres``),
    then re-entry through the return kernel. Each ball B(c, r) adds its
    mean occupation time w = r**alpha / Gamma(1+alpha) to its chain's
    clock. An excursion that starts once its chain's clock has reached
    ``burn_in`` adds the occupation law of each of its balls to the
    histogram: 64 draws c +- r * ``sample_ball_occupation_radius``, in
    pairs, each weighing w / 64, binned by one ``np.bincount`` per round.
    A chain stops at its first reflection with its clock at ``horizon`` or
    past it. All draws (start law first, then per round the walk, the
    occupation and the re-entries) come from the stream keyed (seed,
    0xB0), so the result is a deterministic function of its arguments. The
    grid lies on D = ``mu.domain``.
    """
    if params.d != 1:
        raise NotImplementedError("the renewal occupation is implemented for d=1")
    _check_grid(mu, grid)
    rng = stream(seed, 0xB0)
    n, half = int(n_chains), _BALL_DRAWS // 2
    x = _start_positions(params, mu.domain, start, n, rng)
    chain = np.arange(n)            # the chains still running, in order
    clock = np.zeros(n)
    reflections = np.zeros(n, dtype=np.int64)
    hist = np.zeros(grid.n)
    balls = draws = 0
    while True:
        z, rounds = walk_on_spheres(params, mu.domain, x, rng)
        idx, centre, radius = (np.concatenate(col) for col in zip(*rounds))
        w = ball_mean_exit_time(params, radius, 0.0)
        kept = np.flatnonzero(clock[chain[idx]] >= burn_in)
        dist = radius[kept, None] * sample_ball_occupation_radius(
            params, rng, size=kept.size * half).reshape(kept.size, half)
        cells = grid.cell_index(np.hstack((centre[kept, None] + dist,
                                           centre[kept, None] - dist)))
        hist += np.bincount(cells.ravel(), weights=np.repeat(w[kept] / _BALL_DRAWS,
                                                             _BALL_DRAWS), minlength=grid.n)
        clock[chain] += np.bincount(idx, weights=w, minlength=chain.size)
        reflections[chain] += 1
        balls, draws = balls + idx.size, draws + cells.size
        going = clock[chain] < horizon
        chain = chain[going]
        if not chain.size:
            break
        x = mu.sample(z[going], rng, size=chain.size)
    total = hist.sum()
    return RenewalResult(occupancy=hist / total if total > 0 else hist,
                         total_reflections=reflections, balls=balls, draws=draws)


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
        _check_grid(mu, grid)
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
                             grid=None, burn_in=0.0, block=50, workers=1):
    """Block-decomposed ensemble with deterministic merging.

    Replicas are grouped into fixed-size blocks, each driven by its own
    keyed stream (ids 1, 2, ...); blocks may run on any number of workers
    and the merged result, reflection records included, is bit-identical
    regardless of the worker count. The thread pool stays because numpy
    releases the GIL for much of the chunk work, so blocks overlap: on the
    default ensemble (200 paths, horizon 200, 2 cores) 2 workers took
    1.71-2.03 s against 2.14-2.38 s for 1.
    """
    n = int(n_paths)
    sizes = [block] * (n // block) + ([n % block] if n % block else [])

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
