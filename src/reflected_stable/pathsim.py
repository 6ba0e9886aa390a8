"""Monte Carlo simulation of the reflected process and its reflection chain.

Random streams are counter-based (Philox; Salmon et al., SC'11) and keyed
by tuples of integers. A ladder path keys its excursions by (seed, replica,
excursion), with a separate sub-stream for the re-entry draw of each
excursion, so it does not depend on internal chunk sizes. The lockstep
ensemble cuts time into chunks of at most 1024 steps and 2**20 path
positions, and keys each chunk's increments and re-entries by (seed, block,
chunk). Every result is thus a deterministic function of its seed, its
sizes, the time step and the horizon, whatever the worker or thread count.
"""

import dataclasses

import numpy as np

from .stable_core import sample_ball_exit_radius, sample_stable_increment, _unit_direction


_MASK = (1 << 64) - 1
# lockstep ensemble chunks: at most this many steps and path positions
_CHUNK_STEPS = 1024
_CHUNK_POSITIONS = 2 ** 20


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
    """One killed excursion: start, exit data, and the following re-entry.

    ``duration`` is the jump-Euler exit time (nan in exact mode, which has
    no time discretization); ``entry_point`` is nan when the horizon ended
    the path before this excursion finished.
    """

    start: float
    duration: float
    n_steps: int
    pre_exit: float
    exit_point: float
    entry_point: float
    positions: np.ndarray = None

    @property
    def completed(self):
        return np.all(np.isfinite(np.atleast_1d(self.exit_point)))


def _require(ok, message):
    if not ok:
        raise ValueError(message)


@dataclasses.dataclass
class LadderPath:
    """A simulated trajectory of the reflected process up to a horizon.

    ``tau`` holds the cumulative reflection times and ``R`` the positions
    right after each reflection; the reflection count at time t is the
    number of entries of ``tau`` not exceeding t.
    """

    horizon: float
    start: float
    segments: list
    tau: np.ndarray
    R: np.ndarray

    def count_at(self, t):
        return int(np.searchsorted(self.tau, t, side="right"))

    def validate(self, domain):
        """Check the structural invariants; raises ValueError on failure."""
        _require(np.all(np.diff(self.tau) > 0), "reflection times must increase strictly")
        _require(np.all(np.isfinite(self.tau)), "recorded reflection times must be finite")
        _require(len(self.tau) == len(self.R), "one re-entry point is needed per reflection")
        _require(np.all(domain.contains(np.asarray(self.R))), "re-entry points must lie in D")
        for seg in self.segments:
            if seg.completed:
                _require(not np.any(domain.contains(np.atleast_1d(seg.exit_point))),
                         "exit points must lie outside D")
                _require(np.all(domain.contains(np.atleast_1d(seg.entry_point))),
                         "re-entry points must lie in D")
            if seg.positions is not None and len(seg.positions):
                inside = domain.contains(seg.positions[:-1] if seg.completed else seg.positions)
                _require(np.all(inside), "interior positions must lie in D")
        return True


def simulate_killed_excursion(params, domain, start, dt, rng, exact=False,
                              store_positions=False, chunk=1024, max_steps=10 ** 8):
    """One excursion of the process killed at the first exit from D.

    In jump-Euler mode, increments over ``dt`` are added until the path
    leaves D; the recorded exit time overshoots the true one by at most one
    step and the pre-exit position stands in for the left limit. In exact
    mode the exit position is drawn by walk-on-spheres (no time recorded).
    """
    if not np.all(domain.contains(np.atleast_1d(start))):
        raise ValueError("start must lie in D")
    if exact:
        z = walk_on_spheres_exit(params, domain, start, rng)
        return Excursion(start=start, duration=np.nan, n_steps=0, pre_exit=np.nan,
                         exit_point=z, entry_point=np.nan)
    if dt <= 0:
        raise ValueError("dt must be positive")
    pos = start
    stored = [np.atleast_1d(start)] if store_positions else None
    steps = 0
    while steps < max_steps:
        inc = sample_stable_increment(params, dt, rng, size=chunk)
        if params.d == 1:
            path = pos + np.cumsum(inc)
        else:
            path = pos + np.cumsum(inc, axis=0)
        outside = ~domain.contains(path)
        hit = np.argmax(outside) if outside.any() else -1
        if hit >= 0:
            exit_point = path[hit]
            pre = path[hit - 1] if hit > 0 else pos
            steps += hit + 1
            if store_positions:
                stored.append(path[: hit + 1])
            return Excursion(
                start=start,
                duration=steps * dt,
                n_steps=steps,
                pre_exit=pre,
                exit_point=exit_point,
                entry_point=np.nan,
                positions=np.concatenate(stored) if store_positions else None,
            )
        pos = path[-1]
        steps += chunk
        if store_positions:
            stored.append(path)
    raise RuntimeError("excursion did not exit within %d steps" % max_steps)


def simulate_ladder(params, domain, mu, start, horizon, dt, seed, replica=0,
                    store_positions=False):
    """Simulate the reflected process as concatenated killed excursions.

    Each excursion draws from the stream keyed (seed, replica, excursion);
    its re-entry point uses a separate sub-stream, so the realized path is
    independent of internal chunk sizes. The path stops at the horizon; the
    final (unfinished) excursion is kept without exit data.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    segments = []
    tau, refl = [], []
    clock = 0.0
    pos = start
    for exc_idx in range(10 ** 7):
        rng = stream(seed, replica, exc_idx, 0)
        exc = simulate_killed_excursion(params, domain, pos, dt, rng,
                                        store_positions=store_positions)
        if clock + exc.duration > horizon:
            # truncate at the horizon: no exit happened before it
            keep = int(np.floor((horizon - clock) / dt))
            trimmed = Excursion(
                start=pos, duration=np.nan, n_steps=keep, pre_exit=np.nan,
                exit_point=np.nan, entry_point=np.nan,
                positions=exc.positions[: keep + 1] if store_positions else None,
            )
            segments.append(trimmed)
            break
        entry_rng = stream(seed, replica, exc_idx, 1)
        entry = mu.sample(exc.exit_point, entry_rng)
        exc.entry_point = entry
        segments.append(exc)
        clock += exc.duration
        tau.append(clock)
        refl.append(entry)
        pos = entry
    else:
        raise RuntimeError("excursion cap exceeded before the horizon")
    return LadderPath(horizon=horizon, start=start, segments=segments,
                      tau=np.asarray(tau), R=np.asarray(refl))


def walk_on_spheres_exit(params, domain, start, rng, size=None, max_iter=10 ** 6,
                         return_iterations=False):
    """Exact exit-position sampling by iterated maximal-ball exits.

    From the current point, sample the exit of the maximal inscribed
    centered ball; continue while the landing point is still in D (it may
    land in another component of D). Terminates almost surely; the optional
    iteration counts let callers report the expected number of steps.
    """
    d = params.d
    scalar = size is None
    n = 1 if scalar else int(size)
    shape = (n,) if d == 1 else (n, d)
    pos = np.array(np.broadcast_to(np.asarray(start, dtype=float), shape))
    if not np.all(domain.contains(pos)):
        raise ValueError("start must lie in D")
    iters = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for _ in range(max_iter):
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
    out = pos[0] if scalar else pos
    if return_iterations:
        return out, (int(iters[0]) if scalar else iters)
    return out


def reflection_chain(params, domain, mu, start, n_steps, rng, size=None):
    """Markov chain of post-reflection positions, free of time discretization.

    Each step exits D exactly (walk-on-spheres composed of closed-form ball
    exits) and re-enters through the return kernel. Returns the positions
    after reflections 1..n_steps, shape (n_steps,) or (size, n_steps).
    """
    scalar = size is None
    n = 1 if scalar else int(size)
    if params.d != 1:
        raise NotImplementedError("reflection chains are implemented for d=1")
    x = np.array(np.broadcast_to(np.asarray(start, float), (n,)), dtype=float)
    out = np.empty((n, int(n_steps)))
    for k in range(int(n_steps)):
        z = walk_on_spheres_exit(params, domain, x, rng, size=n)
        x = np.atleast_1d(mu.sample(z, rng, size=n))
        out[:, k] = x
    return out[0] if scalar else out


@dataclasses.dataclass
class EnsembleResult:
    """Aggregates from a lockstep batch of reflected paths."""

    n_paths: int
    dt: float
    horizon: float
    t_marks: np.ndarray
    counts_at_marks: np.ndarray      # (n_paths, len(t_marks)) reflection counts
    occupancy: np.ndarray            # cell masses of the time average, or None
    occupancy_time: float
    first_exit_time: np.ndarray
    first_pre_exit: np.ndarray
    first_exit_point: np.ndarray
    first_entry: np.ndarray
    total_reflections: np.ndarray


def simulate_ensemble(params, domain, mu, start, horizon, dt, seed, n_paths,
                      t_marks=(), grid=None, burn_in=0.0, stream_id=0):
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

    Records reflection counts at the requested marks, the first-reflection
    data of every path, and (when a grid is given) the occupation histogram
    of the time average after ``burn_in``.
    """
    n = int(n_paths)
    tail = () if params.d == 1 else (params.d,)
    rng = stream(seed, 0xE5, stream_id)
    if hasattr(start, "sample"):
        pos = np.atleast_1d(start.sample(rng, size=n)).astype(float)
    else:
        pos = np.array(np.broadcast_to(np.asarray(start, float), (n,) + tail), dtype=float)
    n_steps = int(np.round(horizon / dt))
    t_marks = np.asarray(sorted(t_marks), dtype=float)
    mark_steps = np.round(t_marks / dt).astype(np.int64)
    # occupation counts the positions at steps k with k * dt >= burn_in
    n_skip = int(np.count_nonzero(np.arange(n_steps) * dt < burn_in))
    counts = np.zeros(n, dtype=np.int64)
    counts_at = np.zeros((n, len(t_marks)), dtype=np.int64)
    hist = np.zeros(grid.n, dtype=np.int64) if grid is not None else None
    fe_time = np.full(n, np.nan)
    fe_pre, fe_exit, fe_entry = (np.full((n,) + tail, np.nan) for _ in range(3))
    chunk_len = min(_CHUNK_STEPS, max(1, _CHUNK_POSITIONS // max(n, 1)))
    for c, k0 in enumerate(range(0, n_steps, chunk_len)):
        steps = min(chunk_len, n_steps - k0)
        crng = stream(seed, 0xE5, stream_id, c)
        inc = sample_stable_increment(params, dt, crng, size=steps * n)
        # path[j, s] is path j after step k0 + s; path[:, 0] is the chunk start
        path = np.empty((n, steps + 1) + tail)
        path[:, 0] = pos
        np.cumsum(inc.reshape((n, steps) + tail), axis=1, out=path[:, 1:])
        del inc
        path[:, 1:] += pos[:, None]
        marks = np.flatnonzero((mark_steps > k0) & (mark_steps <= k0 + steps))
        counts_at[:, marks] = counts[:, None]
        live, last = np.arange(n), None
        while live.size:
            if last is None:
                lo, out = 1, ~domain.contains(path[:, 1:])
            else:
                # re-test only the steps after each path's last exit
                lo = int(last.min()) + 1
                if lo > steps:
                    break
                out = ~domain.contains(path[live, lo:])
                out &= np.arange(lo, steps + 1) > last[:, None]
            hit = out.argmax(axis=1)
            found = out[np.arange(live.size), hit]
            live, step = live[found], hit[found] + lo
            if not live.size:
                break
            z = path[live, step]
            entry = np.asarray(mu.sample(z, crng, size=live.size), dtype=float)
            first = counts[live] == 0
            fp = live[first]
            fe_time[fp] = (k0 + step[first]) * dt
            fe_pre[fp] = path[fp, step[first] - 1]
            fe_exit[fp] = z[first]
            fe_entry[fp] = entry[first]
            counts[live] += 1
            for j, s, shift in zip(live.tolist(), step.tolist(), entry - z):
                path[j, s:] += shift
            path[live, step] = entry
            for i in marks:
                counts_at[live[step <= mark_steps[i] - k0], i] += 1
            last = step
        if hist is not None and k0 + steps > n_skip:
            hist += np.bincount(grid.cell_index(path[:, max(n_skip - k0, 0):steps]).ravel(),
                                minlength=grid.n)
        pos = path[:, steps].copy()
        del path    # free the chunk before the next one is drawn
    n_kept = n_steps - n_skip
    occupancy = None
    if hist is not None:
        occupancy = hist / (n_kept * n) if n_kept else np.zeros(grid.n)
    return EnsembleResult(
        n_paths=n, dt=dt, horizon=horizon, t_marks=t_marks,
        counts_at_marks=counts_at, occupancy=occupancy, occupancy_time=n_kept * dt,
        first_exit_time=fe_time, first_pre_exit=fe_pre, first_exit_point=fe_exit,
        first_entry=fe_entry, total_reflections=counts,
    )


def simulate_ensemble_blocks(params, domain, mu, start, horizon, dt, seed, n_paths,
                             t_marks=(), grid=None, burn_in=0.0, block=50, workers=1):
    """Block-decomposed ensemble with deterministic merging.

    Replicas are grouped into fixed-size blocks, each driven by its own
    keyed stream; blocks may run on any number of workers and the merged
    result is bit-identical regardless of the worker count.
    """
    sizes = [block] * (int(n_paths) // block)
    if int(n_paths) % block:
        sizes.append(int(n_paths) % block)

    def run(b):
        return simulate_ensemble(params, domain, mu, start, horizon, dt, seed,
                                 sizes[b], t_marks=t_marks, grid=grid,
                                 burn_in=burn_in, stream_id=b + 1)

    if workers and workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=int(workers)) as ex:
            results = list(ex.map(run, range(len(sizes))))
    else:
        results = [run(b) for b in range(len(sizes))]
    counts_at = np.concatenate([r.counts_at_marks for r in results], axis=0)
    total = np.concatenate([r.total_reflections for r in results])
    fe = {name: np.concatenate([getattr(r, name) for r in results])
          for name in ("first_exit_time", "first_pre_exit", "first_exit_point", "first_entry")}
    occupancy = None
    occ_time = results[0].occupancy_time
    if grid is not None:
        occupancy = sum(r.occupancy * r.n_paths for r in results) / int(n_paths)
    return EnsembleResult(
        n_paths=int(n_paths), dt=dt, horizon=horizon,
        t_marks=np.asarray(sorted(t_marks), dtype=float),
        counts_at_marks=counts_at, occupancy=occupancy, occupancy_time=occ_time,
        first_exit_time=fe["first_exit_time"], first_pre_exit=fe["first_pre_exit"],
        first_exit_point=fe["first_exit_point"], first_entry=fe["first_entry"],
        total_reflections=total,
    )


def sample_first_exit(params, domain, start, dt, seed, n_paths, max_steps=10 ** 7):
    """First-exit data (time, pre-exit, exit point) for a batch of killed paths.

    Lockstep jump-Euler with compaction of the surviving paths; the draw
    order is fixed by (seed, n_paths), independent of scheduling.
    """
    rng = stream(seed, 0xF1, 0)
    n = int(n_paths)
    if hasattr(start, "sample"):
        pos = np.atleast_1d(start.sample(rng, size=n)).astype(float)
    elif params.d == 1:
        pos = np.array(np.broadcast_to(np.asarray(start, float), (n,)), dtype=float)
    else:
        pos = np.array(np.broadcast_to(np.asarray(start, float), (n, params.d)), dtype=float)
    alive = np.arange(n)
    exit_time = np.empty(n)
    pre_exit = np.empty(n) if params.d == 1 else np.empty((n, params.d))
    exit_point = np.empty_like(pre_exit)
    k = 0
    while alive.size and k < max_steps:
        inc = sample_stable_increment(params, dt, rng, size=alive.size)
        newpos = pos[alive] + inc
        out = ~domain.contains(newpos)
        if out.any():
            gone = alive[out]
            exit_time[gone] = (k + 1) * dt
            pre_exit[gone] = pos[gone]
            exit_point[gone] = newpos[out]
            alive = alive[~out]
            pos[alive] = newpos[~out]
        else:
            pos[alive] = newpos
        k += 1
    if alive.size:
        raise RuntimeError("some paths did not exit within %d steps" % max_steps)
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


def excursion_statistics(paths, min_completed=100):
    """Duration statistics of the excursions of many paths.

    Reports the pooled lag-1 autocorrelation of consecutive durations within
    paths and the duration samples per excursion index; under a constant
    return law these are uncorrelated and identically distributed.
    """
    per_path = []
    for p in paths:
        durs = [s.duration for s in p.segments if s.completed and np.isfinite(s.duration)]
        per_path.append(np.asarray(durs))
    total = int(sum(len(d) for d in per_path))
    if total < min_completed:
        raise ValueError("insufficient data: %d completed excursions < %d" % (total, min_completed))
    max_len = max(len(d) for d in per_path)
    by_index = [np.concatenate([d[i:i + 1] for d in per_path if len(d) > i])
                for i in range(max_len)]
    first = np.concatenate([d[:-1] for d in per_path if len(d) >= 2])
    second = np.concatenate([d[1:] for d in per_path if len(d) >= 2])
    if len(first) >= 2 and first.std() > 0 and second.std() > 0:
        ac = float(np.corrcoef(first, second)[0, 1])
    else:
        ac = 0.0
    alldur = np.concatenate(per_path)
    return ExcursionStats(
        n_paths=len(per_path),
        n_completed=total,
        durations_by_index=by_index,
        lag1_autocorrelation=ac,
        lag1_pairs=len(first),
        mean_duration=float(alldur.mean()),
    )
