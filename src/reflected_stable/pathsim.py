"""Monte Carlo simulation of the reflected process and its reflection chain.

Random streams are counter-based (Philox) and keyed by (seed, replica,
excursion), with a separate sub-stream for the re-entry draw of each
excursion, so results are bit-identical regardless of chunk sizes, worker
counts, or scheduling. Batch estimators advance all replicas in lockstep
from a single keyed stream; their outputs are deterministic functions of
(seed, n_paths, dt).
"""

import dataclasses

import numpy as np

from .stable_core import sample_ball_exit_radius, sample_stable_increment, _unit_direction


_MASK = (1 << 64) - 1


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

    One keyed stream drives all paths, in a fixed order, so the result is a
    deterministic function of (seed, stream_id, n_paths) and the time step.
    Records reflection counts at the requested marks, the first-reflection
    data of every path, and (when a grid is given) the occupation histogram
    of the time average after ``burn_in``.
    """
    rng = stream(seed, 0xE5, stream_id)
    n = int(n_paths)
    if hasattr(start, "sample"):
        pos = np.atleast_1d(start.sample(rng, size=n)).astype(float)
    else:
        pos = np.array(np.broadcast_to(np.asarray(start, float), (n,) if params.d == 1 else (n, params.d)), dtype=float)
    n_steps = int(np.round(horizon / dt))
    t_marks = np.asarray(sorted(t_marks), dtype=float)
    mark_steps = set(int(np.round(t / dt)) for t in t_marks)
    counts = np.zeros(n, dtype=np.int64)
    counts_at = np.zeros((n, len(t_marks)), dtype=np.int64)
    mark_idx = {int(np.round(t / dt)): k for k, t in enumerate(t_marks)}
    occupancy = np.zeros(grid.n) if grid is not None else None
    occ_time = 0.0
    fe_time = np.full(n, np.nan)
    fe_pre = np.full(n, np.nan)
    fe_exit = np.full(n, np.nan)
    fe_entry = np.full(n, np.nan)
    for k in range(n_steps):
        if occupancy is not None and k * dt >= burn_in:
            occupancy += np.bincount(grid.cell_index(pos), minlength=grid.n)
            occ_time += dt
        inc = sample_stable_increment(params, dt, rng, size=n)
        newpos = pos + inc
        out = ~domain.contains(newpos)
        if out.any():
            z = newpos[out]
            entries = np.atleast_1d(mu.sample(z, rng, size=int(out.sum())))
            first = out & (counts == 0)
            if first.any():
                sel = first[out]
                fe_time[first] = (k + 1) * dt
                fe_pre[first] = pos[first]
                fe_exit[first] = z[sel]
                fe_entry[first] = entries[sel]
            newpos[out] = entries
            counts[out] += 1
        pos = newpos
        if (k + 1) in mark_idx:
            counts_at[:, mark_idx[k + 1]] = counts
    if occupancy is not None and occ_time > 0:
        occupancy = occupancy * dt / (occ_time * n)
    return EnsembleResult(
        n_paths=n, dt=dt, horizon=horizon, t_marks=t_marks,
        counts_at_marks=counts_at, occupancy=occupancy, occupancy_time=occ_time,
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
