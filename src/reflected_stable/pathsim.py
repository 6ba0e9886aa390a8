"""Monte Carlo simulation of the reflected process and its reflection chain.

Every killed path is stepped by one jump-Euler routine, ``_advance``: it
draws a chunk of increments for many paths in one call, sums them along
time and finds each path's first exit. The lockstep ensemble, single
excursions and first-exit batches differ only in their chunk sizes and in
what they do at an exit. Reflected paths have one simulator, the lockstep
ensemble: it records every reflection of every path, and ladder paths are
cut from those records. Exact exit positions come from walk-on-spheres
(``stable_core.walk_on_spheres_exit``, re-exported here).

Random streams are counter-based (Philox; Salmon et al., SC'11) and keyed
by tuples of integers. The lockstep ensemble cuts time into chunks of at
most 1024 steps and 2**20 path positions, and keys each chunk's increments
and re-entries by (seed, stream id, chunk): ladder paths use stream id 0,
the blocks of ``simulate_ensemble_blocks`` ids 1, 2, .... Every result is
thus a deterministic function of its seed, its sizes, the time step and
the horizon, whatever the worker or thread count.
"""

import dataclasses

import numpy as np

from .stable_core import sample_stable_increment, walk_on_spheres_exit


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
    """One killed excursion: start and exit data.

    ``duration`` is the jump-Euler exit time.
    """

    start: float
    duration: float
    n_steps: int
    pre_exit: float
    exit_point: float
    positions: np.ndarray = None


def _require(ok, message):
    if not ok:
        raise ValueError(message)


@dataclasses.dataclass
class LadderPath:
    """The reflections of one simulated path of the reflected process.

    Reflection k happens at time ``tau[k]``: ``pre_exit[k]`` is the last
    position in D before it, ``exit_point[k]`` the first outside D and
    ``R[k]`` the re-entry point. The reflection count at time t is the
    number of entries of ``tau`` not exceeding t.
    """

    horizon: float
    tau: np.ndarray
    pre_exit: np.ndarray
    exit_point: np.ndarray
    R: np.ndarray

    def count_at(self, t):
        return int(np.searchsorted(self.tau, t, side="right"))

    def validate(self, domain):
        """Check the structural invariants; raises ValueError on failure."""
        _require(np.all(np.diff(self.tau) > 0), "reflection times must increase strictly")
        _require(np.all(np.isfinite(self.tau)), "recorded reflection times must be finite")
        _require(len(self.tau) == len(self.pre_exit) == len(self.exit_point) == len(self.R),
                 "one pre-exit, exit and re-entry point is needed per reflection")
        _require(np.all(domain.contains(self.pre_exit)), "pre-exit points must lie in D")
        _require(not np.any(domain.contains(self.exit_point)), "exit points must lie outside D")
        _require(np.all(domain.contains(self.R)), "re-entry points must lie in D")
        return True


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


def simulate_killed_excursion(params, domain, start, dt, rng, store_positions=False):
    """One excursion of the process killed at the first exit from D.

    Increments over ``dt`` are added, 1024 steps per draw, until the path
    leaves D; the recorded exit time overshoots the true one by at most one
    step and the pre-exit position stands in for the left limit.
    """
    if not np.all(domain.contains(np.atleast_1d(start))):
        raise ValueError("start must lie in D")
    if dt <= 0:
        raise ValueError("dt must be positive")
    pos = np.asarray(start, dtype=float)[None]
    stored = [pos] if store_positions else None
    for k0 in range(0, _MAX_STEPS, _CHUNK_STEPS):
        path, hit = _advance(params, domain, pos, dt, rng, _CHUNK_STEPS)
        path, hit = path[0], int(hit[0])
        if store_positions:
            stored.append(path[1:hit + 1] if hit else path[1:])
        if hit:
            return Excursion(
                start=start,
                duration=(k0 + hit) * dt,
                n_steps=k0 + hit,
                pre_exit=path[hit - 1],
                exit_point=path[hit],
                positions=np.concatenate(stored) if store_positions else None,
            )
        pos = path[None, -1]
    raise RuntimeError("excursion did not exit within %d steps" % _MAX_STEPS)


def simulate_ladder(params, domain, mu, start, horizon, dt, seed, n_paths):
    """n_paths ladder paths of the reflected process up to the horizon.

    One ``simulate_ensemble`` run on stream id 0 (``start`` is a point or a
    start law); each path is cut from its reflection records.
    """
    ens = simulate_ensemble(params, domain, mu, start, horizon, dt, seed, n_paths,
                            stream_id=0)
    cuts = ens.offsets
    return [LadderPath(horizon=horizon, tau=ens.tau[a:b], pre_exit=ens.pre_exit[a:b],
                       exit_point=ens.exit_point[a:b], R=ens.entry[a:b])
            for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist())]


def reflection_chain(params, domain, mu, start, n_steps, rng, size):
    """``size`` Markov chains of post-reflection positions, free of time discretization.

    Each step exits D exactly (walk-on-spheres composed of closed-form ball
    exits) and re-enters through the return kernel. Returns the positions
    after reflections 1..n_steps, shape (size, n_steps).
    """
    n = int(size)
    if params.d != 1:
        raise NotImplementedError("reflection chains are implemented for d=1")
    x = np.array(np.broadcast_to(np.asarray(start, float), (n,)), dtype=float)
    out = np.empty((n, int(n_steps)))
    for k in range(int(n_steps)):
        z = walk_on_spheres_exit(params, domain, x, rng, size=n)
        x = mu.sample(z, rng, size=n)
        out[:, k] = x
    return out


@dataclasses.dataclass
class EnsembleResult:
    """Aggregates and reflection records from a lockstep batch of reflected paths.

    The records are grouped by path: reflection k of path j is record
    ``offsets[j] + k``, with its time ``tau``, the last position in D before
    it ``pre_exit``, the first position outside D ``exit_point`` and the
    re-entry point ``entry``. The ``first_*`` arrays read each path's first
    record (nan where the path never reflected).
    """

    n_paths: int
    dt: float
    horizon: float
    t_marks: np.ndarray
    counts_at_marks: np.ndarray      # (n_paths, len(t_marks)) reflection counts
    occupancy: np.ndarray            # cell masses of the time average, or None
    occupancy_time: float
    offsets: np.ndarray              # (n_paths + 1,) record index of each path's start
    tau: np.ndarray
    pre_exit: np.ndarray
    exit_point: np.ndarray
    entry: np.ndarray

    @property
    def total_reflections(self):
        return np.diff(self.offsets)

    def _first(self, records):
        out = np.full((self.n_paths,) + records.shape[1:], np.nan)
        hit = self.total_reflections > 0
        out[hit] = records[self.offsets[:-1][hit]]
        return out

    first_exit_time = property(lambda self: self._first(self.tau))
    first_pre_exit = property(lambda self: self._first(self.pre_exit))
    first_exit_point = property(lambda self: self._first(self.exit_point))
    first_entry = property(lambda self: self._first(self.entry))


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

    Records every reflection of every path (time, pre-exit, exit and
    re-entry point; no extra draws), reflection counts at the requested
    marks (a mark past the horizon raises ValueError), and (when a grid is
    given) the occupation histogram of the time average after ``burn_in``.
    """
    n = int(n_paths)
    tail = () if params.d == 1 else (params.d,)
    n_steps = int(np.round(horizon / dt))
    t_marks = np.asarray(sorted(t_marks), dtype=float)
    mark_steps = np.round(t_marks / dt).astype(np.int64)
    if np.any(mark_steps > n_steps):
        raise ValueError("t_marks must not lie past the horizon")
    pos = _start_positions(params, domain, start, n, stream(seed, 0xE5, stream_id))
    # occupation counts the positions at steps k with k * dt >= burn_in
    n_skip = int(np.count_nonzero(np.arange(n_steps) * dt < burn_in))
    counts = np.zeros(n, dtype=np.int64)
    counts_at = np.zeros((n, len(t_marks)), dtype=np.int64)
    hist = np.zeros(grid.n, dtype=np.int64) if grid is not None else None
    # one entry per round: (paths, exit steps, pre-exit, exit and entry points)
    empty = np.empty((0,) + tail)
    rounds = [(np.empty(0, np.int64), np.empty(0, np.int64), empty, empty, empty)]
    chunk_len = min(_CHUNK_STEPS, max(1, _CHUNK_POSITIONS // max(n, 1)))
    for c, k0 in enumerate(range(0, n_steps, chunk_len)):
        steps = min(chunk_len, n_steps - k0)
        crng = stream(seed, 0xE5, stream_id, c)
        # path[j, s] is path j after step k0 + s; path[:, 0] is the chunk start
        path, exits = _advance(params, domain, pos, dt, crng, steps)
        marks = np.flatnonzero((mark_steps > k0) & (mark_steps <= k0 + steps))
        counts_at[:, marks] = counts[:, None]
        live = np.flatnonzero(exits)
        step = exits[live]
        while live.size:
            z = path[live, step]
            entry = np.asarray(mu.sample(z, crng, size=live.size), dtype=float)
            rounds.append((live, k0 + step, path[live, step - 1], z, entry))
            counts[live] += 1
            for j, s, shift in zip(live.tolist(), step.tolist(), entry - z):
                path[j, s:] += shift
            path[live, step] = entry
            for i in marks:
                counts_at[live[step <= mark_steps[i] - k0], i] += 1
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
    n_kept = n_steps - n_skip
    occupancy = None
    if hist is not None:
        occupancy = hist / (n_kept * n) if n_kept else np.zeros(grid.n)
    # rounds come in time order, so a stable sort by path keeps each path's
    # reflections in time order
    who, steps_at, pre, z, entry = (np.concatenate(col) for col in zip(*rounds))
    order = np.argsort(who, kind="stable")
    return EnsembleResult(
        n_paths=n, dt=dt, horizon=horizon, t_marks=t_marks,
        counts_at_marks=counts_at, occupancy=occupancy, occupancy_time=n_kept * dt,
        offsets=np.concatenate(([0], np.cumsum(counts))), tau=steps_at[order] * dt,
        pre_exit=pre[order], exit_point=z[order], entry=entry[order],
    )


def simulate_ensemble_blocks(params, domain, mu, start, horizon, dt, seed, n_paths,
                             t_marks=(), grid=None, burn_in=0.0, block=50, workers=1):
    """Block-decomposed ensemble with deterministic merging.

    Replicas are grouped into fixed-size blocks, each driven by its own
    keyed stream (ids 1, 2, ...); blocks may run on any number of workers
    and the merged result, reflection records included, is bit-identical
    regardless of the worker count. The thread pool stays because numpy
    releases the GIL for much of the chunk work, so blocks overlap: on the
    default ensemble (200 paths, horizon 200, 2 cores) 2 workers took
    1.71-2.03 s against 2.14-2.38 s for 1.
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
    records = {name: np.concatenate([getattr(r, name) for r in results])
               for name in ("tau", "pre_exit", "exit_point", "entry")}
    occupancy = None
    occ_time = results[0].occupancy_time
    if grid is not None:
        occupancy = sum(r.occupancy * r.n_paths for r in results) / int(n_paths)
    return EnsembleResult(
        n_paths=int(n_paths), dt=dt, horizon=horizon,
        t_marks=np.asarray(sorted(t_marks), dtype=float),
        counts_at_marks=counts_at, occupancy=occupancy, occupancy_time=occ_time,
        offsets=np.concatenate(([0], np.cumsum(total))), **records,
    )


def sample_first_exit(params, domain, start, dt, seed, n_paths):
    """First-exit data (time, pre-exit, exit point) for a batch of killed paths.

    The surviving paths advance together in chunks of at most 1024 steps and
    2**20 path positions, all drawn after the start law from the stream
    keyed (seed, 0xF1, 0); a path leaves the batch at its first exit.
    """
    rng = stream(seed, 0xF1, 0)
    n = int(n_paths)
    pos = _start_positions(params, domain, start, n, rng)
    exit_time = np.empty(n)
    pre_exit, exit_point = np.empty_like(pos), np.empty_like(pos)
    alive, k0 = np.arange(n), 0
    while alive.size:
        if k0 >= _MAX_STEPS:
            raise RuntimeError("some paths did not exit within %d steps" % _MAX_STEPS)
        steps = min(_CHUNK_STEPS, max(1, _CHUNK_POSITIONS // alive.size))
        path, hit = _advance(params, domain, pos, dt, rng, steps)
        rows = np.flatnonzero(hit)
        done, step = alive[rows], hit[rows]
        exit_time[done] = (k0 + step) * dt
        pre_exit[done] = path[rows, step - 1]
        exit_point[done] = path[rows, step]
        alive, pos = alive[hit == 0], path[hit == 0, -1]
        k0 += steps
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
    return law these are uncorrelated and identically distributed. A pair
    of consecutive durations is kept only when the second excursion began
    by half the path's horizon: a fixed window, so a long first excursion
    does not shorten the time left for the second, which would bias the
    correlation negative. ``lag1_pairs`` counts the kept pairs.
    """
    per_path = [np.diff(p.tau, prepend=0.0) for p in paths]
    # pair k is (d[k], d[k + 1]); the second excursion began at tau[k]
    kept = [p.tau[:-1] <= 0.5 * p.horizon for p in paths]
    total = int(sum(len(d) for d in per_path))
    if total < min_completed:
        raise ValueError("insufficient data: %d completed excursions < %d" % (total, min_completed))
    max_len = max(len(d) for d in per_path)
    by_index = [np.concatenate([d[i:i + 1] for d in per_path if len(d) > i])
                for i in range(max_len)]
    first = np.concatenate([d[:-1][k] for d, k in zip(per_path, kept)])
    second = np.concatenate([d[1:][k] for d, k in zip(per_path, kept)])
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
