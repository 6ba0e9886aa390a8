"""Batch front end: JSON configs, experiment orchestration, and reports.

Experiments are described by a single JSON document and run to CSV, JSON
and .npy artifacts plus a manifest. Each kind is a fixed sequence of
stages, held in one table (``KIND_STAGES``): ``--describe`` prints it, and
``run`` runs it and records each stage's wall time in the manifest. Exit
codes: 0 all checks passed, 1 at least one numeric check failed (a series
or excessive construction that raises fails a check named for its t or
lambda), 2 invalid configuration, 3 a stage raised (the error JSON on
stderr names the stage).
Reruns with the same config and seed produce byte-identical result files
regardless of the worker count (the manifest additionally records wall
times, so it is excluded from byte comparisons).
"""

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .geometry import Interval, IntervalUnion, build_grid
from .killed_kernels import assemble_dirichlet_generator, green_operator, \
    harmonic_kernel
from .pathsim import excursion_statistics, reflection_chain, renewal_occupation, \
    simulate_ensemble_blocks, stream
from .perturbation import (_CONSERVATION_TOL, _SUPERMEDIAN_TOL, SeriesError,
                           _conservation_defect, build_excessive, duhamel_series,
                           full_generator, perturbation_matrix, series_diagnostics,
                           supermedian_violation)
from .reflection import (AtomMeasure, ConstantKernel, ProjectionKernel, UniformMeasure,
                         default_probes, validate_concentration)
from .stable_core import _MIN_INCREMENT_ALPHA, StableParams
from .stationary import (_ERGODIC_REFLECTIONS, GridMeasure, chain_directions, chain_kernel,
                         dobrushin_coefficient, kappa_closed_form, kappa_ergodic,
                         kappa_generator_nullvector, stationary_p, total_variation,
                         triangulation_report)

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field name."""

    def __init__(self, field, message):
        super().__init__("config field '%s': %s" % (field, message))
        self.field = field


@dataclasses.dataclass
class ExperimentConfig:
    """Validated experiment description; round-trips losslessly to JSON."""

    kind: str
    seed: int
    d: int
    alpha: float
    domain_spec: dict
    mu_spec: dict
    n_cells: int
    dt: float
    horizon: float
    replicas: int
    lambda_list: list
    t_list: list
    out_dir: str
    threads: int
    chain_steps: int
    chain_samples: int

    # derived from the fields on first read, never set: the JSON form holds the fields
    params = functools.cached_property(lambda c: StableParams(c.d, c.alpha))
    domain = functools.cached_property(lambda c: build_domain(c.domain_spec))
    mu = functools.cached_property(lambda c: build_mu(c.mu_spec, c.domain))
    grid = functools.cached_property(lambda c: build_grid(c.domain, c.n_cells))

    def to_dict(self):
        out = dataclasses.asdict(self)
        out["params"] = {"d": out.pop("d"), "alpha": out.pop("alpha")}
        out["domain"], out["mu"] = out.pop("domain_spec"), out.pop("mu_spec")
        return out

    def hash(self):
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


class _Run:
    """One experiment run: its config, checks, output files and grid operators."""

    def __init__(self, config):
        self.config, self.params, self.domain = config, config.params, config.domain
        self.mu, self.grid, self.out_dir = config.mu, config.grid, config.out_dir
        self.checks = []
        self.outputs = []
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", "cannot be made a directory: %s" % exc) from exc

    # built on first read, so a run builds only the operators its stages use: the
    # killed generator L, its Green operator G and harmonic kernel H, the return
    # kernel's perturbation M, the full generator A and the chain kernel C
    L = functools.cached_property(lambda r: assemble_dirichlet_generator(r.grid, r.params))
    G = functools.cached_property(lambda r: green_operator(r.L))
    H = functools.cached_property(lambda r: harmonic_kernel(r.G, r.params))
    M = functools.cached_property(lambda r: perturbation_matrix(r.grid, r.params, r.mu))
    A = functools.cached_property(lambda r: full_generator(r.L, r.M))
    C = functools.cached_property(lambda r: chain_kernel(r.H, r.mu))

    def check(self, name, passed, value=None, tolerance=None):
        self.checks.append({
            "name": name,
            "passed": bool(passed),
            "value": None if value is None else float(value),
            "tolerance": None if tolerance is None else float(tolerance),
        })

    def _output(self, name):
        self.outputs.append(name)
        return os.path.join(self.out_dir, name)

    def write_csv(self, name, header, columns):
        """Write equal-length columns: integers as %d, floats as %.17g."""
        columns = [np.asarray(c) for c in columns]
        fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
        path = self._output(name)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(fmt % row for row in zip(*(c.tolist() for c in columns)))
        return path

    def write_measure(self, name, measure):
        """Write a grid measure's nodes, cell masses and densities."""
        return self.write_csv(name, ["x", "mass", "density"],
                              [measure.grid.nodes, measure.masses, measure.density()])

    def write_npy(self, name, array):
        """Write one array in NumPy's binary .npy format (load it with np.load)."""
        np.save(self._output(name), array)

    def write_json(self, name, payload):
        with open(self._output(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")


# Stages: each takes the _Run and leaves what a later stage reads as an attribute
# of it; a stage's one-line docstring is its name. A stage may return a dict of
# diagnostics, which its manifest entry records.

def _concentration(run):
    """concentration bound of the return kernel"""
    rep = validate_concentration(run.mu, default_probes(run.domain))
    run.check("concentration-witness", rep.passed, rep.theta_hat)


# numerator coefficients b_k / b_0, k = 0, ..., 13, of the [13/13] Pade approximant
# to exp (b_0 = 1, so exp(0) is I exactly), and the largest ||A||_1 at which it is
# accurate to double precision unscaled
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def _combine(out, tmp, c6, c4, c2, A6, A4, A2):
    """out = c6 A6 + c4 A4 + c2 A2, with ``tmp`` as scratch."""
    np.multiply(A6, c6, out=out)
    out += np.multiply(A4, c4, out=tmp)
    out += np.multiply(A2, c2, out=tmp)
    return out


def _expm(A, t):
    """exp(tA) of a square matrix by scaling and squaring with the [13/13] Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).

    With s = max(0, ceil(log2(||tA||_1 / theta_13))), the approximant
    r(X) = (V - U)^-1 (V + U) of X = t A / 2^s, U odd and V even in X, is
    squared s times. Six n x n buffers (X, its powers A2, A4, A6, and two
    more) are reused through ``out=``, each b I is added on the diagonal in
    place, and all but two are freed before the solve, so the call holds at
    most six n x n arrays beyond A. A is not written.
    """
    n = A.shape[0]
    b = _PADE13
    X = np.multiply(A, t)
    Y = np.abs(X)
    norm = Y.sum(axis=0).max()
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > _THETA13 else 0
    if s:
        X *= 2.0 ** -s
    A2 = X @ X
    A4 = A2 @ A2
    A6 = A4 @ A2
    T = np.empty_like(X)
    # U = X (A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I), in T
    np.matmul(A6, _combine(T, Y, b[13], b[11], b[9], A6, A4, A2), out=Y)
    Y += np.multiply(A6, b[7], out=T)
    Y += np.multiply(A4, b[5], out=T)
    Y += np.multiply(A2, b[3], out=T)
    Y.flat[::n + 1] += b[1]
    U = np.matmul(X, Y, out=T)
    # V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I, in Y;
    # the last combination scales A4 and A2 in place, as nothing reads them after
    V = np.matmul(A6, _combine(X, Y, b[12], b[10], b[8], A6, A4, A2), out=Y)
    np.multiply(A6, b[6], out=X)
    X += np.multiply(A4, b[4], out=A4)
    X += np.multiply(A2, b[2], out=A2)
    V += X
    V.flat[::n + 1] += b[0]
    P, Q = np.add(V, U, out=X), np.subtract(V, U, out=Y)
    del A2, A4, A6, T, U, V   # the solve and the squarings need only P and Q
    E = np.linalg.solve(Q, P)
    del P, X
    for _ in range(s):
        E, Q = np.matmul(E, E, out=Q), E
    return E


def _split(t, t1):
    """(k, rho) with t = k t1 + rho: k = round(t / t1) and rho = 0 when k t1
    lies within a few ulps of t, else k = floor(t / t1)."""
    k = round(t / t1)
    if abs(t - k * t1) <= 4 * math.ulp(t):
        return k, 0.0
    k = math.floor(t / t1)
    return k, t - k * t1


def _exponential(A, t, t1, E1):
    """exp(tA) from E1 = exp(t1 A), for 0 < t1 <= t.

    With (k, rho) = ``_split(t, t1)``, the result is E1^k by binary powering
    (the squaring phase of scaling and squaring; Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005), times ``_expm(A, rho)`` only when rho is not 0.
    Powering carries the error of storing E1 to about k eps. It is E1 itself
    when k = 1 and rho = 0, else a new array: E1 is never written.
    """
    k, rho = _split(t, t1)
    E, power = None, E1
    while True:
        if k & 1:
            E = power if E is None else E @ power
        k >>= 1
        if not k:
            break
        power = power @ power
    return E @ _expm(A, rho) if rho else E


def _parity_blocks(A):
    """The even and odd blocks of (A + JAJ)/2, J the flip of the node order.

    B = (A + JAJ)/2 commutes with J, so it is block diagonal in the
    orthonormal basis of the even vectors (e_j + e_{n-1-j})/sqrt(2), j < n//2,
    then e_m for the centre node m = n//2 of odd n, and the odd vectors
    (e_j - e_{n-1-j})/sqrt(2) (Cantoni and Butler, Linear Algebra Appl. 13,
    1976). The even block, of order n - n//2, holds B[i, j] + B[i, n-1-j]; the
    odd block, of order n//2, B[i, j] - B[i, n-1-j]; the centre node's row
    and column enter the even block scaled by sqrt(2), its diagonal entry
    B[m, m] unscaled.
    """
    n = A.shape[0]
    k, h = n // 2, n - n // 2
    top = np.add(A[:h], A[::-1, ::-1][:h])
    top *= 0.5   # rows i < h of B
    near, far = top[:, :k], top[:, :h - 1:-1]   # columns j and n-1-j, j < k
    even = np.empty((h, h))
    np.add(near, far, out=even[:, :k])
    odd = np.subtract(near[:k], far[:k])
    if h > k:
        even[k, :k] /= math.sqrt(2.0)
        even[:k, k] = top[:k, k] * math.sqrt(2.0)
        even[k, k] = top[k, k]
    return even, odd


def _from_parity_blocks(even, odd):
    """The node-basis matrix with parity blocks ``even`` and ``odd`` (the
    inverse of ``_parity_blocks``' change of basis), as a new array."""
    k, h = len(odd), len(even)
    n = h + k
    E = np.empty((n, n))
    F, left, right = even[:k, :k], E[:k, :k], E[:k, :h - 1:-1]
    np.add(F, odd, out=left)
    left *= 0.5
    np.subtract(F, odd, out=right)
    right *= 0.5
    if h > k:
        E[:k, k] = even[:k, k] / math.sqrt(2.0)
        E[k, :k] = even[k, :k] / math.sqrt(2.0)
        E[k, k] = even[k, k]
        E[k, h:] = E[k, :k][::-1]
    E[h:] = E[:k][::-1, ::-1]   # E commutes with J
    return E


# A is mirror-symmetric, A = JAJ with J the flip of the node order, when D and
# the return kernel are unchanged by the mirror x -> a + b - x, as the jump
# kernel depends on |x - y| only. The assembled entries still differ from
# JAJ's by round-off that grows with n: a diagonal entry is minus its row's
# sum, which the mirrored row takes in the other order. So A counts as
# symmetric when ||A - JAJ||_inf <= _MIRROR_TOL n eps ||A||_inf. Symmetric
# intervals read 0.17 to 1.7 on that scale (60 to 1600 cells, alpha 0.5 to
# 1.9) and six symmetric pieces at 60 cells up to 3.1 (they then keep the full
# path, which is only slower); a uniform law moved off centre by 2e-12 reads
# 2.8 to 12, and an asymmetric D or law 1e12 or more.
_MIRROR_TOL = 2.0


class _Reference:
    """exp(tA) at each t of ``t_list`` for the series check: one ``_expm`` at
    the smallest t, t1, and binary powers, from neither L's spectrum nor the
    Talbot contour that the series is built on.

    Each t is powered from the largest E(t') formed at t1 or an earlier t'
    of the list whose ratio t / t' is an integer under ``_split``'s rule,
    else from E(t1) times the remainder's ``_expm`` (``_exponential``). An
    E(t') is kept only while a later t powers from it, and E(t1) also while
    such a t' is not yet formed (its series may fail).

    When ||A - JAJ||_inf is within the round-off scale (``mirror``, see
    ``_MIRROR_TOL``), the expm and the powers are taken on the two parity
    blocks of (A + JAJ)/2 (``_parity_blocks``), a quarter of the flops, and
    ``at`` assembles E in the node basis. As A and (A + JAJ)/2 both generate
    substochastic semigroups, this moves E(t) by at most
    t ||A - JAJ||_inf / 2 <= n eps ||tA||_inf. ``wall_s`` is the time spent
    here, constructor and ``at`` calls together.
    """

    def __init__(self, A, t_list):
        start = time.perf_counter()
        n = A.shape[0]
        h = n - n // 2
        # row n-1-i of A - JAJ is row i reversed and negated
        diff = np.subtract(A[:h], A[::-1, ::-1][:h])
        self.asymmetry = float(np.abs(diff, out=diff).sum(axis=1).max())
        del diff
        self.threshold = _MIRROR_TOL * n * np.finfo(float).eps * float(np.linalg.norm(A, np.inf))
        self.mirror = self.asymmetry <= self.threshold
        self._blocks = _parity_blocks(A) if self.mirror else (A,)
        self._t_list = list(t_list)
        self.t1 = t1 = min(t_list)
        # the E(t') that each t powers from
        self._plan = [max((s for s in [t1, *t_list[:i]] if s <= t and _split(t, s)[1] == 0),
                          default=t1) for i, t in enumerate(t_list)]
        self._formed = {t1: [_expm(B, t1) for B in self._blocks]}
        self.wall_s = time.perf_counter() - start

    def at(self, t):
        """exp(tA) in the node basis, as an array the caller may overwrite."""
        start = time.perf_counter()
        i = self._t_list.index(t)
        base = self._plan[i] if self._plan[i] in self._formed else self.t1
        blocks = [_exponential(B, t, base, E) for B, E in zip(self._blocks, self._formed[base])]
        later = self._plan[i + 1:]
        if t in later:
            self._formed[t] = blocks
        for s in list(self._formed):
            if s not in later and (s != self.t1 or set(later) <= set(self._formed)):
                del self._formed[s]
        E = _from_parity_blocks(*blocks) if self.mirror else blocks[0]
        if any(E is F for kept in self._formed.values() for F in kept):
            E = E.copy()
        self.wall_s += time.perf_counter() - start
        return E

    def diagnostics(self):
        return {"path": "mirror" if self.mirror else "full", "mirror_asymmetry": self.asymmetry,
                "mirror_threshold": self.threshold, "wall_s": self.wall_s}


# Three checks per t: the reflected kernel's row sums (conservation), its
# entrywise gap to exp(tA) of the full generator A, and a fitted level-mass
# decay rate below 1 (with fewer than two positive level masses past level 0
# there is no rate to fit, and the check passes with value null). The
# reference exp(tA) is ``_Reference``'s: one ``_expm`` at the smallest t, on
# A or on its two half-size parity blocks when A commutes with the mirror,
# and powers for every other t. That expm runs before the first series, and
# each t's series, sum and gap are dropped before the next t's series is
# built, so no series array is alive at the expm and at most one t's arrays
# (with the kept powers) are alive at a time. The manifest records the
# reference's path, mirror asymmetry and time; series_diagnostics.json holds
# nothing that depends on the clock.
def _series(run):
    """perturbation series at each t: conservation, exponential match, level decay"""
    diagnostics = []
    L, M, t_list = run.L, run.M, run.config.t_list
    reference = _Reference(run.A.entries, t_list)
    for t in t_list:
        try:
            ser = duhamel_series(L, M, t)
        except (SeriesError, FloatingPointError) as exc:
            logger.debug("series at t=%g failed: %s", t, exc)
            run.check("series-t%g" % t, False)
            continue
        K = ser.total
        dev = _conservation_defect(K.sum(axis=1))
        run.check("conservation-t%g" % t, dev <= _CONSERVATION_TOL, dev, _CONSERVATION_TOL)
        E = reference.at(t)
        E -= K
        gap = float(np.abs(E, out=E).max())
        run.check("series-vs-exponential-t%g" % t, gap <= 1e-3, gap, 1e-3)
        run.check("gamma-below-1-t%g" % t,
                  ser.fit_gamma is None or ser.fit_gamma < 1.0, ser.fit_gamma, 1.0)
        diagnostics.append(series_diagnostics(ser))
        if t == t_list[0]:
            # density[i, j] of moving from node i to node j in time t
            run.write_npy("reflected_kernel_t%g.npy" % t, K / run.grid.widths)
            run.write_csv("reflected_kernel_nodes.csv", ["x", "width"],
                          [run.grid.nodes, run.grid.widths])
        del ser, K, E
    run.write_json("series_diagnostics.json", {"series": diagnostics})
    return {"series": diagnostics, "reference": reference.diagnostics()}


def _excessive(run):
    """shell-sum supermedian construction at each lambda"""
    grid, A = run.grid, run.A
    diagnostics = []
    for lam in run.config.lambda_list:
        try:
            exc = build_excessive(A, lam)
        except (SeriesError, FloatingPointError) as err:
            logger.debug("excessive construction at lambda=%g failed: %s", lam, err)
            run.check("excessive-lam%g" % lam, False)
            continue
        t0 = time.perf_counter()
        viol = supermedian_violation(A, lam, exc.values)
        diagnostics.append({"lambda": lam, "shell_levels": len(exc.radii),
                            "supermedian_violation": viol,
                            "check_s": time.perf_counter() - t0})
        run.check("supermedian-lam%g" % lam, viol <= _SUPERMEDIAN_TOL, viol, _SUPERMEDIAN_TOL)
        run.check("positive-lam%g" % lam, exc.values.min() > 0, exc.values.min())
        run.write_csv("excessive_lam%g.csv" % lam, ["x", "boundary_distance", "v"],
                      [grid.nodes, run.domain.boundary_distance(grid.nodes), exc.values])
        run.write_json("excessive_radii_lam%g.json" % lam, {
            "lambda": lam, "radii": exc.radii.tolist(), "thresholds": exc.thresholds.tolist()})
    return diagnostics


def _ensemble(run):
    """ensemble simulation: reflection counts and occupation"""
    config, grid = run.config, run.grid
    marks = sorted(set(config.t_list))
    t0 = time.perf_counter()
    ens = simulate_ensemble_blocks(
        run.params, run.mu, _start_law(run.mu), config.horizon,
        config.dt, config.seed, config.replicas, grid=grid,
        burn_in=min(1.0, config.horizon / 10), workers=config.threads)
    sim_s = time.perf_counter() - t0
    counts = ens.counts_at(marks)
    top = int(counts.max()) + 1
    hists = [np.bincount(c, minlength=top) for c in counts.T]
    run.write_csv("reflection_counts.csv", ["t", "n", "paths"],
                  [np.repeat(marks, top), np.tile(np.arange(top), len(marks)),
                   np.concatenate(hists)])
    occ = GridMeasure(grid, np.maximum(ens.occupancy, 0) / ens.occupancy.sum())
    run.write_measure("occupation.csv", occ)
    run.ens = ens
    path_steps = ens.n_paths * int(np.round(config.horizon / config.dt))
    return {"paths": ens.n_paths, "path_steps": path_steps,
            "reflections_per_path": float(ens.total_reflections.mean()),
            "path_steps_per_s": path_steps / sim_s}


# completed excursions that the excursion statistics need
_MIN_EXCURSIONS = 20


def _excursions(run):
    """ladder paths: excursion statistics and path dump"""
    ens = run.ens
    n_completed = int(ens.offsets[-1])
    run.check("excursions-completed", n_completed >= _MIN_EXCURSIONS, n_completed, _MIN_EXCURSIONS)
    if n_completed >= _MIN_EXCURSIONS:
        stats = excursion_statistics(ens, min_completed=_MIN_EXCURSIONS)
        run.write_json("excursion_stats.json", {
            "n_paths": stats.n_paths, "n_completed": stats.n_completed,
            "lag1_autocorrelation": stats.lag1_autocorrelation,
            "mean_duration": stats.mean_duration})
    # path dump of the first 10 paths: reflection times and re-entry points
    per_path = ens.total_reflections[:10]
    n = int(per_path.sum())
    run.write_csv("path_dump.csv", ["replica", "reflection", "tau", "R"], [
        np.repeat(np.arange(len(per_path)), per_path),
        np.arange(n) - np.repeat(ens.offsets[:len(per_path)], per_path) + 1,
        ens.tau[:n], ens.entry[:n]])


def _contraction(run):
    """chain kernel and its two-step contraction coefficient"""
    run.beta, run.overlap = dobrushin_coefficient(run.C)
    run.check("dobrushin-two-step", run.beta < 1.0, run.beta, 1.0)
    return {"beta": run.beta, "min_overlap": run.overlap,
            "m": chain_directions(run.C.factors[1]).shape[1]}


def _chain_samples(run):
    """exact reflection chain sampling and matrix-law comparison"""
    config, grid = run.config, run.grid
    x0 = _start_point(run.domain)
    chains = reflection_chain(run.params, run.mu, x0, config.chain_steps,
                              stream(config.seed, 0xC4), size=config.chain_samples)
    law = np.zeros(grid.n)
    law[grid.cell_index(np.atleast_1d(x0))[0]] = 1.0
    B, V = run.C.factors
    for _ in range(config.chain_steps):
        law = (law @ B) @ V.T
    obs = np.bincount(grid.cell_index(chains[:, -1]), minlength=grid.n)
    # compare on 20 merged bins so sampling noise stays below tolerance
    groups = np.array_split(np.arange(grid.n), 20)
    obs_g = np.array([obs[g].sum() for g in groups], dtype=float)
    law_g = np.array([law[g].sum() for g in groups])
    tv_emp = total_variation(obs_g / obs_g.sum(), law_g / law_g.sum())
    run.check("chain-empirical-vs-matrix-tv", tv_emp < 0.05, tv_emp, 0.05)
    kept, steps = chains[:2000], chains.shape[1]
    run.write_csv("chain_samples.csv", ["step", "sample", "x"],
                  [np.tile(np.arange(1, steps + 1), len(kept)),
                   np.repeat(np.arange(len(kept)), steps), kept.ravel()])


def _densities(run):
    """stationary chain law, closed-form and null-vector stationary densities"""
    p_chain = stationary_p(run.C, run.beta)
    run.measures = {"closed-form": kappa_closed_form(p_chain, run.G),
                    "null-vector": kappa_generator_nullvector(run.A)}
    run.write_measure("p_chain.csv", p_chain)
    run.write_measure("kappa_closed_form.csv", run.measures["closed-form"])
    run.write_measure("kappa_null_vector.csv", run.measures["null-vector"])
    return {"chain_law": p_chain.diagnostics,
            "null_vector": run.measures["null-vector"].diagnostics}


def _triangulation(run):
    """triangulation report of the stationary densities"""
    tri = triangulation_report(run.measures)
    worst = max(tri.values())
    run.check("triangulation-max-tv", worst <= 0.06, worst, 0.06)
    run.write_json("triangulation.json", {
        "pairwise_tv": tri, "dobrushin_two_step": run.beta, "min_row_overlap": run.overlap})


def _ergodic(run):
    """ergodic Monte Carlo (when replicas > 0)"""
    config = run.config
    if config.replicas == 0:
        return None
    burn_in = min(2.0, config.horizon / 10)
    occ = renewal_occupation(run.params, run.mu, _start_law(run.mu), config.horizon,
                             burn_in, config.seed, config.replicas, run.grid)
    reflections = occ.total_reflections.mean()
    if reflections < _ERGODIC_REFLECTIONS:
        # too short a horizon: fail a check and triangulate the grid legs
        run.check("ergodic-reflections", False, reflections, _ERGODIC_REFLECTIONS)
    else:
        run.measures["ergodic"] = kappa_ergodic(occ, run.grid)
        run.write_measure("kappa_ergodic.csv", run.measures["ergodic"])
    return {"chains": config.replicas, "reflections_per_chain": reflections,
            "balls_per_reflection": occ.balls / occ.total_reflections.sum(),
            "knot_points": occ.knot_points, "burn_in": burn_in}


KIND_STAGES = {
    "semigroup-check": (_concentration, _series),
    "excessive": (_excessive,),
    "simulate": (_ensemble, _excursions),
    "chain": (_contraction, _chain_samples),
    "stationary": (_contraction, _densities, _triangulation),
    "full-triangulation": (_concentration, _series, _contraction, _densities,
                           _ergodic, _triangulation),
}
KINDS = tuple(KIND_STAGES)
# the stages that draw from the Monte Carlo samplers; below their least alpha the
# jump-Euler increments come out nan (sample_stable_increment) and some
# walk-on-spheres exit radii inf (sample_ball_exit_radius)
_SAMPLING_STAGES = {_ensemble, _chain_samples, _ergodic}


def _is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_numbers(value):
    return all(map(_is_numbers, value)) if isinstance(value, list) else _is_number(value)


def _integer_from(low):
    return (lambda v: _is_int(v) and v >= low), "an integer >= %d" % low


# A rule is (test, text[, cast]): v passes if test(v), else it "must be <text>";
# a real-valued field holds cast(v), so a JSON integer is recorded as a float.
# A section (a JSON object) is (tag, kinds): kinds maps each value of the tag to
# (its keys' rules, the builder of what it describes), or with no tag, keys to rules.
_NUMBER = (_is_number, "a finite number")
_NUMBERS = (_is_numbers, "a finite number or a list (of lists) of finite numbers")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive finite number", float)
# checks and result files are named by "%g" % entry, so entries must differ under %g
_POSITIVES = (lambda v: (isinstance(v, list) and len(v) > 0 and all(map(_POSITIVE[0], v))
                         and len({"%g" % x for x in v}) == len(v)),
              "a nonempty list of positive finite numbers, distinct under %g",
              lambda v: [float(x) for x in v])

# field -> (default, rule or section), in the order parse_config checks them
SCHEMA = {
    "seed": (20240801, (_is_int, "an integer")),
    "kind": ("full-triangulation", (lambda v: v in KINDS, "one of %s" % (KINDS,))),
    "params": ({"d": 1, "alpha": 1.0}, (None, {
        "d": (lambda v: _is_int(v) and v == 1, "1: the CLI runs d = 1"),
        "alpha": (lambda v: _is_number(v) and 0 < v < 2, "a stability index in (0, 2)",
                  float)})),
    "domain": ({"kind": "interval", "a": -1.0, "b": 1.0}, ("kind", {
        "interval": ({"a": _NUMBER, "b": _NUMBER}, lambda s: Interval(s["a"], s["b"])),
        "grid1d": ({"intervals": _NUMBERS}, lambda s: IntervalUnion(s["intervals"]))})),
    "mu": ({"family": "constant-uniform", "a": -0.5, "b": 0.5}, ("family", {
        "constant-uniform": ({"a": _NUMBER, "b": _NUMBER}, lambda s, dom: (
            ConstantKernel(dom, UniformMeasure(s["a"], s["b"])))),
        "dirac": ({"point": _NUMBER}, lambda s, dom: (
            ConstantKernel(dom, AtomMeasure([s["point"]])))),
        "projection": ({"depth": _NUMBER, "width": _NUMBER}, lambda s, dom: (
            ProjectionKernel(dom, s["depth"], s["width"])))})),
    "n_cells": (400, _integer_from(4)),
    # paths of the simulate ensemble; chains of full-triangulation's ergodic leg
    "replicas": (200, _integer_from(0)),
    # workers of the simulate ensemble's blocks
    "threads": (1, _integer_from(1)),
    "chain_steps": (3, _integer_from(1)),
    # on the chain check's 20 bins E TV <= sqrt(20 / N) / 2, which stays
    # within its 0.05 tolerance from N = 2000 on
    "chain_samples": (20000, _integer_from(2000)),
    # the jump-Euler time step, read by simulate only
    "dt": (1e-3, _POSITIVE),
    # simulate: the paths' time span; full-triangulation: each chain's clock
    "horizon": (200.0, _POSITIVE),
    "lambda_list": ([0.1, 1.0], _POSITIVES),
    "t_list": ([0.1, 0.5, 2.0], _POSITIVES),
    "out_dir": ("out", (lambda v: isinstance(v, str) and v != "", "a nonempty string")),
}


def default_config():
    return copy.deepcopy({field: default for field, (default, _) in SCHEMA.items()})


def _check(field, value, rule):
    """``value`` as ``rule`` takes it; raises ConfigError naming its first bad part."""
    if callable(rule[0]):
        if not rule[0](value):
            raise ConfigError(field, "must be " + rule[1])
        return rule[2](value) if len(rule) == 3 else value
    tag, kinds = rule
    need = [tag] if tag else list(kinds)
    if not isinstance(value, dict) or not set(need) <= set(value):
        raise ConfigError(field, "must be an object with " + " and ".join(need))
    if tag and (not isinstance(value[tag], str) or value[tag] not in kinds):
        raise ConfigError("%s.%s" % (field, tag), "must be one of %s" % (tuple(kinds),))
    keys = kinds[value[tag]][0] if tag else kinds
    unknown = set(value) - {tag} - set(keys)
    if unknown:
        raise ConfigError("%s.%s" % (field, sorted(unknown)[0]), "unknown field")
    return dict(value, **{key: _check("%s.%s" % (field, key), value.get(key), key_rule)
                          for key, key_rule in keys.items()})


def parse_config(raw):
    """Validate a raw config dict; raises ConfigError naming bad fields."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "must be a JSON object")
    unknown = set(raw) - set(SCHEMA)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    if "seed" not in raw:
        raise ConfigError("seed", "mandatory field is missing")
    cfg = dict(default_config(), **raw)
    cfg = {field: _check(field, cfg[field], rule) for field, (_, rule) in SCHEMA.items()}
    config = ExperimentConfig(domain_spec=cfg.pop("domain"), mu_spec=cfg.pop("mu"),
                              **cfg.pop("params"), **cfg)
    # build the domain, return kernel and grid here, once, so that a value only
    # they reject fails at parse time as it would under run, before cross-field checks
    config.mu  # reading it builds the domain and the kernel, or raises ConfigError
    if config.alpha < _MIN_INCREMENT_ALPHA and _SAMPLING_STAGES & set(KIND_STAGES[config.kind]):
        raise ConfigError("params.alpha", "must be at least %g for the Monte Carlo "
                          "samplers" % _MIN_INCREMENT_ALPHA)
    simulate = config.kind == "simulate"
    if simulate and max(config.t_list) > config.horizon:
        raise ConfigError("t_list", "simulate marks must not exceed the horizon")
    if simulate and config.replicas < 1:
        raise ConfigError("replicas", "simulate needs at least one replica")
    if simulate and config.dt > config.horizon / 2:
        # one step would fall wholly in the burn-in and leave no occupation
        raise ConfigError("dt", "must be at most horizon / 2, so paths take two steps")
    try:
        config.grid
    except ValueError as exc:
        raise ConfigError("n_cells", str(exc)) from exc
    return config


def _build(field, spec, *args):
    """What a ``domain`` or ``mu`` spec describes, made by its kind's builder."""
    tag, kinds = SCHEMA[field][1]
    try:
        return kinds[spec[tag]][1](spec, *args)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


def build_domain(spec):
    return _build("domain", spec)


def build_mu(spec, domain):
    return _build("mu", spec, domain)


def describe(config):
    """Human-readable plan of the resolved experiment, without running it."""
    stages = KIND_STAGES[config.kind]
    lines = ["experiment: %s" % config.kind,
             "seed: %d" % config.seed,
             "alpha=%g d=%d domain=%s mu=%s" % (
                 config.alpha, config.d, config.domain_spec["kind"],
                 config.mu_spec["family"]),
             "grid: %d cells; dt=%g horizon=%g replicas=%d" % (
                 config.n_cells, config.dt, config.horizon, config.replicas),
             "stages (%d):" % len(stages)]
    lines += ["  %d. %s" % (i + 1, stage.__doc__) for i, stage in enumerate(stages)]
    return "\n".join(lines)


def run(config):
    """Run the kind's stages in order; returns (exit_code, manifest dict).

    Writes the result files into ``config.out_dir`` and a manifest listing
    them, its checks and each stage's wall time (with the diagnostics a
    stage returns); each stage also logs one DEBUG record. An exception
    leaves a stage with the stage's name as its ``stage`` attribute. Exit
    code 0 when all checks pass, 1 otherwise.
    """
    t_start = time.perf_counter()
    runner = _Run(config)
    stages = []
    for stage in KIND_STAGES[config.kind]:
        name = stage.__doc__
        t0 = time.perf_counter()
        try:
            diagnostics = stage(runner)
        except Exception as exc:
            exc.stage = name
            raise
        wall_s = time.perf_counter() - t0
        stages.append({"name": name, "wall_s": wall_s})
        if diagnostics is not None:
            stages[-1]["diagnostics"] = diagnostics
        logger.debug("stage %r: %.3f s", name, wall_s)
    passed = all(c["passed"] for c in runner.checks)
    manifest = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "kind": config.kind,
        "seed": config.seed,
        "versions": {
            "reflected_stable": __version__,
            "numpy": np.__version__,
        },
        "outputs": runner.outputs,
        "checks": runner.checks,
        "stages": stages,
        "status": "pass" if passed else "fail",
        "wall_time_s": time.perf_counter() - t_start,
    }
    with open(os.path.join(runner.out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return (0 if passed else 1), manifest


def _start_law(mu):
    """The kernel's fixed law, else uniform on the middle half of the start point's component."""
    if len(mu.laws) == 1:
        return mu.laws[0]
    x0 = _start_point(mu.domain)
    a, b = next(iv for iv in mu.domain.intervals if iv[0] < x0 < iv[1])
    return UniformMeasure(a + 0.25 * (b - a), b - 0.25 * (b - a))


def _start_point(domain):
    lo, hi = domain.bounding_box
    mid = 0.5 * (lo + hi)
    if domain.contains(np.atleast_1d(mid)).all():
        return float(mid)
    ivs = domain.intervals
    return float(0.5 * (ivs[0, 0] + ivs[0, 1]))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="reflected-stable",
        description="Run reflected stable-process experiments from a JSON config.",
    )
    parser.add_argument("--config", help="path to the JSON config file")
    parser.add_argument("--kind", help="override the experiment kind", choices=KINDS)
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--out", dest="out_dir", help="override the output directory")
    parser.add_argument("--threads", type=int, help="override the worker count")
    parser.add_argument("--describe", action="store_true",
                        help="print the resolved plan and exit")
    parser.add_argument("--print-default-config", action="store_true",
                        help="print the default config JSON and exit")
    args = parser.parse_args(argv)
    if args.print_default_config:
        print(json.dumps(default_config(), indent=2, sort_keys=True))
        return 0
    try:
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        else:
            raw = default_config()
        overrides = {name: getattr(args, name) for name in ("kind", "seed", "out_dir", "threads")
                     if getattr(args, name) is not None}
        # parse_config rejects a config that is not an object
        config = parse_config(dict(raw, **overrides) if isinstance(raw, dict) else raw)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 2
    if args.describe:
        print(describe(config))
        return 0
    try:
        code, manifest = run(config)
    except Exception as exc:  # noqa: BLE001 - report the failure and its stage as JSON
        print(json.dumps({"error": str(exc), "type": type(exc).__name__,
                          "stage": getattr(exc, "stage", None)}), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    for c in manifest["checks"]:
        print("%-40s %s" % (c["name"], "PASS" if c["passed"] else "FAIL"))
    print("status: %s (%d outputs in %s)" % (
        manifest["status"], len(manifest["outputs"]), config.out_dir))
    return code


if __name__ == "__main__":
    sys.exit(main())
