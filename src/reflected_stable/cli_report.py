"""Batch front end: JSON configs, experiment orchestration, and reports.

Experiments are described by a single JSON document and run to CSV, JSON
and .npy artifacts plus a manifest. Exit codes: 0 all checks passed, 1 at
least one numeric check failed, 2 invalid configuration. Reruns with the
same config and seed produce byte-identical result files regardless of the
worker count (the manifest additionally records wall time, so it is
excluded from byte comparisons).
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np
import scipy
import scipy.linalg

from . import __version__
from .geometry import DomainError, Interval, IntervalUnion, build_grid
from .killed_kernels import assemble_dirichlet_generator, green_operator, \
    harmonic_kernel
from .pathsim import excursion_statistics, reflection_chain, simulate_ensemble_blocks, \
    simulate_ladder, stream
from .perturbation import (build_excessive, duhamel_series, full_generator,
                           perturbation_matrix, series_diagnostics, supermedian_violation)
from .reflection import (AtomMeasure, UniformMeasure, default_probes,
                         make_constant_kernel, make_projection_kernel,
                         validate_concentration)
from .stable_core import StableParams
from .stationary import (GridMeasure, chain_kernel, dobrushin_coefficient,
                         kappa_closed_form, kappa_ergodic, kappa_generator_nullvector,
                         stationary_p, total_variation, triangulation_report)


KINDS = ("semigroup-check", "excessive", "simulate", "chain", "stationary",
         "full-triangulation")
# keys each domain kind and return-law family takes besides "kind"/"family"
DOMAIN_KEYS = {"interval": ("a", "b"), "ball": ("center", "radius"),
               "grid1d": ("intervals",)}
MU_KEYS = {"constant-uniform": ("a", "b"), "dirac": ("point",),
           "projection": ("depth", "width")}


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

    def to_dict(self):
        return {
            "kind": self.kind,
            "seed": self.seed,
            "params": {"d": self.d, "alpha": self.alpha},
            "domain": self.domain_spec,
            "mu": self.mu_spec,
            "n_cells": self.n_cells,
            "dt": self.dt,
            "horizon": self.horizon,
            "replicas": self.replicas,
            "lambda_list": self.lambda_list,
            "t_list": self.t_list,
            "out_dir": self.out_dir,
            "threads": self.threads,
            "chain_steps": self.chain_steps,
            "chain_samples": self.chain_samples,
        }

    def hash(self):
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def default_config():
    return {
        "kind": "full-triangulation",
        "seed": 20240801,
        "params": {"d": 1, "alpha": 1.0},
        "domain": {"kind": "interval", "a": -1.0, "b": 1.0},
        "mu": {"family": "constant-uniform", "a": -0.5, "b": 0.5},
        "n_cells": 400,
        "dt": 1e-3,
        "horizon": 200.0,
        "replicas": 200,
        "lambda_list": [0.1, 1.0],
        "t_list": [0.1, 0.5, 2.0],
        "out_dir": "out",
        "threads": 1,
        "chain_steps": 3,
        "chain_samples": 20000,
    }


def _is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def parse_config(raw):
    """Validate a raw config dict; raises ConfigError naming bad fields."""
    base = default_config()
    unknown = set(raw) - set(base)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    cfg = dict(base, **raw)
    if "seed" not in raw:
        raise ConfigError("seed", "mandatory field is missing")
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed", "must be an integer")
    if cfg["kind"] not in KINDS:
        raise ConfigError("kind", "must be one of %s" % (KINDS,))
    pr = cfg["params"]
    if not isinstance(pr, dict) or "d" not in pr or "alpha" not in pr:
        raise ConfigError("params", "need d and alpha")
    if not (isinstance(pr["d"], int) and pr["d"] >= 1):
        raise ConfigError("params.d", "must be a positive integer")
    if not (_is_number(pr["alpha"]) and 0.0 < pr["alpha"] < 2.0):
        raise ConfigError("params.alpha", "stability index must be a number in (0, 2)")
    dom, mu = cfg["domain"], cfg["mu"]
    for field, spec, tag, table in (("domain", dom, "kind", DOMAIN_KEYS),
                                    ("mu", mu, "family", MU_KEYS)):
        if not isinstance(spec, dict) or tag not in spec:
            raise ConfigError(field, "need a %s" % tag)
        if spec[tag] not in table:
            raise ConfigError("%s.%s" % (field, tag), "must be one of %s" % (tuple(table),))
        unknown = set(spec) - {tag} - set(table[spec[tag]])
        if unknown:
            raise ConfigError("%s.%s" % (field, sorted(unknown)[0]), "unknown field")
    for field, low in (("n_cells", 4), ("replicas", 0),
                       ("threads", 1), ("chain_steps", 1), ("chain_samples", 100)):
        if not isinstance(cfg[field], int) or cfg[field] < low:
            raise ConfigError(field, "must be an integer >= %d" % low)
    for field in ("dt", "horizon"):
        if not (_is_number(cfg[field]) and cfg[field] > 0):
            raise ConfigError(field, "must be a positive finite number")
    for field in ("lambda_list", "t_list"):
        vals = cfg[field]
        if not (isinstance(vals, list) and vals
                and all(_is_number(v) and v > 0 for v in vals)):
            raise ConfigError(field, "must be a nonempty list of positive finite numbers")
    if cfg["kind"] == "simulate" and max(cfg["t_list"]) > cfg["horizon"]:
        raise ConfigError("t_list", "simulate marks must not exceed the horizon")
    if cfg["kind"] == "simulate" and cfg["replicas"] < 1:
        raise ConfigError("replicas", "simulate needs at least one replica")
    simulates = cfg["kind"] == "simulate" or (
        cfg["kind"] == "full-triangulation" and cfg["replicas"] > 0)
    if simulates and cfg["dt"] > cfg["horizon"] / 2:
        # one step would fall wholly in the burn-in and leave no occupation
        raise ConfigError("dt", "must be at most horizon / 2, so paths take two steps")
    if not isinstance(cfg["out_dir"], str) or not cfg["out_dir"]:
        raise ConfigError("out_dir", "must be a nonempty string")
    return ExperimentConfig(
        kind=cfg["kind"], seed=cfg["seed"], d=pr["d"], alpha=float(pr["alpha"]),
        domain_spec=dom, mu_spec=mu, n_cells=cfg["n_cells"],
        dt=float(cfg["dt"]), horizon=float(cfg["horizon"]), replicas=cfg["replicas"],
        lambda_list=[float(v) for v in cfg["lambda_list"]],
        t_list=[float(v) for v in cfg["t_list"]], out_dir=cfg["out_dir"],
        threads=cfg["threads"], chain_steps=cfg["chain_steps"],
        chain_samples=cfg["chain_samples"],
    )


def build_domain(spec):
    kind = spec["kind"]
    try:
        if kind == "interval":
            return Interval(spec["a"], spec["b"])
        if kind == "ball":
            center = np.atleast_1d(np.asarray(spec["center"], dtype=float))
            if center.shape != (1,):
                raise DomainError("the CLI runs d=1: a ball center needs one coordinate")
            return Interval(center[0] - spec["radius"], center[0] + spec["radius"])
        return IntervalUnion(spec["intervals"])
    except KeyError as exc:
        raise ConfigError("domain.%s" % exc.args[0], "missing") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError("domain", str(exc)) from exc


def build_mu(spec, domain):
    fam = spec["family"]
    try:
        if fam == "constant-uniform":
            return make_constant_kernel(domain, UniformMeasure(spec["a"], spec["b"]))
        if fam == "dirac":
            return make_constant_kernel(domain, AtomMeasure([spec["point"]]))
        return make_projection_kernel(domain, spec["depth"], spec["width"])
    except KeyError as exc:
        raise ConfigError("mu.%s" % exc.args[0], "missing") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError("mu", str(exc)) from exc


_STAGES = {
    "semigroup-check": [
        "build grid and killed-process operators",
        "build return kernel and validate the concentration bound",
        "perturbation series at each t: conservation, exponential match, level decay",
    ],
    "excessive": [
        "build grid and killed-process operators",
        "build return kernel and full generator",
        "shell-sum supermedian construction at each lambda",
    ],
    "simulate": [
        "build grid and killed-process operators",
        "build return kernel",
        "ensemble simulation: reflection counts and occupation",
        "per-path excursion statistics",
    ],
    "chain": [
        "build grid and killed-process operators",
        "build return kernel and chain kernel",
        "exact reflection chain sampling and matrix-law comparison",
    ],
    "stationary": [
        "build grid and killed-process operators",
        "build return kernel and chain kernel",
        "stationary chain law by power iteration",
        "closed-form and null-vector stationary densities",
    ],
    "full-triangulation": [
        "build grid and killed-process operators",
        "build return kernel and validate the concentration bound",
        "perturbation series: conservation and exponential match",
        "chain kernel, contraction coefficient, stationary chain law",
        "closed-form and null-vector stationary densities",
        "ergodic Monte Carlo and triangulation report",
    ],
}


def describe(config):
    """Human-readable plan of the resolved experiment, without running it."""
    stages = _STAGES[config.kind]
    lines = ["experiment: %s" % config.kind,
             "seed: %d" % config.seed,
             "alpha=%g d=%d domain=%s mu=%s" % (
                 config.alpha, config.d, config.domain_spec["kind"],
                 config.mu_spec["family"]),
             "grid: %d cells; dt=%g horizon=%g replicas=%d" % (
                 config.n_cells, config.dt, config.horizon, config.replicas),
             "stages (%d):" % len(stages)]
    lines += ["  %d. %s" % (i + 1, s) for i, s in enumerate(stages)]
    return "\n".join(lines)


class _Run:
    """Collects checks and output files for one experiment run."""

    def __init__(self, config, out_dir):
        self.config = config
        self.out_dir = out_dir
        self.checks = []
        self.outputs = []
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("out_dir", "cannot be made a directory: %s" % exc) from exc

    def check(self, name, passed, value=None, tolerance=None):
        self.checks.append({
            "name": name,
            "passed": bool(passed),
            "value": None if value is None else float(value),
            "tolerance": None if tolerance is None else float(tolerance),
        })

    def write_csv(self, name, header, columns):
        """Write equal-length columns: integers as %d, floats as %.17g."""
        columns = [np.asarray(c) for c in columns]
        fmt = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(fmt % row for row in zip(*(c.tolist() for c in columns)))
        self.outputs.append(name)
        return path

    def write_npy(self, name, array):
        """Write one array in NumPy's binary .npy format (load it with np.load)."""
        path = os.path.join(self.out_dir, name)
        np.save(path, array)
        self.outputs.append(name)
        return path

    def write_json(self, name, payload):
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
        self.outputs.append(name)
        return path

    def all_passed(self):
        return all(c["passed"] for c in self.checks)


def _measure_columns(grid, measure):
    return grid.nodes, measure.masses, measure.masses / grid.widths


def run(config, out_dir=None):
    """Execute the experiment; returns (exit_code, manifest dict).

    Writes result CSV/JSON files and a manifest referencing every output.
    Exit code 0 when all checks pass, 1 otherwise.
    """
    t_start = time.time()
    out_dir = out_dir or config.out_dir
    runner = _Run(config, out_dir)
    params = StableParams(config.d, config.alpha)
    domain = build_domain(config.domain_spec)
    if domain.d != params.d:
        raise ConfigError("domain", "dimension does not match params.d")
    mu = build_mu(config.mu_spec, domain)

    if config.d != 1:
        raise ConfigError("params.d", "grid experiments require d=1 "
                          "(Monte Carlo helpers support d>=2 as a library)")
    grid = build_grid(domain, config.n_cells)
    L = assemble_dirichlet_generator(grid, params)
    G = green_operator(L)
    H = harmonic_kernel(G, params)
    M = perturbation_matrix(grid, params, mu)
    A = full_generator(L, M)

    kind = config.kind
    if kind in ("semigroup-check", "full-triangulation"):
        rep = validate_concentration(mu, default_probes(domain))
        runner.check("concentration-witness", rep.passed, rep.theta_hat)
        diagnostics = []
        for t in config.t_list:
            ser = duhamel_series(L, M, t)
            K = ser.sum()
            rs = K.sum(axis=1)
            dev = float(np.abs(rs - 1.0).max())
            runner.check("conservation-t%g" % t, dev <= 1e-4, dev, 1e-4)
            expA = scipy.linalg.expm(t * A.entries)
            gap = float(np.abs(K - expA).max())
            runner.check("series-vs-exponential-t%g" % t, gap <= 1e-3, gap, 1e-3)
            runner.check("gamma-below-1-t%g" % t,
                         ser.fit_gamma is not None and ser.fit_gamma < 1.0, ser.fit_gamma, 1.0)
            diagnostics.append(series_diagnostics(ser))
            if t == config.t_list[0]:
                # density[i, j] of moving from node i to node j in time t
                runner.write_npy("reflected_kernel_t%g.npy" % t, K / grid.widths)
                runner.write_csv("reflected_kernel_nodes.csv", ["x", "width"],
                                 [grid.nodes, grid.widths])
        runner.write_json("series_diagnostics.json", {"series": diagnostics})

    if kind == "excessive":
        for lam in config.lambda_list:
            exc = build_excessive(A, lam, params, n_max=6)
            viol = supermedian_violation(A, lam, exc.values, [0.1, 1.0, 10.0])
            runner.check("supermedian-lam%g" % lam, viol <= 1e-8, viol, 1e-8)
            runner.check("positive-lam%g" % lam, exc.values.min() > 0, exc.values.min())
            runner.write_csv("excessive_lam%g.csv" % lam,
                             ["x", "boundary_distance", "v"],
                             [grid.nodes, domain.boundary_distance(grid.nodes), exc.values])
            runner.write_json("excessive_radii_lam%g.json" % lam, {
                "lambda": lam,
                "radii": exc.radii.tolist(),
                "thresholds": exc.thresholds.tolist(),
            })

    if kind == "simulate":
        marks = sorted(set(config.t_list))
        ens = simulate_ensemble_blocks(
            params, domain, mu, _start_law(mu, domain), config.horizon, config.dt,
            config.seed, config.replicas, t_marks=marks, grid=grid,
            burn_in=min(1.0, config.horizon / 10), workers=config.threads)
        top = int(ens.counts_at_marks.max()) + 1
        hists = [np.bincount(ens.counts_at_marks[:, k], minlength=top)
                 for k in range(len(marks))]
        runner.write_csv("reflection_counts.csv", ["t", "n", "paths"],
                         [np.repeat(marks, top), np.tile(np.arange(top), len(marks)),
                          np.concatenate(hists)])
        occ = GridMeasure(grid, np.maximum(ens.occupancy, 0) / ens.occupancy.sum())
        runner.write_csv("occupation.csv", ["x", "mass", "density"],
                         _measure_columns(grid, occ))
        paths = simulate_ladder(params, domain, mu, _start_point(mu, domain),
                                min(config.horizon, 50.0), config.dt, config.seed,
                                min(config.replicas, 50))
        n_completed = sum(len(path.tau) for path in paths)
        runner.check("excursions-completed", n_completed >= 20, n_completed, 20)
        if n_completed >= 20:
            stats = excursion_statistics(paths, min_completed=20)
            runner.write_json("excursion_stats.json", {
                "n_paths": stats.n_paths,
                "n_completed": stats.n_completed,
                "lag1_autocorrelation": stats.lag1_autocorrelation,
                "mean_duration": stats.mean_duration,
            })
        # capped path dump: reflection times and re-entry points
        dump = paths[:10]
        runner.write_csv("path_dump.csv", ["replica", "reflection", "tau", "R"], [
            np.repeat(np.arange(len(dump)), [len(path.tau) for path in dump]),
            np.concatenate([np.arange(1, len(path.tau) + 1) for path in dump]),
            np.concatenate([path.tau for path in dump]),
            np.concatenate([path.R for path in dump])])
        runner.check("paths-simulated", True, ens.n_paths)

    if kind == "chain":
        C = chain_kernel(H, mu)
        beta, _ = dobrushin_coefficient(C, steps=2)
        runner.check("dobrushin-two-step", beta < 1.0, beta, 1.0)
        rng = stream(config.seed, 0xC4)
        x0 = _start_point(mu, domain)
        chains = reflection_chain(params, domain, mu, x0, config.chain_steps, rng,
                                  size=config.chain_samples)
        law = np.zeros(grid.n)
        law[grid.cell_index(np.atleast_1d(x0))[0]] = 1.0
        for _ in range(config.chain_steps):
            law = law @ C.entries
        obs = np.bincount(grid.cell_index(chains[:, -1]), minlength=grid.n)
        # compare on 20 merged bins so sampling noise stays below tolerance
        groups = np.array_split(np.arange(grid.n), 20)
        obs_g = np.array([obs[g].sum() for g in groups], dtype=float)
        law_g = np.array([law[g].sum() for g in groups])
        tv_emp = total_variation(obs_g / obs_g.sum(), law_g / law_g.sum())
        runner.check("chain-empirical-vs-matrix-tv", tv_emp < 0.05, tv_emp, 0.05)
        kept, steps = min(2000, chains.shape[0]), chains.shape[1]
        runner.write_csv("chain_samples.csv", ["step", "sample", "x"],
                         [np.tile(np.arange(1, steps + 1), kept),
                          np.repeat(np.arange(kept), steps), chains[:kept].ravel()])

    if kind in ("stationary", "full-triangulation"):
        C = chain_kernel(H, mu)
        beta, overlap = dobrushin_coefficient(C, steps=2)
        runner.check("dobrushin-two-step", beta < 1.0, beta, 1.0)
        p_chain = stationary_p(C, beta)
        k_cf = kappa_closed_form(p_chain, G)
        k_nv = kappa_generator_nullvector(A)
        measures = {"closed-form": k_cf, "null-vector": k_nv}
        runner.write_csv("p_chain.csv", ["x", "mass", "density"],
                         _measure_columns(grid, p_chain))
        runner.write_csv("kappa_closed_form.csv", ["x", "mass", "density"],
                         _measure_columns(grid, k_cf))
        runner.write_csv("kappa_null_vector.csv", ["x", "mass", "density"],
                         _measure_columns(grid, k_nv))
        if kind == "full-triangulation" and config.replicas > 0:
            ens = simulate_ensemble_blocks(
                params, domain, mu, _start_law(mu, domain), config.horizon,
                config.dt, config.seed, config.replicas, grid=grid,
                burn_in=min(2.0, config.horizon / 10), workers=config.threads)
            k_er = kappa_ergodic(ens, grid)
            measures["ergodic"] = k_er
            runner.write_csv("kappa_ergodic.csv", ["x", "mass", "density"],
                             _measure_columns(grid, k_er))
        tri = triangulation_report(measures)
        worst = max(tri.values())
        runner.check("triangulation-max-tv", worst <= 0.06, worst, 0.06)
        runner.write_json("triangulation.json", {
            "pairwise_tv": tri,
            "dobrushin_two_step": beta,
            "min_row_overlap": overlap,
        })

    manifest = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "kind": config.kind,
        "seed": config.seed,
        "versions": {
            "reflected_stable": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": runner.outputs,
        "checks": runner.checks,
        "status": "pass" if runner.all_passed() else "fail",
        "wall_time_s": time.time() - t_start,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return (0 if runner.all_passed() else 1), manifest


def _start_law(mu, domain):
    """The kernel's fixed law, else uniform on the middle half of the start point's component."""
    if hasattr(mu, "m"):
        return mu.m
    x0 = _start_point(mu, domain)
    a, b = next(iv for iv in domain.intervals if iv[0] < x0 < iv[1])
    return UniformMeasure(a + 0.25 * (b - a), b - 0.25 * (b - a))


def _start_point(mu, domain):
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
    parser.add_argument("--out", help="override the output directory")
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
        for field, val in (("kind", args.kind), ("seed", args.seed),
                           ("out_dir", args.out), ("threads", args.threads)):
            if val is not None:
                raw[field] = val
        config = parse_config(raw)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 2
    if args.describe:
        print(describe(config))
        return 0
    try:
        code, manifest = run(config)
    except ConfigError as exc:
        print(json.dumps({"error": str(exc), "type": "ConfigError"}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report module failures as JSON
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 1
    for c in manifest["checks"]:
        print("%-40s %s" % (c["name"], "PASS" if c["passed"] else "FAIL"))
    print("status: %s (%d outputs in %s)" % (
        manifest["status"], len(manifest["outputs"]), config.out_dir))
    return code


if __name__ == "__main__":
    sys.exit(main())
