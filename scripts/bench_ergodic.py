#!/usr/bin/env python3
"""Wall time and accuracy of the two ergodic legs: the Euler ensemble and the renewal chains.

Usage, from the root of a checkout:

    python3 scripts/bench_ergodic.py --out BENCH_ergodic.json

The checkout's ``src/`` is imported with one BLAS thread. Each case is the
CLI's default ``full-triangulation`` sizes (400 cells, 200 paths or
chains, horizon 200, burn-in 2, dt 1e-3 for Euler) at one alpha in
(0.5, 1, 1.5) and one of three domain and return-law pairs: the interval
(-1, 1) with the constant-uniform law on (-0.5, 0.5) or the projection
law (depth 0.3, width 0.2), and the union (-1, -0.2) U (0.1, 1) with the
projection law (depth 0.2, width 0.1). Per case it times, REPEATS times
each at the first seed, the Euler leg (``simulate_ensemble_blocks`` on one
worker, then ``kappa_ergodic``) and the renewal leg (``renewal_occupation``,
then ``kappa_ergodic``), and records the median wall time of each with
the least and the greatest of its REPEATS times (``_s_min``, ``_s_max``). It
records each leg's full-grid total variation distance to the closed-form
density ``kappa_closed_form`` as the mean and sample standard deviation
over the seeds (1 to 5 by default), with the run record: core count, BLAS
thread count and library versions.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

REPEATS = 3
ALPHAS = (0.5, 1.0, 1.5)
INTERVAL = {"kind": "interval", "a": -1.0, "b": 1.0}
UNION = {"kind": "grid1d", "intervals": [[-1.0, -0.2], [0.1, 1.0]]}
SETUPS = {
    "interval-constant-uniform": (INTERVAL, {"family": "constant-uniform",
                                             "a": -0.5, "b": 0.5}),
    "interval-projection": (INTERVAL, {"family": "projection", "depth": 0.3, "width": 0.2}),
    "union-projection": (UNION, {"family": "projection", "depth": 0.2, "width": 0.1}),
}


def _times(fn):
    """REPEATS wall times of ``fn()``, and its last output."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return times, out


def bench(seeds):
    import numpy as np
    import scipy

    from reflected_stable import cli_report
    from reflected_stable.killed_kernels import (assemble_dirichlet_generator,
                                                 green_operator, harmonic_kernel)
    from reflected_stable.pathsim import renewal_occupation, simulate_ensemble_blocks
    from reflected_stable.stable_core import StableParams
    from reflected_stable.stationary import (chain_kernel, kappa_closed_form,
                                             kappa_ergodic, stationary_p)

    cases = {}
    for alpha in ALPHAS:
        for name, (domain, mu) in SETUPS.items():
            config = cli_report.parse_config(dict(
                cli_report.default_config(), seed=seeds[0], params={"d": 1, "alpha": alpha},
                domain=domain, mu=mu))
            params, grid = StableParams(1, alpha), config.grid
            G = green_operator(assemble_dirichlet_generator(grid, params))
            closed = kappa_closed_form(stationary_p(chain_kernel(harmonic_kernel(G, params),
                                                                 config.mu)), G)
            start = cli_report._start_law(config.mu)
            burn_in = min(2.0, config.horizon / 10)
            args = (params, config.mu, start, config.horizon)
            legs = {
                "euler": lambda seed: kappa_ergodic(simulate_ensemble_blocks(
                    *args, config.dt, seed, config.replicas, grid=grid, burn_in=burn_in,
                    workers=1), grid),
                "renewal": lambda seed: kappa_ergodic(renewal_occupation(
                    *args, burn_in, seed, config.replicas, grid), grid),
            }
            key = "a%g-%s" % (alpha, name)
            cases[key] = {}
            for leg, run in legs.items():
                seconds, first = _times(lambda: run(seeds[0]))
                tv = [first.tv(closed)] + [run(seed).tv(closed) for seed in seeds[1:]]
                cases[key].update({leg + "_s": statistics.median(seconds),
                                   leg + "_s_min": min(seconds), leg + "_s_max": max(seconds),
                                   leg + "_tv_mean": statistics.mean(tv),
                                   leg + "_tv_sd": statistics.stdev(tv) if len(tv) > 1 else 0.0})
            print(key, json.dumps(cases[key]), flush=True)
    return cases, {"numpy": np.__version__, "scipy": scipy.__version__,
                   "blas": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5",
                        help="comma-separated seeds; the first is also timed")
    parser.add_argument("--out", default="BENCH_ergodic.json")
    args = parser.parse_args()
    # one BLAS thread, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    seeds = [int(seed) for seed in args.seeds.split(",")]
    cases, versions = bench(seeds)
    record = {
        "setup": "full-triangulation defaults: 400 cells, 200 paths or chains, horizon 200, "
                 "burn-in 2, Euler dt 1e-3; seeds %s" % args.seeds,
        "statistic": "seconds: median of %d runs at seed %d, with their min and max; "
                     "tv: full-grid total variation "
                     "to kappa_closed_form, mean and sample sd over the seeds"
                     % (REPEATS, seeds[0]),
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": cases,
        **versions,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
