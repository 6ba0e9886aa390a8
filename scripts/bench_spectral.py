#!/usr/bin/env python3
"""Scaling in n_cells of the killed-generator grid layers, for several checkouts.

Usage, from the root of a checkout:

    python3 scripts/bench_spectral.py --side parent=/path/to/other/checkout \\
        --side change=. --out BENCH_spectral.json

Each side is ``label=checkout_root``; its ``src/`` is imported in a fresh
child process with one BLAS thread. The setup is the interval (-1, 1),
alpha = 1, the projection return kernel (depth 0.2, width 0.1) and t = 0.1.
For each n in CELLS the child times, REPEATS times each:
``assemble_dirichlet_generator``, ``duhamel_series``, ``heat_kernel``,
``green_operator``, ``chain_kernel`` (the reflection chain C = (G U) V^T,
the Green solve's harmonic kernel composed with the return kernel
M = U V^T), ``dobrushin_coefficient`` of C, ``kappa_generator_nullvector`` of the
full generator L + M (its assembly included), ``supermedian_violation`` of
h = 1 under that generator at lambda = 1 and t = 0.1, 1, 10 (its assembly
included, h built outside the timing), ``build_excessive`` at lambda = 1,
and two forms of the series check's reference exp(tA) of the full generator
at each t of REFERENCE_TIMES: ``expm_per_t``, one ``scipy.linalg.expm`` per t,
and ``reference``, the CLI's form: the series stage's helper
``cli_report._Reference`` (one ``_expm`` at the smallest t, on A or on its two
parity blocks when A commutes with the mirror, and powers), or on a checkout
without that helper one ``cli_report._expm(A, t)`` at the smallest t and
``cli_report._exponential``'s powers. ``reference_path`` records, per n, the
helper's path (``mirror`` or ``full``), or ``full`` without the helper.
The full generator of the last three is built outside the timing. After the
timed runs it takes two tracemalloc peaks per n, in MB of 2**20 bytes, from
one traced run each: ``series_peak_mb``, of
``duhamel_series`` and its ``total``, and ``stage_peak_mb``, of a whole
``semigroup-check`` CLI run (``cli_report.run``) of the same setup at the t
of REFERENCE_TIMES, the series stage with its reference check. The JSON
file holds the median of each time, the peaks, and the run record: core
count, BLAS thread count and library versions.
Sides run in the order given, one after the other. Each checkout must have
the current API: ``ProjectionKernel``, ``DuhamelSeries.total``,
``cli_report._expm(A, t)`` and the generator-only supermedian calls.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

LAYERS = ("assemble", "series", "heat_kernel", "green", "chain_kernel", "dobrushin",
          "nullvector", "supermedian", "excessive", "expm_per_t", "reference")
REFERENCE_TIMES = (0.1, 0.5, 2.0)
CELLS = (400, 800, 1600)
REPEATS = 3


def child(root):
    """Time the layers of one checkout; print one JSON object."""
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    import scipy
    import scipy.linalg

    from reflected_stable import StableParams, cli_report
    from reflected_stable.geometry import Interval, build_grid
    from reflected_stable.killed_kernels import (assemble_dirichlet_generator,
                                                 green_operator, harmonic_kernel,
                                                 heat_kernel)
    from reflected_stable.perturbation import (build_excessive, duhamel_series,
                                               full_generator, perturbation_matrix,
                                               supermedian_violation)
    from reflected_stable.reflection import ProjectionKernel
    from reflected_stable.stationary import (chain_kernel, dobrushin_coefficient,
                                             kappa_generator_nullvector)

    def reference(A):
        """exp(tA) at each of REFERENCE_TIMES as the CLI forms it, and its path."""
        if not hasattr(cli_report, "_Reference"):
            t1 = min(REFERENCE_TIMES)
            E1 = cli_report._expm(A, t1)
            return [cli_report._exponential(A, t, t1, E1) for t in REFERENCE_TIMES], "full"
        helper = cli_report._Reference(A, REFERENCE_TIMES)
        return ([helper.at(t) for t in REFERENCE_TIMES],
                "mirror" if helper.mirror else "full")

    def traced_peak_mb(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def stage_run(n, out_dir):
        raw = dict(cli_report.default_config(), kind="semigroup-check", n_cells=n,
                   params={"d": 1, "alpha": 1.0},
                   domain={"kind": "interval", "a": -1.0, "b": 1.0},
                   mu={"family": "projection", "depth": 0.2, "width": 0.1},
                   t_list=list(REFERENCE_TIMES), out_dir=out_dir)
        code, _ = cli_report.run(cli_report.parse_config(raw))
        if code != 0:
            raise RuntimeError("semigroup-check run at n = %d exited %d" % (n, code))

    params = StableParams(1, 1.0)
    domain = Interval(-1.0, 1.0)
    mu = ProjectionKernel(domain, 0.2, 0.1)
    times, peaks, stage_peaks, paths = {}, {}, {}, {}
    for n in CELLS:
        grid = build_grid(domain, n)
        M = perturbation_matrix(grid, params, mu)
        ones = np.ones(grid.n)
        runs = {layer: [] for layer in LAYERS}
        for _ in range(REPEATS):
            ops = {}    # the outputs that later layers read
            steps = (("assemble", lambda: assemble_dirichlet_generator(grid, params)),
                     ("series", lambda: duhamel_series(ops["assemble"], M, 0.1)),
                     ("heat_kernel", lambda: heat_kernel(ops["assemble"], 0.1)),
                     ("green", lambda: green_operator(ops["assemble"])),
                     ("chain_kernel",
                      lambda: chain_kernel(harmonic_kernel(ops["green"], params), mu)),
                     ("dobrushin", lambda: dobrushin_coefficient(ops["chain_kernel"])),
                     ("nullvector", lambda: kappa_generator_nullvector(
                         full_generator(ops["assemble"], M))),
                     ("supermedian", lambda: supermedian_violation(
                         full_generator(ops["assemble"], M), 1.0, ones)),
                     ("excessive", lambda: build_excessive(ops["A"], 1.0)),
                     ("expm_per_t", lambda: [scipy.linalg.expm(t * ops["A"].entries)
                                             for t in REFERENCE_TIMES]),
                     ("reference", lambda: reference(ops["A"].entries)))
            for layer, fn in steps:
                if layer == "excessive":
                    ops["A"] = full_generator(ops["assemble"], M)
                start = time.perf_counter()
                out = fn()
                runs[layer].append(time.perf_counter() - start)
                if layer in ("assemble", "green", "chain_kernel"):
                    ops[layer] = out
                if layer == "reference":
                    paths[str(n)] = out[1]
                del out
        times[str(n)] = {layer: statistics.median(v) for layer, v in runs.items()}
        peaks[str(n)] = traced_peak_mb(lambda: duhamel_series(ops["assemble"], M, 0.1).total)
        with tempfile.TemporaryDirectory() as out_dir:
            stage_peaks[str(n)] = traced_peak_mb(lambda: stage_run(n, out_dir))
    print(json.dumps({"times_s": times, "series_peak_mb": peaks,
                      "stage_peak_mb": stage_peaks, "reference_path": paths,
                      "numpy": np.__version__,
                      "scipy": scipy.__version__,
                      "blas": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", action="append", required=True,
                        help="label=checkout_root; repeat for each side")
    parser.add_argument("--out", default="BENCH_spectral.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    sides = {}
    for spec in args.side:
        label, root = spec.split("=", 1)
        cmd = [sys.executable, os.path.abspath(__file__), "--side", spec,
               "--child", os.path.abspath(root)]
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
        sides[label] = json.loads(out.stdout.strip().splitlines()[-1])
        print(label, json.dumps(sides[label]["times_s"]),
              json.dumps(sides[label]["series_peak_mb"]),
              json.dumps(sides[label]["stage_peak_mb"]),
              json.dumps(sides[label]["reference_path"]), flush=True)
    record = {
        "setup": "interval(-1, 1), alpha 1, projection(0.2, 0.1), t = 0.1; "
                 "expm_per_t, reference and stage_peak_mb at t = %s"
                 % ", ".join(map(str, REFERENCE_TIMES)),
        "statistic": "times_s: median of %d runs, seconds; series_peak_mb and "
                     "stage_peak_mb: one traced run each, MB of 2**20 bytes" % REPEATS,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sides": sides,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
