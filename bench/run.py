#!/usr/bin/env python3
"""Benchmark of the reflected-stable batch numerics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-default --seed 1 --seconds 20 --trace 0

Runs one workload's jobs in a closed loop, one job at a time, each an
in-process ``cli_report.run(config)`` on a config generated from the seed
(see ``workloads.py``). Passes over the job list repeat, alternating
forward and reverse order, until ``--seconds`` have passed (at least one
pass). Every job's results are checked after its pass; repeats of a job
must give byte-identical result files.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for ``--seconds``, then the same number of seconds of traced passes,
and prints the per-layer metrics (see ``tracing.py`` and README.md). The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when that
line was printed, 2 when the package could not be imported from
``<checkout>/src``.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

T0 = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# start no pass that would end after this many seconds of the run
DEADLINE_S = 160.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-name trace totals reported as "<name>.<key>"
LAYER_TOTALS = (
    ("perturbation.duhamel_series", ("s", "calls", "n400_s", "n600_s")),
    ("perturbation.perturbation_matrix", ("s",)),
    ("perturbation.build_excessive", ("s",)),
    ("perturbation.supermedian_violation", ("s",)),
    ("killed_kernels.assemble_dirichlet_generator", ("s",)),
    ("killed_kernels.green_operator", ("s",)),
    ("stationary.dobrushin_coefficient", ("s", "calls")),
    ("stationary.stationary_p", ("s",)),
    ("stationary.kappa_generator_nullvector", ("s",)),
    ("stationary.chain_kernel", ("s",)),
    ("stationary.kappa_ergodic", ("s",)),
    ("pathsim.simulate_ensemble_blocks", ("s", "total_s")),
    ("pathsim.simulate_ladder", ("s",)),
    ("pathsim.simulate_killed_excursion", ("calls",)),
    ("pathsim.walk_on_spheres_exit", ("calls",)),
    ("pathsim.reflection_chain", ("s",)),
    ("stable_core.sample_stable_increment", ("calls", "draws", "s")),
    ("geometry.Grid.cell_index", ("calls", "points", "s")),
    ("geometry.contains", ("calls", "s")),
    ("reflection.sample", ("calls", "s")),
    ("reflection.validate_concentration", ("s",)),
    ("linalg.expm", ("calls", "s")),
)
_KEY_UNITS = {"s": "s", "total_s": "s", "n400_s": "s", "n600_s": "s",
              "calls": "count", "draws": "count", "points": "count"}
PER_LAYER_UNITS = dict(
    [("%s.%s" % (name, key), _KEY_UNITS[key]) for name, keys in LAYER_TOTALS
     for key in keys],
    **{
        "perturbation.series.levels": "count",
        "perturbation.series.max_gap_vs_expm": "1",
        "stationary.triangulation.max_tv": "1",
        "pathsim.ensemble.path_steps_per_s": "1/s",
        "pathsim.ensemble.reflections_per_path": "count",
        "cli_report.run.self_s": "s",
        "cli_report.bytes_written": "B",
        "cli_report.unattributed_s": "s",
        "trace.wall_s": "s",
        "trace.attributed_frac": "1",
        "trace.overhead_frac": "1",
    })


def import_package():
    """Import reflected_stable from this checkout's src/, or raise ImportError."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import reflected_stable
    from reflected_stable import cli_report
    where = Path(reflected_stable.__file__).resolve().parent
    if where != src / "reflected_stable":
        raise ImportError("reflected_stable imported from %s, not %s" % (where, src))
    return cli_report


def blas_record():
    """BLAS library, and the thread count each loaded OpenBLAS reports."""
    import numpy as np
    info = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args):
    import numpy as np
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_record(),
        "git_commit": git_commit(), "src_sha256": src_digest(),
    }


def measure_setup(args):
    """Median wall time of fresh processes that import and build the configs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        code = subprocess.Popen(cmd, stdout=subprocess.DEVNULL).wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError("set-up probe exited with code %d" % code)
    return statistics.median(times), times


class Runner:
    """Runs passes over one workload's jobs and checks their results."""

    def __init__(self, cli_report, jobs, checker, work_dir):
        self.cli_report = cli_report
        self.jobs = jobs
        self.checker = checker
        self.work_dir = work_dir
        self.passes = []            # one dict per pass, in run order
        self.attempted = 0
        self.failures = []          # (pass, job_id, message)
        self._digests = {}

    def run_pass(self, tracer=None):
        cli_report = self.cli_report
        index = len(self.passes)
        order = self.jobs if index % 2 == 0 else self.jobs[::-1]
        pass_dir = self.work_dir / ("pass%d" % index)
        runs = []
        job_s = {}
        if tracer is not None:
            tracer.begin_pass()
        start, cpu_start = time.perf_counter(), time.process_time()
        for job_id, raw in order:
            out_dir = pass_dir / job_id
            if tracer is not None:
                tracer.job = "pass%d/%s" % (index, job_id)
            code = manifest = error = None
            job_start = time.perf_counter()
            try:
                config = cli_report.parse_config(dict(raw, out_dir=str(out_dir)))
                code, manifest = cli_report.run(config)
            except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
                error = "%s: %s" % (type(exc).__name__, exc)
            job_s[job_id] = time.perf_counter() - job_start
            runs.append((job_id, raw, out_dir, code, manifest, error))
        wall = time.perf_counter() - start
        record = {"index": index, "traced": tracer is not None, "wall_s": wall,
                  "cpu_s": time.process_time() - cpu_start, "job_s": job_s,
                  "covered_s": tracer.covered_s if tracer is not None else None,
                  "totals": dict(tracer.totals) if tracer is not None else None}
        self.passes.append(record)
        self._finish(record, runs)
        return record

    def _finish(self, record, runs):
        """Check each job's results, compare repeats, then drop the files."""
        record["manifests"] = []
        record["bytes_written"] = 0
        for job_id, raw, out_dir, code, manifest, error in runs:
            self.attempted += 1
            fails = self.checker.check(job_id, raw, str(out_dir), code, manifest, error)
            if error is None:
                record["manifests"].append(manifest)
                record["bytes_written"] += self.checker.bytes_written(str(out_dir))
                digest = self.checker.digests(str(out_dir))
                first = self._digests.setdefault(job_id, digest)
                if digest != first:
                    fails.append("result files differ from an earlier repeat: %s" % sorted(
                        k for k in set(first) | set(digest) if first.get(k) != digest.get(k)))
            if fails:
                self.failures.append((record["index"], job_id, "; ".join(fails)))
        shutil.rmtree(self.work_dir / ("pass%d" % record["index"]), ignore_errors=True)

    def run_for(self, seconds, tracer=None):
        """Passes until ``seconds`` have passed (at least one); their records."""
        begin = time.perf_counter()
        done = []
        while True:
            done.append(self.run_pass(tracer))
            now = time.perf_counter()
            if now - begin >= seconds or now - T0 + done[-1]["wall_s"] > DEADLINE_S:
                return done


def layer_metrics(record):
    """Per-layer metrics of one traced pass."""
    totals = record["totals"]

    def get(name, key="s"):
        return float(totals.get(name, {}).get(key, 0))

    checks = [c for m in record["manifests"] for c in m["checks"]]

    def worst(prefix):
        return max((c["value"] for c in checks if c["name"].startswith(prefix)),
                   default=0.0)

    wall = record["wall_s"]
    unattributed = wall - record["covered_s"]
    run_self = get("cli_report.run")
    ens_s = get("pathsim.simulate_ensemble_blocks", "total_s")
    paths = get("pathsim.simulate_ensemble_blocks", "paths")
    out = {"%s.%s" % (name, key): get(name, key)
           for name, keys in LAYER_TOTALS for key in keys}
    out.update({
        "perturbation.series.levels": get("perturbation.duhamel_series", "levels"),
        "perturbation.series.max_gap_vs_expm": worst("series-vs-exponential"),
        "stationary.triangulation.max_tv": worst("triangulation-max-tv"),
        "pathsim.ensemble.path_steps_per_s":
            get("pathsim.simulate_ensemble_blocks", "path_steps") / ens_s if ens_s else 0.0,
        "pathsim.ensemble.reflections_per_path":
            get("pathsim.simulate_ensemble_blocks", "reflections") / paths if paths else 0.0,
        "cli_report.run.self_s": run_self,
        "cli_report.bytes_written": float(record["bytes_written"]),
        "cli_report.unattributed_s": unattributed,
        "trace.wall_s": wall,
        "trace.attributed_frac": (wall - unattributed - run_self) / wall,
    })
    return out


def median_metrics(dicts):
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def write_trace(path, record, tracer, runner):
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "run_record": record,
        "span_fields": ["id", "name", "start", "end", "parent", "job"],
        "spans": tracer.spans,
        "passes": [{k: p[k] for k in ("index", "traced", "wall_s", "job_s", "covered_s",
                                      "totals", "bytes_written")} for p in runner.passes],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the configs, then exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # one BLAS thread: steady timings, and at most nproc threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        cli_report = import_package()
    except ImportError as exc:
        print("bench: cannot import reflected_stable from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    jobs = workloads.jobs(args.workload, args.seed, cli_report.default_config)
    if args.setup_probe:
        return 0

    # not imported at the top: they import numpy, which must load after the
    # BLAS thread variables above are set
    import checks
    import tracing
    record = run_record(args)
    print("run_record %s" % json.dumps(record, sort_keys=True))
    setup_s = setup_times = None
    if not args.trace:
        setup_s, setup_times = measure_setup(args)
    checker = checks.Checker(jobs, cli_report)
    work_dir = ROOT / ".bench_out" / ("run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    runner = Runner(cli_report, jobs, checker, work_dir)
    try:
        untraced = runner.run_for(args.seconds)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = runner.run_for(args.seconds, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    wall_s = statistics.median(p["wall_s"] for p in untraced)
    failed_jobs = len(runner.failures)
    print("workload %s  seed %d  passes %d  jobs attempted %d  failed %d" % (
        args.workload, args.seed, len(runner.passes), runner.attempted, failed_jobs))
    for pass_index, job_id, message in runner.failures:
        print("FAILED pass%d/%s: %s" % (pass_index, job_id, message), file=sys.stderr)
    if args.trace:
        metrics = median_metrics([layer_metrics(p) for p in traced])
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / wall_s - 1.0)
        units = PER_LAYER_UNITS
        write_trace(ROOT / ".bench_out" / "traces" / ("%s-seed%d.json" % (
            args.workload, args.seed)), record, tracer, runner)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
        print("  %-12s %10.4f s   median of %d passes %s" % (
            "wall_s", wall_s, len(untraced), ["%.3f" % p["wall_s"] for p in untraced]))
        print("  %-12s %10.4f s   process CPU time per pass %s" % (
            "cpu_s", statistics.median(p["cpu_s"] for p in untraced),
            ["%.3f" % p["cpu_s"] for p in untraced]))
        print("  %-12s %10.4f s   median of %d fresh set-ups %s" % (
            "setup_s", setup_s, len(setup_times), ["%.3f" % t for t in setup_times]))
        print("  %-12s %10.1f MB  peak resident memory" % ("peak_rss_mb", peak_rss_mb))
        for job_id, _ in jobs:
            print("  job %-34s %8.3f s median" % (
                job_id, statistics.median(p["job_s"][job_id] for p in untraced)))
    print("  %-12s %10.4f     %d of %d jobs failed" % (
        "fail_frac", failed_jobs / runner.attempted, failed_jobs, runner.attempted))
    result = {
        "correct": failed_jobs == 0,
        "attempted": runner.attempted,
        "failed": failed_jobs,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
