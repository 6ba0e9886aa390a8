"""Benchmark-side checks of a job's result files.

Every job must exit 0, write a manifest whose checks all pass, and write
every output the manifest lists. Where the CLI's own checks are vacuous
the benchmark adds its own: the ``simulate`` job's only manifest check
(``paths-simulated``) always passes, so its occupation measure is compared
with the closed-form stationary density computed here.
"""

import csv
import hashlib
import json
import os

import numpy as np

# the CLI's own triangulation tolerance, on the same 20 merged bins its
# chain check uses
OCCUPATION_TV_TOL = 0.06
MERGED_BINS = 20


def _read_rows(path):
    """A result CSV's data rows (the header skipped) as a float array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float)


def _merged_tv(p, q):
    groups = np.array_split(np.arange(len(p)), MERGED_BINS)
    pg = np.array([p[g].sum() for g in groups])
    qg = np.array([q[g].sum() for g in groups])
    return 0.5 * float(np.abs(pg / pg.sum() - qg / qg.sum()).sum())


def closed_form_kappa(raw, cli_report):
    """Cell masses of the closed-form stationary density for a config."""
    from reflected_stable import (StableParams, assemble_dirichlet_generator,
                                  build_grid, chain_kernel, green_operator,
                                  kappa_closed_form, stationary_p)
    from reflected_stable.killed_kernels import harmonic_kernel

    config = cli_report.parse_config(raw)
    params = StableParams(config.d, config.alpha)
    domain = cli_report.build_domain(config.domain_spec)
    mu = cli_report.build_mu(config.mu_spec, domain)
    grid = build_grid(domain, config.n_cells)
    G = green_operator(assemble_dirichlet_generator(grid, params))
    p_chain = stationary_p(chain_kernel(harmonic_kernel(G, params), mu))
    return kappa_closed_form(p_chain, G).masses


class Checker:
    """Checks job results; references are computed once, before timing."""

    def __init__(self, jobs, cli_report):
        self.references = {job_id: closed_form_kappa(raw, cli_report)
                           for job_id, raw in jobs if raw["kind"] == "simulate"}

    def check(self, job_id, raw, out_dir, code, manifest, error):
        """Failure messages for one job run (empty when it passed)."""
        if error is not None:
            return ["raised %s" % error]
        fails = []
        if code != 0:
            fails.append("exit code %d" % code)
        fails += ["manifest check %s failed" % c["name"]
                  for c in manifest["checks"] if not c["passed"]]
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            if json.load(fh)["outputs"] != manifest["outputs"]:
                fails.append("manifest file differs from the returned manifest")
        missing = [name for name in manifest["outputs"]
                   if not os.path.isfile(os.path.join(out_dir, name))
                   or not os.path.getsize(os.path.join(out_dir, name))]
        if missing:
            return fails + ["missing or empty outputs %s" % missing]
        kind = raw["kind"]
        if kind == "semigroup-check":
            with open(os.path.join(out_dir, "series_diagnostics.json")) as fh:
                series = json.load(fh)["series"]
            if [s["t"] for s in series] != raw["t_list"]:
                fails.append("series diagnostics do not cover t_list")
        if kind == "stationary":
            for name in ("p_chain.csv", "kappa_closed_form.csv", "kappa_null_vector.csv"):
                rows = _read_rows(os.path.join(out_dir, name))
                if rows.shape[0] != raw["n_cells"] or abs(rows[:, 1].sum() - 1.0) > 1e-9:
                    fails.append("%s is not a probability on the grid" % name)
        if kind == "simulate":
            counts = _read_rows(os.path.join(out_dir, "reflection_counts.csv"))
            for t in np.unique(counts[:, 0]):
                if counts[counts[:, 0] == t, 2].sum() != raw["replicas"]:
                    fails.append("reflection counts at t=%g miss paths" % t)
            occ = _read_rows(os.path.join(out_dir, "occupation.csv"))
            tv = _merged_tv(occ[:, 1], self.references[job_id])
            if not tv <= OCCUPATION_TV_TOL:
                fails.append("occupation TV to closed form %.4g > %g"
                             % (tv, OCCUPATION_TV_TOL))
        return fails

    @staticmethod
    def digests(out_dir):
        """sha256 of every result file except the manifest (it holds wall time)."""
        out = {}
        for name in sorted(os.listdir(out_dir)):
            if name == "manifest.json":
                continue
            h = hashlib.sha256()
            with open(os.path.join(out_dir, name), "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[name] = h.hexdigest()
        return out

    @staticmethod
    def bytes_written(out_dir):
        return sum(os.path.getsize(os.path.join(out_dir, name))
                   for name in os.listdir(out_dir))
