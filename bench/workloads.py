"""The benchmark's workloads: each maps a seed to a list of CLI configs.

A job is ``(job_id, raw_config)``; the raw config is exactly what a user
would put in the JSON file handed to ``reflected-stable --config`` (the
runner only fills in ``out_dir``). Every job keeps ``threads: 1``. The
seed changes only the configs' ``seed`` fields, so the amount of work per
pass is the same for every seed.
"""

import hashlib

INTERVAL = {"kind": "interval", "a": -1.0, "b": 1.0}
# unequal components, so cell widths differ between them
UNION = {"kind": "grid1d", "intervals": [[-1.0, -0.2], [0.1, 1.0]]}
CONSTANT = {"family": "constant-uniform", "a": -0.5, "b": 0.5}
PROJECTION = {"family": "projection", "depth": 0.3, "width": 0.2}
# the union's shortest component (0.8) needs depth + width/2 < 0.4
UNION_PROJECTION = {"family": "projection", "depth": 0.2, "width": 0.1}

WORKLOADS = ("grid-series", "cli-default", "union-mixed")


def job_seed(workload, seed, job_id):
    """Per-job config seed, a fixed function of (workload, seed, job)."""
    digest = hashlib.sha256(("%s/%d/%s" % (workload, seed, job_id)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _grid_series(base):
    jobs = []
    for alpha, mu, t_list in ((0.5, CONSTANT, [0.1, 2.0]),
                              (1.0, PROJECTION, [0.1, 2.0]),
                              (1.5, PROJECTION, [0.1])):
        params = {"d": 1, "alpha": alpha}
        jobs.append(("semigroup-a%g-%s" % (alpha, mu["family"]),
                     dict(base, kind="semigroup-check", params=params, mu=mu,
                          t_list=t_list)))
        jobs.append(("stationary-a%g-%s" % (alpha, mu["family"]),
                     dict(base, kind="stationary", params=params, mu=mu, replicas=0)))
    # n-scaling point: the same (alpha, mu, t) as a 400-cell job above
    jobs.append(("semigroup-a1-projection-n600",
                 dict(base, kind="semigroup-check", params={"d": 1, "alpha": 1.0},
                      mu=PROJECTION, n_cells=600, t_list=[0.1])))
    return jobs


def _cli_default(base):
    return [("default", dict(base))]


def _union_mixed(base):
    base = dict(base, params={"d": 1, "alpha": 1.0}, domain=UNION, mu=UNION_PROJECTION)
    return [
        ("semigroup", dict(base, kind="semigroup-check", t_list=[0.5])),
        ("excessive", dict(base, kind="excessive")),
        ("chain", dict(base, kind="chain")),
        ("simulate", dict(base, kind="simulate", horizon=20.0, replicas=100)),
    ]


_BUILDERS = {
    "grid-series": _grid_series,
    "cli-default": _cli_default,
    "union-mixed": _union_mixed,
}


def jobs(workload, seed, default_config):
    """The workload's jobs at ``seed``, built on the CLI's default config."""
    out = []
    for job_id, raw in _BUILDERS[workload](default_config()):
        raw = dict(raw, seed=job_seed(workload, seed, job_id), threads=1)
        out.append((job_id, raw))
    return out
