"""Benchmark-side tracing of the reflected_stable modules.

The tracer replaces public functions and methods of the package with
wrappers for the duration of the traced passes and restores them after.
Nothing in ``src/`` knows about it. Two kinds of wrapper exist:

* span wrappers, for coarse calls: each call records one span
  ``(id, name, start, end, parent_id, job)``, kept in memory and written
  out when the benchmark ends;
* aggregate wrappers, for per-step calls (``sample_stable_increment``,
  ``contains``, ``cell_index``, the return kernel's ``sample``, single
  excursions): only a call count and summed times, so memory stays bounded.

Both kinds keep per-name totals: ``calls``, ``s`` (self time: duration
minus the time covered by wrapped calls made inside it), ``total_s``, and
any extra counters the target defines. Calls are timed on one thread,
which holds because every job runs with ``threads: 1``.
"""

import itertools
import sys
import time

import numpy as np


def _ensemble_counts(args, kwargs, result, dur):
    steps = int(round(result.horizon / result.dt))
    return (("paths", result.n_paths), ("path_steps", result.n_paths * steps),
            ("reflections", int(result.total_reflections.sum())))


def _series_counts(args, kwargs, result, dur):
    n = args[0].entries.shape[0]
    return (("n%d_s" % n, dur), ("levels", result.truncation_N))


def _increment_draws(args, kwargs, result, dur):
    size = kwargs.get("size", args[3] if len(args) > 3 else None)
    return (("draws", 1 if size is None else int(size)),)


def _index_points(args, kwargs, result, dur):
    return (("points", int(np.size(args[1]))),)


def targets():
    """(owner, attribute, metric name, span?, extra counters) to wrap."""
    import scipy.linalg

    from reflected_stable import (cli_report, geometry, killed_kernels, pathsim,
                                  perturbation, reflection, stable_core, stationary)

    spans = {
        cli_report: ("run", "parse_config", "build_domain", "build_mu"),
        geometry: ("build_grid",),
        killed_kernels: ("assemble_dirichlet_generator", "green_operator",
                         "harmonic_kernel"),
        perturbation: ("perturbation_matrix", "full_generator", "duhamel_series",
                       "reflected_kernel", "series_diagnostics", "build_excessive",
                       "supermedian_violation"),
        reflection: ("default_probes", "validate_concentration"),
        pathsim: ("simulate_ensemble_blocks", "simulate_ladder",
                  "excursion_statistics", "reflection_chain"),
        stationary: ("chain_kernel", "dobrushin_coefficient", "stationary_p",
                     "kappa_closed_form", "kappa_generator_nullvector",
                     "kappa_ergodic", "triangulation_report", "total_variation"),
    }
    extras = {
        "perturbation.duhamel_series": _series_counts,
        "pathsim.simulate_ensemble_blocks": _ensemble_counts,
    }
    out = []
    for module, names in spans.items():
        short = module.__name__.rsplit(".", 1)[-1]
        for name in names:
            full = "%s.%s" % (short, name)
            out.append((module, name, full, True, extras.get(full)))
    out.append((scipy.linalg, "expm", "linalg.expm", True, None))
    out += [
        (stable_core, "sample_stable_increment", "stable_core.sample_stable_increment",
         False, _increment_draws),
        (pathsim, "simulate_killed_excursion", "pathsim.simulate_killed_excursion",
         False, None),
        (pathsim, "walk_on_spheres_exit", "pathsim.walk_on_spheres_exit", False, None),
        (geometry.Grid, "cell_index", "geometry.Grid.cell_index", False, _index_points),
    ]
    for cls in (geometry.Interval, geometry.IntervalUnion, geometry.Ball):
        out.append((cls, "contains", "geometry.contains", False, None))
    for cls in (reflection.ConstantKernel, reflection.ProjectionKernel):
        out.append((cls, "sample", "reflection.sample", False, None))
    return out


class Tracer:
    """Wraps the targets, records spans and per-name totals."""

    def __init__(self):
        self.spans = []
        self.totals = {}
        self.job = None
        self._root = [0.0, None]       # [time covered by wrapped calls, span id]
        self._stack = [self._root]
        self._ids = itertools.count()
        self._undo = []

    def _wrap(self, name, fn, span, extra):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if span else parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            dur = end - start
            own = dur - frame[0]
            parent[0] += dur
            rec = tracer.totals.get(name)
            if rec is None:
                rec = tracer.totals[name] = {"calls": 0, "s": 0.0, "total_s": 0.0}
            rec["calls"] += 1
            rec["s"] += own
            rec["total_s"] += dur
            if span:
                spans.append((frame[1], name, start, end, parent[1], tracer.job))
            if extra is not None:
                for key, value in extra(args, kwargs, result, dur):
                    rec[key] = rec.get(key, 0) + value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        for owner, attr, name, span, extra in targets():
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, orig, span, extra))
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, span, extra)
            # rebind every module-level name that refers to the original,
            # so "from .x import f" call sites see the wrapper too
            for mod in list(sys.modules.values()):
                modname = getattr(mod, "__name__", "") or ""
                if mod is not owner and not modname.startswith("reflected_stable"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def begin_pass(self):
        """Reset per-pass totals; spans keep accumulating."""
        self.totals = {}
        self._root[0] = 0.0

    @property
    def covered_s(self):
        """Time this pass spent inside any wrapped call."""
        return self._root[0]
