"""Simulating the reflected process path by path and in ensembles.

A path alternates killed excursions with re-entries drawn from the return
kernel; the pair (reflection count, position) is the natural state. One
lockstep ensemble simulates every path and records each reflection; the
ladder paths, the reflection counts at any time and the excursion
statistics are all read from those records.
"""

import numpy as np

from reflected_stable import ConstantKernel, Interval, ProjectionKernel, StableParams, \
    UniformMeasure, reflection_chain, simulate_ladder, stream
from reflected_stable.pathsim import excursion_statistics, simulate_ensemble_blocks
from reflected_stable.stable_core import walk_on_spheres

p = StableParams(1, 1.0)
D = Interval(-1.0, 1.0)
m = UniformMeasure(-0.5, 0.5)
mu = ConstantKernel(D, m)

print("== one path ==")
path = simulate_ladder(p, mu, 0.0, 10.0, 1e-3, seed=11, n_paths=1)
print("horizon 10: %d reflections; first few reflection times:" % len(path.tau))
print("  ", np.round(path.tau[:5], 3))
print("  re-entry points:", np.round(path.entry[:5], 3))
print("reflection count at t=5: %d" % path.counts_at([5.0])[0, 0])

print()
print("== excursion statistics (constant return law) ==")
paths = simulate_ladder(p, mu, m, 8.0, 1e-3, seed=101, n_paths=400)
st = excursion_statistics(paths)
print("%d completed excursions; mean duration %.3f" % (st.n_completed,
                                                       st.mean_duration))
print("lag-1 duration autocorrelation: %+.4f (independent excursions)"
      % st.lag1_autocorrelation)

print()
print("== ensemble reflection counts ==")
ens = simulate_ensemble_blocks(p, mu, m, 2.0, 1e-3, 2029, 20000)
counts = ens.counts_at([0.5, 2.0])
for k, t in enumerate((0.5, 2.0)):
    hist = np.bincount(counts[:, k], minlength=5)[:5] / ens.n_paths
    print("  t=%.1f: P(N_t = 0..4) =" % t, np.round(hist, 3))

print()
print("== exact reflection chain (no time discretization) ==")
mu_proj = ProjectionKernel(D, 0.3, 0.2)
rng = stream(5, 0)
chains = reflection_chain(p, mu_proj, 0.0, 5, rng, size=20000)
print("projection return law: post-reflection positions concentrate at")
print("  depth 0.3 from either boundary; mean |R_n|:",
      np.round(np.mean(np.abs(chains), axis=0), 3))

print()
print("== walk on spheres on a two-component domain ==")
from reflected_stable import IntervalUnion
U = IntervalUnion([[-1.0, -0.2], [0.2, 1.0]])
z, balls = walk_on_spheres(p, U, np.full(20000, 0.6), rng)
iters = np.bincount(np.concatenate([idx for idx, _, _ in balls]), minlength=20000)
print("exits from x=0.6: mean iterations %.2f; fraction landing in the gap %.3f"
      % (iters.mean(), np.mean((z > -0.2) & (z < 0.2))))
