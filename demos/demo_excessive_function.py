"""Supermedian functions and the boundary-exploding excessive function.

The discounted boundary payoff of the reflected flow dominates the killed
one and satisfies a uniform bound through the concentration of the return
kernel; summing shell payoffs with geometrically tightening targets gives
a supermedian function that blows up at the boundary, the key object
separating the reflected process from its Brownian counterpart.
"""

import numpy as np

from reflected_stable import ConstantKernel, Interval, StableParams, UniformMeasure, \
    build_excessive, default_probes, full_generator, perturbation_matrix, \
    resolvent_u, supermedian_v
from reflected_stable.killed_kernels import default_operators
from reflected_stable.perturbation import supermedian_violation

p = StableParams(1, 1.0)
D = Interval(-1.0, 1.0)
grid, L, G, H = default_operators(p, D, 400)
mu = ConstantKernel(D, UniformMeasure(-0.5, 0.5))
A = full_generator(L, perturbation_matrix(grid, p, mu))
i0 = np.argmin(np.abs(grid.nodes))

lam = 0.1
u = resolvent_u(L, lam, 1.0)
v = supermedian_v(A, lam, 1.0)
eps = 1.0 - max(mu.law(z).cell_masses(grid) @ u for z in default_probes(D))
print("discounted payoffs at lambda=%.1f:" % lam)
print("  killed   u: max %.4f (< 1)" % u.max())
print("  reflected v: max %.4f  vs the concentration bound 1/eps = %.4f"
      % (v.max(), 1.0 / eps))
print("  supermedian violation over t in {0.1, 1, 10}: %.2e"
      % supermedian_violation(A, lam, v))

print()
exc = build_excessive(A, 1.0)
print("shell-sum construction (lambda=1): shell depths per stage")
for k, (r, thr) in enumerate(zip(exc.radii, exc.thresholds), start=1):
    print("  stage %d: target 2^-%d on {dist >= %.4f}  ->  depth %.5f"
          % (k, k, thr, r))
vq = exc.values
print("profile of the excessive function (node: value):")
for q in (0.0, 0.5, 0.9, 0.99, 1.0):
    i = min(int(q * (grid.n // 2)), grid.n // 2 - 1)
    print("  x=%+.4f: %.4f" % (grid.nodes[grid.n // 2 + i], vq[grid.n // 2 + i]))
print("boundary/center ratio: %.2f (grows under grid refinement)"
      % (vq[0] / vq[i0]))
