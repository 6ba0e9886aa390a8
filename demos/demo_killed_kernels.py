"""Grid kernels of the killed process on the unit interval.

Assembles the nonlocal generator, then inspects the objects derived from
it: survival probabilities, the Green operator (mean exit times), the
exit-position kernel, and discounted boundary payoffs.
"""

import numpy as np

from reflected_stable import Interval, Region1D, StableParams, ball_mean_exit_time, \
    exterior_shell, resolvent_u
from reflected_stable.killed_kernels import default_operators, heat_kernel, \
    killing_intensity

p = StableParams(1, 1.0)
D = Interval(-1.0, 1.0)
grid, L, G, H = default_operators(p, D, 400)
i0 = np.argmin(np.abs(grid.nodes))

print("== generator ==")
kappa = killing_intensity(p, D, grid.nodes)
print("killing intensity at 0: %.6f (2/pi = %.6f)" % (kappa[i0], 2 / np.pi))
print("row sums + kappa: max |.| = %.2e (exact by construction)"
      % np.abs(L.row_sums() + kappa).max())

print()
print("== heat kernel ==")
for t in (0.1, 0.5, 2.0):
    P = heat_kernel(L, t)
    print("  t=%.1f: survival from center %.4f, from near-boundary %.4f"
          % (t, P.row_sums()[i0], P.row_sums()[0]))

print()
print("== green operator ==")
print("mean exit time at center: grid %.5f vs closed form %.5f"
      % (G.row_sums()[i0], ball_mean_exit_time(p, 1.0, abs(grid.nodes[i0]))))

print()
print("== exit-position kernel ==")
print("total exit mass (should be 1): %.12f" % H.total_masses()[i0])
print("P(exit right of 1) from center: %.4f" % H.masses(Region1D([(1.0, np.inf)]))[i0])
print("P(|exit| > 2) from center: %.4f (1/3 expected)"
      % H.masses(Region1D([(-np.inf, -2.0), (2.0, np.inf)]))[i0])

print()
print("== discounted payoffs ==")
u = resolvent_u(L, 0.1, 1.0)
print("E e^{-0.1 tau}: center %.4f, near boundary %.4f (both < 1)"
      % (u[i0], u[0]))
ush = resolvent_u(L, 0.1, exterior_shell(D, 0.5))
print("shell payoff (depth 0.5): center %.4f, near boundary %.4f"
      % (ush[i0], ush[0]))
