"""The reflected transition kernel as a perturbation series.

Builds the level terms (level n carries the mass that has reflected
exactly n times), sums them into the conservative reflected kernel, and
cross-checks against the exponential of the full generator. Also lifts
the levels to the ladder operator and reads off the reflection-count law.
"""

import numpy as np
import scipy.linalg

from reflected_stable import ConstantKernel, Interval, StableParams, UniformMeasure, \
    duhamel_series, full_generator, ladder_kernel, perturbation_matrix, \
    reflected_kernel
from reflected_stable.killed_kernels import default_operators

p = StableParams(1, 1.0)
D = Interval(-1.0, 1.0)
grid, L, G, H = default_operators(p, D, 400)
mu = ConstantKernel(D, UniformMeasure(-0.5, 0.5))
M = perturbation_matrix(grid, p, mu)
A = full_generator(L, M)
print("full generator row sums: max |.| = %.2e" % np.abs(A.row_sums()).max())

t = 0.5
ser = duhamel_series(L, M, t)
print()
print("series at t=%.1f: %d levels, tail bound %.1e" % (t, ser.truncation_N,
                                                        ser.tail_bound))
print("per-level max row masses (reflection-count weights):")
for n, m in enumerate(ser.level_masses[:8]):
    print("  level %d: %.3e" % (n, m))
print("fitted geometric envelope: c=%.2f gamma=%.3f" % (ser.fit_c, ser.fit_gamma))

K = reflected_kernel(ser)
rs = K.row_sums()
print()
print("conservation: row sums in [%.8f, %.8f]" % (rs.min(), rs.max()))
expA = scipy.linalg.expm(t * A.entries)
print("series vs exp(t(L+M)): max entry gap %.2e" % np.abs(K.entries - expA).max())

lad = ladder_kernel(ser, m_levels=max(20, ser.truncation_N))
i0 = np.argmin(np.abs(grid.nodes))
law = lad.counts_law(i0)
print()
print("reflection-count law from the center at t=%.1f:" % t)
for n, q in enumerate(law[:6]):
    print("  P(N_t = %d) = %.4f" % (n, q))
print("  (total %.6f + tail %.1e)" % (law.sum(), lad.series.tail_bound))
