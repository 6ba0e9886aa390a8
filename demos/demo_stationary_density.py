"""Three independent routes to the stationary density of the reflected flow.

The stationary density is the chain's stationary re-entry law integrated
against the Green kernel (closed form), the left null vector of the full
generator, and the long-run time average of simulated paths; the demo
triangulates all three and writes the profiles to CSV.
"""

import os

from reflected_stable import ConstantKernel, Interval, ProjectionKernel, StableParams, \
    UniformMeasure, chain_kernel, dobrushin_coefficient, full_generator, \
    kappa_closed_form, kappa_ergodic, kappa_generator_nullvector, \
    perturbation_matrix, stationary_p
from reflected_stable.killed_kernels import default_operators
from reflected_stable.pathsim import simulate_ensemble_blocks

p = StableParams(1, 1.0)
D = Interval(-1.0, 1.0)
grid, L, G, H = default_operators(p, D, 400)

out_dir = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(out_dir, exist_ok=True)

for name, mu in (("uniform", ConstantKernel(D, UniformMeasure(-0.5, 0.5))),
                 ("projection", ProjectionKernel(D, 0.3, 0.2))):
    print("== return law: %s ==" % name)
    C = chain_kernel(H, mu)
    beta, overlap = dobrushin_coefficient(C)
    print("two-step contraction coefficient %.3f (row overlap %.3f)"
          % (beta, overlap))
    p_hat = stationary_p(C)
    k_cf = kappa_closed_form(p_hat, G)
    A = full_generator(L, perturbation_matrix(grid, p, mu))
    k_nv = kappa_generator_nullvector(A)
    start = mu.laws[0] if len(mu.laws) == 1 else UniformMeasure(-0.5, 0.5)
    ens = simulate_ensemble_blocks(p, mu, start, 120.0, 1e-3, 31, 120,
                                   grid=grid, burn_in=2.0)
    k_er = kappa_ergodic(ens, grid)
    print("pairwise total variation:")
    print("  closed form vs null vector: %.5f" % k_cf.tv(k_nv))
    print("  closed form vs ergodic:     %.5f" % k_cf.tv(k_er))
    print("  null vector vs ergodic:     %.5f" % k_nv.tv(k_er))
    path = os.path.join(out_dir, "kappa_%s.csv" % name)
    with open(path, "w") as fh:
        fh.write("x,closed_form,null_vector,ergodic\n")
        for i in range(grid.n):
            fh.write("%.6f,%.8e,%.8e,%.8e\n" % (
                grid.nodes[i], k_cf.density()[i], k_nv.density()[i],
                k_er.density()[i]))
    print("density profiles written to %s" % path)
    print()
