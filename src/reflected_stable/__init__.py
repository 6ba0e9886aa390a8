"""Numerics for isotropic stable processes reflected from the complement
of a bounded open set: exact samplers, killed-process grid kernels, the
perturbation-series transition kernel, path simulation, and stationary
densities."""

__version__ = "0.1.0"

from .stable_core import (StableParams, ball_exit_position, ball_mean_exit_time,
                          levy_constant, sample_stable_increment)
from .geometry import (Ball, Grid, Interval, IntervalUnion, Region1D,
                       build_grid, exterior_shell)
from .reflection import (AtomMeasure, ConstantKernel, ProjectionKernel,
                         ReflectionKernel, UniformMeasure, default_probes,
                         validate_concentration)
from .killed_kernels import (GridOperator, assemble_dirichlet_generator,
                             green_operator, harmonic_kernel, heat_kernel,
                             killing_intensity, resolvent_u)
from .perturbation import (DuhamelSeries, LadderKernel, build_excessive,
                           duhamel_series, full_generator, ladder_kernel,
                           ladder_lift, perturbation_matrix, reflected_kernel,
                           supermedian_v)
from .pathsim import (excursion_statistics, reflection_chain,
                      renewal_occupation, sample_first_exit, simulate_ensemble,
                      simulate_killed_excursion, simulate_ladder, stream,
                      walk_on_spheres_exit)
from .stationary import (GridMeasure, chain_kernel, dobrushin_coefficient,
                         kappa_closed_form, kappa_ergodic, kappa_generator_nullvector,
                         stationary_p, total_variation)
