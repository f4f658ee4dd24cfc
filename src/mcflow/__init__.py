"""Finite-difference solver and numerical certifier for the level-set
curvature flow with a constant driving term, its smoothed approximation,
steady Dirichlet limit, boundary barriers and flatness propagation."""

from .geometry import (DomainSpec, Grid, ball, ellipse, smoothed_stadium,
                       signed_distance, boundary_points,
                       boundary_mean_curvature_bound, admissible_nu_interval,
                       build_grid, CoarseGridError, GeometryError)
from .operator import (FlowParams, BoundaryValues, Workspace, boundary_values,
                       node_gradient, regularized_rhs, stable_dt, march, init_state,
                       apply_closure, BlowUpError, OperatorError)
from .flow import (IBVP, FlowReport, SteadyResult, ContinuationTable,
                   solve_ibvp, relax_to_steady, epsilon_continuation,
                   IncompatibleDataError)
from .barriers import (Barrier, SupNormBound, ComparisonReport, BarrierError,
                       build_barriers, barrier_supersolution_residual, sup_norm_bound,
                       comparison_experiment, random_ordered_pair)
from .verify import (DissipationBudget, GradientMaxReport, ViscosityProbe,
                     energy_series, dissipation_budget, gradient_interior_max_check,
                     viscosity_spot_check, degenerate_branch_bound, replicate_steady)
from .liouville import (CylinderProblem, EnvelopePair, LiouvilleReport,
                        ramp_problem, build_envelopes, flatness_and_sandwich,
                        EnvelopeError)
from .expressions import Expression, parse_expression, ExpressionError

__version__ = "0.1.0"
