"""Tumour growth laws, radiotherapy response and therapy scheduling.

The package splits into five model layers plus plumbing:

  growth_models          closed-form single-population growth laws
  lq_radiotherapy        linear-quadratic cell kill and fractionated courses
  competition_dynamics   healthy/cancer ODE systems and the adaptive integrator
  stability_analysis     equilibria, eigenvalues, stability conditions
  optimal_control        therapy scheduling by indirect and direct solvers

config, outputs and cli provide the JSON-driven command line front end.
The competition equations and their Jacobian are defined once, in
competition_dynamics.competition_equations; the other layers build on it.
"""

from .competition_dynamics import (
    CompetitionParams,
    ControlParams,
    State,
    Trajectory,
    coexistence_field,
    competition_field,
    controlled_field,
    integrate,
    rhs_coexistence,
    rhs_competition,
    rhs_controlled,
    solve_ode,
)
from .errors import ConfigError, NumericalError
from .growth_models import (
    GrowthParams,
    exponential,
    gompertz,
    gompertz_asymptote,
    verhulst,
)
from .lq_radiotherapy import (
    FractionationPlan,
    LQParams,
    PiecewiseGrowthParams,
    simulate_fractionated,
    surviving_count,
    surviving_fraction,
)
from .optimal_control import (
    SOLVER_DIRECT,
    SOLVER_INDIRECT,
    CostModel,
    DoseRow,
    OCPSetup,
    OCPSolution,
    adjoint_rhs,
    backward_rollout,
    cost,
    dose_report,
    forward_rollout,
    hamiltonian_control,
    objective_and_gradient,
    pontryagin_residual,
    solve_direct,
    solve_fbsm,
)
from .stability_analysis import (
    CLASS_INFEASIBLE,
    CLASS_NONHYPERBOLIC,
    CLASS_SADDLE,
    CLASS_SINK,
    CLASS_SOURCE,
    EquilibriumReport,
    classify,
    eig2,
    equilibria_constant_control,
    equilibria_uncontrolled,
    jacobian_coexistence,
    jacobian_competition,
    jacobian_controlled,
)

__version__ = "0.1.0"
