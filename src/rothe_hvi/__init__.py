"""Two-step implicit (BDF-style) time stepping for parabolic evolution
problems with set-valued boundary flux laws, on finite-dimensional Galerkin
spaces, together with the diagnostics that certify its discrete estimates.
"""

from .galerkin import (
    GalerkinSpace,
    LinearOperatorA,
    SymBand,
    check_hypotheses_A,
)
from .potentials import (
    BoundaryFunctional,
    LinearRobin,
    NonconvexPiecewise,
    PaperExponential,
    ScalarPotential,
    ZeroPotential,
    check_growth,
)
from .fem1d import ForcingSpec, Mesh1D, assemble_forcing, assemble_space, make_initial
from .inclusion_solver import (
    NonConvergenceError,
    NumericalFailureError,
    SolveReport,
    StepProblem,
    solve_step_inclusion,
    verify_inclusion,
)
from .stepper import (
    BACKWARD_EULER,
    BDF2,
    RotheProblem,
    RotheTrajectory,
    SeparableLoad,
    StepFailureError,
    TimeGrid,
    average_forcing,
    bdf2_step,
    check_step_coercivity,
    initial_step,
    run_rothe,
)
from .diagnostics import (
    EstimateReport,
    LadderStudy,
    bdf2_identity_gap,
    bdf2_inequality_slack,
    estimate_report,
    tau_ladder_study,
)
from .oracle import (
    minimize_energy_convex,
    reference_solution,
    scan_roots_reduced,
    step_energy,
)

__version__ = "0.1.0"
