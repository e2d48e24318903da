"""Direct trajectory optimization via equality-constrained annealed Langevin diffusion."""

from .autodiff import (
    Dual,
    Exact,
    FiniteDifference,
    GradientMethod,
    NonFiniteValueError,
    check_gradient,
    gradient,
    jacobian,
)
from .baselines import bfgs_penalty, gradient_descent_cdo
from .nlp import Layout, NlpProblem, OcpDefinition, join, rollout, split, transcribe
from .problems import (
    BugTrapGeometry,
    PendulumParams,
    ProblemBundle,
    bugtrap_ocp,
    get_problem,
    pendulum_dynamics,
    pendulum_ocp,
    toy_kkt_problem,
    unicycle_dynamics,
)
from .solver import (
    BarrierDomainError,
    Solution,
    SolveError,
    SolverConfig,
    Trace,
    barrier_gradient,
    drift,
    energy,
    noise_schedule,
    solve,
    solve_batch,
    trajectory_guess,
)

__version__ = "0.1.0"
