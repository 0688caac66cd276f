"""Steady-state-to-chaos detection for stochastic logistic and Ricker maps
with gamma-distributed equilibria."""

from .chaos import (
    RegimeReport,
    ScanRecord,
    TransitionReport,
    bifurcation_scan,
    classify,
    lyapunov,
    transition_report,
)
from .equilibrium import (
    Branch,
    EquilibriumSolution,
    InfeasibleError,
    NoiseSpec,
    NoRootError,
    logistic_noise_bound,
    logistic_quadratic_residual,
    logistic_solve,
    ricker_noise_bound,
    ricker_residual,
    ricker_solve,
    ricker_theta,
    solve,
)
from .gamma_core import (
    GammaParams,
    central_moment3,
    central_moment4,
    fit_from_moments,
    gamma_pdf,
    laplace_moment,
    raw_moment,
)
from .maps import DivergenceError
from .mean_dynamics import (
    MeanState,
    convergence_sweep,
    deterministic_orbit,
    mean_update,
)
from .simulate import (
    EnsembleStats,
    MapSpec,
    StationarityReport,
    Trajectory,
    noise_draw,
    run_ensemble,
    run_trajectory,
    stationarity_check,
    trajectory_rng,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
