"""Computed-torque tracking control with Gaussian-process model compensation."""

__version__ = "0.1.0"

from .control import (ControlOutput, Gains, ModelErrorBound, ReferenceSample,
                      build_gp_input, computed_torque, ct_gp_control,
                      estimate_error_bound, pd_control, verify_conditions)
from .dynamics import (AeroTable, JointState, ManipulatorModel,
                       PendulumEstimate, RadialSpring, TwoLinkArm, WingModel,
                       aero_torque, check_structural_properties)
from .gp import (CholeskyError, FittedGP, GPError, Hyperparameters, MultiGP,
                 Prediction, TrainingSet, fit, gram_matrix, kernel_eval,
                 log_marginal_likelihood, optimize_hyperparameters)
from .sim import (DivergenceError, EnsembleStats, ReferenceTrajectory,
                  SimConfig, SimResult, lyapunov_trace, run_ensemble,
                  simulate)
from .training import (ClosedLoopPlan, OpenLoopPlan, generate_closed_loop,
                       generate_open_loop, residual_torque)

__all__ = [
    "AeroTable", "CholeskyError", "ClosedLoopPlan", "ControlOutput",
    "DivergenceError", "EnsembleStats", "FittedGP", "GPError", "Gains",
    "Hyperparameters", "JointState", "ManipulatorModel", "ModelErrorBound",
    "MultiGP", "OpenLoopPlan", "PendulumEstimate", "Prediction",
    "RadialSpring", "ReferenceSample", "ReferenceTrajectory", "SimConfig",
    "SimResult", "TrainingSet", "TwoLinkArm", "WingModel", "aero_torque",
    "build_gp_input", "check_structural_properties", "computed_torque",
    "ct_gp_control", "estimate_error_bound", "fit",
    "generate_closed_loop", "generate_open_loop", "gram_matrix",
    "kernel_eval", "log_marginal_likelihood", "lyapunov_trace",
    "optimize_hyperparameters", "pd_control",
    "residual_torque", "run_ensemble", "simulate", "verify_conditions",
]
