"""Generation of model-error training data.

The learning target is the residual torque

    tau_tilde = tau_applied - (H_hat(q) qdd + C_hat(q, qd) qd + g_hat(q)),

recorded at measured states, with GP inputs (qdd, qd, q).  Two excitation
schemes:

* open loop: a torque x initial-position grid, each cell simulated from rest
  for a fixed hold time under constant torque, one sample per cell taken at
  the end of the hold;
* closed loop: one tracking run under an exciting controller, sampled at a
  fixed period with optional sensor noise on positions and velocities
  (accelerations are taken clean from the forward dynamics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .control import ControlOutput
from .dynamics import ManipulatorModel
from .gp import TrainingSet
from .sim import ReferenceTrajectory, SimConfig, _integrate, simulate


@dataclass(frozen=True)
class OpenLoopPlan:
    """Constant-torque grid excitation for single-joint models."""

    torques: np.ndarray
    positions: np.ndarray
    hold_duration: float = 0.5
    dt: float = 1e-3
    noise_std_q: float = 0.0
    noise_std_qd: float = 0.0
    seed: int = 0

    mode = "open-loop"

    def __post_init__(self):
        for name in ("torques", "positions"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a non-empty finite 1-d array")
            object.__setattr__(self, name, arr)
        if self.hold_duration < self.dt or self.dt <= 0:
            raise ValueError("hold_duration must cover at least one step")

    @classmethod
    def grid(cls, torque_range, torque_count, position_range, position_count,
             **kwargs) -> "OpenLoopPlan":
        # np.linspace would overflow, with a warning, on a range this wide
        for name, (low, high) in (("torque_range", torque_range),
                                  ("position_range", position_range)):
            if not math.isfinite(high - low):
                raise ValueError(f"{name} [{low}, {high}] is wider than the float range")
        return cls(
            torques=np.linspace(torque_range[0], torque_range[1], torque_count),
            positions=np.linspace(position_range[0], position_range[1], position_count),
            **kwargs,
        )

    @property
    def cells(self) -> int:
        return self.torques.size * self.positions.size

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "torque_count": int(self.torques.size),
            "torque_min": float(self.torques[0]),
            "torque_max": float(self.torques[-1]),
            "position_count": int(self.positions.size),
            "position_min": float(self.positions[0]),
            "position_max": float(self.positions[-1]),
            "hold_duration": self.hold_duration,
            "dt": self.dt,
            "noise_std_q": self.noise_std_q,
            "noise_std_qd": self.noise_std_qd,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ClosedLoopPlan:
    """Periodic sampling of one tracking run under an exciting controller."""

    sample_period: float = 0.03
    sample_count: int = 351
    dt: float = 1e-3
    duration: float | None = None
    noise_std_q: float = 1e-3
    noise_std_qd: float = 1e-2
    seed: int = 0

    mode = "closed-loop"

    def __post_init__(self):
        if self.sample_period <= 0 or self.dt <= 0 or self.sample_count < 1:
            raise ValueError("sample_period, dt, sample_count must be positive")
        ratio = self.sample_period / self.dt
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"sample_period {self.sample_period} must be an integer multiple "
                f"of dt {self.dt}"
            )
        if self.duration is not None and self.span > self.duration + 1e-12:
            raise ValueError(
                f"sample_count * sample_period = {self.span} exceeds duration "
                f"{self.duration}"
            )

    @property
    def steps_per_sample(self) -> int:
        return int(round(self.sample_period / self.dt))

    @property
    def span(self) -> float:
        """Time of the last sample; samples sit at t_j = (j+1) * period."""
        return self.sample_count * self.sample_period

    def describe(self) -> dict:
        return {
            "mode": self.mode,
            "sample_period": self.sample_period,
            "sample_count": self.sample_count,
            "dt": self.dt,
            "duration": self.duration if self.duration is not None else self.span,
            "noise_std_q": self.noise_std_q,
            "noise_std_qd": self.noise_std_qd,
            "seed": self.seed,
        }


@dataclass
class GenerationReport:
    plan: dict
    total: int
    dropped: int = 0
    dropped_indices: list[int] = field(default_factory=list)


def residual_torque(est_model: ManipulatorModel, q, qd, qdd, tau_applied) -> np.ndarray:
    """tau_tilde = tau_applied - estimated inverse dynamics at (q, qd, qdd)."""
    return np.asarray(tau_applied, dtype=float) - est_model.inverse_dynamics(q, qd, qdd)


class _ConstantTorque:
    """Open-loop policy of the grid: every cell holds its own torque."""

    mode = "deterministic"

    def __init__(self, tau: np.ndarray):
        self.out = ControlOutput(drift=tau)

    def output(self, state, ref, include_std=True) -> ControlOutput:
        return self.out


def generate_open_loop(plan: OpenLoopPlan, true_model: ManipulatorModel,
                       est_model: ManipulatorModel) -> tuple[TrainingSet, GenerationReport]:
    """Run the torque x position grid and collect one residual sample per cell.

    Grid order is torque-major.  Cells that diverge during the hold are
    dropped and counted.  Per-cell sensor noise (if configured) draws from
    default_rng(seed + cell_index), so generation order cannot matter.
    """
    if true_model.n != 1 or est_model.n != 1:
        raise ValueError("open-loop grid excitation is defined for 1-dof models")
    taus = np.repeat(plan.torques, plan.positions.size)[:, None]
    q = np.tile(plan.positions, plan.torques.size)[:, None]
    qd = np.zeros_like(q)
    hold = SimConfig(dt=plan.dt, duration=plan.hold_duration)
    q, qd, alive, _ = _integrate(true_model, _ConstantTorque(taus), None, hold,
                                 q, qd, None)

    qdd = true_model.forward_dynamics(q, qd, taus)
    q_meas, qd_meas = q.copy(), qd.copy()
    if plan.noise_std_q > 0 or plan.noise_std_qd > 0:
        for i in range(q.shape[0]):
            cell_rng = np.random.default_rng(plan.seed + i)
            q_meas[i] += cell_rng.normal(0.0, plan.noise_std_q, 1)
            qd_meas[i] += cell_rng.normal(0.0, plan.noise_std_qd, 1)
    resid = residual_torque(est_model, q_meas, qd_meas, qdd, taus)

    keep = np.flatnonzero(alive)
    inputs = np.concatenate([qdd, qd_meas, q_meas], axis=1)[keep].T
    outputs = resid[keep]
    report = GenerationReport(
        plan=plan.describe(),
        total=plan.cells,
        dropped=int(plan.cells - keep.size),
        dropped_indices=[int(i) for i in np.flatnonzero(~alive)],
    )
    return TrainingSet(inputs, outputs), report


def generate_closed_loop(plan: ClosedLoopPlan, true_model: ManipulatorModel,
                         est_model: ManipulatorModel, controller,
                         ref: ReferenceTrajectory) -> tuple[TrainingSet, GenerationReport]:
    """Sample one closed-loop run at the plan period.

    Sample j sits at t = (j+1) * sample_period (the rest state at t = 0 is
    skipped).  Accelerations come clean from the forward dynamics at the
    recorded state and torque; sensor noise perturbs the recorded q and qd
    before the estimate's inverse dynamics is evaluated.  Samples beyond a
    divergent run's partial trace are dropped and counted.
    """
    duration = plan.duration if plan.duration is not None else plan.span
    config = SimConfig(dt=plan.dt, duration=duration, integrator="rk4",
                       realizations=1, base_seed=plan.seed)
    result = simulate(true_model, controller, ref, config)

    stride = plan.steps_per_sample
    idx = (np.arange(plan.sample_count) + 1) * stride
    valid = idx < result.t.shape[0]
    kept = idx[valid]

    q = result.q[kept]
    qd = result.qd[kept]
    tau = result.tau[kept]
    qdd = true_model.forward_dynamics(q, qd, tau)

    rng = np.random.default_rng(plan.seed)
    q_meas = q + rng.normal(0.0, plan.noise_std_q, q.shape) if plan.noise_std_q > 0 else q.copy()
    qd_meas = qd + rng.normal(0.0, plan.noise_std_qd, qd.shape) if plan.noise_std_qd > 0 else qd.copy()
    resid = residual_torque(est_model, q_meas, qd_meas, qdd, tau)

    inputs = np.concatenate([qdd, qd_meas, q_meas], axis=1).T
    report = GenerationReport(
        plan=plan.describe(),
        total=plan.sample_count,
        dropped=int(plan.sample_count - kept.size),
        dropped_indices=[int(i) for i in np.flatnonzero(~valid)],
    )
    return TrainingSet(inputs, resid), report
