"""Excitation and residual recording against algebraic oracles.

Residuals have the closed form tau - tau_hat, so every emitted sample can
be re-derived from the stored state and the two model definitions; the
single-cell wing oracle below was evaluated from those definitions alone.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ctgp.control import Gains, PDController
from ctgp.dynamics import (ManipulatorModel, PendulumEstimate, RadialSpring,
                           TwoLinkArm, WingModel, aero_torque)
from ctgp.sim import ReferenceTrajectory
from ctgp.training import (ClosedLoopPlan, OpenLoopPlan, generate_closed_loop,
                           generate_open_loop, residual_torque)


def _arm() -> TwoLinkArm:
    spring = RadialSpring(anchor=(0.45, -0.15), rest_length=0.1,
                          k1=15.0, k3=150.0)
    return TwoLinkArm(spring=spring)


def _small_plan(**kwargs) -> OpenLoopPlan:
    return OpenLoopPlan.grid((-4.0, 4.0), 5, (-2.0, 2.0), 4, **kwargs)


# ---------------------------------------------------------------------------
# plan containers


def test_open_loop_plan_grid_counts():
    plan = _small_plan()
    assert plan.cells == 20
    assert plan.torques[0] == -4.0 and plan.torques[-1] == 4.0
    assert plan.positions.size == 4


def test_open_loop_plan_validation():
    with pytest.raises(ValueError):
        OpenLoopPlan(torques=np.array([]), positions=np.array([0.0]))
    with pytest.raises(ValueError):
        OpenLoopPlan(torques=np.array([[1.0]]), positions=np.array([0.0]))
    with pytest.raises(ValueError):
        OpenLoopPlan(torques=np.array([1.0]), positions=np.array([np.inf]))
    with pytest.raises(ValueError, match="hold_duration"):
        OpenLoopPlan(torques=np.array([1.0]), positions=np.array([0.0]),
                     hold_duration=1e-4, dt=1e-3)


def test_closed_loop_plan_validation():
    with pytest.raises(ValueError, match="integer multiple"):
        ClosedLoopPlan(sample_period=0.0305, dt=1e-3)
    with pytest.raises(ValueError, match="exceeds duration"):
        ClosedLoopPlan(sample_period=0.03, sample_count=351, duration=1.0)
    with pytest.raises(ValueError):
        ClosedLoopPlan(sample_count=0)
    # sample_period / dt overflows to inf, which round() cannot take
    with pytest.raises(ValueError, match="integer multiple"):
        ClosedLoopPlan(sample_period=1e308, dt=1e-3)
    # exact fit is allowed
    ClosedLoopPlan(sample_period=0.03, sample_count=10, duration=0.3)


def test_plan_describe_round_trip_keys():
    desc = _small_plan(seed=9).describe()
    assert desc["mode"] == "open-loop"
    assert desc["torque_count"] == 5 and desc["position_count"] == 4
    assert desc["seed"] == 9
    desc2 = ClosedLoopPlan().describe()
    assert desc2["mode"] == "closed-loop"
    assert desc2["sample_count"] == 351
    assert desc2["sample_period"] == 0.03


def test_residual_torque_formula():
    est = PendulumEstimate()
    q, qd, qdd = np.array([0.4]), np.array([1.0]), np.array([2.0])
    tau = np.array([3.0])
    expected = tau - (0.9 * qdd + 0.9 * 9.81 * np.sin(q))
    assert residual_torque(est, q, qd, qdd, tau) == pytest.approx(
        expected, abs=1e-14)


# ---------------------------------------------------------------------------
# open-loop generation


def test_open_loop_perfect_estimate_zero_residuals():
    wing = WingModel()
    train, report = generate_open_loop(_small_plan(), wing, wing)
    assert report.dropped == 0
    assert train.size == 20
    assert np.max(np.abs(train.outputs)) < 1e-10


def test_open_loop_rest_cell_stays_at_rest():
    wing = WingModel(airspeed=0.0)
    plan = OpenLoopPlan(torques=np.array([0.0]), positions=np.array([0.0]))
    train, _ = generate_open_loop(plan, wing, wing.estimate())
    qdd, qd, q = train.inputs[:, 0]
    assert (qdd, qd, q) == (0.0, 0.0, 0.0)
    assert train.outputs[0, 0] == 0.0


def test_open_loop_single_cell_matches_residual_oracle():
    """One wing cell: residual = 0.1 qdd + 0.981 sin q + aero torque, all
    evaluated at the recorded end-of-hold state."""
    wing = WingModel()
    plan = OpenLoopPlan(torques=np.array([3.0]), positions=np.array([0.7]))
    train, report = generate_open_loop(plan, wing, wing.estimate())
    assert report.total == 1 and report.dropped == 0
    qdd, qd, q = train.inputs[:, 0]
    expected = (0.1 * qdd + 0.1 * 9.81 * math.sin(q)
                + aero_torque(wing.aero_table, q, wing.airspeed))
    assert train.outputs[0, 0] == pytest.approx(expected, abs=1e-10)


def test_open_loop_residual_identity():
    """tau_tilde + est inverse dynamics at the stored state = applied tau."""
    wing = WingModel()
    est = wing.estimate()
    plan = _small_plan(noise_std_q=1e-3, noise_std_qd=1e-2, seed=4)
    train, _ = generate_open_loop(plan, wing, est)
    taus = np.repeat(plan.torques, plan.positions.size)
    qdd, qd, q = train.inputs[0], train.inputs[1], train.inputs[2]
    back = train.outputs[:, 0] + est.inverse_dynamics(
        q[:, None], qd[:, None], qdd[:, None])[:, 0]
    assert back == pytest.approx(taus, abs=1e-8)


def test_open_loop_grid_is_torque_major():
    # cells run (tau0, p0), (tau0, p1), (tau1, p0), ...; with zero torque
    # the wing barely moves, so the position column exposes the order
    wing = WingModel(airspeed=0.0)
    plan = OpenLoopPlan(torques=np.array([0.0, 2.0]),
                        positions=np.array([0.0, math.pi]))
    train, _ = generate_open_loop(plan, wing, wing)
    q = train.inputs[2]
    assert abs(q[0] - 0.0) < 1e-9
    assert abs(q[1] - math.pi) < 1e-9
    assert abs(q[2] - 0.0) > 0.01  # torque 2 moved this cell away


def test_open_loop_deterministic_csv_bytes(tmp_path):
    plan = _small_plan(noise_std_q=1e-3, noise_std_qd=1e-2, seed=11)
    wing = WingModel()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_open_loop(plan, wing, wing.estimate())[0].save_csv(a)
    generate_open_loop(plan, wing, wing.estimate())[0].save_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_open_loop_seed_changes_noisy_data():
    wing = WingModel()
    t1, _ = generate_open_loop(_small_plan(noise_std_q=1e-3, seed=1),
                               wing, wing.estimate())
    t2, _ = generate_open_loop(_small_plan(noise_std_q=1e-3, seed=2),
                               wing, wing.estimate())
    assert not np.array_equal(t1.inputs, t2.inputs)


class _BlowUpModel(ManipulatorModel):
    """Cubic anti-spring with finite-time escape away from the origin."""

    n = 1

    def mass_matrix(self, q):
        q = np.asarray(q, dtype=float)
        return np.ones(q.shape[:-1] + (1, 1))

    def coriolis_matrix(self, q, qd):
        q = np.asarray(q, dtype=float)
        return np.zeros(q.shape[:-1] + (1, 1))

    def gravity_vector(self, q, qd=None):
        q = np.asarray(q, dtype=float)
        return -1e4 * q**3


def test_open_loop_divergent_cells_dropped_and_counted():
    plan = OpenLoopPlan(torques=np.array([0.0]),
                        positions=np.array([0.0, 1.0]), hold_duration=0.5)
    model = _BlowUpModel()
    with np.errstate(all="ignore"):
        train, report = generate_open_loop(plan, model, model)
    assert report.total == 2
    assert report.dropped == 1
    assert report.dropped_indices == [1]
    assert train.size == 1
    assert np.all(np.isfinite(train.inputs))


def test_open_loop_rejects_multi_joint_models():
    with pytest.raises(ValueError, match="1-dof"):
        generate_open_loop(_small_plan(), _arm(), _arm().rigid_estimate())


# ---------------------------------------------------------------------------
# closed-loop generation


def _arm_setup():
    plant = _arm()
    est = plant.rigid_estimate()
    gains = Gains.diagonal([800.0, 600.0], [5.0, 5.0])
    ref = ReferenceTrajectory(np.array([math.pi / 5.0, math.pi / 5.0]),
                              np.array([1.0, 2.0]), np.array([0.0, 0.0]))
    return plant, est, PDController(gains), ref


def test_closed_loop_perfect_estimate_zero_residuals():
    plant, _, controller, ref = _arm_setup()
    plan = ClosedLoopPlan(sample_period=0.03, sample_count=40,
                          noise_std_q=0.0, noise_std_qd=0.0, seed=0)
    train, report = generate_closed_loop(plan, plant, plant, controller, ref)
    assert report.dropped == 0
    assert train.size == 40
    assert np.max(np.abs(train.outputs)) < 1e-10


def test_closed_loop_residual_is_friction_plus_spring():
    """Rigid estimate shares H and C with the plant, so the residual is
    exactly the plant's folded friction + band torque at the sample state."""
    plant, est, controller, ref = _arm_setup()
    plan = ClosedLoopPlan(sample_period=0.03, sample_count=60,
                          noise_std_q=0.0, noise_std_qd=0.0, seed=0)
    train, _ = generate_closed_loop(plan, plant, est, controller, ref)
    q = train.inputs[4:6].T
    qd = train.inputs[2:4].T
    expected = plant.gravity_vector(q, qd)
    assert train.outputs == pytest.approx(expected, abs=1e-10)


def test_closed_loop_residual_identity_with_noise():
    plant, est, controller, ref = _arm_setup()
    plan = ClosedLoopPlan(sample_period=0.03, sample_count=30, seed=3)
    train, _ = generate_closed_loop(plan, plant, est, controller, ref)
    qdd = train.inputs[0:2].T
    qd = train.inputs[2:4].T
    q = train.inputs[4:6].T
    back = train.outputs + est.inverse_dynamics(q, qd, qdd)
    # applied torques are not stored; recover them from a clean rerun
    clean = ClosedLoopPlan(sample_period=0.03, sample_count=30,
                           noise_std_q=0.0, noise_std_qd=0.0, seed=3)
    train2, _ = generate_closed_loop(clean, plant, plant, controller, ref)
    tau = train2.outputs + plant.inverse_dynamics(
        train2.inputs[4:6].T, train2.inputs[2:4].T, train2.inputs[0:2].T)
    assert back == pytest.approx(tau, abs=1e-8)


def test_closed_loop_samples_skip_rest_state():
    """Sample j sits at t = (j+1) * period; t = 0 is never recorded."""
    plant, _, controller, ref = _arm_setup()
    plan = ClosedLoopPlan(sample_period=0.03, sample_count=5,
                          noise_std_q=0.0, noise_std_qd=0.0, seed=0)
    train, _ = generate_closed_loop(plan, plant, plant, controller, ref)
    # the plant starts at rest at q = 0; by t = 0.03 it has moved
    q = train.inputs[4:6].T
    assert np.all(np.linalg.norm(q, axis=1) > 1e-6)


def test_closed_loop_deterministic_csv_bytes(tmp_path):
    plant, est, controller, ref = _arm_setup()
    plan = ClosedLoopPlan(sample_period=0.03, sample_count=25, seed=42)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    generate_closed_loop(plan, plant, est, controller, ref)[0].save_csv(a)
    generate_closed_loop(plan, plant, est, controller, ref)[0].save_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_closed_loop_noise_perturbs_recorded_state_only():
    """Noise moves the measured (q, qd) fed to the estimate, not the torque
    or the acceleration, so outputs shift accordingly."""
    plant, est, controller, ref = _arm_setup()
    kwargs = dict(sample_period=0.03, sample_count=20, seed=6)
    noisy, _ = generate_closed_loop(
        ClosedLoopPlan(noise_std_q=1e-3, noise_std_qd=1e-2, **kwargs),
        plant, est, controller, ref)
    clean, _ = generate_closed_loop(
        ClosedLoopPlan(noise_std_q=0.0, noise_std_qd=0.0, **kwargs),
        plant, est, controller, ref)
    # accelerations identical (taken pre-noise), positions/velocities not
    assert np.array_equal(noisy.inputs[0:2], clean.inputs[0:2])
    assert not np.array_equal(noisy.inputs[2:4], clean.inputs[2:4])
    assert not np.array_equal(noisy.inputs[4:6], clean.inputs[4:6])
    assert np.max(np.abs(noisy.inputs[4:6] - clean.inputs[4:6])) < 1e-2
