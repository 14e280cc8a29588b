"""Control laws against hand-evaluated torques and covering-bound oracles.

The feedback terms reduce to matrix arithmetic that is checked against
frozen scalars; the model-error bound is checked on constructions whose
residual is an exact known function of the state (pure inertia scaling,
pure viscous friction, quadratic drag).
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ctgp.control import (ControlError, ControlOutput, CTGPController,
                          ComputedTorqueController, Gains, PDController,
                          ReferenceSample, build_gp_input, estimate_error_bound,
                          verify_conditions)
from ctgp.dynamics import (JointState, PendulumEstimate, RadialSpring,
                           TwoLinkArm, WingModel)
from ctgp.gp import Hyperparameters, MultiGP, TrainingSet, fit


def _ref(n, q=0.0, qd=0.0, qdd=0.0) -> ReferenceSample:
    return ReferenceSample(q=np.full(n, q), qd=np.full(n, qd),
                           qdd=np.full(n, qdd))


# ---------------------------------------------------------------------------
# gains


def test_gains_diagonal_constructor_and_sigma_min():
    g = Gains.diagonal([800.0, 600.0], [5.0, 5.0])
    assert np.array_equal(g.kp, np.diag([800.0, 600.0]))
    assert g.n == 2
    assert g.sigma_min_kd() == pytest.approx(5.0)


def test_gains_validation():
    with pytest.raises(ValueError, match="square"):
        Gains(np.ones((2, 3)), np.eye(2))
    with pytest.raises(ValueError, match="symmetric"):
        Gains(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        Gains(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        Gains(np.diag([np.nan, 1.0]), np.eye(2))
    with pytest.raises(ValueError, match="equal shape"):
        Gains(np.eye(2), np.eye(3))


def test_gains_sigma_min_non_diagonal():
    kd = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = Gains(np.eye(2), kd)
    assert g.sigma_min_kd() == pytest.approx(np.min(np.linalg.eigvalsh(kd)))


# ---------------------------------------------------------------------------
# PD law


def test_pd_zero_error_zero_torque():
    out = PDController(Gains.diagonal([800.0, 600.0], [5.0, 5.0])).output(
        JointState(np.zeros(2), np.zeros(2)), _ref(2))
    assert np.array_equal(out.drift, np.zeros(2))
    assert out.diffusion is None
    assert np.array_equal(out.gp_mean, np.zeros(2))


def test_pd_high_gain_frozen_value():
    # Kp = diag(800, 600), e = (0.1, 0), ed = 0
    out = PDController(Gains.diagonal([800.0, 600.0], [5.0, 5.0])).output(
        JointState(np.array([0.1, 0.0]), np.zeros(2)), _ref(2))
    assert out.drift == pytest.approx(np.array([-80.0, 0.0]), abs=1e-12)


def test_pd_low_gain_frozen_value():
    out = PDController(Gains.diagonal([20.0, 15.0], [5.0, 5.0])).output(
        JointState(np.array([0.1, 0.0]), np.zeros(2)), _ref(2))
    assert out.drift == pytest.approx(np.array([-2.0, 0.0]), abs=1e-12)


def test_pd_damping_term():
    out = PDController(Gains.diagonal([0.001, 0.001], [5.0, 5.0])).output(
        JointState(np.zeros(2), np.array([2.0, -1.0])), _ref(2))
    assert out.drift == pytest.approx(np.array([-10.0, 5.0]), abs=1e-9)


# ---------------------------------------------------------------------------
# computed torque


def test_computed_torque_pendulum_frozen_value():
    # at rest on a zero reference with qdd_d = 1: tau = 0.9 * 1
    out = ComputedTorqueController(PendulumEstimate(), Gains.diagonal([5.0], [5.0])).output(
        JointState(np.zeros(1), np.zeros(1)), _ref(1, qdd=1.0))
    assert out.drift[0] == pytest.approx(0.9, abs=1e-12)


def test_computed_torque_zero_reference_outputs_static_compensation():
    est = TwoLinkArm(spring=RadialSpring((0.45, -0.15), 0.1, 15.0, 0.0),
                     viscous=0.0, coulomb=0.0)
    out = ComputedTorqueController(est, Gains.diagonal([20.0, 15.0], [5.0, 5.0])).output(
        JointState(np.zeros(2), np.zeros(2)), _ref(2))
    assert np.array_equal(out.drift, est.gravity_vector(np.zeros(2)))


def test_computed_torque_perfect_model_reproduces_desired_acceleration():
    """est = true and on-reference state: applying tau to the plant gives
    exactly the desired acceleration (feedback terms are zero)."""
    model = TwoLinkArm(viscous=0.0, coulomb=0.0, spring=None)
    gains = Gains.diagonal([20.0, 15.0], [5.0, 5.0])
    rng = np.random.default_rng(8)
    for _ in range(10):
        q = rng.uniform(-math.pi, math.pi, 2)
        qd = rng.uniform(-3.0, 3.0, 2)
        qdd = rng.uniform(-5.0, 5.0, 2)
        ref = ReferenceSample(q=q, qd=qd, qdd=qdd)
        out = ComputedTorqueController(model, gains).output(JointState(q, qd), ref)
        assert model.forward_dynamics(q, qd, out.drift) == pytest.approx(
            qdd, abs=1e-10)


def test_computed_torque_uses_measured_velocity_in_coriolis():
    # C(q, qd_measured) multiplies qd_desired
    model = TwoLinkArm(viscous=0.0, coulomb=0.0, spring=None)
    gains = Gains.diagonal([1e-9, 1e-9], [1e-9, 1e-9])
    q = np.array([0.3, 1.1])
    qd = np.array([2.0, -1.0])
    ref = ReferenceSample(q=q, qd=np.array([0.5, 0.25]), qdd=np.zeros(2))
    out = ComputedTorqueController(model, gains).output(JointState(q, qd), ref)
    expected = (model.coriolis_matrix(q, qd) @ ref.qd
                + model.gravity_vector(q))
    # feedback contributes < 1e-8 through the epsilon gains
    assert out.drift == pytest.approx(expected, abs=1e-8)


# ---------------------------------------------------------------------------
# CT-GP law


def test_ct_gp_without_data_matches_computed_torque_bitwise():
    est = PendulumEstimate()
    gains = Gains.diagonal([5.0], [5.0])
    state = JointState(np.array([0.2]), np.array([-0.4]))
    ref = _ref(1, q=0.1, qd=0.3, qdd=1.0)
    base = ComputedTorqueController(est, gains).output(state, ref)
    for gp in (None, MultiGP.empty(3, 1)):
        out = CTGPController(est, gp, gains).output(state, ref)
        assert np.array_equal(out.drift, base.drift)
        assert out.diffusion is None
        assert np.array_equal(out.gp_std, np.zeros(1))


def test_ct_gp_without_data_stochastic_has_zero_diffusion():
    out = CTGPController(PendulumEstimate(), MultiGP.empty(3, 1),
                         Gains.diagonal([5.0], [5.0]), mode="stochastic").output(
        JointState(np.zeros(1), np.zeros(1)), _ref(1))
    assert np.array_equal(out.diffusion, np.zeros((1, 1)))


def test_ct_gp_rejects_unknown_mode():
    with pytest.raises(ControlError, match="mode"):
        CTGPController(PendulumEstimate(), None,
                       Gains.diagonal([5.0], [5.0]), mode="chaotic")


def _wing_residual_gp():
    """GP trained on the exact zero-airspeed wing residual over a dense grid.

    residual(qdd, qd, q) = 0.1 qdd + 0.981 sin q, velocity-independent.
    """
    grid = np.linspace(-1.0, 1.0, 6)
    qdd, qd, q = np.meshgrid(grid, grid, 0.5 * grid, indexing="ij")
    x = np.stack([qdd.ravel(), qd.ravel(), q.ravel()])
    y = (0.1 * x[0] + 0.981 * np.sin(x[2]))[:, None]
    return fit(TrainingSet(x, y), [Hyperparameters(1.5, 4.0, 1e-8)])


def test_ct_gp_dense_training_compensates_residual():
    """At a training state the GP mean reproduces the true residual, so the
    CT-GP torque is the computed torque plus the model error there."""
    gp = _wing_residual_gp()
    est = WingModel(airspeed=0.0).estimate()
    gains = Gains.diagonal([5.0], [5.0])
    state = JointState(np.array([0.5]), np.array([0.2]))
    ref = ReferenceSample(q=np.array([0.5]), qd=np.array([0.2]),
                          qdd=np.array([0.6]))
    out = CTGPController(est, gp, gains).output(state, ref)
    base = ComputedTorqueController(est, gains).output(state, ref)
    residual = 0.1 * 0.6 + 0.981 * math.sin(0.5)
    assert out.drift[0] == pytest.approx(base.drift[0] + residual, abs=2e-3)
    assert out.gp_mean[0] == pytest.approx(residual, abs=2e-3)


def test_ct_gp_stochastic_shares_drift_with_deterministic():
    gp = _wing_residual_gp()
    est = WingModel(airspeed=0.0).estimate()
    gains = Gains.diagonal([5.0], [5.0])
    state = JointState(np.array([0.31]), np.array([-0.7]))
    ref = _ref(1, q=0.2, qd=0.1, qdd=0.4)
    det = CTGPController(est, gp, gains, mode="deterministic").output(state, ref)
    sto = CTGPController(est, gp, gains, mode="stochastic").output(state, ref)
    assert np.array_equal(sto.drift, det.drift)
    assert not hasattr(sto, "torque")  # the drift is the only torque
    assert sto.diffusion.shape == (1, 1)
    assert sto.diffusion[0, 0] == sto.gp_std[0] >= 0.0
    # diagonal diffusion: no cross terms by construction
    gp2 = MultiGP.empty(6, 2)
    sto2 = CTGPController(TwoLinkArm().rigid_estimate(), gp2,
                          Gains.diagonal([20.0, 15.0], [5.0, 5.0]),
                          mode="stochastic").output(JointState(np.zeros(2), np.zeros(2)), _ref(2))
    assert np.array_equal(sto2.diffusion, np.zeros((2, 2)))


def test_ct_gp_skipping_std_keeps_the_mean():
    gp = _wing_residual_gp()
    est = WingModel(airspeed=0.0).estimate()
    gains = Gains.diagonal([5.0], [5.0])
    state = JointState(np.array([0.15]), np.array([0.0]))
    ref = _ref(1, qdd=0.3)
    full = CTGPController(est, gp, gains).output(state, ref, include_std=True)
    lean = CTGPController(est, gp, gains).output(state, ref, include_std=False)
    assert np.array_equal(lean.drift, full.drift)
    assert np.array_equal(lean.gp_std, np.zeros(1))
    assert full.gp_std[0] > 0.0


def test_ct_gp_continuous_in_position():
    """Finite Lipschitz quotient under a 1e-6 position perturbation."""
    gp = _wing_residual_gp()
    est = WingModel(airspeed=0.0).estimate()
    gains = Gains.diagonal([5.0], [5.0])
    ref = _ref(1, qdd=0.5)
    delta = 1e-6
    ctl = CTGPController(est, gp, gains)
    t0 = ctl.output(JointState(np.array([0.4]), np.zeros(1)), ref).drift[0]
    t1 = ctl.output(JointState(np.array([0.4 + delta]), np.zeros(1)), ref).drift[0]
    quotient = abs(t1 - t0) / delta
    assert math.isfinite(quotient)
    assert quotient < 1e3


def test_controller_objects_match_free_functions():
    assert PDController(Gains.diagonal([5.0], [5.0])).mode == "deterministic"


def test_build_gp_input_stacking_order():
    x = build_gp_input(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                       np.array([5.0, 6.0]))
    assert np.array_equal(x, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    batch = build_gp_input(np.zeros(2), np.zeros(2), np.ones((7, 2)))
    assert batch.shape == (7, 6)


def test_control_output_defaults_zero_traces():
    out = ControlOutput(drift=np.ones(2))
    assert np.array_equal(out.gp_mean, np.zeros(2))
    assert np.array_equal(out.gp_std, np.zeros(2))
    assert out.diffusion is None


# ---------------------------------------------------------------------------
# model-error bound


def test_error_bound_perfect_model_is_zero():
    model = TwoLinkArm(viscous=0.0, coulomb=0.0, spring=None)
    bound = estimate_error_bound(model, model, (1.0, 1.0, 1.0),
                                 probe_count=500, seed=0)
    assert bound.alpha == 0.0
    assert bound.beta == 0.0
    assert bound.max_residual == 0.0
    assert not bound.superlinear_warning


def test_error_bound_wing_zero_airspeed():
    """Velocity-independent residual 0.1|qdd_d| + 0.981|sin q| gives
    beta = 0 and alpha near 0.1 c_qdd + 0.981."""
    wing = WingModel(airspeed=0.0)
    bound = estimate_error_bound(wing, wing.estimate(), (1.5, 1.5, 1.5),
                                 probe_count=2000, seed=0)
    assert bound.beta == 0.0
    expected_alpha = 0.1 * 1.5 + 0.981
    assert bound.alpha == pytest.approx(expected_alpha, rel=0.1)
    assert bound.alpha <= expected_alpha + 1e-9


def test_error_bound_viscous_friction_sets_velocity_slope():
    """Residual exactly 0.2 qd: the covering line has slope 0.2."""
    true_model = TwoLinkArm(viscous=0.2, coulomb=0.0, spring=None)
    bound = estimate_error_bound(true_model, true_model.rigid_estimate(),
                                 (1.0, 1.0, 1.0), probe_count=2000, seed=1)
    assert bound.beta == pytest.approx(0.2, rel=1e-6)
    assert bound.alpha == pytest.approx(0.0, abs=1e-9)
    assert not bound.superlinear_warning
    # the fitted line covers the most extreme probe
    assert bound.covers(bound.max_speed, bound.max_residual)


def test_error_bound_covers_constructed_worst_case():
    # alpha must absorb whatever the slope misses at the speed cap
    true_model = TwoLinkArm(viscous=0.2, coulomb=0.1, spring=None)
    bound = estimate_error_bound(true_model, true_model.rigid_estimate(),
                                 (1.0, 1.0, 1.0), probe_count=1000, seed=3)
    assert bound.alpha >= 0.0 and bound.beta >= 0.0
    assert bound.max_residual <= bound.alpha + bound.beta * bound.max_speed + 1e-12


def test_error_bound_flags_superlinear_growth():
    class QuadraticDragArm(TwoLinkArm):
        def gravity_vector(self, q, qd=None):
            g = super().gravity_vector(q, qd)
            if qd is not None:
                g = g + 5.0 * qd * np.abs(qd)
            return g

    plant = QuadraticDragArm(viscous=0.0, coulomb=0.0, spring=None)
    bound = estimate_error_bound(plant, plant.rigid_estimate(),
                                 (1.0, 1.0, 1.0), probe_count=2000, seed=0,
                                 velocity_cap=6.0)
    assert bound.superlinear_warning


def test_error_bound_single_probe_degenerates_to_intercept():
    wing = WingModel(airspeed=0.0)
    bound = estimate_error_bound(wing, wing.estimate(), (1.0, 1.0, 1.0),
                                 probe_count=1, seed=5)
    assert bound.beta == 0.0
    assert bound.alpha == bound.max_residual


# ---------------------------------------------------------------------------
# tracking conditions


def test_verify_conditions_pass_case():
    from ctgp.control import ModelErrorBound
    bound = ModelErrorBound(alpha=1.0, beta=0.2, superlinear_warning=False,
                            max_residual=1.5, max_speed=2.0)
    report = verify_conditions(Gains.diagonal([20.0, 15.0], [5.0, 5.0]),
                               bound, (0.5, 1.0, 2.0))
    assert report.passed
    assert report.gain_margin == pytest.approx(4.8)
    assert (report.c_q, report.c_qd, report.c_qdd) == (0.5, 1.0, 2.0)
    assert report.summary().count("PASS") == 5


def test_verify_conditions_fail_on_small_damping():
    from ctgp.control import ModelErrorBound
    bound = ModelErrorBound(alpha=1.0, beta=0.2, superlinear_warning=False,
                            max_residual=1.5, max_speed=2.0)
    report = verify_conditions(Gains.diagonal([20.0, 15.0], [0.1, 0.1]),
                               bound, (0.5, 1.0, 2.0))
    assert not report.passed
    assert report.gain_margin == pytest.approx(0.1 - 0.2)
    assert "FAIL" in report.summary()


def test_verify_conditions_fail_on_superlinear_bound():
    from ctgp.control import ModelErrorBound
    bound = ModelErrorBound(alpha=1.0, beta=0.2, superlinear_warning=True,
                            max_residual=1.5, max_speed=2.0)
    report = verify_conditions(Gains.diagonal([20.0], [5.0]), bound,
                               (0.5, 1.0, 2.0))
    assert not report.affine_bound_sound
    assert not report.passed


def test_verify_conditions_fail_on_unbounded_reference():
    from ctgp.control import ModelErrorBound
    bound = ModelErrorBound(alpha=0.0, beta=0.0, superlinear_warning=False,
                            max_residual=0.0, max_speed=0.0)
    report = verify_conditions(Gains.diagonal([20.0], [5.0]), bound,
                               (math.inf, 1.0, 2.0))
    assert not report.bounded_reference
    assert not report.passed
