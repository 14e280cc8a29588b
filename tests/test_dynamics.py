"""Manipulator models against finite-difference mechanics oracles.

The inertia matrix is checked against a numeric Lagrangian (second
differences of kinetic energy, exact for a quadratic form), the Coriolis
matrix against the skew-symmetry of Hdot - 2C with Hdot taken by central
differences, and the aerodynamic torque against a hand-evaluated force
decomposition at a table node.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ctgp.dynamics import (AeroTable, DynamicsError, JointState,
                           PendulumEstimate, RadialSpring, TwoLinkArm,
                           WingModel, aero_torque,
                           check_structural_properties)


def _arm(spring=True) -> TwoLinkArm:
    s = RadialSpring(anchor=(0.45, -0.15), rest_length=0.1, k1=15.0, k3=150.0)
    return TwoLinkArm(spring=s if spring else None)


def _wing(airspeed=5.0) -> WingModel:
    return WingModel(airspeed=airspeed)


# ---------------------------------------------------------------------------
# joint state container


def test_joint_state_coerces_to_float_arrays():
    s = JointState([1, 2], [3, 4])
    assert s.q.dtype == float and s.qd.dtype == float
    # positions and velocities only: accelerations are not part of a state
    assert not hasattr(s, "qdd")


def test_joint_state_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        JointState(np.zeros(2), np.zeros(3))
    with pytest.raises(TypeError):
        JointState(np.zeros(2), np.zeros(2), qdd=np.zeros(3))


def test_joint_state_rejects_non_finite():
    with pytest.raises(ValueError):
        JointState(np.array([np.nan, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        JointState(np.zeros(2), np.array([np.inf, 0.0]))


# ---------------------------------------------------------------------------
# mass matrix


def test_wing_mass_matrix_is_constant_unit_inertia():
    model = _wing()
    for q in (np.zeros(1), np.array([1.3]), np.array([-2.9])):
        assert np.array_equal(model.mass_matrix(q), np.array([[1.0]]))


def test_constant_inertia_pair_shared_by_the_one_dof_models():
    # one pair of functions, assigned in each class body: per-class method
    # instrumentation reads them from the class's own namespace
    for name in ("mass_matrix", "coriolis_matrix"):
        assert WingModel.__dict__[name] is PendulumEstimate.__dict__[name]
    est = PendulumEstimate(inertia=0.9)
    q = np.zeros((4, 1))
    assert np.array_equal(est.mass_matrix(q), np.full((4, 1, 1), 0.9))
    assert np.array_equal(est.coriolis_matrix(q, q), np.zeros((4, 1, 1)))


def test_arm_mass_matrix_straight_configuration_values():
    """Frozen closed-form entries at q2 = 0 (hand evaluation).

    a + 2b = 1.5*0.15^2 + 0.01125 + 0.0075 + 1.0*(0.3^2 + 0.15^2) + 2*0.045
           = 0.255, off-diagonal d + b = 0.075, d = 0.03.
    """
    h = _arm().mass_matrix(np.zeros(2))
    assert h == pytest.approx(np.array([[0.255, 0.075], [0.075, 0.03]]),
                              abs=1e-12)


def _lagrangian_mass_oracle(model, q, h=1e-3):
    """H_ij = d^2 T / dqd_i dqd_j by central second differences.

    Kinetic energy is exactly quadratic in qd, so the stencil is exact up
    to roundoff for any step size.
    """
    n = model.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for si in (+1.0, -1.0):
                for sj in (+1.0, -1.0):
                    qd = np.zeros(n)
                    qd[i] += si * h
                    qd[j] += sj * h
                    acc += si * sj * model.kinetic_energy(q, qd)
            out[i, j] = acc / (4.0 * h * h)
    return out


def test_arm_mass_matrix_matches_numeric_lagrangian():
    model = _arm()
    rng = np.random.default_rng(3)
    for q in [np.array([0.0, math.pi / 2.0]), *rng.uniform(-math.pi, math.pi, (10, 2))]:
        assert model.mass_matrix(q) == pytest.approx(
            _lagrangian_mass_oracle(model, q), abs=1e-9)


def test_mass_matrix_symmetric_and_positive_definite():
    rng = np.random.default_rng(0)
    q = rng.uniform(-math.pi, math.pi, (1000, 2))
    h = _arm().mass_matrix(q)
    assert np.max(np.abs(h - np.swapaxes(h, -1, -2))) == 0.0
    assert np.min(np.linalg.eigvalsh(h)) > 0.0


def test_mass_matrix_batch_shape():
    assert _arm().mass_matrix(np.zeros((4, 7, 2))).shape == (4, 7, 2, 2)
    assert _wing().mass_matrix(np.zeros((5, 1))).shape == (5, 1, 1)


# ---------------------------------------------------------------------------
# Coriolis matrix


def test_coriolis_zero_velocity_gives_zero_matrix():
    model = _arm()
    q = np.array([0.7, -1.1])
    assert np.array_equal(model.coriolis_matrix(q, np.zeros(2)), np.zeros((2, 2)))
    assert np.array_equal(_wing().coriolis_matrix(np.array([1.0]),
                                                  np.array([2.0])),
                          np.zeros((1, 1)))


def test_coriolis_linear_in_velocity():
    """C(q, a)b = C(q, b)a and additivity, both to 1e-10."""
    model = _arm()
    rng = np.random.default_rng(11)
    q = rng.uniform(-math.pi, math.pi, (200, 2))
    a = rng.uniform(-5.0, 5.0, (200, 2))
    b = rng.uniform(-5.0, 5.0, (200, 2))
    cab = np.einsum("sij,sj->si", model.coriolis_matrix(q, a), b)
    cba = np.einsum("sij,sj->si", model.coriolis_matrix(q, b), a)
    assert np.max(np.abs(cab - cba)) < 1e-10
    add = model.coriolis_matrix(q, a + b) - (
        model.coriolis_matrix(q, a) + model.coriolis_matrix(q, b))
    assert np.max(np.abs(add)) < 1e-10


def test_skew_symmetry_against_finite_difference_hdot():
    """|v'(Hdot - 2C)v| < 1e-8 with Hdot by central differences along qd."""
    model = _arm()
    rng = np.random.default_rng(21)
    eps = 1e-6
    for _ in range(50):
        q = rng.uniform(-math.pi, math.pi, 2)
        qd = rng.uniform(-5.0, 5.0, 2)
        v = rng.uniform(-1.0, 1.0, 2)
        hdot = np.zeros((2, 2))
        for j in range(2):
            dq = np.zeros(2)
            dq[j] = eps
            hdot += (model.mass_matrix(q + dq)
                     - model.mass_matrix(q - dq)) / (2.0 * eps) * qd[j]
        m = hdot - 2.0 * model.coriolis_matrix(q, qd)
        v = v / np.linalg.norm(v)
        assert abs(v @ m @ v) < 1e-8


# ---------------------------------------------------------------------------
# gravity vector (configuration forces)


def test_pendulum_estimate_gravity_values():
    est = PendulumEstimate()
    assert est.gravity_vector(np.zeros(1)) == pytest.approx(np.zeros(1), abs=0.0)
    # 0.9 * 9.81 * sin(pi/2)
    assert est.gravity_vector(np.array([math.pi / 2.0]))[0] == pytest.approx(
        8.829, abs=1e-12)


def test_wing_minus_pendulum_residual_at_zero_airspeed():
    # (1.0 - 0.9) * 9.81 * sin(pi/2)
    wing = _wing(airspeed=0.0)
    est = wing.estimate()
    q = np.array([math.pi / 2.0])
    diff = wing.gravity_vector(q) - est.gravity_vector(q)
    assert diff[0] == pytest.approx(0.981, abs=1e-12)


def test_wing_default_estimate_scales():
    est = WingModel(inertia=2.0, mass=3.0, lever=0.5, gravity=9.81).estimate()
    assert est.inertia == pytest.approx(1.8)
    assert est.lever_mass == pytest.approx(0.9 * 3.0 * 0.5)
    assert est.gravity == 9.81


def test_wing_gravity_zero_at_origin_even_with_airflow():
    """At q = 0 the symmetric table gives cl = 0 and the drag line passes
    through the hinge, so gravity and aero torque both vanish."""
    assert _wing(airspeed=5.0).gravity_vector(np.zeros(1))[0] == pytest.approx(
        0.0, abs=1e-15)


def test_arm_friction_decomposition_and_sign():
    model = _arm(spring=False)
    q = np.array([0.4, -0.2])
    rng = np.random.default_rng(5)
    for qd in rng.uniform(-3.0, 3.0, (20, 2)):
        fric = model.gravity_vector(q, qd) - model.gravity_vector(q)
        expected = 0.2 * qd + 0.1 * np.tanh(qd / 0.05)
        assert fric == pytest.approx(expected, abs=1e-15)
        # dissipative: friction torque opposes every moving joint
        moving = np.abs(qd) > 1e-12
        assert np.all(np.sign(fric[moving]) == np.sign(qd[moving]))


def test_arm_coulomb_term_saturates():
    model = _arm(spring=False)
    q = np.zeros(2)
    qd = np.array([10.0, -10.0])
    fric = model.gravity_vector(q, qd) - model.gravity_vector(q)
    assert fric == pytest.approx(0.2 * qd + np.array([0.1, -0.1]), abs=1e-9)


# ---------------------------------------------------------------------------
# aerodynamic table and torque


def test_aero_table_node_values_exact():
    """Node queries return node values with no interpolation-scale error.

    The degree->radian->degree round trip can drift one ulp of angle, and
    +180 wraps onto the -180 node, so interior nodes are checked to 1e-13
    and the 0-degree node (round trip exact) bit-for-bit.
    """
    table = AeroTable.naca0015()
    interior = slice(1, -1)
    cl, cd = table.coefficients(np.radians(table.alpha_deg[interior]))
    assert cl == pytest.approx(table.cl[interior], abs=1e-13)
    assert cd == pytest.approx(table.cd[interior], abs=1e-13)
    zero_idx = table.alpha_deg.size // 2
    assert table.alpha_deg[zero_idx] == 0.0
    cl0, cd0 = table.coefficients(0.0)
    assert (cl0, cd0) == (table.cl[zero_idx], table.cd[zero_idx])


def test_aero_table_zero_angle():
    cl, cd = AeroTable.naca0015().coefficients(0.0)
    assert cl == 0.0
    assert cd == pytest.approx(0.01, abs=1e-15)


def test_aero_table_midpoint_is_mean_of_nodes():
    table = AeroTable.naca0015(step_deg=1.0)
    i = 200  # an arbitrary interior node
    mid = math.radians(0.5 * (table.alpha_deg[i] + table.alpha_deg[i + 1]))
    cl, cd = table.coefficients(mid)
    assert cl == pytest.approx(0.5 * (table.cl[i] + table.cl[i + 1]), rel=1e-12)
    assert cd == pytest.approx(0.5 * (table.cd[i] + table.cd[i + 1]), rel=1e-12)


def test_aero_table_symmetry_on_grid():
    """Synthetic airfoil is symmetric: cl odd, cd even, exactly on nodes."""
    table = AeroTable.naca0015()
    assert np.array_equal(table.cl, -table.cl[::-1])
    assert np.array_equal(table.cd, table.cd[::-1])


def test_aero_table_wraps_angle():
    table = AeroTable.naca0015()
    a = np.array([0.3, -2.0, 1.1])
    cl1, cd1 = table.coefficients(a)
    cl2, cd2 = table.coefficients(a + 2.0 * math.pi)
    assert cl1 == pytest.approx(cl2, abs=1e-12)
    assert cd1 == pytest.approx(cd2, abs=1e-12)


def test_aero_table_rejects_bad_grids():
    with pytest.raises(ValueError):
        AeroTable(np.array([-90.0, 0.0, 90.0]), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        AeroTable(np.array([-180.0, 0.0, 0.0, 180.0]), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        AeroTable(np.array([-180.0, 180.0]), np.zeros(2), np.array([-0.1, 0.0]))
    with pytest.raises(ValueError):
        AeroTable(np.array([-180.0, 180.0]), np.array([np.nan, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        AeroTable(np.array([-180.0, 180.0]), np.zeros(3), np.zeros(2))


def test_aero_table_rejects_non_finite_query():
    with pytest.raises(DynamicsError):
        AeroTable.naca0015().coefficients(np.array([0.1, np.nan]))


def test_aero_table_csv_round_trip(tmp_path):
    table = AeroTable.naca0015(step_deg=5.0)
    path = tmp_path / "aero.csv"
    table.save_csv(path, manifest=("# provenance line",))
    back = AeroTable.load_csv(path)
    assert np.array_equal(back.alpha_deg, table.alpha_deg)
    assert np.array_equal(back.cl, table.cl)
    assert np.array_equal(back.cd, table.cd)


def test_aero_table_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,cl,cd\n0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        AeroTable.load_csv(path)


def test_aero_torque_zero_at_zero_angle():
    assert aero_torque(AeroTable.naca0015(), 0.0, 5.0) == pytest.approx(
        0.0, abs=1e-15)


def test_aero_torque_matches_hand_force_decomposition_at_node():
    """Force balance at the 12-degree node, where no interpolation occurs.

    Free stream along +x, qbar*S = 0.5*1.225*25*0.1 = 1.53125 N; lift is
    perpendicular to the stream (+y for positive cl), drag along it.  The
    chord point sits at (cos q, sin q), so the hinge torque is
    l*(cos q * fy - sin q * fx) and the actuator load is its negative.
    """
    table = AeroTable.naca0015()
    q = math.radians(12.0)
    cl, cd = table.coefficients(q)
    qbar_s = 0.5 * 1.225 * 5.0**2 * 0.1 * 1.0
    fx, fy = qbar_s * cd, qbar_s * cl
    expected = -(math.cos(q) * fy - math.sin(q) * fx)
    assert aero_torque(table, q, 5.0) == pytest.approx(expected, rel=1e-12)
    # positive angle of attack: lift destabilizes (load is negative)
    assert expected < 0.0


def test_aero_torque_antisymmetric():
    table = AeroTable.naca0015()
    q = np.linspace(-1.2, 1.2, 9)
    tau = aero_torque(table, q, 5.0)
    assert tau == pytest.approx(-tau[::-1], abs=1e-12)


def test_aero_torque_zero_airspeed_is_zero():
    assert aero_torque(AeroTable.naca0015(), 0.7, 0.0) == 0.0


def test_aero_torque_apparent_wind_reduces_to_static_at_rest():
    table = AeroTable.naca0015()
    q = np.array([0.4, -0.9])
    static = aero_torque(table, q, 5.0)
    moving = aero_torque(table, q, 5.0, qd=np.zeros(2), apparent_wind=True)
    assert moving == pytest.approx(static, abs=1e-12)


def test_aero_torque_apparent_wind_sees_plunge_velocity():
    # with zero free stream the only airflow is the chord-point velocity
    table = AeroTable.naca0015()
    tau = aero_torque(table, np.array([0.0]), 0.0,
                      qd=np.array([2.0]), apparent_wind=True)
    assert np.all(np.isfinite(tau))
    assert abs(tau[0]) > 0.0


# ---------------------------------------------------------------------------
# spring (elastic band surrogate)


def test_spring_linearized_drops_cubic_term_only():
    s = RadialSpring(anchor=(0.45, -0.15), rest_length=0.1, k1=15.0, k3=150.0)
    lin = s.linearized()
    assert lin == RadialSpring((0.45, -0.15), 0.1, 15.0, 0.0)


def test_spring_load_pulls_effector_toward_anchor():
    """Released from rest while stretched, the effector accelerates toward
    the anchor; while compressed, away from it."""
    model = _arm()
    anchor = np.asarray(model.spring.anchor)
    for q in (np.array([1.2, -0.4]), np.array([-0.5, 1.8]), np.array([2.0, 0.3])):
        p = model.effector_position(q)
        dist = np.linalg.norm(p - anchor)
        stretch = dist - model.spring.rest_length
        qdd = model.forward_dynamics(q, np.zeros(2), np.zeros(2))
        pdd = model.effector_jacobian(q) @ qdd  # qd = 0, so no Jdot term
        radial = float(pdd @ (p - anchor)) / dist
        assert math.copysign(1.0, radial) == -math.copysign(1.0, stretch)


def test_spring_torque_zero_without_spring():
    model = _arm(spring=False)
    assert np.array_equal(model.spring_torque(np.array([0.3, 0.4])), np.zeros(2))


def test_spring_force_vanishes_at_anchor_singularity():
    # effector exactly on the anchor: direction undefined, force must be 0
    model = TwoLinkArm(spring=RadialSpring((0.6, 0.0), 0.1, 15.0, 150.0))
    tau = model.spring_torque(np.zeros(2))
    assert np.array_equal(tau, np.zeros(2))


def test_rigid_estimate_contract():
    plant = _arm()
    est = plant.rigid_estimate()
    assert est.viscous == 0.0 and est.coulomb == 0.0 and est.spring is None
    assert (est.l1, est.m1, est.i2) == (plant.l1, plant.m1, plant.i2)
    q = np.array([0.9, -0.7])
    assert np.array_equal(est.mass_matrix(q), plant.mass_matrix(q))


def test_spring_estimate_contract():
    plant = _arm()
    est = plant.spring_estimate()
    assert est.viscous == 0.0 and est.coulomb == 0.0
    assert est.spring == plant.spring.linearized()
    with pytest.raises(DynamicsError):
        _arm(spring=False).spring_estimate()


# ---------------------------------------------------------------------------
# forward/inverse dynamics


def test_forward_dynamics_equilibrium_torque_gives_zero_acceleration():
    model = _arm()
    q, qd = np.array([0.8, -1.3]), np.array([1.5, -0.5])
    tau = model.inverse_dynamics(q, qd, np.zeros(2))
    assert model.forward_dynamics(q, qd, tau) == pytest.approx(
        np.zeros(2), abs=1e-12)


def test_wing_unit_torque_unit_acceleration():
    # J = 1, rest at q = 0, zero airspeed: qdd = tau
    model = _wing(airspeed=0.0)
    qdd = model.forward_dynamics(np.zeros(1), np.zeros(1), np.array([1.0]))
    assert qdd[0] == pytest.approx(1.0, abs=1e-14)


def test_forward_inverse_round_trip_identity():
    """H qdd + C qd + g - tau vanishes to 1e-10 on random states."""
    rng = np.random.default_rng(17)
    for model in (_arm(), _wing()):
        n = model.n
        q = rng.uniform(-math.pi, math.pi, (100, n))
        qd = rng.uniform(-5.0, 5.0, (100, n))
        tau = rng.uniform(-10.0, 10.0, (100, n))
        qdd = model.forward_dynamics(q, qd, tau)
        back = model.inverse_dynamics(q, qd, qdd)
        assert np.max(np.abs(back - tau)) < 1e-10


def test_forward_dynamics_of_a_joint_state():
    model = _wing(airspeed=0.0)
    state = JointState(np.zeros(1), np.zeros(1))
    assert model.forward_dynamics(state.q, state.qd, np.array([2.0]))[0] == \
        pytest.approx(2.0)


def test_kinetic_energy_quadratic_form():
    model = _arm()
    q = np.zeros(2)
    # 0.5 * H[0,0] at straight configuration
    assert model.kinetic_energy(q, np.array([1.0, 0.0])) == pytest.approx(0.1275)
    assert model.kinetic_energy(q, np.zeros(2)) == 0.0


def test_energy_conservation_free_arm():
    """Kinetic energy drift < 1e-6 relative over 1 s of RK4 at dt = 1e-4.

    Horizontal plane, friction and band removed, zero torque: the only
    energy store is kinetic, so drift measures integrator + model error.
    """
    model = TwoLinkArm(viscous=0.0, coulomb=0.0, spring=None)
    tau = np.zeros(2)

    def f(y):
        q, qd = y[:2], y[2:]
        return np.concatenate([qd, model.forward_dynamics(q, qd, tau)])

    y = np.array([0.3, -0.5, 1.0, -2.0])
    e0 = model.kinetic_energy(y[:2], y[2:])
    dt = 1e-4
    for _ in range(10000):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    e1 = model.kinetic_energy(y[:2], y[2:])
    assert abs(e1 - e0) / e0 < 1e-6


# ---------------------------------------------------------------------------
# structural property report


def test_structural_checks_pass_for_shipped_models():
    for model in (_wing(), _arm(), PendulumEstimate()):
        report = check_structural_properties(model, sample_count=300, seed=1)
        assert report.passed, report.summary()
        assert report.samples == 300
        assert math.isfinite(report.mass_bound) and report.mass_bound > 0.0


def test_structural_check_catches_sign_flipped_coriolis():
    class CorruptedArm(TwoLinkArm):
        def coriolis_matrix(self, q, qd):
            return -super().coriolis_matrix(q, qd)

    report = check_structural_properties(CorruptedArm(), sample_count=200, seed=2)
    assert not report.skew_property
    assert not report.passed
    assert report.symmetric and report.positive_definite
    assert "FAIL" in report.summary()


def test_structural_check_catches_asymmetric_mass_matrix():
    class LopsidedArm(TwoLinkArm):
        def mass_matrix(self, q):
            h = super().mass_matrix(q)
            h[..., 0, 1] += 1e-6
            return h

    report = check_structural_properties(LopsidedArm(), sample_count=100, seed=3)
    assert not report.symmetric
    assert not report.passed


def test_structural_report_summary_format():
    text = check_structural_properties(_wing(), sample_count=50, seed=0).summary()
    assert text.count("PASS") == 4
    assert "mass-matrix norm bound" in text
