"""The lean step path gives the bits of the expressions it replaced.

The model functions, the control laws and the GP's batch-1 mean are
computed in closed form per component instead of through matrices,
`einsum`, `np.linalg.norm`, `np.stack` and zero-filled temporaries.  Each
rewrite is compared here, bit for bit (sign of zero included), with the
expression it replaced, kept below as the oracle, on 10^4 random states one
at a time and as one (k, n) batch; a share of the states holds exact zeros
of either sign, where einsum's accumulation onto +0.0 shows.  The step loop
itself is compared with a hand-rolled RK4 loop over the public `output` and
`forward_dynamics`.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ctgp.control import (ComputedTorqueController, CTGPController, Gains,
                          PDController, ReferenceSample, _mat_vec,
                          computed_torque, pd_control)
from ctgp.dynamics import (AeroTable, DynamicsError, JointState,
                           PendulumEstimate, RadialSpring, TwoLinkArm,
                           WingModel, aero_torque)
from ctgp.gp import Hyperparameters, TrainingSet, fit
from ctgp.sim import ReferenceTrajectory, SimConfig, simulate

COUNT = 10_000


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _states(rng, n, scale, count=COUNT):
    """(count, n) values: uniform in [-scale, scale], with every fifth row
    holding exact zeros of either sign in some components."""
    x = rng.uniform(-scale, scale, (count, n))
    special = rng.choice([0.0, -0.0, 1.0], size=(count // 5, n))
    rows = x[::5]
    rows[special != 1.0] = special[special != 1.0]
    return x


def _each_and_batch(fn, oracle, *arrays):
    """fn and oracle agree on every row alone and on the (k, n) batch."""
    for row in zip(*arrays):
        row = [np.array(r) for r in row]
        assert _same_bits(fn(*row), oracle(*row)), row
    assert _same_bits(fn(*arrays), oracle(*arrays))


# ---------------------------------------------------------------------------
# the replaced expressions


def _einsum(m, v):
    return np.einsum("...ij,...j->...i", m, v)


def _old_arm_mass_matrix(arm, q):
    q = np.asarray(q, dtype=float)
    c2 = np.cos(q[..., 1])
    a = arm.m1 * arm.lc1**2 + arm.i1 + arm.i2 + arm.m2 * (arm.l1**2 + arm.lc2**2)
    b = arm.m2 * arm.l1 * arm.lc2
    d = arm.m2 * arm.lc2**2 + arm.i2
    h = np.zeros(q.shape[:-1] + (2, 2))
    h[..., 0, 0] = a + 2.0 * b * c2
    h[..., 0, 1] = d + b * c2
    h[..., 1, 0] = d + b * c2
    h[..., 1, 1] = d
    return h


def _old_arm_coriolis(arm, q, qd):
    q = np.asarray(q, dtype=float)
    qd = np.asarray(qd, dtype=float)
    hcoef = arm.m2 * arm.l1 * arm.lc2 * np.sin(q[..., 1])
    c = np.zeros(q.shape[:-1] + (2, 2))
    c[..., 0, 0] = -hcoef * qd[..., 1]
    c[..., 0, 1] = -hcoef * (qd[..., 0] + qd[..., 1])
    c[..., 1, 0] = hcoef * qd[..., 0]
    return c


def _old_effector_position(arm, q):
    s1, c1 = np.sin(q[..., 0]), np.cos(q[..., 0])
    s12, c12 = np.sin(q[..., 0] + q[..., 1]), np.cos(q[..., 0] + q[..., 1])
    return np.stack([arm.l1 * c1 + arm.l2 * c12, arm.l1 * s1 + arm.l2 * s12], axis=-1)


def _old_effector_jacobian(arm, q):
    s1, c1 = np.sin(q[..., 0]), np.cos(q[..., 0])
    s12, c12 = np.sin(q[..., 0] + q[..., 1]), np.cos(q[..., 0] + q[..., 1])
    j = np.zeros(q.shape[:-1] + (2, 2))
    j[..., 0, 0] = -arm.l1 * s1 - arm.l2 * s12
    j[..., 0, 1] = -arm.l2 * s12
    j[..., 1, 0] = arm.l1 * c1 + arm.l2 * c12
    j[..., 1, 1] = arm.l2 * c12
    return j


def _old_spring_torque(arm, q):
    q = np.asarray(q, dtype=float)
    if arm.spring is None:
        return np.zeros(q.shape)
    delta = _old_effector_position(arm, q) - np.asarray(arm.spring.anchor, dtype=float)
    dist = np.linalg.norm(delta, axis=-1)
    stretch = dist - arm.spring.rest_length
    magnitude = arm.spring.k1 * stretch + arm.spring.k3 * stretch**3
    safe = np.where(dist > 1e-9, dist, 1.0)
    unit = delta / safe[..., None]
    force = np.where(dist[..., None] > 1e-9, unit * magnitude[..., None], 0.0)
    return np.einsum("...ji,...j->...i", _old_effector_jacobian(arm, q), force)


def _old_arm_gravity(arm, q, qd=None):
    g = _old_spring_torque(arm, q)
    if qd is not None and (arm.viscous != 0.0 or arm.coulomb != 0.0):
        g = g + arm.viscous * qd
        g = g + arm.coulomb * np.tanh(qd / arm.coulomb_velocity_scale)
    return g


def _old_constant_inertia(model, q):
    out = np.zeros(q.shape[:-1] + (1, 1))
    out[..., 0, 0] = model.inertia
    return out


def _old_aero_torque(table, q, airspeed, *, air_density=1.225, chord=0.1, span=1.0,
                     lever=1.0, qd=None, apparent_wind=False):
    q = np.asarray(q, dtype=float)
    if apparent_wind and qd is not None:
        wx = airspeed + lever * qd * np.sin(q)
        wy = -lever * qd * np.cos(q)
        speed2 = wx * wx + wy * wy
        alpha = q - np.arctan2(wy, wx)
    else:
        speed2 = np.broadcast_to(float(airspeed) ** 2, q.shape).copy()
        wx = np.sqrt(speed2)
        wy = np.zeros_like(q)
        alpha = q
    cl, cd = table.coefficients(alpha)
    qbar_s = 0.5 * air_density * speed2 * chord * span
    lift, drag = qbar_s * cl, qbar_s * cd
    speed = np.sqrt(speed2)
    safe = np.where(speed > 1e-12, speed, 1.0)
    ux, uy = wx / safe, wy / safe
    fx = drag * ux + lift * (-uy)
    fy = drag * uy + lift * ux
    torque = lever * (np.cos(q) * fy - np.sin(q) * fx)
    return -np.where(speed > 1e-12, torque, 0.0)


def _old_forward(h, c, g, qd, tau):
    return np.linalg.solve(h, (tau - _einsum(c, qd) - g)[..., None])[..., 0]


def _arm():
    return TwoLinkArm(spring=RadialSpring(anchor=(0.45, -0.15), rest_length=0.1,
                                          k1=15.0, k3=150.0))


# ---------------------------------------------------------------------------
# two-link arm


def test_arm_products_match_the_matrix_einsum():
    arm, rng = _arm(), np.random.default_rng(11)
    q, qd, v = _states(rng, 2, math.pi), _states(rng, 2, 5.0), _states(rng, 2, 20.0)
    _each_and_batch(arm.mass_matrix, lambda q: _old_arm_mass_matrix(arm, q), q)
    _each_and_batch(arm.mass_times, lambda q, v: _einsum(_old_arm_mass_matrix(arm, q), v),
                    q, v)
    _each_and_batch(arm.coriolis_times,
                    lambda q, qd, v: _einsum(_old_arm_coriolis(arm, q, qd), v), q, qd, v)
    _each_and_batch(arm.effector_jacobian, lambda q: _old_effector_jacobian(arm, q), q)


def test_arm_spring_and_gravity_match_the_old_expressions():
    rng = np.random.default_rng(12)
    q, qd = _states(rng, 2, math.pi), _states(rng, 2, 5.0)
    # the anchor on the effector's reach: some states come within 1e-9 of it
    near = TwoLinkArm(spring=RadialSpring(anchor=(0.6, 0.0), rest_length=0.1,
                                          k1=15.0, k3=150.0))
    q_near = np.concatenate([q[:100], np.zeros((2, 2)), -np.zeros((1, 2))])
    for arm in (_arm(), near, _arm().spring_estimate(), _arm().rigid_estimate()):
        _each_and_batch(arm.spring_torque, lambda q: _old_spring_torque(arm, q), q)
        _each_and_batch(arm.spring_torque, lambda q: _old_spring_torque(arm, q), q_near)
        _each_and_batch(arm.gravity_vector, lambda q, qd: _old_arm_gravity(arm, q, qd), q, qd)
        _each_and_batch(arm.gravity_vector, lambda q: _old_arm_gravity(arm, q), q)


def test_arm_forward_and_inverse_dynamics_match_the_old_expressions():
    arm, rng = _arm(), np.random.default_rng(13)
    q, qd = _states(rng, 2, math.pi), _states(rng, 2, 5.0)
    tau, qdd = _states(rng, 2, 30.0), _states(rng, 2, 30.0)

    def forward(q, qd, tau):
        return _old_forward(_old_arm_mass_matrix(arm, q), _old_arm_coriolis(arm, q, qd),
                            _old_arm_gravity(arm, q, qd), qd, tau)

    def inverse(q, qd, qdd):
        return (_einsum(_old_arm_mass_matrix(arm, q), qdd)
                + _einsum(_old_arm_coriolis(arm, q, qd), qd) + _old_arm_gravity(arm, q, qd))

    _each_and_batch(arm.forward_dynamics, forward, q, qd, tau)
    _each_and_batch(arm.inverse_dynamics, inverse, q, qd, qdd)


# ---------------------------------------------------------------------------
# wing and pendulum


@pytest.mark.parametrize("apparent_wind", [False, True])
def test_aero_torque_matches_the_broadcast_copy_expression(apparent_wind):
    rng, table = np.random.default_rng(14), AeroTable.naca0015()
    q, qd = _states(rng, 1, math.pi)[:, 0], _states(rng, 1, 5.0)[:, 0]
    kw = {"qd": qd, "apparent_wind": apparent_wind}
    assert _same_bits(aero_torque(table, q, 5.0, **kw), _old_aero_torque(table, q, 5.0, **kw))
    for qi, qdi in zip(q[:3000], qd[:3000]):
        want = _old_aero_torque(table, np.array(qi), 5.0, qd=np.array(qdi),
                                apparent_wind=apparent_wind)
        for q_arg, qd_arg in ((np.array(qi), np.array(qdi)), (float(qi), float(qdi))):
            assert _same_bits(aero_torque(table, q_arg, 5.0, qd=qd_arg,
                                          apparent_wind=apparent_wind), want)
    # no airspeed: the torque is -0.0 at every angle, in the input's shape
    assert _same_bits(aero_torque(table, q, 0.0), _old_aero_torque(table, q, 0.0))
    assert _same_bits(aero_torque(table, 0.3, 0.0), _old_aero_torque(table, 0.3, 0.0))


@pytest.mark.parametrize("model", [WingModel(), WingModel(inertia=0.9),
                                   WingModel(inertia=1.7, apparent_wind=True),
                                   PendulumEstimate()])
def test_one_dof_products_and_solve_match_the_matrix_forms(model):
    rng = np.random.default_rng(15)
    q, qd, v = _states(rng, 1, math.pi), _states(rng, 1, 5.0), _states(rng, 1, 20.0)
    _each_and_batch(model.mass_times, lambda q, v: _einsum(_old_constant_inertia(model, q), v),
                    q, v)
    _each_and_batch(model.coriolis_times,
                    lambda q, qd, v: _einsum(np.zeros(q.shape[:-1] + (1, 1)), v), q, qd, v)
    _each_and_batch(model.solve_mass,
                    lambda q, v: np.linalg.solve(_old_constant_inertia(model, q), v[..., None])[..., 0],
                    q, v)

    def forward(q, qd, tau):
        h = _old_constant_inertia(model, q)
        return _old_forward(h, np.zeros_like(h), model.gravity_vector(q, qd), qd, tau)

    _each_and_batch(model.forward_dynamics, forward, q, qd, v)
    # a non-finite velocity reaches the result through the zero Coriolis term
    with np.errstate(invalid="ignore"):
        assert np.isnan(model.coriolis_times(np.zeros(1), np.zeros(1), np.array([np.inf]))[0])


def test_zero_inertia_still_raises_dynamics_error():
    with pytest.raises(DynamicsError):
        PendulumEstimate(inertia=0.0).forward_dynamics(np.zeros(1), np.zeros(1), np.ones(1))


# ---------------------------------------------------------------------------
# control laws


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gain_product_matches_einsum(n):
    rng = np.random.default_rng(16)
    m = rng.uniform(-50.0, 50.0, (n, n))
    m[0, 0] = 0.0
    e = _states(rng, n, 2.0)
    _each_and_batch(lambda e: _mat_vec(m, e), lambda e: np.einsum("ij,...j->...i", m, e), e)


def _old_computed_torque(est, gains, q, qd, ref):
    e, ed = q - ref.q, qd - ref.qd
    if isinstance(est, TwoLinkArm):
        h, c = _old_arm_mass_matrix(est, q), _old_arm_coriolis(est, q, qd)
        g = _old_arm_gravity(est, q)
    else:
        h = _old_constant_inertia(est, q)
        c, g = np.zeros_like(h), est.gravity_vector(q)
    return (_einsum(h, ref.qdd) + _einsum(c, ref.qd) + g
            - np.einsum("ij,...j->...i", gains.kd, ed)
            - np.einsum("ij,...j->...i", gains.kp, e))


@pytest.mark.parametrize("est", [_arm().rigid_estimate(), _arm().spring_estimate(),
                                 WingModel().estimate()])
def test_laws_match_the_old_expressions(est):
    rng, n = np.random.default_rng(17), est.n
    gains = Gains(np.array([[20.0, 1.5], [1.5, 15.0]])[:n, :n], np.diag([5.0, 4.0])[:n, :n])
    q, qd = _states(rng, n, math.pi), _states(rng, n, 5.0)
    rq, rqd, rqdd = _states(rng, n, 1.0), _states(rng, n, 5.0), _states(rng, n, 30.0)

    def law(q, qd, rq, rqd, rqdd):
        ref = ReferenceSample(rq, rqd, rqdd)
        return computed_torque(est, gains, JointState(q, qd), ref).drift

    def oracle(q, qd, rq, rqd, rqdd):
        return _old_computed_torque(est, gains, q, qd, ReferenceSample(rq, rqd, rqdd))

    def pd(q, qd, rq, rqd, rqdd):
        return pd_control(gains, JointState(q, qd), ReferenceSample(rq, rqd, rqdd)).drift

    def pd_oracle(q, qd, rq, rqd, rqdd):
        return (-np.einsum("ij,...j->...i", gains.kp, q - rq)
                - np.einsum("ij,...j->...i", gains.kd, qd - rqd))

    _each_and_batch(law, oracle, q[:3000], qd[:3000], rq[:3000], rqd[:3000], rqdd[:3000])
    _each_and_batch(pd, pd_oracle, q[:3000], qd[:3000], rq[:3000], rqd[:3000], rqdd[:3000])


def test_gp_mean_matches_the_stacked_expression():
    rng = np.random.default_rng(18)
    x = rng.uniform(-2.0, 2.0, (6, 60))
    gp = fit(TrainingSet(x, rng.normal(size=(60, 2))), [Hyperparameters(1.0, 2.0, 1e-3)] * 2)
    queries = rng.uniform(-2.0, 2.0, (500, 6))

    def oracle(q):
        q2 = q[None, :] if q.ndim == 1 else q
        out = np.stack([ks @ c.weights for c, ks in
                        zip(gp.components, gp._cross_kernels(q2))], axis=-1)
        return out[0] if q.ndim == 1 else out

    _each_and_batch(gp.predict_mean, oracle, queries)


# ---------------------------------------------------------------------------
# reference arrays and the step loop


def test_reference_arrays_match_per_time_samples_at_all_three_stage_times():
    ref = ReferenceTrajectory(np.array([0.6283185307179586, 0.3]), np.array([1.0, 2.0]),
                              np.array([0.0, 0.4]))
    dt, steps = 1e-3, 12_000
    t = np.arange(steps + 1) * dt
    for times in (t, t[:-1] + 0.5 * dt, t[:-1] + dt):
        grid = ref.sample(times)
        for k in range(times.shape[0]):
            s = ref.sample(times[k])
            assert (_same_bits(grid.q[k], s.q) and _same_bits(grid.qd[k], s.qd)
                    and _same_bits(grid.qdd[k], s.qdd)), k
    # stage 4 sits at t_k + dt; t_(k+1) = (k + 1) dt is another float in
    # a share of the steps, so the loop must not sample there instead
    assert np.count_nonzero(t[:-1] + dt != t[1:]) > steps // 10


def _hand_rk4(model, ctl, ref, config):
    """Plain RK4 over the public output and forward_dynamics, every stage
    with a checked JointState and its own reference sample."""
    dt = config.dt
    q, qd = np.zeros(model.n), np.zeros(model.n)
    cols = {k: [] for k in ("q", "qd", "e", "ed", "tau", "gp_mean")}

    def rate(qs, qds, ts):
        out = ctl.output(JointState(qs, qds), ref.sample(ts), include_std=False)
        return qds, model.forward_dynamics(qs, qds, out.drift)

    for t in np.arange(config.steps + 1) * dt:
        r = ref.sample(t)
        out = ctl.output(JointState(q, qd), r, include_std=False)
        for key, val in (("q", q), ("qd", qd), ("e", q - r.q), ("ed", qd - r.qd),
                         ("tau", out.drift), ("gp_mean", out.gp_mean)):
            cols[key].append(val)
        k1q, k1v = qd, model.forward_dynamics(q, qd, out.drift)
        k2q, k2v = rate(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v, t + 0.5 * dt)
        k3q, k3v = rate(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v, t + 0.5 * dt)
        k4q, k4v = rate(q + dt * k3q, qd + dt * k3v, t + dt)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        qd = qd + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return {k: np.array(v) for k, v in cols.items()}


def _arm_gp():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-8.0, 8.0, (2, 120)), rng.uniform(-4.0, 4.0, (2, 120)),
                        rng.uniform(-0.7, 0.7, (2, 120))])
    hp = Hyperparameters(3.0, 249.0, 1.5e-5)
    return fit(TrainingSet(x, rng.normal(0.0, 1.0, (120, 2))), [hp, hp])


def _wing_gp():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.uniform(-3.0, 3.0, (1, 80)), rng.uniform(-1.0, 1.0, (1, 80)),
                        rng.uniform(-0.5, 0.5, (1, 80))])
    return fit(TrainingSet(x, rng.normal(0.0, 0.5, (80, 1))), [Hyperparameters(1.0, 1.0, 1e-3)])


def _arm_controllers():
    plant = _arm()
    low = Gains.diagonal([20.0, 15.0], [5.0, 5.0])
    return plant, {
        "hg-pd": PDController(Gains.diagonal([800.0, 600.0], [5.0, 5.0])),
        "lg-pd": PDController(low),
        "ct": ComputedTorqueController(plant.rigid_estimate(), low),
        "ct-sp": ComputedTorqueController(plant.spring_estimate(), low),
        "ct-gp": CTGPController(plant.rigid_estimate(), _arm_gp(), low),
    }


@pytest.mark.parametrize("kind", ["hg-pd", "lg-pd", "ct", "ct-sp", "ct-gp", "wing ct-gp"])
def test_simulate_equals_a_hand_rolled_rk4_loop(kind):
    if kind == "wing ct-gp":
        plant = WingModel()
        ctl = CTGPController(plant.estimate(), _wing_gp(), Gains.diagonal([5.0], [5.0]))
        ref = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                                  frequency_unit="rad_per_s")
    else:
        plant, controllers = _arm_controllers()
        ctl = controllers[kind]
        ref = ReferenceTrajectory(np.array([0.6283185307179586] * 2), np.array([1.0, 2.0]),
                                  np.zeros(2))
    config = SimConfig(dt=1e-3, duration=0.4)
    res = simulate(plant, ctl, ref, config)
    want = _hand_rk4(plant, ctl, ref, config)
    assert not res.diverged
    for key, val in want.items():
        assert _same_bits(getattr(res, key), val), key
