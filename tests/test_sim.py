"""Closed-loop integration against convergence-order and hand-step oracles.

RK4 is checked by its empirical order on a smooth unforced pendulum, the
Euler-Maruyama path by bit-exact agreement with a hand-rolled explicit
Euler loop when the diffusion vanishes, and the Lyapunov trace against the
quadratic form evaluated by hand.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ctgp.control import (POSTERIOR_STD_CHUNK, ComputedTorqueController,
                          ControlOutput, CTGPController, Gains, PDController)
from ctgp.dynamics import (JointState, ManipulatorModel, RadialSpring,
                           TwoLinkArm, WingModel)
from ctgp.gp import FittedGP, Hyperparameters, MultiGP, TrainingSet, fit
from ctgp.sim import (MAX_RECORD_ROWS, REFERENCE_BLOCK, DivergenceError,
                      ReferenceTrajectory, SimConfig, SimResult, _integrate,
                      lyapunov_trace, run_ensemble, simulate)


class _ZeroController:
    """Open-loop zero torque; lets the sim integrate the bare plant."""

    mode = "deterministic"
    gains = Gains.diagonal([1.0], [1.0])

    def output(self, state, ref, include_std=True):
        tau = np.zeros(state.q.shape)
        return ControlOutput(drift=tau)


def _pendulum() -> WingModel:
    return WingModel(airspeed=0.0)


def _still_ref(n=1) -> ReferenceTrajectory:
    return ReferenceTrajectory(np.zeros(n), np.ones(n), np.zeros(n))


# ---------------------------------------------------------------------------
# reference trajectory


def test_reference_sample_at_zero_phase():
    # q_d = 0 and qd_d = 2 pi f A at t = 0
    traj = ReferenceTrajectory(np.array([0.3]), np.array([2.0]), np.zeros(1))
    s = traj.sample(0.0)
    assert s.q[0] == 0.0
    assert s.qd[0] == pytest.approx(2.0 * math.pi * 2.0 * 0.3, rel=1e-15)
    assert s.qdd[0] == pytest.approx(0.0, abs=1e-15)


def test_reference_frequency_units():
    hz = ReferenceTrajectory(np.array([1.0]), np.array([1.0]), np.zeros(1),
                             frequency_unit="hz")
    rad = ReferenceTrajectory(np.array([1.0]), np.array([1.0]), np.zeros(1),
                              frequency_unit="rad_per_s")
    assert hz.omega[0] == pytest.approx(2.0 * math.pi)
    assert rad.omega[0] == 1.0
    assert rad.sample(math.pi / 2.0).q[0] == pytest.approx(1.0)


def test_reference_analytic_derivatives():
    """qd_d and qdd_d are the exact derivatives of q_d."""
    traj = ReferenceTrajectory(np.array([0.5, 0.2]), np.array([1.0, 2.0]),
                               np.array([0.3, -0.1]))
    h = 1e-6
    for t in (0.0, 0.37, 1.42):
        s = traj.sample(t)
        fd_qd = (traj.sample(t + h).q - traj.sample(t - h).q) / (2.0 * h)
        fd_qdd = (traj.sample(t + h).qd - traj.sample(t - h).qd) / (2.0 * h)
        assert s.qd == pytest.approx(fd_qd, abs=1e-7)
        assert s.qdd == pytest.approx(fd_qdd, abs=1e-6)


def test_reference_bounds_are_sinusoid_envelopes():
    traj = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                               frequency_unit="rad_per_s")
    c_q, c_qd, c_qdd = traj.bounds()
    assert (c_q, c_qd, c_qdd) == (0.3, 0.3, 0.3)
    traj2 = ReferenceTrajectory(np.array([2.0]), np.array([3.0]), np.zeros(1),
                                frequency_unit="rad_per_s")
    assert traj2.bounds() == (2.0, 6.0, 18.0)


def test_reference_validation():
    with pytest.raises(ValueError, match="share shape"):
        ReferenceTrajectory(np.zeros(2), np.zeros(1), np.zeros(2))
    with pytest.raises(ValueError, match="frequency_unit"):
        ReferenceTrajectory(np.zeros(1), np.zeros(1), np.zeros(1),
                            frequency_unit="rpm")
    with pytest.raises(ValueError, match="finite"):
        ReferenceTrajectory(np.array([np.inf]), np.zeros(1), np.zeros(1))


def test_reference_sample_from_plain_sequences():
    s = ReferenceTrajectory([0.3], [1.0], [0.0]).sample(0.25)
    traj = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1))
    assert np.array_equal(s.q, traj.sample(0.25).q)


# ---------------------------------------------------------------------------
# config


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(dt=1e-3, duration=1e-4)
    with pytest.raises(ValueError):
        SimConfig(integrator="verlet")
    with pytest.raises(ValueError):
        SimConfig(realizations=0)
    with pytest.raises(ValueError, match="divergence_threshold"):
        SimConfig(divergence_threshold=math.inf)
    assert SimConfig(dt=1e-3, duration=2.5).steps == 2500


def test_sim_config_bounds_the_recorded_rows():
    # 1000 rows x 10^4 realizations is exactly the limit
    assert MAX_RECORD_ROWS == 10_000_000
    assert SimConfig(dt=1e-3, duration=0.999, realizations=10_000).steps == 999
    with pytest.raises(ValueError, match="sim.realizations"):
        SimConfig(dt=1e-3, duration=0.999, realizations=10_001)
    with pytest.raises(ValueError, match="sim.dt"):
        SimConfig(dt=1e-9, duration=10.0)
    with pytest.raises(ValueError, match="sim.duration"):
        SimConfig(dt=1e-3, duration=1e6)
    # duration / dt beyond the float range is refused, not an OverflowError
    with pytest.raises(ValueError, match="above the limit"):
        SimConfig(dt=1e-320, duration=10.0)
    with pytest.raises(ValueError, match="above the limit"):
        SimConfig(dt=1e-3, duration=10.0, realizations=1_000_000_000)
    with pytest.raises(ValueError, match="finite"):
        SimConfig(dt=1e-3, duration=math.inf)


def test_stochastic_controller_requires_em_integrator():
    gp = MultiGP.empty(3, 1)
    ctl = CTGPController(_pendulum().estimate(), gp,
                         Gains.diagonal([5.0], [5.0]), mode="stochastic")
    with pytest.raises(ValueError, match="euler-maruyama"):
        simulate(_pendulum(), ctl, _still_ref(), SimConfig(duration=0.01))


def test_simulate_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        simulate(_pendulum(), _ZeroController(), _still_ref(n=2),
                 SimConfig(duration=0.01))


def test_ensemble_rejects_dimension_mismatch():
    arm = TwoLinkArm()
    ctl = ComputedTorqueController(arm.rigid_estimate(),
                                   Gains.diagonal([20.0, 15.0], [5.0, 5.0]))
    with pytest.raises(ValueError, match="dimension"):
        run_ensemble(arm, ctl, _still_ref(n=1),
                     SimConfig(duration=0.01, realizations=2))


# ---------------------------------------------------------------------------
# RK4 integrator


def test_rk4_fourth_order_on_unforced_pendulum():
    """Richardson halving ratio near 2^4 = 16 for the smooth pendulum."""
    model = _pendulum()
    ref = _still_ref()
    ends = {}
    for dt in (4e-3, 2e-3, 1e-3):
        config = SimConfig(dt=dt, duration=1.0)
        res = simulate(model, _ZeroController(), ref, config,
                       q0=np.array([1.0]))
        ends[dt] = res.q[-1, 0]
    ratio = (ends[4e-3] - ends[2e-3]) / (ends[2e-3] - ends[1e-3])
    assert 12.0 <= ratio <= 20.0


def test_rk4_records_initial_state_and_grid():
    config = SimConfig(dt=1e-3, duration=0.5)
    res = simulate(_pendulum(), _ZeroController(), _still_ref(), config,
                   q0=np.array([0.7]), qd0=np.array([-0.2]))
    assert res.t.shape == (501,)
    assert res.t[0] == 0.0 and res.t[-1] == pytest.approx(0.5)
    assert res.q[0, 0] == 0.7 and res.qd[0, 0] == -0.2
    assert res.seed == config.base_seed
    assert not res.diverged


def test_default_start_is_rest_at_origin():
    res = simulate(_pendulum(), _ZeroController(), _still_ref(),
                   SimConfig(duration=0.01))
    assert np.array_equal(res.q[0], np.zeros(1))
    assert np.array_equal(res.qd[0], np.zeros(1))


def test_perfect_computed_torque_stays_on_reference():
    """est = true, started on the reference: error stays below 1e-6."""
    model = TwoLinkArm(viscous=0.0, coulomb=0.0, spring=None)
    ctl = ComputedTorqueController(model, Gains.diagonal([20.0, 15.0],
                                                         [5.0, 5.0]))
    ref = ReferenceTrajectory(np.array([0.4, 0.4]), np.array([1.0, 2.0]),
                              np.zeros(2), frequency_unit="rad_per_s")
    s0 = ref.sample(0.0)
    res = simulate(model, ctl, ref, SimConfig(dt=1e-3, duration=2.0),
                   q0=s0.q, qd0=s0.qd)
    assert np.max(res.error_norms()) < 1e-6


# ---------------------------------------------------------------------------
# Euler-Maruyama integrator


def test_em_zero_diffusion_is_explicit_euler_bitwise():
    """CT-GP with no data in stochastic mode adds a zero kick, so the EM
    trajectory must equal a hand-rolled explicit Euler loop bit for bit."""
    model = _pendulum()
    est = model.estimate()
    gains = Gains.diagonal([5.0], [5.0])
    ctl = CTGPController(est, MultiGP.empty(3, 1), gains, mode="stochastic")
    ref = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                              frequency_unit="rad_per_s")
    config = SimConfig(dt=1e-3, duration=0.5, integrator="euler-maruyama")
    res = simulate(model, ctl, ref, config)

    q = np.zeros(1)
    qd = np.zeros(1)
    for k in range(config.steps):
        out = ctl.output(JointState(q, qd), ref.sample(k * config.dt))
        qdd = model.forward_dynamics(q, qd, out.drift)
        q, qd = q + config.dt * qd, qd + config.dt * qdd
    assert np.array_equal(res.q[-1], q)
    assert np.array_equal(res.qd[-1], qd)


def test_em_deterministic_controller_ignores_seed():
    model = _pendulum()
    ctl = ComputedTorqueController(model.estimate(),
                                   Gains.diagonal([5.0], [5.0]))
    ref = _still_ref()
    config = SimConfig(dt=1e-3, duration=0.2, integrator="euler-maruyama")
    a = simulate(model, ctl, ref, config, seed=1)
    b = simulate(model, ctl, ref, config, seed=2)
    assert np.array_equal(a.q, b.q)


def _tiny_wing_gp() -> MultiGP:
    x = np.array([[0.0, 0.5, -0.5, 0.2], [0.0, 0.1, -0.1, 0.3],
                  [0.0, 0.4, -0.4, 0.1]])
    y = np.array([[0.0], [0.3], [-0.3], [0.1]])
    return fit(TrainingSet(x, y), [Hyperparameters(1.0, 1.0, 1e-4)])


def test_em_stochastic_runs_depend_on_seed():
    model = _pendulum()
    ctl = CTGPController(model.estimate(), _tiny_wing_gp(),
                         Gains.diagonal([5.0], [5.0]), mode="stochastic")
    ref = _still_ref()
    config = SimConfig(dt=1e-3, duration=0.2, integrator="euler-maruyama")
    a = simulate(model, ctl, ref, config, seed=1)
    b = simulate(model, ctl, ref, config, seed=2)
    c = simulate(model, ctl, ref, config, seed=1)
    assert not np.array_equal(a.q, b.q)
    assert np.array_equal(a.q, c.q)


def _per_step_em(model, ctl, ref, config, q, seeds):
    """Euler-Maruyama with one standard_normal(n) draw per step and active
    run, frozen runs drawing nothing; returns each run's recorded q and qd."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    dt, bound = config.dt, config.divergence_threshold
    qd = np.zeros_like(q)
    active = np.ones(len(seeds), dtype=bool)
    rows = [[] for _ in seeds]
    for k in range(config.steps + 1):
        for i in np.flatnonzero(active):
            rows[i].append((q[i].copy(), qd[i].copy()))
        if k == config.steps:
            break
        out = ctl.output(JointState(q, qd), ref.sample(k * dt))
        xi = np.zeros(q.shape)
        for i in np.flatnonzero(active):
            xi[i] = rngs[i].standard_normal(q.shape[1])
        q_new = q + dt * qd
        qd_new = qd + dt * model.forward_dynamics(q, qd, out.drift)
        drive = np.einsum("...ij,...j->...i", out.diffusion, xi)
        qd_new = qd_new + math.sqrt(dt) * model.solve_mass(q, drive)
        active &= (np.all(np.abs(q_new) <= bound, axis=-1)
                   & np.all(np.abs(qd_new) <= bound, axis=-1))
        q = np.where(active[:, None], q_new, q)
        qd = np.where(active[:, None], qd_new, qd)
    return [tuple(np.array(col) for col in zip(*run)) for run in rows]


def test_em_noise_drawn_in_blocks_is_the_per_step_sequence():
    ctl = CTGPController(_pendulum().estimate(), _tiny_wing_gp(),
                         Gains.diagonal([5.0], [5.0]), mode="stochastic")
    # 600 steps: three noise blocks, the last one partial
    config = SimConfig(dt=1e-3, duration=0.6, integrator="euler-maruyama",
                       divergence_threshold=10.0)
    # the anti-spring throws run 1 out of the bound inside the second block
    q0 = np.array([[0.0], [0.06], [0.0]])
    seeds = [3, 4, 5]
    with np.errstate(all="ignore"):
        _, _, active, results = _integrate(_RunawayModel(), ctl, _still_ref(), config,
                                           q0, np.zeros((3, 1)), seeds)
        want = _per_step_em(_RunawayModel(), ctl, _still_ref(), config, q0, seeds)
    assert active.tolist() == [True, False, True]
    assert REFERENCE_BLOCK < results[1].t.shape[0] < 2 * REFERENCE_BLOCK
    for res, (q, qd) in zip(results, want):
        assert np.array_equal(res.q, q) and np.array_equal(res.qd, qd)


# ---------------------------------------------------------------------------
# deterministic CT-GP: gp_std recorded after the loop


def _stage_one_std_rk4(model, ctl, ref, config):
    """RK4 with the posterior std computed at every step's first stage.

    The reference algorithm for the deferred gp_std pass: the controller is
    asked for its std inside the loop, and every stage samples its own
    reference.  Returns the recorded columns as a dict of (steps + 1, n).
    """
    n = model.n
    dt = config.dt
    q, qd = np.zeros(n), np.zeros(n)
    cols = {k: [] for k in ("q", "qd", "e", "ed", "tau", "gp_mean", "gp_std")}

    def rate(qs, qds, ts):
        out = ctl.output(JointState(qs, qds), ref.sample(ts), include_std=False)
        return qds, model.forward_dynamics(qs, qds, out.drift)

    for t in np.arange(config.steps + 1) * dt:
        r = ref.sample(t)
        out = ctl.output(JointState(q, qd), r, include_std=True)
        for key, val in (("q", q), ("qd", qd), ("e", q - r.q), ("ed", qd - r.qd),
                         ("tau", out.drift), ("gp_mean", out.gp_mean),
                         ("gp_std", out.gp_std)):
            cols[key].append(val)
        k1q, k1v = qd, model.forward_dynamics(q, qd, out.drift)
        k2q, k2v = rate(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v, t + 0.5 * dt)
        k3q, k3v = rate(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v, t + 0.5 * dt)
        k4q, k4v = rate(q + dt * k3q, qd + dt * k3v, t + dt)
        q = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        qd = qd + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return {k: np.array(v) for k, v in cols.items()}


def _arm_like_gp(rng) -> MultiGP:
    # sigma_f^2 / sigma_n^2 ~ 1.7e7, as for the shipped arm: the variance
    # cancels hardest near the data, which is where the run goes
    m = 200
    x = np.concatenate([rng.uniform(-8.0, 8.0, (2, m)),   # qdd_d
                        rng.uniform(-4.0, 4.0, (2, m)),   # qd_d
                        rng.uniform(-0.7, 0.7, (2, m))])  # q
    y = rng.normal(0.0, 1.0, (m, 2))
    hp = Hyperparameters(3.0, 249.0, 1.5e-5)
    return fit(TrainingSet(x, y), [hp, hp])


def _arm_case():
    spring = RadialSpring(anchor=(0.45, -0.15), rest_length=0.1, k1=15.0, k3=150.0)
    model = TwoLinkArm(spring=spring)
    est = TwoLinkArm(viscous=0.0, coulomb=0.0, spring=None)
    ctl = CTGPController(est, _arm_like_gp(np.random.default_rng(3)),
                         Gains.diagonal([20.0, 15.0], [5.0, 5.0]))
    ref = ReferenceTrajectory(np.array([0.6283, 0.6283]), np.array([1.0, 2.0]),
                              np.zeros(2))
    return model, ctl, ref


def _wing_case():
    model = _pendulum()
    ctl = CTGPController(model.estimate(), _tiny_wing_gp(),
                         Gains.diagonal([5.0], [5.0]))
    ref = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                              frequency_unit="rad_per_s")
    return model, ctl, ref


@pytest.mark.parametrize("case", [_wing_case, _arm_case])
def test_deterministic_ct_gp_matches_stage_one_std_loop(case):
    model, ctl, ref = case()
    # 301 rows: four full chunks and a partial one
    config = SimConfig(dt=1e-3, duration=0.3)
    res = simulate(model, ctl, ref, config)
    want = _stage_one_std_rk4(model, ctl, ref, config)
    for key in ("q", "qd", "e", "ed", "tau", "gp_mean"):
        assert np.array_equal(getattr(res, key), want[key]), key
    scale = max(1.0, max(c.hyperparameters.signal_variance
                         for c in ctl.gp.components))
    assert np.max(np.abs(res.gp_std**2 - want["gp_std"]**2)) <= 1e-10 * scale
    assert np.all(res.gp_std > 0.0)


def test_deterministic_run_computes_no_variance_in_the_loop(monkeypatch):
    model, ctl, ref = _wing_case()
    config = SimConfig(dt=1e-3, duration=0.2)
    outputs, variances, var_batches = [], [], []
    output, variance = CTGPController.output, FittedGP.variance
    predict_var = MultiGP.predict_var

    def count_output(self, *args, **kwargs):
        outputs.append(1)
        return output(self, *args, **kwargs)

    def count_variance(self, ks):
        variances.append(ks.shape[0])
        return variance(self, ks)

    def count_predict_var(self, x):
        var_batches.append(np.atleast_2d(x).shape[0])
        return predict_var(self, x)

    monkeypatch.setattr(CTGPController, "output", count_output)
    monkeypatch.setattr(FittedGP, "variance", count_variance)
    monkeypatch.setattr(MultiGP, "predict_var", count_predict_var)
    res = simulate(model, ctl, ref, config)
    rows = config.steps + 1
    assert len(outputs) == 4 * config.steps + 1
    # one variance per chunk of the pass after the loop, none per step
    assert len(variances) == math.ceil(rows / POSTERIOR_STD_CHUNK)
    assert sum(var_batches) == rows
    assert max(var_batches) <= POSTERIOR_STD_CHUNK
    assert res.gp_std.shape == (rows, 1)


def test_stochastic_run_keeps_the_per_step_std(monkeypatch):
    model = _pendulum()
    ctl = CTGPController(model.estimate(), _tiny_wing_gp(),
                         Gains.diagonal([5.0], [5.0]), mode="stochastic")
    config = SimConfig(dt=1e-3, duration=0.05, integrator="euler-maruyama")

    def unreachable(*args, **kwargs):
        raise AssertionError("the diffusion needs the std at every step")

    monkeypatch.setattr(CTGPController, "posterior_std", unreachable)
    res = simulate(model, ctl, _still_ref(), config)
    assert np.all(res.gp_std > 0.0)


def test_empty_gp_records_an_all_zero_std_column():
    model = _pendulum()
    gains = Gains.diagonal([5.0], [5.0])
    ref = _still_ref()
    config = SimConfig(dt=1e-3, duration=0.1)
    ctl = CTGPController(model.estimate(), MultiGP.empty(3, 1), gains)
    res = simulate(model, ctl, ref, config)
    ct = simulate(model, ComputedTorqueController(model.estimate(), gains), ref,
                  config)
    assert np.array_equal(res.gp_std, np.zeros((config.steps + 1, 1)))
    assert np.array_equal(res.q, ct.q) and np.array_equal(res.tau, ct.tau)


def test_deterministic_ensemble_records_the_deferred_std():
    model, ctl, ref = _wing_case()
    config = SimConfig(dt=1e-3, duration=0.1, realizations=2)
    _, runs = run_ensemble(model, ctl, ref, config)
    solo = simulate(model, ctl, ref, config)
    for run in runs:
        assert np.array_equal(run.q, solo.q)
        assert np.array_equal(run.gp_std, solo.gp_std)
        assert np.all(run.gp_std > 0.0)


def test_deterministic_ct_gp_ensemble_run_0_is_simulate_bit_for_bit():
    model, ctl, ref = _wing_case()
    config = SimConfig(dt=1e-3, duration=0.1, realizations=3)
    _, runs = run_ensemble(model, ctl, ref, config)
    solo = simulate(model, ctl, ref, config)
    for key in ("q", "qd", "tau", "gp_mean", "gp_std"):
        assert np.array_equal(getattr(runs[0], key), getattr(solo, key)), key


# ---------------------------------------------------------------------------
# divergence handling


class _RunawayModel(ManipulatorModel):
    """Cubic anti-spring; trajectories away from 0 escape in finite time."""

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


def test_divergent_run_keeps_partial_trace():
    config = SimConfig(dt=1e-3, duration=2.0)
    with np.errstate(all="ignore"):
        res = simulate(_RunawayModel(), _ZeroController(), _still_ref(),
                       config, q0=np.array([1.0]))
    assert res.diverged
    assert res.t.shape[0] < config.steps + 1
    assert np.all(np.isfinite(res.q))
    assert np.all(np.abs(res.q) <= config.divergence_threshold)


def _overflowing_pd() -> PDController:
    # a torque of 1e200 x the error overflows within one step's stages
    return PDController(Gains.diagonal([1e200], [1e200]))


def test_non_finite_stage_is_divergence_at_that_step():
    config = SimConfig(dt=1e-3, duration=0.01)
    with np.errstate(all="ignore"):
        res = simulate(_pendulum(), _overflowing_pd(), _still_ref(), config,
                       q0=np.array([0.1]))
    # stage 3 of step 0 is non-finite: the run keeps row 0 only
    assert res.diverged and res.t.shape == (1,)
    assert res.q[0, 0] == 0.1 and np.all(np.isfinite(res.tau))


def test_non_finite_stage_freezes_one_run_of_a_batch():
    config = SimConfig(dt=1e-3, duration=0.01)
    q0 = np.array([[0.0], [0.1], [0.0]])
    with np.errstate(all="ignore"):
        _, _, active, results = _integrate(_pendulum(), _overflowing_pd(), _still_ref(),
                                           config, q0, np.zeros((3, 1)), [0, 1, 2])
        solo = simulate(_pendulum(), _overflowing_pd(), _still_ref(), config)
    assert active.tolist() == [True, False, True]
    assert results[1].diverged and results[1].t.shape == (1,)
    for run in (results[0], results[2]):
        assert not run.diverged
        for key in ("q", "qd", "e", "ed", "tau", "gp_mean", "gp_std"):
            assert np.array_equal(getattr(run, key), getattr(solo, key))


def test_stage_states_skip_the_joint_state_check(monkeypatch):
    checks = []
    post_init = JointState.__post_init__

    def counting(self):
        checks.append(1)
        post_init(self)

    monkeypatch.setattr(JointState, "__post_init__", counting)
    res = simulate(_pendulum(), PDController(Gains.diagonal([5.0], [5.0])),
                   _still_ref(), SimConfig(dt=1e-3, duration=0.05), q0=np.array([0.1]))
    assert res.t.shape == (51,)
    assert len(checks) == 1  # the start state, at the run boundary


def test_laws_without_a_gp_allocate_no_trace_arrays(monkeypatch):
    outputs = []
    output = PDController.output

    def keep(self, *args, **kwargs):
        outputs.append(output(self, *args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(PDController, "output", keep)
    res = simulate(_pendulum(), PDController(Gains.diagonal([5.0], [5.0])),
                   _still_ref(), SimConfig(dt=1e-3, duration=0.05), q0=np.array([0.1]))
    assert len(outputs) == 4 * 50 + 1
    assert all(out.traces() == (None, None) for out in outputs)
    assert np.array_equal(res.gp_mean, np.zeros((51, 1)))
    assert np.array_equal(outputs[0].gp_std, np.zeros(1))


class _ShiftedRunaway(_RunawayModel):
    """The anti-spring centred at q = -1: a run from rest escapes."""

    def gravity_vector(self, q, qd=None):
        return super().gravity_vector(q + 1.0, qd)


def test_ensemble_raises_when_every_run_diverges():
    config = SimConfig(dt=1e-3, duration=2.0, integrator="euler-maruyama",
                       realizations=3)
    ctl = CTGPController(_RunawayModel(), _tiny_wing_gp(),
                         Gains.diagonal([1e-6], [1e-6]), mode="stochastic")
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        run_ensemble(_ShiftedRunaway(), ctl, _still_ref(), config)


def test_ensemble_stops_once_every_run_diverged(monkeypatch):
    calls = []
    output = _ZeroController.output

    def count_output(self, *args, **kwargs):
        calls.append(1)
        return output(self, *args, **kwargs)

    monkeypatch.setattr(_ZeroController, "output", count_output)
    model, config = _ShiftedRunaway(), SimConfig(dt=1e-3, duration=2.0,
                                                 realizations=3)
    with np.errstate(all="ignore"):
        solo = simulate(model, _ZeroController(), _still_ref(), config)
    rows = solo.t.shape[0]
    assert solo.diverged and rows < config.steps + 1
    assert len(calls) == 4 * rows
    calls.clear()
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        run_ensemble(model, _ZeroController(), _still_ref(), config)
    # the identical runs leave the bound at the same step; no output after it
    assert len(calls) == 4 * rows


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_single_realization_mean_is_trajectory():
    model = _pendulum()
    ctl = ComputedTorqueController(model.estimate(),
                                   Gains.diagonal([5.0], [5.0]))
    ref = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                              frequency_unit="rad_per_s")
    config = SimConfig(dt=1e-3, duration=0.3, realizations=1)
    stats, runs = run_ensemble(model, ctl, ref, config)
    assert len(runs) == 1
    assert np.array_equal(stats.mean_q, runs[0].q)
    assert np.array_equal(stats.std_q, np.zeros_like(stats.mean_q))


def test_ensemble_deterministic_runs_identical():
    model = _pendulum()
    ctl = ComputedTorqueController(model.estimate(),
                                   Gains.diagonal([5.0], [5.0]))
    ref = _still_ref()
    config = SimConfig(dt=1e-3, duration=0.2, realizations=4)
    stats, runs = run_ensemble(model, ctl, ref, config)
    assert np.max(stats.std_q) == 0.0
    for i, run in enumerate(runs):
        assert run.seed == config.base_seed + i
        assert np.array_equal(run.q, runs[0].q)


@pytest.mark.parametrize("realizations", [3, 5])
def test_noiseless_ensemble_is_one_trajectory(realizations):
    # averaging R copies of one float is exact only when R is a power of two
    model = _pendulum()
    ctl = ComputedTorqueController(model.estimate(),
                                   Gains.diagonal([5.0], [5.0]))
    ref = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                              frequency_unit="rad_per_s")
    config = SimConfig(dt=1e-3, duration=1.0, realizations=realizations)
    stats, runs = run_ensemble(model, ctl, ref, config)
    assert not np.any(stats.std_q) and not np.any(stats.std_qd)
    assert np.array_equal(stats.mean_q, runs[0].q)
    assert np.array_equal(stats.mean_qd, runs[0].qd)
    assert [run.seed for run in runs] == list(range(realizations))


def test_ensemble_run_matches_single_simulate():
    model = _pendulum()
    ctl = CTGPController(model.estimate(), _tiny_wing_gp(),
                         Gains.diagonal([5.0], [5.0]), mode="stochastic")
    ref = _still_ref()
    config = SimConfig(dt=1e-3, duration=0.2, integrator="euler-maruyama",
                       realizations=3, base_seed=10)
    _, runs = run_ensemble(model, ctl, ref, config)
    for i in (0, 2):
        solo = simulate(model, ctl, ref, config, seed=10 + i)
        assert np.max(np.abs(solo.q - runs[i].q)) < 1e-10
        assert np.max(np.abs(solo.qd - runs[i].qd)) < 1e-10


def test_ensemble_stochastic_spread_is_positive():
    model = _pendulum()
    ctl = CTGPController(model.estimate(), _tiny_wing_gp(),
                         Gains.diagonal([5.0], [5.0]), mode="stochastic")
    config = SimConfig(dt=1e-3, duration=0.2, integrator="euler-maruyama",
                       realizations=5)
    stats, runs = run_ensemble(model, ctl, _still_ref(), config)
    assert np.max(stats.std_q) > 0.0
    assert stats.divergent_runs == []


# ---------------------------------------------------------------------------
# result containers


def _constant_error_result(e_val=0.1, steps=10) -> SimResult:
    n = 2
    t = np.arange(steps + 1) * 0.1
    zeros = np.zeros((steps + 1, n))
    e = np.full((steps + 1, n), e_val)
    return SimResult(t=t, q=zeros, qd=zeros, e=e, ed=zeros, tau=zeros,
                     gp_mean=zeros, gp_std=zeros, seed=0)


def test_rmse_of_constant_error_is_that_error():
    res = _constant_error_result(0.1)
    assert res.rmse() == pytest.approx(np.array([0.1, 0.1]), abs=1e-15)
    assert res.rmse(t_skip=0.55) == pytest.approx(np.array([0.1, 0.1]))


def test_rmse_rejects_empty_window():
    with pytest.raises(ValueError, match="t_skip"):
        _constant_error_result().rmse(t_skip=100.0)


def test_error_norms_formula():
    res = _constant_error_result(0.3)
    assert res.error_norms() == pytest.approx(
        np.full(11, math.sqrt(2 * 0.3**2)))


def test_result_csv_header_and_optional_v_column(tmp_path):
    res = _constant_error_result()
    path = tmp_path / "run.csv"
    res.to_csv(path, manifest=("# meta line",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# meta line"
    assert lines[1].startswith("t,q_1,q_2,qd_1,qd_2,e_1,e_2,ed_1,ed_2,tau_1")
    assert "v" not in lines[1].split(",")
    assert len(lines) == 2 + res.t.size
    res.v = np.linspace(1.0, 0.0, res.t.size)
    res.to_csv(path)
    assert path.read_text().splitlines()[0].endswith(",v")


# ---------------------------------------------------------------------------
# Lyapunov trace


def test_lyapunov_zero_error_zero_value():
    res = _constant_error_result(0.0)
    trace = lyapunov_trace(res, TwoLinkArm(), Gains.diagonal([20.0, 15.0],
                                                             [5.0, 5.0]))
    assert np.array_equal(trace.v, np.zeros(res.t.size))
    assert not trace.indefinite_warning


def test_lyapunov_epsilon_zero_velocity_term():
    """eps = 0, e = 0, ed = v: V = 0.5 v' H v (wing: H = 1)."""
    n = 1
    t = np.arange(3) * 0.1
    zeros = np.zeros((3, n))
    ed = np.full((3, n), 2.0)
    res = SimResult(t=t, q=zeros, qd=ed, e=zeros, ed=ed, tau=zeros,
                    gp_mean=zeros, gp_std=zeros, seed=0)
    trace = lyapunov_trace(res, _pendulum(), Gains.diagonal([5.0], [5.0]),
                           epsilon=0.0)
    assert trace.v == pytest.approx(np.full(3, 0.5 * 4.0), abs=1e-15)


def test_lyapunov_large_epsilon_flags_indefinite():
    res = _constant_error_result(0.1)
    gains = Gains.diagonal([20.0, 15.0], [5.0, 5.0])
    small = lyapunov_trace(res, TwoLinkArm(), gains, epsilon=0.1)
    large = lyapunov_trace(res, TwoLinkArm(), gains, epsilon=100.0)
    assert not small.indefinite_warning
    assert large.indefinite_warning


def _result_with_error_norms(values) -> SimResult:
    n = 1
    steps = len(values) - 1
    t = np.arange(steps + 1) * 0.1
    zeros = np.zeros((steps + 1, n))
    e = np.asarray(values, dtype=float)[:, None]
    return SimResult(t=t, q=zeros, qd=zeros, e=e, ed=zeros, tau=zeros,
                     gp_mean=zeros, gp_std=zeros, seed=0)


def test_lyapunov_ball_radius_monotone_decay():
    trace = lyapunov_trace(_result_with_error_norms([3.0, 2.0, 1.0]),
                           _pendulum(), Gains.diagonal([5.0], [5.0]))
    assert trace.ball_radius == 1.0


def test_lyapunov_ball_radius_covers_rebound():
    # tail rises back to 2, so no ball smaller than 2 traps the trajectory
    trace = lyapunov_trace(_result_with_error_norms([3.0, 1.0, 2.0]),
                           _pendulum(), Gains.diagonal([5.0], [5.0]))
    assert trace.ball_radius == 2.0


def test_simulate_attaches_lyapunov_when_requested():
    model = _pendulum()
    ctl = ComputedTorqueController(model.estimate(),
                                   Gains.diagonal([5.0], [5.0]))
    config = SimConfig(dt=1e-3, duration=0.2, lyapunov_trace=True,
                       lyapunov_epsilon=0.1)
    res = simulate(model, ctl, _still_ref(), config)
    assert res.v is not None and res.v.shape == res.t.shape
    trace = lyapunov_trace(res, model, ctl.gains, config.lyapunov_epsilon)
    assert np.array_equal(res.v, trace.v)
    assert math.isfinite(trace.ball_radius)
    assert not trace.indefinite_warning
