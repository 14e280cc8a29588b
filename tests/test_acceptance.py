"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each test prints one "criterion N: PASS/FAIL" line that bypasses pytest's
output capture, so a plain `pytest -v` run shows the gate status inline.
The expensive wing and arm pipelines run once in module fixtures shared by
several criteria; fixture wall time is charged to the first criterion that
needs the fixture, so the runtime budgets below are conservative.
"""
from __future__ import annotations

import copy
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from ctgp.cli import main
from ctgp.config import load_scenario, scenario_from_dict
from ctgp.control import ControlOutput, CTGPController, Gains
from ctgp.dynamics import JointState, WingModel, check_structural_properties
from ctgp.gp import (Hyperparameters, MultiGP, TrainingSet, fit,
                     log_marginal_likelihood, save_hyperparameters)
from ctgp.harness import (optimize_training_set, read_result_csv,
                          run_learning_curve, run_train)
from ctgp.sim import ReferenceTrajectory, SimConfig, run_ensemble, simulate
from oracles import kernel_eval

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _announce(request, index: int, ok: bool, detail: str):
    """Print the criterion verdict past pytest's capture."""
    line = f"criterion {index:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    manager = request.config.pluginmanager.getplugin("capturemanager")
    if manager is None:
        print(line, flush=True)
    else:
        with manager.global_and_fixture_disabled():
            print(line, flush=True)


# ---------------------------------------------------------------------------
# shared pipelines


@pytest.fixture(scope="module")
def wing_scenario():
    return load_scenario(CONFIGS / "wing.yaml")


@pytest.fixture(scope="module")
def wing_raw():
    return yaml.safe_load((CONFIGS / "wing.yaml").read_text())


@pytest.fixture(scope="module")
def wing_train(wing_scenario, tmp_path_factory):
    t0 = time.perf_counter()
    out = run_train(wing_scenario, tmp_path_factory.mktemp("wing_train"))
    return SimpleNamespace(outputs=out, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def wing_tracking(wing_scenario, wing_raw, wing_train):
    """Deterministic CT-GP and CT trajectories on the shipped wing scenario."""
    t0 = time.perf_counter()
    ctl = wing_scenario.build_controller(wing_train.outputs.gp)
    res_gp = simulate(wing_scenario.plant, ctl, wing_scenario.reference,
                      wing_scenario.sim)
    raw = copy.deepcopy(wing_raw)
    raw["controller"]["kind"] = "ct"
    ct = scenario_from_dict(raw)
    res_ct = simulate(ct.plant, ct.build_controller(), ct.reference, ct.sim)
    return SimpleNamespace(
        rmse_gp=res_gp.rmse(wing_scenario.t_skip),
        rmse_ct=res_ct.rmse(wing_scenario.t_skip),
        elapsed=time.perf_counter() - t0,
    )


@pytest.fixture(scope="module")
def wing_ensembles(wing_scenario, wing_raw, wing_train):
    """Stochastic 100-run ensembles with 990 and 50 training points, plus
    the deterministic trajectory on the same Euler-Maruyama grid."""
    t0 = time.perf_counter()
    raw = copy.deepcopy(wing_raw)
    raw["controller"]["mode"] = "stochastic"
    raw["sim"]["integrator"] = "euler-maruyama"
    raw["sim"]["realizations"] = 100
    s = scenario_from_dict(raw)
    train = wing_train.outputs.train
    stats_full, results_full = run_ensemble(
        s.plant, s.build_controller(wing_train.outputs.gp), s.reference, s.sim)
    subset = train.subsample(50, seed=wing_scenario.training_plan.seed)
    gp50 = fit(subset, optimize_training_set(subset, wing_scenario))
    stats_small, _ = run_ensemble(
        s.plant, s.build_controller(gp50), s.reference, s.sim)
    raw_det = copy.deepcopy(raw)
    raw_det["controller"]["mode"] = "deterministic"
    raw_det["sim"]["realizations"] = 1
    det_scenario = scenario_from_dict(raw_det)
    det = simulate(det_scenario.plant,
                   det_scenario.build_controller(wing_train.outputs.gp),
                   det_scenario.reference, det_scenario.sim)
    return SimpleNamespace(
        stats_full=stats_full, results_full=results_full,
        stats_small=stats_small, det=det,
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_gp_matches_dense_inverse_oracle(request):
    """Cholesky posterior equals the explicit-inverse formulas to 1e-10."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 51))
        train = TrainingSet(rng.normal(0.0, 2.0, size=(d, m)),
                            rng.normal(0.0, 1.0, size=(m, n)))
        hypers = [Hyperparameters(float(rng.uniform(0.3, 2.0)),
                                  float(rng.uniform(0.25, 9.0)),
                                  float(rng.uniform(1e-2, 1.0)))
                  for _ in range(n)]
        gp = fit(train, hypers)
        queries = rng.normal(0.0, 2.0, size=(5, d))
        mean = np.zeros((5, n))
        var = np.zeros((5, n))
        pts = train.inputs.T
        for i, hp in enumerate(hypers):
            k = np.array([[kernel_eval(a, b, hp) for b in pts] for a in pts])
            k_inv = np.linalg.inv(k + hp.noise_variance * np.eye(m))
            for j, q in enumerate(queries):
                ks = np.array([kernel_eval(q, b, hp) for b in pts])
                mean[j, i] = ks @ k_inv @ train.outputs[:, i]
                var[j, i] = hp.signal_variance - ks @ k_inv @ ks
        worst = max(worst,
                    float(np.max(np.abs(gp.predict_mean(queries) - mean))),
                    float(np.max(np.abs(gp.predict_var(queries) - var))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _announce(request, 1, ok,
              f"max |gp - dense oracle| {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_lml_gradient_matches_central_differences(request):
    """Analytic likelihood gradient within 1e-5 relative of central FD."""
    rng = np.random.default_rng(1)
    h = 1e-5
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(2, 31))
        train = TrainingSet(rng.normal(0.0, 2.0, size=(d, m)),
                            rng.normal(0.0, 1.0, size=(m, 1)))
        hp = Hyperparameters(float(rng.uniform(0.3, 2.0)),
                             float(rng.uniform(0.25, 9.0)),
                             float(rng.uniform(1e-2, 1.0)))
        _, grad = log_marginal_likelihood(train, hp)
        theta = hp.to_log_array()
        for k in range(3):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            vu, _ = log_marginal_likelihood(
                train, Hyperparameters.from_log_array(up))
            vd, _ = log_marginal_likelihood(
                train, Hyperparameters.from_log_array(down))
            fd = (vu - vd) / (2.0 * h)
            worst = max(worst, abs(grad[k] - fd) / max(1.0, abs(fd)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    _announce(request, 2, ok,
              f"max rel gradient error {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_3_arm_structural_properties(request):
    """Symmetry/SPD/skew/C-linearity of the arm over 1000 random states."""
    plant = load_scenario(CONFIGS / "arm.yaml").plant
    t0 = time.perf_counter()
    report = check_structural_properties(plant, 1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (report.passed and report.samples == 1000
          and report.max_symmetry_defect < 1e-10
          and report.min_mass_eigenvalue > 0
          and report.max_skew_defect < 1e-8
          and report.max_linearity_defect < 1e-10
          and elapsed < 10.0)
    _announce(request, 3, ok,
              f"skew defect {report.max_skew_defect:.2e}, min eig "
              f"{report.min_mass_eigenvalue:.2e}, {elapsed:.1f} s")
    assert report.passed and report.samples == 1000
    assert report.max_symmetry_defect < 1e-10
    assert report.min_mass_eigenvalue > 0
    assert report.max_skew_defect < 1e-8
    assert report.max_linearity_defect < 1e-10
    assert elapsed < 10.0


class _FreeSwing:
    mode = "deterministic"
    gains = Gains.diagonal([1.0], [1.0])

    def output(self, state, ref, include_std=True):
        tau = np.zeros(state.q.shape)
        return ControlOutput(drift=tau)


def test_criterion_4_integrator_orders(request):
    """RK4 halving ratio in [12, 20]; zero-diffusion EM is explicit Euler."""
    pendulum = WingModel(airspeed=0.0)
    ref = ReferenceTrajectory(np.zeros(1), np.ones(1), np.zeros(1))
    ends = {}
    for dt in (4e-3, 2e-3, 1e-3):
        res = simulate(pendulum, _FreeSwing(), ref, SimConfig(dt=dt, duration=1.0),
                       q0=np.array([1.0]))
        ends[dt] = res.q[-1, 0]
    ratio = (ends[4e-3] - ends[2e-3]) / (ends[2e-3] - ends[1e-3])

    ctl = CTGPController(pendulum.estimate(), MultiGP.empty(3, 1),
                         Gains.diagonal([5.0], [5.0]), mode="stochastic")
    track = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                                frequency_unit="rad_per_s")
    config = SimConfig(dt=1e-3, duration=0.5, integrator="euler-maruyama")
    res = simulate(pendulum, ctl, track, config)
    q, qd = np.zeros(1), np.zeros(1)
    for k in range(config.steps):
        out = ctl.output(JointState(q, qd), track.sample(k * config.dt))
        qdd = pendulum.forward_dynamics(q, qd, out.drift)
        q, qd = q + config.dt * qd, qd + config.dt * qdd
    euler_exact = bool(np.array_equal(res.q[-1], q)
                       and np.array_equal(res.qd[-1], qd))

    ok = 12.0 <= ratio <= 20.0 and euler_exact
    _announce(request, 4, ok,
              f"RK4 halving ratio {ratio:.2f}, EM==Euler {euler_exact}")
    assert 12.0 <= ratio <= 20.0
    assert euler_exact


def test_criterion_5_zero_data_identity_through_cli(request, tmp_path, wing_raw):
    """CT-GP with an empty training set equals CT bit for bit via the CLI."""
    raw = copy.deepcopy(wing_raw)
    raw["sim"]["duration"] = 2.0
    gp_dir = tmp_path / "ctgp"
    gp_dir.mkdir()
    # empty-but-valid model artifacts: zero training rows, prior hypers
    TrainingSet(np.zeros((3, 0)), np.zeros((0, 1))).save_csv(
        gp_dir / "training_data.csv")
    save_hyperparameters(gp_dir / "hyperparameters.txt", [Hyperparameters()])
    cfg_gp = tmp_path / "wing-ctgp.yaml"
    cfg_gp.write_text(yaml.safe_dump(raw))
    assert main(["simulate", "--config", str(cfg_gp), "--out", str(gp_dir)]) == 0

    raw["controller"]["kind"] = "ct"
    cfg_ct = tmp_path / "wing-ct.yaml"
    cfg_ct.write_text(yaml.safe_dump(raw))
    ct_dir = tmp_path / "ct"
    assert main(["simulate", "--config", str(cfg_ct), "--out", str(ct_dir)]) == 0

    def data_lines(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("#")]

    same = data_lines(gp_dir / "trajectory.csv") == \
        data_lines(ct_dir / "trajectory.csv")
    _announce(request, 5, same,
              f"trajectories byte-identical modulo manifest: {same}")
    assert same


def test_criterion_6_wing_tracking_improvement(request, wing_train,
                                               wing_tracking):
    """Deterministic CT-GP beats CT by 3x and stays under 0.1 rad RMSE."""
    elapsed = wing_train.elapsed + wing_tracking.elapsed
    r_ct = float(wing_tracking.rmse_ct[0])
    r_gp = float(wing_tracking.rmse_gp[0])
    ok = r_gp < 0.1 and r_ct >= 3.0 * r_gp and elapsed < 120.0
    _announce(request, 6,
              ok, f"rmse ct {r_ct:.6f} vs ct-gp {r_gp:.6f} "
              f"(ratio {r_ct / r_gp:.2f}), {elapsed:.0f} s incl. training")
    assert r_gp < 0.1
    assert r_ct >= 3.0 * r_gp
    assert elapsed < 120.0


def test_criterion_7_stochastic_band_mechanism(request, wing_ensembles):
    """Deterministic mean inside the 2-sigma band; band shrinks with data."""
    stats = wing_ensembles.stats_full
    det_q = wing_ensembles.det.q[:, 0]
    inside = np.abs(det_q - stats.mean_q[:, 0]) <= 2.0 * stats.std_q[:, 0]
    coverage = float(np.mean(inside))
    band_full = float(np.mean(2.0 * stats.std_q[:, 0]))
    band_small = float(np.mean(2.0 * wing_ensembles.stats_small.std_q[:, 0]))
    elapsed = wing_ensembles.elapsed
    ok = coverage >= 0.95 and band_full < band_small and elapsed < 600.0
    _announce(request, 7,
              ok, f"coverage {coverage:.4f}, band width 990 pts "
              f"{band_full:.4f} < 50 pts {band_small:.4f}, {elapsed:.0f} s")
    assert stats.realizations == 100
    assert coverage >= 0.95
    assert band_full < band_small
    assert elapsed < 600.0


def test_criterion_8_statistical_boundedness(request, wing_ensembles):
    """Gain check passes and no run leaves the error ball after 3 s."""
    check_exit = main(["check", "--config", str(CONFIGS / "wing.yaml")])
    stats = wing_ensembles.stats_full
    sups = []
    for res in wing_ensembles.results_full:
        mask = res.t > 3.0
        sups.append(float(np.max(res.error_norms()[mask])))
    worst = max(sups)
    ok = (check_exit == 0 and stats.divergent_runs == []
          and stats.realizations == 100 and worst < 0.5)
    _announce(request, 8,
              ok, f"check exit {check_exit}, divergent 0/100, "
              f"sup error norm after 3 s {worst:.4f}")
    assert check_exit == 0
    assert stats.divergent_runs == [] and stats.realizations == 100
    assert worst < 0.5


def test_criterion_9_learning_curve(request, wing_scenario, wing_tracking,
                                    tmp_path):
    """RMSE(0) == CT exactly; RMSE(990) < RMSE(50); probe error decreasing."""
    t0 = time.perf_counter()
    path = run_learning_curve(wing_scenario, [0, 50, 200, 500, 990], tmp_path)
    elapsed = time.perf_counter() - t0
    _, header, data = read_result_csv(path)
    assert header == ["points", "rmse_1", "probe_median"]
    sizes = list(data[:, 0])
    rmse = dict(zip(sizes, data[:, 1]))
    probe = data[:, 2]
    baseline_exact = rmse[0.0] == float(wing_tracking.rmse_ct[0])
    improves = rmse[990.0] < rmse[50.0]
    probe_decreasing = bool(np.all(np.diff(probe) < 0))
    ok = (baseline_exact and improves and probe_decreasing
          and elapsed < 600.0)
    _announce(request, 9,
              ok, f"rmse(0)==ct {baseline_exact}, rmse990 {rmse[990.0]:.4f} "
              f"< rmse50 {rmse[50.0]:.4f}, probe medians "
              + "/".join(f"{v:.3f}" for v in probe) + f", {elapsed:.0f} s")
    assert sizes == [0.0, 50.0, 200.0, 500.0, 990.0]
    assert baseline_exact
    assert improves
    assert probe_decreasing
    assert elapsed < 600.0


def test_criterion_10_arm_controller_ordering(request, tmp_path):
    """Per-joint RMSE: CT-GP < CT-SP < CT < LG-PD, CT-GP within 1.5x HG-PD."""
    t0 = time.perf_counter()
    raw = yaml.safe_load((CONFIGS / "arm.yaml").read_text())
    scenario = load_scenario(CONFIGS / "arm.yaml")
    trained = run_train(scenario, tmp_path)
    rmse = {}
    for kind in ("hg-pd", "lg-pd", "ct", "ct-sp", "ct-gp"):
        variant = copy.deepcopy(raw)
        variant["controller"]["kind"] = kind
        if kind == "hg-pd":
            variant["controller"]["kp"] = [800.0, 600.0]
        s = scenario_from_dict(variant)
        ctl = s.build_controller(trained.gp if kind == "ct-gp" else None)
        res = simulate(s.plant, ctl, s.reference, s.sim)
        assert not res.diverged
        rmse[kind] = res.rmse(s.t_skip)
    elapsed = time.perf_counter() - t0
    ordering = bool(np.all(rmse["ct-gp"] < rmse["ct-sp"])
                    and np.all(rmse["ct-sp"] < rmse["ct"])
                    and np.all(rmse["ct"] < rmse["lg-pd"]))
    competitive = bool(np.all(rmse["ct-gp"] <= 1.5 * rmse["hg-pd"]))
    ok = ordering and competitive and elapsed < 300.0
    joint1 = ", ".join(f"{k} {rmse[k][0]:.4f}" for k in
                       ("ct-gp", "ct-sp", "ct", "lg-pd", "hg-pd"))
    _announce(request, 10, ok, f"joint-1 rmse {joint1}, {elapsed:.0f} s")
    assert ordering
    assert competitive
    assert elapsed < 300.0


def test_criterion_11_byte_identical_reruns(request, tmp_path):
    """Same config and seed: every artifact of every stage is byte-equal."""
    raw = {
        "name": "wing-repro",
        "plant": {"kind": "wing"},
        "estimate": {"kind": "pendulum"},
        "controller": {"kind": "ct-gp", "kp": [5.0], "kd": [5.0],
                       "mode": "stochastic"},
        "reference": {"amplitude": [0.3], "frequency": [1.0], "phase": [0.0],
                      "frequency_unit": "rad_per_s"},
        "training": {"mode": "open-loop", "seed": 123,
                     "torque_range": [-8.0, 8.0], "torque_count": 5,
                     "position_range": [-3.1, 3.1], "position_count": 4,
                     "hold_duration": 0.5, "dt": 1e-3,
                     "noise_std_q": 1e-3, "noise_std_qd": 1e-2,
                     "hyperopt": {"budget": 5, "restarts": 2,
                                  "initial": {"length_scale": 2.0,
                                              "signal_variance": 4.0,
                                              "noise_variance": 0.01}}},
        "sim": {"dt": 1e-3, "duration": 1.0, "integrator": "euler-maruyama",
                "realizations": 5, "base_seed": 3},
        "evaluate": {"t_skip": 0.2},
        "check": {"probe_count": 300, "seed": 7, "structural_samples": 50},
    }
    cfg = tmp_path / "repro.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    artifacts = ("training_data.csv", "training_data.provenance.json",
                 "hyperparameters.txt", "train_log.txt", "trajectory.csv",
                 "ensemble.csv", "manifest.txt", "learning_curve.csv",
                 "check_report.txt", "rmse.csv")
    for run in ("r1", "r2"):
        out = str(tmp_path / run)
        assert main(["train", "--config", str(cfg), "--out", out]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 0
        assert main(["learning-curve", "--config", str(cfg), "--out", out,
                     "--sizes", "0,8,20"]) == 0
        assert main(["check", "--config", str(cfg), "--out", out]) == 0
        assert main(["evaluate", str(tmp_path / run / "trajectory.csv"),
                     "--out", str(tmp_path / run / "rmse.csv"),
                     "--t-skip", "0.2"]) == 0
    differing = [name for name in artifacts
                 if (tmp_path / "r1" / name).read_bytes()
                 != (tmp_path / "r2" / name).read_bytes()]
    ok = differing == []
    _announce(request, 11,
              ok, f"{len(artifacts)} artifacts byte-identical across reruns"
              if ok else f"differs: {differing}")
    assert differing == []
