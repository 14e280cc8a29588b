"""Batch workflow: artifact files, rerun determinism, reports, exit codes.

The train/simulate/evaluate stages communicate only through files, so these
tests pin the artifact names, the manifest comment line, byte-level rerun
determinism, and the CLI exit-code contract (0 ok, 1 config, 2 numerical,
3 divergence).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from ctgp.cli import main
from ctgp.config import ConfigError, load_scenario, scenario_from_dict
from ctgp.control import PDController
from ctgp.harness import (load_gp, manifest_lines, read_result_csv,
                          run_check, run_evaluate, run_learning_curve,
                          run_simulate, run_train, trajectory_rmse)
from ctgp.training import generate_closed_loop, generate_open_loop


def _wing_raw() -> dict:
    return {
        "name": "wing-mini",
        "plant": {"kind": "wing"},
        "estimate": {"kind": "pendulum"},
        "controller": {"kind": "ct-gp", "kp": [5.0], "kd": [5.0],
                       "mode": "deterministic"},
        "reference": {"amplitude": [0.3], "frequency": [1.0], "phase": [0.0],
                      "frequency_unit": "rad_per_s"},
        "training": {"mode": "open-loop", "seed": 123,
                     "torque_range": [-8.0, 8.0], "torque_count": 5,
                     "position_range": [-3.1, 3.1], "position_count": 4,
                     "hold_duration": 0.5, "dt": 1e-3,
                     "noise_std_q": 1e-3, "noise_std_qd": 1e-2,
                     "hyperopt": {"budget": 3, "restarts": 1,
                                  "initial": {"length_scale": 2.0,
                                              "signal_variance": 4.0,
                                              "noise_variance": 0.01}}},
        "sim": {"dt": 1e-3, "duration": 1.0, "integrator": "rk4",
                "realizations": 1, "base_seed": 0},
        "evaluate": {"t_skip": 0.2},
        "check": {"probe_count": 300, "seed": 7, "structural_samples": 50},
    }


def _weak_arm_raw(kd: float) -> dict:
    # spring-free arm: the model error is friction, so it grows with speed
    return {
        "name": "arm-nospring",
        "plant": {"kind": "two-link-arm"},
        "estimate": {"kind": "rigid-arm"},
        "controller": {"kind": "ct", "kp": [20.0, 15.0], "kd": [kd, kd]},
        "reference": {"amplitude": [0.6283, 0.6283], "frequency": [1.0, 2.0],
                      "frequency_unit": "hz"},
        "sim": {"duration": 1.0},
        "evaluate": {"t_skip": 0.2},
        "check": {"probe_count": 300, "seed": 7, "structural_samples": 50},
    }


def _write_cfg(tmp_path, raw, name="scenario.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def _write_trajectory(path, t, e_cols, label):
    n = len(e_cols)
    lines = [f"# manifest: controller={label}"]
    lines.append("t," + ",".join(f"q_{j + 1}" for j in range(n))
                 + "," + ",".join(f"e_{j + 1}" for j in range(n)))
    for i, ti in enumerate(t):
        row = [repr(float(ti))] + ["0.0"] * n
        row += [repr(float(col[i])) for col in e_cols]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_line_format():
    s = scenario_from_dict(_wing_raw())
    lines = manifest_lines(s, points=20)
    assert len(lines) == 1
    line = lines[0]
    assert line.startswith("# manifest: config=")
    for token in ("scenario=wing-mini", "controller=ct-gp",
                  "mode=deterministic", "frequency_unit=rad_per_s",
                  "base_seed=0", "version=", "points=20"):
        assert token in line


# ---------------------------------------------------------------------------
# train stage


def test_train_writes_artifacts(tmp_path):
    s = scenario_from_dict(_wing_raw())
    out = run_train(s, tmp_path)
    for name in ("training_data.csv", "training_data.provenance.json",
                 "hyperparameters.txt", "train_log.txt"):
        assert (tmp_path / name).exists()
    assert out.train.size == 20 and out.dropped == 0
    assert out.gp.size == 20
    meta = json.loads((tmp_path / "training_data.provenance.json").read_text())
    assert meta["total"] == 20 and meta["dropped"] == 0
    assert meta["plan"]["seed"] == 123
    header = [ln for ln in (tmp_path / "training_data.csv").read_text().splitlines()
              if not ln.startswith("#")][0]
    assert header == "x_1,x_2,x_3,y_1"


def test_train_reruns_are_byte_identical(tmp_path):
    s = scenario_from_dict(_wing_raw())
    run_train(s, tmp_path / "a")
    run_train(s, tmp_path / "b")
    for name in ("training_data.csv", "training_data.provenance.json",
                 "hyperparameters.txt", "train_log.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_train_seed_override_changes_data(tmp_path):
    s = scenario_from_dict(_wing_raw())
    run_train(s, tmp_path / "a")
    run_train(s, tmp_path / "b", seed_override=999)
    meta = json.loads((tmp_path / "b" / "training_data.provenance.json").read_text())
    assert meta["plan"]["seed"] == 999
    assert (tmp_path / "a" / "training_data.csv").read_bytes() != \
        (tmp_path / "b" / "training_data.csv").read_bytes()


def test_shipped_wing_plan_row_count():
    s = load_scenario("configs/wing.yaml")
    train, report = generate_open_loop(s.training_plan, s.plant, s.estimate)
    assert train.size == 990 and report.dropped == 0
    assert train.input_dim == 3 and train.output_dim == 1


def test_shipped_arm_plan_row_count():
    s = load_scenario("configs/arm.yaml")
    exciter = PDController(s.exciter_gains)
    train, report = generate_closed_loop(s.training_plan, s.plant, s.estimate,
                                         exciter, s.reference)
    assert train.size == 351 and report.dropped == 0
    assert train.input_dim == 6 and train.output_dim == 2


def test_load_gp_round_trip_is_exact(tmp_path):
    """Floats are written with repr, so reload reproduces predictions bitwise."""
    s = scenario_from_dict(_wing_raw())
    out = run_train(s, tmp_path)
    gp = load_gp(tmp_path)
    queries = np.array([[0.5, -1.0, 0.3], [0.0, 0.0, 0.0]])
    assert np.array_equal(gp.predict_mean(queries), out.gp.predict_mean(queries))


def test_load_gp_requires_train_artifacts(tmp_path):
    with pytest.raises(ConfigError, match="run the train step first"):
        load_gp(tmp_path)


# ---------------------------------------------------------------------------
# simulate stage


def test_simulate_writes_trajectory_and_manifest(tmp_path):
    s = scenario_from_dict(_wing_raw())
    run_train(s, tmp_path)
    out = run_simulate(s, tmp_path)
    assert out.ensemble_csv is None and out.divergent_runs == []
    meta, header, data = read_result_csv(out.trajectory_csv)
    assert meta["controller"] == "ct-gp" and meta["scenario"] == "wing-mini"
    assert meta["config"] == s.fingerprint()
    assert meta["gp_points"] == "20"
    assert header[:3] == ["t", "q_1", "qd_1"]
    assert data.shape[0] == 1001  # duration 1.0 at dt 1e-3, inclusive grid
    info = json.loads((tmp_path / "manifest.txt").read_text())
    assert info["realizations"] == 1 and info["divergent_runs"] == []
    assert info["config_fingerprint"] == s.fingerprint()
    assert info["integrator"] == "rk4"


def test_simulate_stochastic_ensemble(tmp_path):
    raw = _wing_raw()
    raw["controller"]["mode"] = "stochastic"
    raw["sim"]["integrator"] = "euler-maruyama"
    raw["sim"]["duration"] = 0.5
    s = scenario_from_dict(raw)
    run_train(s, tmp_path)
    out = run_simulate(s, tmp_path, realizations_override=3)
    assert out.realizations == 3 and out.divergent_runs == []
    assert out.ensemble_csv is not None
    meta, header, data = read_result_csv(out.ensemble_csv)
    assert header == ["t", "mean_q_1", "std_q_1", "mean_qd_1", "std_qd_1"]
    assert data.shape == (501, 5)
    # the velocity kick reaches q one step later, so spread starts at step 2
    assert np.all(data[2:, 2] > 0)
    info = json.loads((tmp_path / "manifest.txt").read_text())
    assert info["realizations"] == 3 and info["mode"] == "stochastic"


def test_simulate_without_gp_skips_train_artifacts(tmp_path):
    raw = _wing_raw()
    del raw["training"]
    raw["controller"] = {"kind": "ct", "kp": [5.0], "kd": [5.0]}
    out = run_simulate(scenario_from_dict(raw), tmp_path)
    meta, _, _ = read_result_csv(out.trajectory_csv)
    assert meta["controller"] == "ct" and meta["gp_points"] == "0"


# ---------------------------------------------------------------------------
# result files and evaluate stage


def test_read_result_csv_roundtrip(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("# manifest: controller=ct seed=3\n"
                    "# free comment\n"
                    "t,q_1\n0.0,1.5\n0.1,2.5\n")
    meta, header, data = read_result_csv(path)
    assert meta == {"controller": "ct", "seed": "3"}
    assert header == ["t", "q_1"]
    assert np.array_equal(data, [[0.0, 1.5], [0.1, 2.5]])


def test_read_result_csv_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# manifest: a=b\n")
    with pytest.raises(ConfigError, match="no header"):
        read_result_csv(path)


def _ragged_trajectory(path):
    # one field more per row than the header names: 3 x 4 values, which a
    # reader that reshapes by the header would take as 4 rows of 3
    path.write_text("# manifest: controller=ct\nt,q_1,e_1\n"
                    "0.0,0.0,0.1,9.0\n0.1,0.0,0.1,9.0\n0.2,0.0,0.1,9.0\n")
    return path


def test_read_result_csv_refuses_a_ragged_row(tmp_path):
    path = _ragged_trajectory(tmp_path / "ragged.csv")
    with pytest.raises(ConfigError, match=r"ragged\.csv, line 3: 4 fields"):
        read_result_csv(path)


def test_cli_evaluate_ragged_file_exits_1(tmp_path, capsys):
    path = _ragged_trajectory(tmp_path / "ragged.csv")
    report = tmp_path / "rmse.csv"
    assert main(["evaluate", str(path), "--out", str(report)]) == 1
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not report.exists()


def test_trajectory_rmse_constant_error(tmp_path):
    """Constant e = 0.1 after the skipped transient gives RMSE exactly 0.1."""
    t = np.arange(11) * 0.1
    e = np.full(11, 0.1)
    e[:3] = 7.0  # transient, excluded by t_skip
    path = _write_trajectory(tmp_path / "tr.csv", t, [e], "ct")
    label, n, rmse = trajectory_rmse(path, t_skip=0.3)
    assert label == "ct" and n == 1
    assert rmse[0] == 0.1


def test_trajectory_rmse_needs_error_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,q_1\n0.0,0.0\n")
    with pytest.raises(ConfigError, match="not a trajectory file"):
        trajectory_rmse(path, 0.0)


def test_evaluate_tabulates_in_input_order(tmp_path):
    t = np.arange(6) * 0.1
    a = _write_trajectory(tmp_path / "a.csv", t, [np.full(6, 0.2)], "ct")
    b = _write_trajectory(tmp_path / "b.csv", t, [np.full(6, 0.1)], "ct-gp")
    report = tmp_path / "report.csv"
    table = run_evaluate([a, b], 0.0, report)
    assert [label for label, _ in table] == ["ct", "ct-gp"]
    assert table[0][1][0] == 0.2 and table[1][1][0] == 0.1
    lines = report.read_text().splitlines()
    assert lines[0].startswith("# manifest: t_skip=")
    assert lines[1] == "controller,rmse_1"
    assert lines[2] == "ct,0.2" and lines[3] == "ct-gp,0.1"


def test_evaluate_pads_mixed_joint_counts(tmp_path):
    t = np.arange(4) * 0.1
    one = _write_trajectory(tmp_path / "one.csv", t, [np.full(4, 0.2)], "a")
    two = _write_trajectory(tmp_path / "two.csv", t,
                            [np.full(4, 0.1), np.full(4, 0.3)], "b")
    report = tmp_path / "report.csv"
    run_evaluate([one, two], 0.0, report)
    lines = report.read_text().splitlines()
    assert lines[1] == "controller,rmse_1,rmse_2"
    assert lines[2] == "a,0.2,"  # missing joint left empty


def test_evaluate_rejects_mismatched_grids(tmp_path):
    a = _write_trajectory(tmp_path / "a.csv", np.arange(4) * 0.1,
                          [np.zeros(4)], "ct")
    b = _write_trajectory(tmp_path / "b.csv", np.arange(4) * 0.2,
                          [np.zeros(4)], "ct")
    with pytest.raises(ConfigError, match="common time grid"):
        run_evaluate([a, b], 0.0, tmp_path / "r.csv")


def test_evaluate_rejects_empty_input():
    with pytest.raises(ConfigError, match="at least one"):
        run_evaluate([], 0.0, None)


# ---------------------------------------------------------------------------
# learning curve


def test_learning_curve_argument_errors(tmp_path):
    s = scenario_from_dict(_wing_raw())
    with pytest.raises(ConfigError, match="ascending"):
        run_learning_curve(s, [8, 0], tmp_path)
    with pytest.raises(ConfigError, match="ascending"):
        run_learning_curve(s, [], tmp_path)
    raw = _wing_raw()
    raw["controller"] = {"kind": "ct", "kp": [5.0], "kd": [5.0]}
    with pytest.raises(ConfigError, match="ct-gp"):
        run_learning_curve(scenario_from_dict(raw), [0, 8], tmp_path)
    with pytest.raises(ConfigError, match="exceeds"):
        run_learning_curve(s, [0, 100], tmp_path)


def test_learning_curve_minimal_run(tmp_path):
    raw = _wing_raw()
    raw["sim"]["duration"] = 0.5
    s = scenario_from_dict(raw)
    path = run_learning_curve(s, [0, 8, 20], tmp_path)
    meta, header, data = read_result_csv(path)
    assert os.path.basename(path) == "learning_curve.csv"
    assert meta["points_available"] == "20"
    assert header == ["points", "rmse_1", "probe_median"]
    assert data.shape == (3, 3)
    assert list(data[:, 0]) == [0.0, 8.0, 20.0]
    assert np.all(np.isfinite(data[:, 1])) and np.all(data[:, 2] > 0)


# ---------------------------------------------------------------------------
# check stage


def test_check_wing_passes_and_writes_report(tmp_path):
    s = scenario_from_dict(_wing_raw())
    text, passed = run_check(s, tmp_path)
    assert passed and text.rstrip().endswith("overall: PASS")
    assert (tmp_path / "check_report.txt").read_text() == text
    assert f"config {s.fingerprint()}" in text
    assert "PASS  Hdot - 2C skew" in text


def test_check_small_damping_fails_named_condition():
    """kd far below the friction slope trips the damping-margin condition."""
    text, passed = run_check(scenario_from_dict(_weak_arm_raw(0.01)))
    assert not passed
    assert "FAIL  sigma_min(Kd) > beta" in text
    assert text.rstrip().endswith("overall: FAIL")
    text, passed = run_check(scenario_from_dict(_weak_arm_raw(5.0)))
    assert passed


# ---------------------------------------------------------------------------
# CLI


def test_cli_train_simulate_evaluate_pipeline(tmp_path):
    cfg = _write_cfg(tmp_path, _wing_raw())
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg, "--out", out]) == 0
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    report = str(tmp_path / "rmse.csv")
    traj = os.path.join(out, "trajectory.csv")
    assert main(["evaluate", traj, "--out", report, "--t-skip", "0.2"]) == 0
    lines = open(report).read().splitlines()
    assert lines[1] == "controller,rmse_1"
    assert lines[2].startswith("ct-gp,")


def test_cli_learning_curve(tmp_path):
    raw = _wing_raw()
    raw["sim"]["duration"] = 0.5
    cfg = _write_cfg(tmp_path, raw)
    out = str(tmp_path / "run")
    assert main(["learning-curve", "--config", cfg, "--out", out,
                 "--sizes", "0,8"]) == 0
    assert os.path.exists(os.path.join(out, "learning_curve.csv"))
    assert main(["learning-curve", "--config", cfg, "--out", out,
                 "--sizes", "8,0"]) == 1
    assert main(["learning-curve", "--config", cfg, "--out", out,
                 "--sizes", "a,b"]) == 1


def test_cli_config_errors_exit_1(tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--config", str(tmp_path / "absent.yaml"),
                 "--out", out]) == 1
    raw = _wing_raw()
    raw["plotting"] = {}
    cfg = _write_cfg(tmp_path, raw, "bad.yaml")
    assert main(["train", "--config", cfg, "--out", out]) == 1
    # simulate before train: the GP artifacts are missing
    cfg = _write_cfg(tmp_path, _wing_raw())
    assert main(["simulate", "--config", cfg, "--out", out]) == 1
    assert main(["evaluate", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "r.csv")]) == 1


@pytest.mark.parametrize("sim, args", [
    ({"dt": 1e-9, "duration": 10.0}, []),
    ({}, ["--realizations", "1000000000"]),
])
def test_cli_unbounded_record_exits_1_before_allocating(tmp_path, monkeypatch,
                                                        capsys, sim, args):
    import ctgp.harness as harness_module

    def unreachable(*a, **k):
        raise AssertionError("the record bound must refuse the run first")

    monkeypatch.setattr(harness_module, "simulate", unreachable)
    monkeypatch.setattr(harness_module, "run_ensemble", unreachable)
    raw = _wing_raw()
    raw["sim"].update(sim)
    cfg = _write_cfg(tmp_path, raw)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    for key in ("sim.dt", "sim.duration", "sim.realizations"):
        assert key in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["wing\nct run", "wing ct run"])
def test_cli_scenario_name_with_whitespace_exits_1(tmp_path, capsys, name):
    # a run without a GP, which would otherwise complete and write the name
    # into the manifest lines
    raw = _wing_raw()
    del raw["training"]
    raw["controller"] = {"kind": "ct", "kp": [5.0], "kd": [5.0]}
    raw["name"] = name
    cfg = _write_cfg(tmp_path, raw)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: scenario.name")
    assert not out.exists()


@pytest.mark.parametrize("table", [2, [1, 2], "directory", "header only"])
def test_cli_bad_aero_table_exits_1_with_a_message(tmp_path, table):
    # a child process, because opening the integer 2 as a path would close
    # the caller's stderr
    raw = _wing_raw()
    if table == "directory":
        table = str(tmp_path)
    elif table == "header only":
        table = tmp_path / "aero.csv"
        table.write_text("alpha_deg,cl,cd\n")
        table = str(table)
    raw["plant"]["aero_table"] = table
    cfg = _write_cfg(tmp_path, raw)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "ctgp.cli", "check", "--config", cfg],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "aero_table" in proc.stderr or str(tmp_path) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_check_exit_codes(tmp_path):
    cfg = _write_cfg(tmp_path, _wing_raw())
    assert main(["check", "--config", cfg]) == 0
    cfg = _write_cfg(tmp_path, _weak_arm_raw(0.01), "weak.yaml")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "rep")]) == 2
    assert (tmp_path / "rep" / "check_report.txt").exists()


def test_cli_divergence_exit_3(tmp_path):
    # dt far beyond the stability limit of the stiff closed loop
    raw = _wing_raw()
    del raw["training"]
    raw["controller"] = {"kind": "ct", "kp": [10000.0], "kd": [1.0]}
    raw["sim"] = {"dt": 0.1, "duration": 2.0, "integrator": "rk4"}
    cfg = _write_cfg(tmp_path, raw)
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg, "--out", out]) == 3
    # the partial trace is still on disk for inspection
    assert os.path.exists(os.path.join(out, "trajectory.csv"))


def _kill_gains(raw: dict, kp: float, kd: float | None = None) -> dict:
    n = len(raw["reference"]["amplitude"])
    raw["controller"]["kp"] = [kp] * n
    if kd is not None:
        raw["controller"]["kd"] = [kd] * n
    return raw


@pytest.mark.parametrize("case", ["wing hg-pd", "arm ct", "wing ct-gp"])
def test_cli_non_finite_stage_exits_3(tmp_path, capsys, case):
    # gains of 1e200 overflow a torque inside an RK4 step, so a stage state
    # turns non-finite before the step ends: the run diverged at that step
    out = tmp_path / "run"
    if case == "wing hg-pd":
        raw = _wing_raw()
        del raw["training"]
        raw["controller"] = {"kind": "hg-pd"}
        _kill_gains(raw, 1e200, 1e200)
    elif case == "arm ct":
        raw = _kill_gains(_weak_arm_raw(5.0), 1e200)
    else:
        cfg = _write_cfg(tmp_path, _wing_raw(), "train.yaml")
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        raw = _kill_gains(_wing_raw(), 1e200, 1e200)
    cfg = _write_cfg(tmp_path, raw)
    assert "1.0e+200" in open(cfg).read()
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("divergence:")
    _, _, data = read_result_csv(out / "trajectory.csv")
    assert 1 <= data.shape[0] < 1001 and np.all(np.isfinite(data))
