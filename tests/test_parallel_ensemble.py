"""The ensemble's shares of realizations in forked workers.

In one process an ensemble is one lockstep batch; at P processes it is cut
into P shares at multiples of ENSEMBLE_ALIGN runs.  The tests pin the
process count (conftest.py), so they fork on any host.  Every artifact,
divergent run and failure must be the same at one and at several processes,
and no worker may outlive the call that made it.
"""
from __future__ import annotations

import os
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest
import yaml

from ctgp import sim as sim_module
from ctgp.cli import main
from ctgp.control import CTGPController, Gains
from ctgp.dynamics import WingModel
from ctgp.gp import Hyperparameters, TrainingSet, fit
from ctgp.sim import (ENSEMBLE_ALIGN, ReferenceTrajectory, SimConfig, _shares,
                      run_ensemble)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
REALIZATIONS = 130  # three shares at 3 processes: runs 0-47, 48-95 and 96-129
SHARE_1 = _shares(REALIZATIONS, 2)[1]  # runs 48-129, in workers at 2 or 3 processes


def _scenario(**sim) -> dict:
    """A small stochastic wing ensemble; `sim` overrides sim keys."""
    raw = yaml.safe_load((CONFIGS / "wing.yaml").read_text())
    raw["training"]["hyperopt"].update(budget=4, restarts=3)
    raw["training"].update(torque_count=5, position_count=4)
    raw["controller"]["mode"] = "stochastic"
    raw["sim"].update(integrator="euler-maruyama", realizations=REALIZATIONS,
                      duration=0.3, **sim)
    raw["evaluate"]["t_skip"] = 0.1
    return raw


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory) -> Path:
    """The trained GP of the small wing scenario."""
    out = tmp_path_factory.mktemp("model")
    cfg = out / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(_scenario()))
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def _simulate(model_dir, out, raw, capsys) -> tuple[int, str, str, dict]:
    """`ctgp simulate` in a copy of the model: exit code, stdout and stderr
    (the output directory's name replaced in both) and the files it wrote."""
    shutil.copytree(model_dir, out)
    cfg = out / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    before = set(os.listdir(out))
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    files = {name: (out / name).read_bytes()
             for name in sorted(set(os.listdir(out)) - before)}
    return (code, captured.out.replace(str(out), "OUT"),
            captured.err.replace(str(out), "OUT"), files)


FOUR_POINTS = (np.array([[0.0, 0.5, -0.5, 0.2], [0.0, 0.1, -0.1, 0.3],
                         [0.0, 0.4, -0.4, 0.1]]),
               np.array([[0.0], [0.3], [-0.3], [0.1]]))


def _wing_ensemble(mode: str, train=FOUR_POINTS):
    """A wing ct-gp ensemble whose GP fits `train`, (inputs (3, m), outputs (m, 1))."""
    model = WingModel(airspeed=0.0)
    gp = fit(TrainingSet(*train), [Hyperparameters(1.0, 1.0, 1e-4)])
    ctl = CTGPController(model.estimate(), gp, Gains.diagonal([5.0], [5.0]), mode=mode)
    ref = ReferenceTrajectory(np.array([0.3]), np.array([1.0]), np.zeros(1),
                              frequency_unit="rad_per_s")
    return model, ctl, ref


# ---------------------------------------------------------------------------
# the share layout


def test_shares_are_contiguous_aligned_and_even():
    for runs in range(1, 301):
        pieces = -(-runs // ENSEMBLE_ALIGN)
        for processes in range(1, 5):
            shares = _shares(runs, processes)
            count = min(processes, pieces)
            assert len(shares) == count
            assert [i for share in shares for i in share] == list(range(runs))
            assert all(share.start % ENSEMBLE_ALIGN == 0 for share in shares)
            assert max(len(share) for share in shares) <= ENSEMBLE_ALIGN * -(-pieces // count)
    assert _shares(100, 1) == [range(100)]
    assert _shares(100, 2) == [range(48), range(48, 100)]
    assert _shares(REALIZATIONS, 3) == [range(48), range(48, 96), range(96, 130)]


@pytest.mark.parametrize("processes,blas", [(1, "1"), (2, "2")])
def test_one_process_or_threaded_blas_runs_the_ensemble_as_one_batch(
        monkeypatch, pin_processes, forks, processes, blas):
    # one batch reads L^-1 once per step for every run; shares in one
    # process would read it once per share, and a narrower dtrmm costs more
    # per column.  A threaded BLAS call splits its columns by the call's
    # width, so shares would not keep one batch's bits.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
    batches = []
    integrate = sim_module._integrate

    def recording(model, controller, ref, config, q, qd, seeds, records=None):
        batches.append(list(seeds))
        return integrate(model, controller, ref, config, q, qd, seeds, records)

    monkeypatch.setattr(sim_module, "_integrate", recording)
    model, ctl, ref = _wing_ensemble("stochastic")
    pin_processes(processes)
    run_ensemble(model, ctl, ref, SimConfig(dt=1e-3, duration=0.01,
                                            integrator="euler-maruyama",
                                            realizations=REALIZATIONS, base_seed=4))
    assert batches == [list(range(4, 4 + REALIZATIONS))]
    assert len(forks) == 0


def test_shares_keep_the_bits_of_one_batch_at_a_tiled_size(pin_processes, forks):
    # 300 training points: L^-1 spans many BLAS tiles, as in the shipped configs
    x = np.random.default_rng(11).uniform(-1.0, 1.0, (3, 300))
    model, ctl, ref = _wing_ensemble("stochastic", (x, 0.3 * np.sin(x[:1].T)))
    config = SimConfig(dt=1e-3, duration=0.05, integrator="euler-maruyama",
                       realizations=100)
    runs = []
    for processes in (1, 2):
        pin_processes(processes)
        runs.append(run_ensemble(model, ctl, ref, config)[1])
    for batch, shared in zip(*runs):
        assert np.all(batch.gp_std > 0.0)
        for key in ("q", "qd", "tau", "gp_mean", "gp_std"):
            assert np.array_equal(getattr(shared, key), getattr(batch, key)), key
    assert len(forks) == 1
    forks.assert_reaped()


# ---------------------------------------------------------------------------
# the same results at any process count


def test_ensemble_artifacts_are_byte_identical_at_any_process_count(
        tmp_path, model_dir, pin_processes, capsys, forks):
    outcomes = []
    for processes in (1, 2, 3):
        pin_processes(processes)
        outcomes.append(_simulate(model_dir, tmp_path / f"p{processes}", _scenario(),
                                  capsys))
    code, out, err, files = outcomes[0]
    assert code == 0 and err == ""
    assert sorted(files) == ["ensemble.csv", "manifest.txt", "trajectory.csv"]
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert len(forks) == 1 + 2
    forks.assert_reaped()


def test_a_run_diverging_in_a_worker_share_is_reported_as_in_one_process(
        tmp_path, model_dir, pin_processes, capsys, forks):
    # a bound that a few of the runs' excursions cross
    raw = _scenario(divergence_threshold=0.75)
    outcomes = []
    for processes in (1, 2, 3):
        pin_processes(processes)
        outcomes.append(_simulate(model_dir, tmp_path / f"p{processes}", raw, capsys))
    code, out, err, files = outcomes[0]
    divergent = yaml.safe_load(files["manifest.txt"])["divergent_runs"]
    assert code == 0 and f"divergent runs: {divergent}" in out
    assert 0 < len(divergent) < REALIZATIONS
    assert any(run in SHARE_1 for run in divergent)
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    forks.assert_reaped()


def test_an_ensemble_whose_every_run_diverges_exits_3_at_any_process_count(
        tmp_path, model_dir, pin_processes, capsys, forks):
    raw = _scenario(divergence_threshold=1e-9)  # every run leaves it in step 0
    outcomes = []
    for processes in (1, 2):
        pin_processes(processes)
        outcomes.append(_simulate(model_dir, tmp_path / f"p{processes}", raw, capsys))
    code, out, err, files = outcomes[0]
    assert code == 3 and err == (f"divergence: all {REALIZATIONS} realization(s) "
                                 f"diverged; partial trace in OUT/trajectory.csv\n")
    # run 0's partial trace and the manifest are written before the exit
    assert set(files) == {"trajectory.csv", "manifest.txt"}
    assert yaml.safe_load(files["manifest.txt"])["divergent_runs"] == list(range(REALIZATIONS))
    assert outcomes[1] == outcomes[0]
    assert len(forks) == 1
    forks.assert_reaped()


def test_a_deterministic_ensemble_forks_nothing_and_records_the_deferred_std(
        pin_processes, forks):
    model, ctl, ref = _wing_ensemble("deterministic")
    config = SimConfig(dt=1e-3, duration=0.1, realizations=REALIZATIONS)
    runs = []
    for processes in (1, 3):
        pin_processes(processes)
        runs.append(run_ensemble(model, ctl, ref, config)[1])
    for serial, forked in zip(*runs):
        assert np.all(forked.gp_std > 0.0)
        for key in ("q", "qd", "tau", "gp_mean", "gp_std"):
            assert np.array_equal(getattr(forked, key), getattr(serial, key)), key
    assert len(forks) == 0
    forks.assert_reaped()


# ---------------------------------------------------------------------------
# failure and cleanup


def test_an_error_in_share_1_fails_the_same_way_at_any_process_count(
        tmp_path, model_dir, monkeypatch, pin_processes, capsys, forks):
    integrate = sim_module._integrate

    def failing_share_1(model, controller, ref, config, q, qd, seeds, records=None):
        if config.base_seed + SHARE_1.start in seeds:
            raise ValueError("share 1 failed")
        return integrate(model, controller, ref, config, q, qd, seeds, records)

    monkeypatch.setattr(sim_module, "_integrate", failing_share_1)
    outcomes = []
    for processes in (1, 2):
        pin_processes(processes)
        outcomes.append(_simulate(model_dir, tmp_path / f"p{processes}", _scenario(),
                                  capsys))
    assert outcomes[0][:3] == (1, "", "invalid input: share 1 failed\n")
    assert outcomes[1] == outcomes[0]
    assert len(forks) == 1
    forks.assert_reaped()


def test_a_killed_ensemble_worker_is_a_numerical_failure(
        tmp_path, model_dir, monkeypatch, pin_processes, capsys, forks):
    parent = os.getpid()
    integrate = sim_module._integrate

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return integrate(*args)

    monkeypatch.setattr(sim_module, "_integrate", dying)
    pin_processes(3)
    code, out, err, files = _simulate(model_dir, tmp_path / "out", _scenario(), capsys)
    assert code == 2
    assert err.startswith("numerical failure: ensemble worker")
    assert "signal 9" in err and err.count("\n") == 1
    assert len(forks) == 2
    forks.assert_reaped()
