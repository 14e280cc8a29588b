"""The hyperparameter search's restarts in forked workers.

The tests pin the process count (conftest.py), so they fork on any host.
Every artifact must be byte-identical at one and at several processes, a
failing search must fail the same way, and no worker may outlive the call
that made it.
"""
from __future__ import annotations

import os
import pickle
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from ctgp import gp as gp_module
from ctgp import parallel
from ctgp.cli import main
from ctgp.gp import (CholeskyError, GPError, Hyperparameters, TrainingSet,
                     optimize_hyperparameters)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _small(config: str) -> dict:
    raw = yaml.safe_load((CONFIGS / f"{config}.yaml").read_text())
    raw["training"]["hyperopt"].update(budget=4, restarts=3)
    if config == "wing":
        raw["training"].update(torque_count=5, position_count=4)
    else:
        raw["training"]["sample_count"] = 30
    raw["sim"]["duration"] = 0.3
    raw["evaluate"]["t_skip"] = 0.1
    return raw


def _write(tmp_path, raw, name="scenario.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


# ---------------------------------------------------------------------------
# the process-count rule


@pytest.mark.parametrize("env,restarts,cores,expected", [
    ({}, 5, 2, 1),                                    # BLAS takes every core
    ({"OPENBLAS_NUM_THREADS": "2"}, 5, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "3"}, 5, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 5, 2, 2),
    ({"OMP_NUM_THREADS": "1"}, 5, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 5, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 5, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 5, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 2, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 3, 8, 3),
    ({"OPENBLAS_NUM_THREADS": "2"}, 5, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 5, 1, 1),
])
def test_process_count_is_cores_over_blas_threads(monkeypatch, env, restarts, cores,
                                                  expected):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    assert parallel.process_count(restarts) == expected


def test_search_stays_serial_while_another_thread_runs(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert parallel.process_count(5) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert parallel.process_count(5) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# the same bits at any process count


def test_search_result_is_the_same_at_every_process_count(pin_processes, forks):
    rng = np.random.default_rng(21)
    for restarts in (1, 2, 5):
        m = 30
        x = rng.uniform(-2.0, 2.0, size=(2, m))
        y = (np.sin(x[0]) * np.cos(x[1]) + 0.05 * rng.normal(size=m))[:, None]
        train = TrainingSet(x, y)
        hp0 = Hyperparameters(1.5, 0.8, 1e-2)
        results = []
        for processes in (1, 2, 3):
            pin_processes(processes)
            results.append(optimize_hyperparameters(train, hp0, 8, restarts=restarts))
        assert results[1] == results[0] and results[2] == results[0]
    # 0 + 0 + 1 + 1 + 1 + 2 workers
    assert len(forks) == 5
    forks.assert_reaped()


@pytest.mark.parametrize("config", ["wing", "arm"])
def test_train_and_learning_curve_artifacts_are_byte_identical(tmp_path, pin_processes,
                                                               forks, config):
    cfg = _write(tmp_path, _small(config))
    trees = []
    for processes in (1, 2):
        pin_processes(processes)
        out = tmp_path / f"p{processes}"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert main(["learning-curve", "--config", cfg, "--out", str(out),
                     "--sizes", "0,10,20"]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(trees[0]) == 5
    assert trees[1] == trees[0]
    # one worker per output search: train, then sizes 10 and 20
    outputs = 1 if config == "wing" else 2
    assert len(forks) == 3 * outputs
    forks.assert_reaped()


# ---------------------------------------------------------------------------
# failure and cleanup


def test_every_restart_failing_fails_the_same_way(tmp_path, pin_processes, capsys, forks):
    raw = _small("wing")
    # a near-constant kernel, huge against the noise: every start is singular
    raw["training"]["hyperopt"]["initial"] = {
        "length_scale": 1.0e6, "signal_variance": 1.0e30, "noise_variance": 1.0e-8}
    cfg = _write(tmp_path, raw)
    errors = []
    for processes in (1, 2):
        pin_processes(processes)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("numerical failure: Cholesky factorization failed "
                                "for output 0")
    assert errors[1] == errors[0]
    assert len(forks) == 1
    forks.assert_reaped()


def test_a_cholesky_error_survives_the_pipe():
    err = pickle.loads(pickle.dumps(CholeskyError(1, -2.5e-3)))
    assert type(err) is CholeskyError
    assert (err.output_index, err.pivot) == (1, -2.5e-3)
    assert str(err) == str(CholeskyError(1, -2.5e-3))


@pytest.mark.parametrize("error,code,prefix", [
    (GPError("inverting the Cholesky factor failed (info 3)"), 2, "numerical failure"),
    (ValueError("restart 1 failed"), 1, "invalid input"),
])
def test_an_error_in_restart_1_fails_the_same_way_at_any_process_count(
        tmp_path, monkeypatch, pin_processes, capsys, forks, error, code, prefix):
    raw = _small("wing")
    raw["training"]["hyperopt"]["restarts"] = 2
    theta0 = Hyperparameters(**raw["training"]["hyperopt"]["initial"]).to_log_array()
    run_restart = gp_module._run_restart

    def failing_restart_1(train, d2, output_index, start, *args):
        if not np.array_equal(start, theta0):  # restart 0 starts at theta0
            raise error
        return run_restart(train, d2, output_index, start, *args)

    monkeypatch.setattr(gp_module, "_run_restart", failing_restart_1)
    cfg = _write(tmp_path, raw)
    for processes in (1, 2):
        pin_processes(processes)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == f"{prefix}: {error}\n"
    assert len(forks) == 1
    forks.assert_reaped()


def test_a_worker_that_dies_without_a_result_is_a_numerical_failure(
        tmp_path, monkeypatch, pin_processes, capsys, forks):
    parent = os.getpid()
    run_restart = gp_module._run_restart

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run_restart(*args)

    monkeypatch.setattr(gp_module, "_run_restart", dying)
    pin_processes(2)
    cfg = _write(tmp_path, _small("wing"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: hyperparameter search worker")
    assert "signal 9" in err and err.count("\n") == 1
    assert len(forks) == 1
    forks.assert_reaped()


def test_a_worker_that_cannot_be_forked_runs_its_share_here(monkeypatch, pin_processes):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    rng = np.random.default_rng(22)
    x = rng.uniform(-2.0, 2.0, size=(1, 25))
    train = TrainingSet(x, np.sin(2.0 * x[0])[:, None])
    hp0 = Hyperparameters(1.0, 1.0, 1e-2)
    pin_processes(1)
    serial = optimize_hyperparameters(train, hp0, 6, restarts=4)
    monkeypatch.setattr(os, "fork", no_fork)
    pin_processes(3)
    assert optimize_hyperparameters(train, hp0, 6, restarts=4) == serial


def test_a_failing_parent_kills_and_reaps_its_worker(monkeypatch, pin_processes, forks):
    parent = os.getpid()

    class ParentFailure(Exception):
        pass

    def stuck_or_failing(*args):
        if os.getpid() != parent:
            time.sleep(120)  # would keep its pipe open past any test timeout
        raise ParentFailure

    monkeypatch.setattr(gp_module, "_run_restart", stuck_or_failing)
    pin_processes(3)
    train = TrainingSet(np.array([[0.0, 1.0, 2.0]]), np.array([[0.0], [1.0], [0.5]]))
    start = time.monotonic()
    with pytest.raises(ParentFailure):
        optimize_hyperparameters(train, Hyperparameters(1.0, 1.0, 0.1), 3, restarts=3)
    assert time.monotonic() - start < 60
    assert len(forks) == 2
    forks.assert_reaped()
