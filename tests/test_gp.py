"""Exact-GP regression against explicit-inverse oracles.

The posterior mean/variance and the marginal likelihood have closed forms
that a dense np.linalg.inv implementation reproduces directly; everything
here is checked against that oracle or against hand-evaluated scalars that
were computed before the implementation existed.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular

import ctgp.gp as gp_module
from ctgp import parallel
from ctgp.gp import (CholeskyError, FittedGP, GPError, Hyperparameters, MultiGP,
                     TrainingSet, fit, load_hyperparameters,
                     log_marginal_likelihood, optimize_hyperparameters,
                     save_hyperparameters)
from oracles import gram_matrix, kernel_eval


# Random-instance distribution used by the oracle checks.  sigma_n^2 is kept
# >= 1e-2 so cond(K) stays ~1e4 and the 1e-10 agreement target is meaningful
# (the dense inverse itself loses cond * eps).
def _random_instance(rng, m_max=50):
    d = int(rng.integers(1, 5))
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, m_max + 1))
    x = rng.normal(0.0, 2.0, size=(d, m))
    y = rng.normal(0.0, 1.0, size=(m, n))
    hypers = [
        Hyperparameters(
            length_scale=float(rng.uniform(0.3, 2.0)),
            signal_variance=float(rng.uniform(0.25, 9.0)),
            noise_variance=float(rng.uniform(1e-2, 1.0)),
        )
        for _ in range(n)
    ]
    return TrainingSet(x, y), hypers


def _oracle_predict(train, hypers, queries):
    """Explicit-inverse posterior: mean k*'(K+s I)^-1 y, var k** - k*'(K)^-1 k*."""
    x = train.inputs.T
    means = np.zeros((queries.shape[0], train.output_dim))
    variances = np.zeros_like(means)
    for i, hp in enumerate(hypers):
        k = np.array([[kernel_eval(a, b, hp) for b in x] for a in x])
        k_inv = np.linalg.inv(k + hp.noise_variance * np.eye(train.size))
        for j, q in enumerate(queries):
            ks = np.array([kernel_eval(q, b, hp) for b in x])
            means[j, i] = ks @ k_inv @ train.outputs[:, i]
            variances[j, i] = hp.signal_variance - ks @ k_inv @ ks
    return means, variances


# ---------------------------------------------------------------------------
# kernel and Gram matrix


def test_kernel_zero_distance_returns_signal_variance():
    hp = Hyperparameters(1.0, 1.0, 0.0)
    assert kernel_eval([1.0, -2.0], [1.0, -2.0], hp) == 1.0
    hp = Hyperparameters(0.7, 4.0, 0.0)
    assert kernel_eval([3.0], [3.0], hp) == 4.0


def test_kernel_hand_values():
    # ||0 - sqrt(2)||^2 / (2 * 1) = 1
    hp = Hyperparameters(1.0, 1.0, 0.0)
    assert kernel_eval([0.0], [math.sqrt(2.0)], hp) == pytest.approx(
        math.exp(-1.0), abs=1e-15
    )
    # sigma_f = 3, lambda = 2, distance 2: 9 * exp(-4 / 8)
    hp = Hyperparameters(2.0, 9.0, 0.0)
    assert kernel_eval([0.0], [2.0], hp) == pytest.approx(
        5.458775937413701, abs=1e-12
    )


def test_kernel_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    hp = Hyperparameters(0.8, 2.5, 0.0)
    for _ in range(100):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        kab = kernel_eval(a, b, hp)
        assert kab == kernel_eval(b, a, hp)
        assert 0.0 < kab <= hp.signal_variance
        # equals sigma_f^2 iff identical
        assert (kab == hp.signal_variance) == bool(np.all(a == b))


def test_kernel_rejects_non_finite():
    hp = Hyperparameters(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        kernel_eval([np.nan], [0.0], hp)
    with pytest.raises(ValueError):
        kernel_eval([0.0], [np.inf], hp)


def test_gram_single_point_includes_noise():
    hp = Hyperparameters(1.0, 1.0, 0.01)
    k = gram_matrix(np.array([[0.5]]), hp)
    assert k.shape == (1, 1)
    assert k[0, 0] == pytest.approx(1.01, abs=1e-15)


def test_gram_symmetric_and_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=(3, 12))
        hp = Hyperparameters(float(rng.uniform(0.3, 2.0)), 2.0, 1e-6)
        k = gram_matrix(x, hp)
        assert np.array_equal(k, k.T)
        # distinct columns + positive noise: all Cholesky pivots positive
        np.linalg.cholesky(k)


# ---------------------------------------------------------------------------
# fit / predict


def test_fit_single_point_alpha():
    train = TrainingSet(np.array([[0.0]]), np.array([[2.0]]))
    gp = fit(train, [Hyperparameters(1.0, 1.0, 0.0)])
    # alpha = (K + 0)^-1 y = [2.0] for the 1x1 unit kernel
    assert gp.components[0].weights[0] == pytest.approx(2.0, abs=1e-15)


def test_fit_duplicate_inputs_zero_noise_fails():
    train = TrainingSet(np.array([[0.0, 0.0]]), np.array([[1.0], [2.0]]))
    with pytest.raises(CholeskyError) as err:
        fit(train, [Hyperparameters(1.0, 1.0, 0.0)])
    assert err.value.output_index == 0
    assert err.value.pivot <= 0.0


def test_fit_cholesky_reconstruction():
    rng = np.random.default_rng(2)
    train = TrainingSet(rng.normal(size=(2, 3)), rng.normal(size=(3, 1)))
    hp = Hyperparameters(1.0, 2.0, 0.1)
    gp = fit(train, [hp])
    lower = np.linalg.inv(gp.components[0].inverse_factor)
    k = gram_matrix(train.inputs, hp)
    assert np.max(np.abs(lower @ lower.T - k)) < 1e-10


@pytest.mark.parametrize("broken", ["singular", "non-finite"])
def test_fit_rejects_a_bad_inverse_factor(monkeypatch, broken):
    rng = np.random.default_rng(2)
    train = TrainingSet(rng.normal(size=(2, 3)), rng.normal(size=(3, 2)))
    hypers = [Hyperparameters(1.0, 2.0, 0.1)] * 2
    trtri = gp_module.dtrtri
    calls = []

    def break_second_output(c, **kwargs):
        inv, info = trtri(c, **kwargs)
        calls.append(info)
        if len(calls) == 2:
            if broken == "singular":
                info = 2
            else:
                inv[1, 0] = np.nan
        return inv, info

    monkeypatch.setattr(gp_module, "dtrtri", break_second_output)
    with pytest.raises(GPError, match="output 1"):
        fit(train, hypers)


# ---------------------------------------------------------------------------
# scipy's LAPACK and BLAS wrappers, loaded without the scipy.linalg package

_ROUTINES = ("lapack.dpotrf", "lapack.dpotrs", "lapack.dpotri", "lapack.dtrtri",
             "blas.dtrmm")


def _run_child(code: str) -> str:
    """stdout of `python -c code` with the package's source on the path.

    A child, because this module imports scipy.linalg into the test process.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_cli_loads_no_scipy_linalg_package():
    out = _run_child("import sys, ctgp.cli, ctgp.harness\n"
                     "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    assert out == "['scipy.linalg._fblas', 'scipy.linalg._flapack']\n"


@pytest.mark.parametrize("first", ["scipy.linalg", "ctgp.gp"])
def test_gp_routines_are_scipy_linalgs_objects(first):
    second = "ctgp.gp" if first == "scipy.linalg" else "scipy.linalg"
    # one module object per wrapper, whichever side loaded it first
    checks = ["scipy.linalg.lapack._flapack is sys.modules['scipy.linalg._flapack']",
              "scipy.linalg.blas._fblas is sys.modules['scipy.linalg._fblas']",
              "gp._flapack is scipy.linalg.lapack._flapack"]
    checks += [f"scipy.linalg.{r} is gp.{r.split('.')[1]}" for r in _ROUTINES]
    out = _run_child(f"import sys, {first}, {second}\n"
                     "import scipy.linalg.blas, scipy.linalg.lapack\n"
                     "import ctgp.gp as gp\n"
                     f"print({', '.join(checks)})")
    assert out == " ".join(["True"] * len(checks)) + "\n"


def test_factor_weights_are_cho_solves_bits():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=(40, 2))[:, 1]  # a strided column, as fit passes it
    hp = Hyperparameters(1.3, 2.0, 1e-3)
    k = gp_module._se_kernel(gp_module._self_sq_dists(x), hp)
    low, alpha = gp_module._factor(k, y, hp, 0)
    assert alpha.tobytes() == cho_solve((low, True), y).tobytes()


def test_predict_interpolates_training_points():
    rng = np.random.default_rng(3)
    train = TrainingSet(rng.normal(size=(2, 15)), rng.normal(size=(15, 2)))
    hypers = [Hyperparameters(1.0, 1.0, 1e-12)] * 2
    gp = fit(train, hypers)
    mean = gp.predict_mean(train.inputs.T)
    scale = 1.0 + np.max(np.abs(train.outputs))
    assert np.max(np.abs(mean - train.outputs)) < 1e-6 * scale
    var = gp.predict_var(train.inputs.T)
    assert np.max(var) < 1e-8


def test_predict_prior_reversion_far_from_data():
    train = TrainingSet(np.array([[0.0, 1.0]]), np.array([[1.0], [-1.0]]))
    hp = Hyperparameters(0.5, 4.0, 1e-4)
    gp = fit(train, [hp])
    far = np.array([25.0])  # 50 length scales from the data
    assert abs(gp.predict_mean(far)[0]) < 1e-8 * math.sqrt(hp.signal_variance)
    assert abs(gp.predict_var(far)[0] - hp.signal_variance) < 1e-8


def test_predict_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(40):
        train, hypers = _random_instance(rng)
        gp = fit(train, hypers)
        queries = rng.normal(0.0, 2.0, size=(5, train.input_dim))
        mean, var = gp.predict_mean(queries), gp.predict_var(queries)
        omean, ovar = _oracle_predict(train, hypers, queries)
        assert np.max(np.abs(mean - omean)) < 1e-10
        assert np.max(np.abs(var - ovar)) < 1e-10


def test_variance_nonnegative_and_bounded():
    rng = np.random.default_rng(5)
    train, hypers = _random_instance(rng)
    gp = fit(train, hypers)
    queries = rng.normal(0.0, 3.0, size=(200, train.input_dim))
    var = gp.predict_var(queries)
    assert np.all(var >= 0.0)
    assert np.all(var <= np.array([hp.signal_variance for hp in hypers]) + 1e-12)


def test_variance_contracts_when_data_is_added():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 10))
    y = rng.normal(size=(10, 1))
    hp = [Hyperparameters(1.0, 1.5, 0.05)]
    queries = rng.normal(size=(20, 2))
    var_before = fit(TrainingSet(x, y), hp).predict_var(queries)
    x_plus = np.concatenate([x, rng.normal(size=(2, 1))], axis=1)
    y_plus = np.concatenate([y, rng.normal(size=(1, 1))], axis=0)
    var_after = fit(TrainingSet(x_plus, y_plus), hp).predict_var(queries)
    assert np.all(var_after <= var_before + 1e-12)


def test_empty_gp_predicts_prior():
    gp = MultiGP.empty(3, 2)
    q = np.array([[0.5, -1.0, 2.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(gp.predict_mean(q), np.zeros((2, 2)))
    assert np.array_equal(gp.predict_var(q), np.zeros((2, 2)))
    assert gp.size == 0


def test_predict_methods_single_and_batch_shapes():
    train = TrainingSet(np.array([[0.0, 1.0]]), np.array([[1.0], [2.0]]))
    gp = fit(train, [Hyperparameters(1.0, 1.0, 0.1)])
    single = gp.predict_mean(np.array([0.5]))
    assert single.shape == (1,)
    assert gp.predict_var(np.array([0.5])).shape == (1,)
    batch = gp.predict_mean(np.array([[0.5], [0.7]]))
    assert batch.shape == (2, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_predict_computes_query_distances_once_per_call(monkeypatch, n):
    rng = np.random.default_rng(15)
    train = TrainingSet(rng.normal(size=(3, 20)), rng.normal(size=(20, n)))
    gp = fit(train, [Hyperparameters(1.0, 1.5, 0.05)] * n)
    calls = []
    sq_dists = gp_module._sq_dists

    def count(a, b, bb=None):
        calls.append(a.shape)
        return sq_dists(a, b, bb)

    monkeypatch.setattr(gp_module, "_sq_dists", count)
    for method in (gp.predict, gp.predict_mean, gp.predict_var):
        for x in (rng.normal(size=3), rng.normal(size=(7, 3))):
            calls.clear()
            method(x)
            assert len(calls) == 1


@pytest.mark.parametrize("batch", [1, 100])
def test_sq_dists_with_stored_norms_is_bitwise_recomputed(batch):
    rng = np.random.default_rng(18)
    train = rng.normal(0.0, 2.0, size=(6, 351))
    gp = fit(TrainingSet(train, rng.normal(size=(351, 2))),
             [Hyperparameters(1.0, 249.0, 1.5e-5)] * 2)
    x = rng.normal(0.0, 2.0, size=(batch, 6))
    stored = gp_module._sq_dists(x, train.T, gp._train_sq_norms)
    assert np.array_equal(stored, gp_module._sq_dists(x, train.T))
    # the expression before the norms were stored
    aa = np.sum(x * x, axis=1)
    bb = np.sum(train.T * train.T, axis=1)
    before = np.maximum(aa[:, None] + bb[None, :] - 2.0 * (x @ train), 0.0)
    assert np.array_equal(stored, before)


@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 300))
def test_predict_var_is_batch_size_invariant(seed, batch):
    # the random family of acceptance criterion 1; a deterministic run
    # records gp_std from batches of many rows, the controller at batch 1
    rng = np.random.default_rng(seed)
    train, hypers = _random_instance(rng)
    gp = fit(train, hypers)
    x = rng.normal(0.0, 2.0, size=(batch, train.input_dim))
    var = gp.predict_var(x)
    rows = np.array([gp.predict(row).std ** 2 for row in x])
    sf2 = np.array([hp.signal_variance for hp in hypers])
    assert np.all(np.abs(var - rows) <= 1e-10 * np.maximum(1.0, sf2))
    assert np.all((var >= 0.0) & (var <= sf2))


@pytest.mark.parametrize("batch", [1, 100])
def test_predict_mean_matches_predict_bitwise(batch):
    # RK4 takes its first stage from predict and the other three from
    # predict_mean, so the two must agree to the last bit
    rng = np.random.default_rng(16)
    train = TrainingSet(rng.normal(size=(4, 60)), rng.normal(size=(60, 2)))
    gp = fit(train, [Hyperparameters(0.9, 2.0, 0.01),
                     Hyperparameters(1.4, 0.5, 0.1)])
    x = rng.normal(size=(batch, 4))
    assert np.array_equal(gp.predict(x).mean, gp.predict_mean(x))
    assert np.array_equal(gp.predict(x[0]).mean, gp.predict_mean(x[0]))
    assert np.array_equal(gp.predict(x).std, np.sqrt(gp.predict_var(x)))


def _triangular_solve_variance(gp, queries):
    """sigma_f^2 - ||L^-1 k*'||^2 with L^-1 k*' from a triangular solve."""
    out = np.zeros((queries.shape[0], gp.output_dim))
    for i, c in enumerate(gp.components):
        hp = c.hyperparameters
        low = np.linalg.cholesky(gram_matrix(c.training_inputs, hp))
        x = c.training_inputs.T
        d2 = np.sum((queries[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        ks = hp.signal_variance * np.exp(-d2 / (2.0 * hp.length_scale**2))
        v = solve_triangular(low, ks.T, lower=True)
        out[:, i] = hp.signal_variance - np.sum(v * v, axis=0)
    return out


def test_variance_matches_triangular_solve():
    # the random family of acceptance criterion 1
    rng = np.random.default_rng(0)
    for _ in range(100):
        train, hypers = _random_instance(rng)
        gp = fit(train, hypers)
        queries = rng.normal(0.0, 2.0, size=(5, train.input_dim))
        scale = np.array([max(1.0, hp.signal_variance) for hp in hypers])
        err = np.abs(gp.predict_var(queries)
                     - _triangular_solve_variance(gp, queries))
        assert np.all(err < 1e-10 * scale)


def test_variance_matches_triangular_solve_when_ill_conditioned():
    # sigma_f^2 / sigma_n^2 ~ 1.7e7 and cond(K) ~ 4e9, as for the shipped arm;
    # at the training inputs the exact variance is below sigma_n^2, so the
    # cancellation is worst there
    rng = np.random.default_rng(17)
    train = TrainingSet(rng.uniform(-1.0, 1.0, size=(4, 300)),
                        rng.normal(size=(300, 1)))
    hp = Hyperparameters(2.0, 249.0, 1.5e-5)
    gp = fit(train, [hp])
    queries = np.concatenate([train.inputs.T,
                              rng.uniform(-1.2, 1.2, size=(200, 4))])
    var = gp.predict_var(queries)  # must not trip the cancellation floor
    reference = _triangular_solve_variance(gp, queries)
    assert np.max(np.abs(var - reference)) < 1e-10 * hp.signal_variance


# ---------------------------------------------------------------------------
# marginal likelihood


def test_lml_hand_value():
    # m = 1, y = 0: value = -1/2 log(2) - 1/2 log(2 pi)
    train = TrainingSet(np.array([[0.0]]), np.array([[0.0]]))
    value, grad = log_marginal_likelihood(train, Hyperparameters(1.0, 1.0, 1.0))
    assert value == pytest.approx(-1.2655121234846454, abs=1e-14)
    # d/dlog(lambda) = 0 at zero distance; the two variance derivatives
    # are each -1/2 for y = 0, K = 2.
    assert np.allclose(grad, [0.0, -0.5, -0.5], atol=1e-14)


def test_lml_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(30):
        train, hypers = _random_instance(rng, m_max=20)
        hp = hypers[0]
        _, grad = log_marginal_likelihood(train, hp, output_index=0)
        theta = hp.to_log_array()
        for k in range(3):
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            vu, _ = log_marginal_likelihood(
                train, Hyperparameters.from_log_array(up), output_index=0)
            vd, _ = log_marginal_likelihood(
                train, Hyperparameters.from_log_array(down), output_index=0)
            fd = (vu - vd) / (2.0 * h)
            assert abs(grad[k] - fd) < 1e-5 * max(1.0, abs(fd))


def test_lml_data_fit_scales_quadratically():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 8))
    y = rng.normal(size=(8, 1))
    hp = Hyperparameters(1.0, 1.0, 0.1)
    v1, _ = log_marginal_likelihood(TrainingSet(x, y), hp)
    v2, _ = log_marginal_likelihood(TrainingSet(x, 2.0 * y), hp)
    k = gram_matrix(x, hp)
    data_fit = -0.5 * float(y[:, 0] @ np.linalg.solve(k, y[:, 0]))
    # doubling y multiplies the quadratic data-fit term by 4, complexity
    # terms cancel in the difference
    assert v2 - v1 == pytest.approx(3.0 * data_fit, abs=1e-10)


def _oracle_lml(train, hp, output_index):
    """-y'K^-1 y / 2 - log det K / 2 - m log(2 pi) / 2 and its gradient
    tr((alpha alpha' - K^-1) dK/dtheta) / 2, from a dense explicit inverse."""
    x = train.inputs.T
    y = train.outputs[:, output_index]
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    lam2 = hp.length_scale**2
    k_se = hp.signal_variance * np.exp(-d2 / (2.0 * lam2))
    k = k_se + hp.noise_variance * np.eye(train.size)
    k_inv = np.linalg.inv(k)
    alpha = k_inv @ y
    value = (-0.5 * y @ alpha - 0.5 * np.linalg.slogdet(k)[1]
             - 0.5 * train.size * math.log(2.0 * math.pi))
    a = np.outer(alpha, alpha) - k_inv
    return value, np.array([
        0.5 * np.sum(a * k_se * d2) / lam2,
        np.sum(a * k_se),
        hp.noise_variance * np.trace(a),
    ])


def test_lml_value_and_gradient_match_dense_inverse_oracle():
    # the random family of acceptance criterion 1
    rng = np.random.default_rng(0)
    worst_value = worst_grad = 0.0
    for _ in range(100):
        train, hypers = _random_instance(rng)
        for i, hp in enumerate(hypers):
            value, grad = log_marginal_likelihood(train, hp, i)
            oracle_value, oracle_grad = _oracle_lml(train, hp, i)
            worst_value = max(worst_value, abs(value - oracle_value)
                              / max(1.0, abs(oracle_value)))
            worst_grad = max(worst_grad, float(np.max(
                np.abs(grad - oracle_grad) / np.maximum(1.0, np.abs(oracle_grad)))))
    assert worst_value < 1e-10
    assert worst_grad < 1e-10


def test_lml_and_search_reject_output_index_out_of_range():
    train = TrainingSet(np.array([[0.0, 1.0]]), np.array([[1.0], [2.0]]))
    hp = Hyperparameters(1.0, 1.0, 0.1)
    for index in (-1, 1):
        with pytest.raises(ValueError):
            log_marginal_likelihood(train, hp, index)
        with pytest.raises(ValueError):
            optimize_hyperparameters(train, hp, budget=3, output_index=index)


def test_lml_rejects_indefinite_gram():
    train = TrainingSet(np.array([[0.0, 0.0]]), np.array([[1.0], [1.0]]))
    with pytest.raises(CholeskyError):
        log_marginal_likelihood(train, Hyperparameters(1.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# hyperparameter optimization


def test_optimizer_budget_zero_returns_initial():
    rng = np.random.default_rng(9)
    train, _ = _random_instance(rng, m_max=10)
    hp0 = Hyperparameters(1.3, 0.8, 0.05)
    assert optimize_hyperparameters(train, hp0, 0) == hp0


def test_optimizer_never_scores_below_initial():
    rng = np.random.default_rng(10)
    for _ in range(5):
        train, hypers = _random_instance(rng, m_max=25)
        hp0 = hypers[0]
        hp_star = optimize_hyperparameters(train, hp0, budget=15, restarts=3)
        v0, _ = log_marginal_likelihood(train, hp0)
        v_star, _ = log_marginal_likelihood(train, hp_star)
        assert v_star >= v0 - 1e-12


def test_optimizer_deterministic():
    rng = np.random.default_rng(11)
    train, hypers = _random_instance(rng, m_max=20)
    a = optimize_hyperparameters(train, hypers[0], budget=10, restarts=3)
    b = optimize_hyperparameters(train, hypers[0], budget=10, restarts=3)
    assert a == b


def test_optimizer_recovers_length_scale():
    # data drawn from a known SE-GP with lambda = 0.5; the optimizer should
    # land within a factor of 2 given 200 points
    rng = np.random.default_rng(12)
    m = 200
    x = rng.uniform(-3.0, 3.0, size=(1, m))
    true_hp = Hyperparameters(0.5, 1.0, 1e-4)
    k = gram_matrix(x, true_hp)
    y = (np.linalg.cholesky(k) @ rng.normal(size=m))[:, None]
    train = TrainingSet(x, y)
    hp0 = Hyperparameters(1.5, 1.0, 1e-2)
    hp_star = optimize_hyperparameters(train, hp0, budget=40, restarts=3)
    assert 0.25 <= hp_star.length_scale <= 1.0


def test_optimizer_all_restarts_failing_raises():
    """Every restart failing its first factorization surfaces the error.

    Duplicated inputs with a signal variance so large that the noise term
    falls below one ulp of the Gram entries give a numerically singular
    matrix under every restart's perturbation.
    """
    train = TrainingSet(np.zeros((1, 4)), np.ones((4, 1)))
    with pytest.raises(CholeskyError) as excinfo:
        optimize_hyperparameters(train, Hyperparameters(1.0, 1e30, 1e-8),
                                 budget=5, restarts=3)
    assert excinfo.value.output_index == 0


def test_search_shares_distances_and_takes_gradients_only_at_accepted_points(
        monkeypatch):
    rng = np.random.default_rng(13)
    train, hypers = _random_instance(rng, m_max=30)
    dist_calls = []
    full_calls = []  # the public likelihood: one per start
    evaluated = []   # (value, state) of every value step that returned
    graded = []      # values of the points the gradient step ran at
    histories = []
    sq_dists = gp_module._self_sq_dists
    full = gp_module.log_marginal_likelihood
    value_step = gp_module._lml_value
    gradient_step = gp_module._lml_gradient
    ascent = gp_module._gradient_ascent

    def count_dists(a):
        dist_calls.append(a.shape)
        return sq_dists(a)

    def count_full(*args, **kwargs):
        full_calls.append(args[1])
        return full(*args, **kwargs)

    def record_value(*args):
        value, state = value_step(*args)
        evaluated.append((value, state))
        return value, state

    def record_gradient(d2, state):
        assert state is evaluated[-1][1]  # the point evaluated last
        graded.append(evaluated[-1][0])
        return gradient_step(d2, state)

    def record_ascent(*args):
        out = ascent(*args)
        histories.append(out[2])
        return out

    monkeypatch.setattr(gp_module, "_self_sq_dists", count_dists)
    monkeypatch.setattr(gp_module, "log_marginal_likelihood", count_full)
    monkeypatch.setattr(gp_module, "_lml_value", record_value)
    monkeypatch.setattr(gp_module, "_lml_gradient", record_gradient)
    monkeypatch.setattr(gp_module, "_gradient_ascent", record_ascent)
    # the counts are made in this process, so every restart must run here
    monkeypatch.setattr(parallel, "process_count", lambda jobs: 1)
    optimize_hyperparameters(train, hypers[0], budget=15, restarts=3)
    assert len(dist_calls) == 1
    assert len(histories) == 3 and len(full_calls) == 3
    # one gradient per successful start and per accepted step, in order
    assert graded == [v for history in histories for v in history]
    assert len(evaluated) > len(graded)  # some trials were rejected


def test_search_treats_a_failed_trial_factorization_as_a_rejected_step(
        monkeypatch):
    rng = np.random.default_rng(14)
    train, hypers = _random_instance(rng, m_max=20)
    thetas = []
    value_step = gp_module._lml_value

    def fail_first_trial(d2, y, hp, output_index):
        thetas.append(hp.to_log_array())
        if len(thetas) == 2:
            raise CholeskyError(output_index, -1.0)
        return value_step(d2, y, hp, output_index)

    monkeypatch.setattr(gp_module, "_lml_value", fail_first_trial)
    d2 = gp_module._self_sq_dists(train.inputs.T)
    _, _, history = gp_module._gradient_ascent(
        train, d2, 0, hypers[0].to_log_array(), 10, 1e-8)
    # the next trial halves the step along the same direction
    np.testing.assert_allclose(thetas[2] - thetas[0],
                               0.5 * (thetas[1] - thetas[0]), rtol=1e-9)
    assert len(history) > 1
    assert all(b > a for a, b in zip(history, history[1:]))


# ---------------------------------------------------------------------------
# containers and serialization


def test_hyperparameters_validation():
    with pytest.raises(ValueError):
        Hyperparameters(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        Hyperparameters(1.0, 1.0, -1e-3)


def test_training_set_validation_and_write_protection():
    train = TrainingSet(np.array([[0.0, 1.0]]), np.array([[1.0], [2.0]]))
    assert train.size == 2 and train.input_dim == 1 and train.output_dim == 1
    with pytest.raises(ValueError):
        train.inputs[0, 0] = 5.0
    with pytest.raises(ValueError):
        TrainingSet(np.array([[0.0, 1.0]]), np.array([[1.0]]))


def test_training_set_csv_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    train = TrainingSet(rng.normal(size=(3, 7)), rng.normal(size=(7, 2)))
    path = tmp_path / "train.csv"
    train.save_csv(path)
    back = TrainingSet.load_csv(path)
    assert np.array_equal(back.inputs, train.inputs)
    assert np.array_equal(back.outputs, train.outputs)


def test_training_set_csv_empty_round_trip(tmp_path):
    train = TrainingSet(np.zeros((3, 0)), np.zeros((0, 2)))
    path = tmp_path / "empty.csv"
    train.save_csv(path)
    back = TrainingSet.load_csv(path)
    assert back.size == 0 and back.input_dim == 3 and back.output_dim == 2


def test_training_set_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(ValueError):
        TrainingSet.load_csv(path)


def test_training_set_csv_refuses_columns_out_of_order(tmp_path):
    # counted by prefix, this header would load as input (5, 1) and output 2
    path = tmp_path / "swapped.csv"
    path.write_text("y_1,x_1,x_2\n5.0,1.0,2.0\n")
    with pytest.raises(ValueError, match=r"swapped\.csv: header must be"):
        TrainingSet.load_csv(path)


def test_training_set_csv_refuses_a_ragged_row(tmp_path):
    # three 4-field rows under a 3-column header: reshaped by the header they
    # would read as 4 points with shifted columns
    path = tmp_path / "ragged.csv"
    path.write_text("x_1,x_2,y_1\n" + "1.0,2.0,3.0,4.0\n" * 3)
    with pytest.raises(ValueError, match=r"ragged\.csv, line 2: 4 fields"):
        TrainingSet.load_csv(path)


def test_subsample_is_deterministic_and_stratified():
    rng = np.random.default_rng(14)
    train = TrainingSet(rng.normal(size=(2, 100)), rng.normal(size=(100, 1)))
    a = train.subsample(10, seed=3)
    b = train.subsample(10, seed=3)
    assert np.array_equal(a.inputs, b.inputs)
    assert a.size == 10
    assert train.subsample(0, seed=3).size == 0
    assert train.subsample(100, seed=3) is train
    with pytest.raises(ValueError):
        train.subsample(101)
    # one point per contiguous stratum of 10
    cols = [np.flatnonzero((train.inputs.T == row).all(axis=1))[0]
            for row in a.inputs.T]
    assert all(10 * i <= c < 10 * (i + 1) for i, c in enumerate(cols))


def test_hyperparameters_file_round_trip(tmp_path):
    hypers = [Hyperparameters(0.6744649108028153, 1.229786071642903, 8.2e-4),
              Hyperparameters(2.0, 4.0, 0.01)]
    path = tmp_path / "hp.txt"
    save_hyperparameters(path, hypers)
    assert load_hyperparameters(path) == hypers
