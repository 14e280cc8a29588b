"""Exact multi-output Gaussian process regression with a squared-exponential kernel.

Each output dimension is an independent zero-mean GP over a shared set of
training inputs.  Fitting computes the inputs' squared distances once for all
outputs, factors the regularized Gram matrix once per output (Cholesky),
solves for the mean weights and then inverts the factor in its own
storage (LAPACK trtri), so a fitted output keeps L^-1 and the weights.  A
prediction computes the query-to-training squared distances once for all
outputs and builds each output's cross kernel k* once; the mean is k* alpha,
O(m) per query, and the variance sigma_f^2 - ||L^-1 k*'||^2, O(m^2) per query
through one BLAS triangular multiply (trmm).  Hyperparameter selection
maximizes the log marginal likelihood by gradient ascent in log-parameter
space.

The likelihood is computed in two steps.  The value step builds the kernel
from a precomputed squared-distance matrix, factors it and solves for alpha;
the gradient step turns that factor into K^-1 in place (LAPACK potri) and
forms the trace terms of tr((alpha alpha' - K^-1) dK/dtheta) / 2.  The search
computes the distances once per call, evaluates each start in full, evaluates
line-search trials by value only and takes the gradient only at the steps it
accepts.  Its restarts are independent: when the host has a core to spare per
BLAS thread group (`parallel.process_count`), forked workers run some of
them, and the outcomes are merged in restart order, so every result keeps
its bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np
import scipy

from . import parallel
from .csvio import read_table, write_lines, write_table


def _scipy_linalg_wrapper(name: str):
    """scipy.linalg's compiled module `name` (_flapack or _fblas), loaded
    without running the scipy.linalg package, whose imports cost more than
    the rest of start-up.  The module is registered under its real name, so
    a later `import scipy.linalg` reuses it, and an entry already in
    sys.modules is reused here."""
    full_name = f"scipy.linalg.{name}"
    if full_name in sys.modules:
        return sys.modules[full_name]
    spec = importlib.machinery.PathFinder.find_spec(
        full_name, [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:
        raise ImportError(f"cannot find {full_name}", name=full_name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full_name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _scipy_linalg_wrapper("_flapack")
dpotrf, dpotrs, dpotri, dtrtri = (_flapack.dpotrf, _flapack.dpotrs,
                                  _flapack.dpotri, _flapack.dtrtri)
dtrmm = _scipy_linalg_wrapper("_fblas").dtrmm

_LOG_2PI = math.log(2.0 * math.pi)


class GPError(Exception):
    """Numerical failure inside the GP machinery."""


class CholeskyError(GPError):
    """Gram matrix not positive definite for some output dimension."""

    def __init__(self, output_index: int, pivot: float):
        super().__init__(
            f"Cholesky factorization failed for output {output_index}: "
            f"smallest pivot {pivot:.6e}; the regularized Gram matrix is not "
            f"positive definite (increase noise_variance or deduplicate inputs)"
        )
        self.output_index = output_index
        self.pivot = pivot

    def __reduce__(self):
        return CholeskyError, (self.output_index, self.pivot)


@dataclass(frozen=True)
class Hyperparameters:
    """Squared-exponential kernel hyperparameters for one output dimension.

    Attributes
    ----------
    length_scale : float
        Isotropic length scale, > 0.
    signal_variance : float
        Kernel amplitude sigma_f^2, >= 0.
    noise_variance : float
        Observation-noise variance sigma_n^2 added to the Gram diagonal,
        >= 0.  Strict positivity is what guarantees invertibility of the
        regularized Gram matrix; zero is accepted and fit() reports the
        singular case through CholeskyError.
    """

    length_scale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 1e-6

    def __post_init__(self):
        for name in ("length_scale", "signal_variance", "noise_variance"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.length_scale <= 0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        if self.signal_variance < 0:
            raise ValueError(f"signal_variance must be non-negative, got {self.signal_variance}")
        if self.noise_variance < 0:
            raise ValueError(f"noise_variance must be non-negative, got {self.noise_variance}")

    def to_log_array(self) -> np.ndarray:
        """(log lambda, log sigma_f, log sigma_n); requires positive entries."""
        if self.signal_variance <= 0 or self.noise_variance <= 0:
            raise ValueError("log-parameter form requires strictly positive variances")
        return np.array([
            math.log(self.length_scale),
            0.5 * math.log(self.signal_variance),
            0.5 * math.log(self.noise_variance),
        ])

    @classmethod
    def from_log_array(cls, theta: np.ndarray) -> "Hyperparameters":
        return cls(
            length_scale=math.exp(theta[0]),
            signal_variance=math.exp(2.0 * theta[1]),
            noise_variance=math.exp(2.0 * theta[2]),
        )


@dataclass(frozen=True)
class Prediction:
    """Posterior mean and standard deviation at a single query point."""

    mean: np.ndarray
    std: np.ndarray


class TrainingSet:
    """Immutable bundle of training inputs (d x m) and outputs (m x n).

    Inputs are stored one column per point; outputs one row per point.
    m = 0 (empty set) is legal and yields the prior-mean predictor.
    """

    def __init__(self, inputs: np.ndarray, outputs: np.ndarray):
        inputs = np.asarray(inputs, dtype=float)
        outputs = np.asarray(outputs, dtype=float)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be a (d, m) matrix, got shape {inputs.shape}")
        if outputs.ndim != 2:
            raise ValueError(f"outputs must be an (m, n) matrix, got shape {outputs.shape}")
        if inputs.shape[1] != outputs.shape[0]:
            raise ValueError(
                f"point-count mismatch: {inputs.shape[1]} input columns vs "
                f"{outputs.shape[0]} output rows"
            )
        if inputs.size and not np.all(np.isfinite(inputs)):
            raise ValueError("inputs contain non-finite values")
        if outputs.size and not np.all(np.isfinite(outputs)):
            raise ValueError("outputs contain non-finite values")
        self.inputs = inputs
        self.outputs = outputs
        self.inputs.setflags(write=False)
        self.outputs.setflags(write=False)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[0]

    @property
    def size(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[1]

    def subsample(self, size: int, seed: int = 0) -> "TrainingSet":
        """Deterministic stratified subsample of `size` points.

        The index range is split into `size` contiguous strata and one point
        is drawn uniformly from each, preserving order.  size = 0 gives the
        empty set; size = m returns all points.
        """
        if not 0 <= size <= self.size:
            raise ValueError(f"subsample size {size} outside [0, {self.size}]")
        if size == 0:
            return TrainingSet(self.inputs[:, :0], self.outputs[:0, :])
        if size == self.size:
            return self
        rng = np.random.default_rng(seed)
        picked = []
        for stratum in np.array_split(np.arange(self.size), size):
            picked.append(stratum[rng.integers(0, len(stratum))])
        idx = np.array(picked)
        return TrainingSet(self.inputs[:, idx], self.outputs[idx, :])

    @staticmethod
    def _header(d: int, n: int) -> list[str]:
        return [f"x_{j + 1}" for j in range(d)] + [f"y_{j + 1}" for j in range(n)]

    def save_csv(self, path, manifest: tuple[str, ...] = ()):
        """Write one row per point, columns x_1..x_d, y_1..y_n."""
        write_table(path, manifest, self._header(self.input_dim, self.output_dim),
                    np.concatenate([self.inputs.T, self.outputs], axis=1))

    @classmethod
    def load_csv(cls, path) -> "TrainingSet":
        """Read a save_csv file; its header must be x_1..x_d,y_1..y_n in order."""
        _, header, data = read_table(path)
        d = sum(1 for c in header if c.startswith("x_"))
        if d in (0, len(header)) or header != cls._header(d, len(header) - d):
            raise ValueError(f"{path}: header must be x_1..x_d,y_1..y_n, got {header}")
        return cls(data[:, :d].T, data[:, d:])


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of a (p, d)."""
    return np.add.reduce(a * a, axis=1)  # np.sum's reduction, without its wrapper


def _sq_dists(a: np.ndarray, b: np.ndarray,
              bb: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared distances between rows of a (p, d) and b (q, d).

    `bb`, the rows of b's squared norms from _sq_norms, spares recomputing
    them and gives the same bits.
    """
    aa = _sq_norms(a)
    if bb is None:
        bb = _sq_norms(b)
    d2 = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def _self_sq_dists(a: np.ndarray) -> np.ndarray:
    # exact symmetry and an exactly zero diagonal, both relied on downstream
    d2 = _sq_dists(a, a)
    d2 = 0.5 * (d2 + d2.T)
    np.fill_diagonal(d2, 0.0)
    return d2


def _se_kernel(d2: np.ndarray, hp: Hyperparameters) -> np.ndarray:
    """Squared-exponential kernel sigma_f^2 exp(-d2 / (2 lambda^2)) from
    squared distances d2, in a new array."""
    k = np.divide(d2, -2.0 * hp.length_scale**2)
    np.exp(k, out=k)
    k *= hp.signal_variance
    return k


def _factor(k: np.ndarray, y: np.ndarray, hp: Hyperparameters,
            output_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, alpha) for the symmetric C-ordered noise-free kernel k.

    L is the lower Cholesky factor of k + sigma_n^2 I, computed in k's own
    storage (k is destroyed), and alpha solves (k + sigma_n^2 I) alpha = y
    (LAPACK potrs, as scipy's cho_solve calls it).  Raises CholeskyError with
    the failing pivot.
    """
    k[np.diag_indices_from(k)] += hp.noise_variance
    diag = k.diagonal().copy()
    # k.T is the same symmetric matrix in Fortran order, so LAPACK needs no copy
    low, info = dpotrf(k.T, lower=1, clean=1, overwrite_a=1)
    if info > 0:
        j = info - 1  # first leading minor that is not positive definite
        pivot = diag[j] - float(np.sum(low[j, :j] ** 2))
        raise CholeskyError(output_index, pivot)
    if info < 0:
        raise GPError(f"illegal value in Cholesky argument {-info}")
    alpha, info = dpotrs(low, y, lower=1)
    if info != 0:
        raise GPError(f"illegal value in Cholesky solve argument {-info}")
    return low, alpha


def _invert_factor(low: np.ndarray, output_index: int) -> np.ndarray:
    """L^-1 in the storage of the lower Cholesky factor `low` (LAPACK trtri).

    Raises GPError naming the output when the inverse is singular or not
    finite; a predict call then trusts the stored inverse without checking it.
    """
    inv, info = dtrtri(low, lower=1, overwrite_c=1)
    if info != 0 or not np.all(np.isfinite(inv)):
        raise GPError(
            f"inverting the Cholesky factor failed for output {output_index} "
            f"(trtri info {info}); the inverse factor is singular or not finite"
        )
    return inv


class FittedGP:
    """Single-output posterior: the inverse Cholesky factor and the weights.

    `inverse_factor` is L^-1, where L is the lower Cholesky factor of the
    regularized Gram matrix K + sigma_n^2 I (lower triangular, Fortran order;
    None when m = 0), and `weights` is alpha = (K + sigma_n^2 I)^-1 y.  The
    latent variance at cross-kernel rows k* is sigma_f^2 - ||L^-1 k*'||^2,
    the explicit-inverse form of Rasmussen & Williams (2006), Alg. 2.1.
    """

    def __init__(self, hyperparameters, training_inputs, inverse_factor, weights):
        self.hyperparameters = hyperparameters
        self.training_inputs = training_inputs  # (d, m)
        self.inverse_factor = inverse_factor    # (m, m) lower, None when m = 0
        self.weights = weights                  # (m,)

    @property
    def size(self) -> int:
        return self.training_inputs.shape[1]

    def cross_kernel(self, d2: np.ndarray) -> np.ndarray:
        """Kernel rows k* (b, m) from query-to-training squared distances d2."""
        return _se_kernel(d2, self.hyperparameters)

    def variance(self, ks: np.ndarray) -> np.ndarray:
        """Posterior variance (noise-free, latent-function) from k* (b, m) -> (b,).

        Overwrites `ks` with L^-1 k*'.
        """
        hp = self.hyperparameters
        if self.size == 0:
            # empty training set: the posterior is pinned to the zero
            # correction with zero uncertainty by convention
            return np.zeros(ks.shape[0])
        # ks.T is Fortran-ordered, so trmm works in the storage of ks
        v = dtrmm(1.0, self.inverse_factor, ks.T, lower=1, overwrite_b=1)
        var = hp.signal_variance - np.einsum("ij,ij->j", v, v)
        floor = -1e-12 * max(1.0, hp.signal_variance)
        if np.any(var < floor):
            raise GPError(
                f"posterior variance {var.min():.3e} below cancellation floor "
                f"{floor:.1e}; inconsistent factorization"
            )
        return np.maximum(var, 0.0)


class MultiGP:
    """Independent per-output GPs sharing one set of training inputs."""

    def __init__(self, components: list[FittedGP], input_dim: int):
        self.components = components
        self.input_dim = input_dim
        # the training inputs' squared norms, shared by every query's distances
        self._train_sq_norms = (_sq_norms(components[0].training_inputs.T)
                                if components else np.zeros(0))

    @property
    def output_dim(self) -> int:
        return len(self.components)

    @property
    def size(self) -> int:
        return self.components[0].size if self.components else 0

    @classmethod
    def empty(cls, input_dim: int, output_dim: int,
              hyperparameters: list[Hyperparameters] | None = None) -> "MultiGP":
        hps = hyperparameters or [Hyperparameters() for _ in range(output_dim)]
        if len(hps) != output_dim:
            raise ValueError("one Hyperparameters per output required")
        comps = [
            FittedGP(hp, np.zeros((input_dim, 0)), None, np.zeros(0)) for hp in hps
        ]
        return cls(comps, input_dim)

    def _check_query(self, x: np.ndarray) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        q = x[None, :] if single else x
        if q.ndim != 2 or q.shape[1] != self.input_dim:
            raise ValueError(
                f"query dimension {x.shape} incompatible with input_dim {self.input_dim}"
            )
        if not np.isfinite(q).all():
            raise ValueError("query contains non-finite values")
        return q, single

    def _cross_kernels(self, q: np.ndarray) -> list[np.ndarray]:
        """Each output's k* (b, m), all from one query-to-training distance matrix."""
        d2 = _sq_dists(q, self.components[0].training_inputs.T,
                       self._train_sq_norms)
        return [c.cross_kernel(d2) for c in self.components]

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        """Mean at a (d,) query -> (n,), or (b, d) queries -> (b, n)."""
        q, single = self._check_query(x)
        out = np.empty((q.shape[0], self.output_dim))
        for j, (c, ks) in enumerate(zip(self.components, self._cross_kernels(q))):
            out[:, j] = ks @ c.weights
        return out[0] if single else out

    def predict_var(self, x: np.ndarray) -> np.ndarray:
        """Latent variance at a (d,) query -> (n,), or (b, d) -> (b, n)."""
        q, single = self._check_query(x)
        out = np.stack([c.variance(ks) for c, ks in
                        zip(self.components, self._cross_kernels(q))], axis=-1)
        return out[0] if single else out

    def predict(self, x: np.ndarray) -> Prediction:
        """Mean and standard deviation, each output's k* built once for both."""
        q, single = self._check_query(x)
        means, variances = [], []
        for c, ks in zip(self.components, self._cross_kernels(q)):
            means.append(ks @ c.weights)  # before variance() overwrites ks
            variances.append(c.variance(ks))
        mean = np.stack(means, axis=-1)
        std = np.sqrt(np.stack(variances, axis=-1))
        if single:
            return Prediction(mean=mean[0], std=std[0])
        return Prediction(mean=mean, std=std)


def fit(train: TrainingSet, hypers: list[Hyperparameters]) -> MultiGP:
    """Fit one GP per output column; Cholesky once per output.

    Each output stores the weights alpha, solved from the Cholesky factor L,
    and L^-1, which overwrites L.  Raises CholeskyError naming the offending
    output and the failing pivot when the regularized Gram matrix is not
    positive definite, and GPError naming the output when L^-1 is singular or
    not finite.
    """
    if len(hypers) != train.output_dim:
        raise ValueError(
            f"{train.output_dim} outputs need {train.output_dim} hyperparameter "
            f"sets, got {len(hypers)}"
        )
    if train.size == 0:
        return MultiGP.empty(train.input_dim, train.output_dim, list(hypers))
    d2 = _self_sq_dists(train.inputs.T)
    comps = []
    for i, hp in enumerate(hypers):
        low, alpha = _factor(_se_kernel(d2, hp), train.outputs[:, i], hp, i)
        comps.append(FittedGP(hp, train.inputs, _invert_factor(low, i), alpha))
    return MultiGP(comps, train.input_dim)


@dataclass
class _LmlState:
    """What the gradient step needs from an evaluated point."""

    hp: Hyperparameters
    k_se: np.ndarray    # noise-free kernel matrix, (m, m)
    factor: np.ndarray  # lower Cholesky factor of k_se + sigma_n^2 I, Fortran order
    alpha: np.ndarray   # (k_se + sigma_n^2 I)^-1 y


def _lml_value(d2: np.ndarray, y: np.ndarray, hp: Hyperparameters,
               output_index: int) -> tuple[float, _LmlState]:
    """Marginal log-likelihood of targets y from self squared distances d2.

    Returns the value and the state the gradient step consumes.  Raises
    CholeskyError when the regularized Gram matrix is not positive definite.
    """
    k_se = _se_kernel(d2, hp)
    low, alpha = _factor(k_se.copy(), y, hp, output_index)
    value = (
        -0.5 * float(y @ alpha)
        - float(np.sum(np.log(np.diag(low))))
        - 0.5 * y.shape[0] * _LOG_2PI
    )
    return value, _LmlState(hp, k_se, low, alpha)


def _lml_gradient(d2: np.ndarray, state: _LmlState) -> np.ndarray:
    """Gradient of the value step's likelihood w.r.t. (log lambda, log sigma_f,
    log sigma_n): tr((alpha alpha' - K^-1) dK/dtheta) / 2.

    Consumes `state`: K^-1 overwrites the factor and k_se is scaled by d2.
    """
    hp, k_se, alpha = state.hp, state.k_se, state.alpha
    k_inv, info = dpotri(state.factor, lower=1, overwrite_c=1)
    if info != 0:
        raise GPError(f"inverting the Cholesky factor failed (info {info})")
    # potri fills the lower triangle and leaves the cleaned upper one zero, so
    # for symmetric S, sum(K^-1 * S) = 2 <tril K^-1, S> - <diag K^-1, diag S>;
    # k_inv.T is C-ordered like S, which keeps vdot free of copies
    k_inv_diag = k_inv.diagonal()

    def trace_with(s: np.ndarray) -> float:
        return (2.0 * float(np.vdot(k_inv.T, s))
                - float(k_inv_diag @ s.diagonal()))

    d_sf = float(alpha @ (k_se @ alpha)) - trace_with(k_se)
    k_se *= d2  # the length-scale derivative's matrix, up to 1 / lambda^2
    d_lam = float(alpha @ (k_se @ alpha)) - trace_with(k_se)
    d_sn = float(alpha @ alpha) - float(np.sum(k_inv_diag))
    return np.array([
        0.5 * d_lam / hp.length_scale**2,
        d_sf,
        hp.noise_variance * d_sn,
    ])


def log_marginal_likelihood(
    train: TrainingSet, hp: Hyperparameters, output_index: int = 0,
    *, sq_dists: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Marginal log-likelihood of one output column and its gradient.

    Returns (value, gradient) with the gradient taken with respect to
    (log lambda, log sigma_f, log sigma_n).  `sq_dists`, the training
    inputs' self squared distances, spares recomputing them.
    """
    if not 0 <= output_index < train.output_dim:
        raise ValueError(f"output_index {output_index} outside [0, {train.output_dim})")
    y = train.outputs[:, output_index]
    d2 = _self_sq_dists(train.inputs.T) if sq_dists is None else sq_dists
    value, state = _lml_value(d2, y, hp, output_index)
    return value, _lml_gradient(d2, state)


def _gradient_ascent(
    train: TrainingSet,
    d2: np.ndarray,
    output_index: int,
    theta0: np.ndarray,
    budget: int,
    noise_floor: float,
) -> tuple[np.ndarray, float, list[float]]:
    """Backtracking gradient ascent in log-parameter space.

    The start is evaluated in full by log_marginal_likelihood.  Line-search
    trials are evaluated by value only; the gradient is computed once per
    accepted step, from that point's own factorization.  Returns (theta,
    value, accepted_values).  The accepted-value sequence is non-decreasing
    by construction: a step is taken only on strict improvement, and
    Cholesky failures or out-of-box candidates count as rejected steps.
    """
    log_sn_floor = 0.5 * math.log(noise_floor)

    def value_at(theta):
        return _lml_value(d2, y, Hyperparameters.from_log_array(theta), output_index)

    theta = np.asarray(theta0, dtype=float)
    value, grad = log_marginal_likelihood(
        train, Hyperparameters.from_log_array(theta), output_index, sq_dists=d2
    )
    y = train.outputs[:, output_index]  # the index is valid once that returns
    history = [value]
    step = 0.1
    for _ in range(budget):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-9:
            break
        direction = grad / gnorm
        # each rejected candidate's arrays are dropped before the next trial
        # is factored: one point's arrays at a time
        state = None
        trial = step
        for _ in range(30):
            cand = theta + trial * direction
            if cand[2] < log_sn_floor or np.any(np.abs(cand) > 20.0):
                trial *= 0.5
                continue
            try:
                cval, state = value_at(cand)
            except CholeskyError:
                trial *= 0.5
                continue
            if math.isfinite(cval) and cval > value:
                break
            state = None
            trial *= 0.5
        if state is None:
            break
        theta, value = cand, cval
        grad = _lml_gradient(d2, state)
        history.append(value)
        step = min(trial * 2.0, 2.0)
    return theta, value, history


def _run_restart(train: TrainingSet, d2: np.ndarray, output_index: int,
                 start: np.ndarray, budget: int,
                 noise_floor: float) -> tuple[np.ndarray, float] | CholeskyError:
    """One start's ascent: (theta, value), or the CholeskyError that ended it."""
    try:
        theta, value, _ = _gradient_ascent(train, d2, output_index, start, budget,
                                           noise_floor)
    except CholeskyError as err:
        return err
    return theta, value


def optimize_hyperparameters(
    train: TrainingSet,
    initial: Hyperparameters,
    budget: int,
    output_index: int = 0,
    restarts: int = 5,
    noise_floor: float = 1e-8,
) -> Hyperparameters:
    """Maximize the marginal likelihood of one output by restarted ascent.

    Restart 0 starts exactly at `initial`, so the result never scores below
    the initial point; restarts r >= 1 perturb each parameter by a factor
    10^u, u ~ U(-1, 1), drawn from default_rng(r).  `budget` is the
    iteration allowance per restart; budget = 0 returns `initial` unchanged.
    During the search sigma_n^2 is kept at or above `noise_floor` and
    log-parameters inside [-20, 20]; candidates that fail Cholesky are
    treated as rejected steps.  Raises CholeskyError, the first in restart
    order, if every restart fails on its first evaluation.

    The restarts are independent jobs of `parallel.run_in_order`: with
    P = parallel.process_count(restarts) > 1, restart r runs in process
    r mod P, this process running restarts 0, P, 2P, ... and P - 1 forked
    workers the others.  The outcomes are merged in restart order, so the
    result, and an exception other than a CholeskyError, is the same, bit
    for bit, at any P.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if budget == 0 or train.size == 0:
        return initial
    theta0 = initial.to_log_array()
    if theta0[2] < 0.5 * math.log(noise_floor):
        theta0 = theta0.copy()
        theta0[2] = 0.5 * math.log(noise_floor)
    starts = [theta0]
    for r in range(1, max(1, restarts)):
        offsets = np.random.default_rng(r).uniform(-1.0, 1.0, 3) * math.log(10.0)
        start = np.clip(theta0 + offsets, -20.0, 20.0)
        start[2] = max(start[2], 0.5 * math.log(noise_floor))
        starts.append(start)
    d2 = _self_sq_dists(train.inputs.T)

    def restart(start):
        return lambda: _run_restart(train, d2, output_index, start, budget, noise_floor)

    outcomes = parallel.run_in_order([restart(s) for s in starts], "hyperparameter search")
    best_theta = None
    best_value = -math.inf
    first_error = None
    for outcome in outcomes:
        if isinstance(outcome, CholeskyError):
            first_error = first_error or outcome
        elif outcome[1] > best_value:
            best_theta, best_value = outcome
    if best_theta is None:
        raise first_error if first_error is not None else GPError("no restart succeeded")
    return Hyperparameters.from_log_array(best_theta)


def save_hyperparameters(path, hypers: list[Hyperparameters], manifest: tuple[str, ...] = ()):
    """Plain-text key = value file, one lambda/sigma_f/sigma_n triple per output.

    sigma_f_i and sigma_n_i store the variances.
    """
    lines = list(manifest)
    for i, hp in enumerate(hypers, start=1):
        lines.append(f"lambda_{i} = {repr(float(hp.length_scale))}")
        lines.append(f"sigma_f_{i} = {repr(float(hp.signal_variance))}")
        lines.append(f"sigma_n_{i} = {repr(float(hp.noise_variance))}")
    write_lines(path, lines)


_HP_LINE = re.compile(r"^(lambda|sigma_f|sigma_n)_(\d+)\s*=\s*(\S+)$")


def load_hyperparameters(path) -> list[Hyperparameters]:
    entries: dict[tuple[str, int], float] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            m = _HP_LINE.match(ln)
            if m is None:
                raise ValueError(f"{path}: unparseable line {ln!r}")
            entries[(m.group(1), int(m.group(2)))] = float(m.group(3))
    if not entries:
        raise ValueError(f"{path}: no hyperparameter entries")
    count = max(i for _, i in entries)
    out = []
    for i in range(1, count + 1):
        try:
            out.append(Hyperparameters(
                length_scale=entries[("lambda", i)],
                signal_variance=entries[("sigma_f", i)],
                noise_variance=entries[("sigma_n", i)],
            ))
        except KeyError as missing:
            raise ValueError(f"{path}: incomplete triple for output {i}: {missing}")
    return out
