"""Tracking controllers and the numeric checks behind their guarantees.

Three control laws over an estimated model H_hat, C_hat, g_hat:

* PD:              tau = -Kp e - Kd ed
* computed torque: tau = H_hat qdd_d + C_hat(q, qd) qd_d + g_hat - Kd ed - Kp e
* computed torque with GP compensation: adds the posterior mean of the
  model-error GP evaluated at (qdd_d, qd_d, q); in stochastic mode the
  posterior standard deviation becomes a diagonal diffusion term that the
  integrator injects into the velocity dynamics.

e = q - q_d, ed = qd - qd_d throughout.  All laws broadcast over leading
batch axes of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import JointState, ManipulatorModel, _assemble, _dot2, _parts
from .gp import MultiGP


# rows per GP call of CTGPController.posterior_std: bounds its cross-kernel
# buffers to POSTERIOR_STD_CHUNK x m whatever the number of rows
POSTERIOR_STD_CHUNK = 64


class ControlError(Exception):
    pass


def _mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """einsum("ij,...j->...i", m, v); in closed form for n <= 2, with
    einsum's bits (the products summed onto +0.0)."""
    if m.shape[0] == 1:
        return m[0, 0] * v + 0.0
    if m.shape[0] > 2:
        return np.einsum("ij,...j->...i", m, v)
    v0, v1 = _parts(v)
    return _assemble([_dot2(m0, v0, m1, v1) for m0, m1 in m.tolist()], v.shape)


@dataclass(frozen=True)
class Gains:
    """Symmetric positive definite Kp, Kd."""

    kp: np.ndarray
    kd: np.ndarray

    def __post_init__(self):
        for name in ("kp", "kd"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValueError(f"{name} must be square, got shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} contains non-finite values")
            if np.max(np.abs(mat - mat.T)) > 1e-9:
                raise ValueError(f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(mat)) <= 0:
                raise ValueError(f"{name} must be positive definite")
            object.__setattr__(self, name, mat)
        if self.kp.shape != self.kd.shape:
            raise ValueError("kp and kd must have equal shape")

    @classmethod
    def diagonal(cls, kp, kd) -> "Gains":
        return cls(np.diag(np.asarray(kp, dtype=float)),
                   np.diag(np.asarray(kd, dtype=float)))

    @property
    def n(self) -> int:
        return self.kp.shape[0]

    def sigma_min_kd(self) -> float:
        return float(np.min(np.linalg.svd(self.kd, compute_uv=False)))


@dataclass(frozen=True)
class ReferenceSample:
    """Desired position, velocity and acceleration at one time instant."""

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray


class ControlOutput:
    """Controller output: the drift (commanded) torque and the diffusion.

    diffusion is None for deterministic laws (no stochastic term at all) and
    a diagonal (..., n, n) matrix of posterior standard deviations in
    stochastic mode.  gp_mean/gp_std are recorded for tracing and read as
    zeros for laws without a GP; those zeros are made on first read, so an
    output nobody reads them from allocates none (`traces`).
    """

    __slots__ = ("drift", "diffusion", "_gp_mean", "_gp_std")

    def __init__(self, drift: np.ndarray, diffusion: np.ndarray | None = None,
                 gp_mean: np.ndarray | None = None, gp_std: np.ndarray | None = None):
        self.drift = drift
        self.diffusion = diffusion
        self._gp_mean = gp_mean
        self._gp_std = gp_std

    @property
    def gp_mean(self) -> np.ndarray:
        if self._gp_mean is None:
            self._gp_mean = np.zeros_like(self.drift)
        return self._gp_mean

    @property
    def gp_std(self) -> np.ndarray:
        if self._gp_std is None:
            self._gp_std = np.zeros_like(self.drift)
        return self._gp_std

    def traces(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(gp_mean, gp_std) as the law set them: None where it set none."""
        return self._gp_mean, self._gp_std


def build_gp_input(qdd_d: np.ndarray, qd_d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stack (qdd_d, qd_d, q) along the last axis: the GP query vector.

    Desired acceleration and velocity enter, but the measured position.
    """
    q = np.asarray(q, dtype=float)
    qdd_d = np.asarray(qdd_d, dtype=float)
    qd_d = np.asarray(qd_d, dtype=float)
    if qdd_d.shape != q.shape:
        qdd_d = np.broadcast_to(qdd_d, q.shape)
    if qd_d.shape != q.shape:
        qd_d = np.broadcast_to(qd_d, q.shape)
    return np.concatenate([qdd_d, qd_d, q], axis=-1)


def _computed_torque(est_model: ManipulatorModel, gains: Gains, state: JointState,
                     ref: ReferenceSample) -> np.ndarray:
    """Feedback linearization on the estimate plus PD action.

    C_hat is evaluated at the measured velocity but multiplies the desired
    one; g_hat is position-only.
    """
    q, qd = state.q, state.qd
    e = q - ref.q
    ed = qd - ref.qd
    return (
        est_model.mass_times(q, ref.qdd)
        + est_model.coriolis_times(q, qd, ref.qd)
        + est_model.gravity_vector(q)
        - _mat_vec(gains.kd, ed)
        - _mat_vec(gains.kp, e)
    )


class PDController:
    mode = "deterministic"

    def __init__(self, gains: Gains):
        self.gains = gains

    def output(self, state: JointState, ref: ReferenceSample,
               include_std: bool = True) -> ControlOutput:
        e = state.q - ref.q
        ed = state.qd - ref.qd
        return ControlOutput(-_mat_vec(self.gains.kp, e) - _mat_vec(self.gains.kd, ed))


class ComputedTorqueController:
    mode = "deterministic"

    def __init__(self, est_model: ManipulatorModel, gains: Gains):
        self.est_model = est_model
        self.gains = gains

    def output(self, state: JointState, ref: ReferenceSample,
               include_std: bool = True) -> ControlOutput:
        return ControlOutput(_computed_torque(self.est_model, self.gains, state, ref))


class CTGPController:
    def __init__(self, est_model: ManipulatorModel, gp: MultiGP | None, gains: Gains,
                 mode: str = "deterministic"):
        if mode not in ("deterministic", "stochastic"):
            raise ControlError(f"unknown mode {mode!r}")
        self.est_model = est_model
        self.gp = gp
        self.gains = gains
        self.mode = mode

    def output(self, state: JointState, ref: ReferenceSample,
               include_std: bool = True) -> ControlOutput:
        """Computed torque plus the GP model-error compensation.

        With no training data the GP contributes an exactly zero mean and
        zero standard deviation and the drift is the computed torque's, bit
        for bit.  Without include_std (deterministic mode only) gp_std stays
        zero.
        """
        tau = _computed_torque(self.est_model, self.gains, state, ref)
        stochastic = self.mode == "stochastic"
        mean = std = None
        gp = self.gp
        if gp is not None and gp.size > 0:
            query = build_gp_input(ref.qdd, ref.qd, state.q)
            if stochastic or include_std:
                pred = gp.predict(query)
                mean, std = pred.mean, pred.std
            else:
                mean = gp.predict_mean(query)
            tau = tau + mean
        out = ControlOutput(tau, gp_mean=mean, gp_std=std)
        if stochastic:
            n = state.q.shape[-1]
            out.diffusion = np.zeros(state.q.shape + (n,))
            idx = np.arange(n)
            out.diffusion[..., idx, idx] = out.gp_std
        return out

    def posterior_std(self, q: np.ndarray, qd_d: np.ndarray,
                      qdd_d: np.ndarray) -> np.ndarray:
        """GP posterior std at rows of measured positions and reference
        velocities/accelerations, (b, n) each -> (b, n).

        The value output(include_std=True) reports as gp_std for the same
        state and reference, up to BLAS batching round-off, evaluated in
        chunks of POSTERIOR_STD_CHUNK rows; zero without training data.
        """
        q = np.asarray(q, dtype=float)
        std = np.zeros(q.shape)
        if self.gp is None or self.gp.size == 0:
            return std
        for lo in range(0, q.shape[0], POSTERIOR_STD_CHUNK):
            rows = slice(lo, lo + POSTERIOR_STD_CHUNK)
            query = build_gp_input(qdd_d[rows], qd_d[rows], q[rows])
            std[rows] = np.sqrt(self.gp.predict_var(query))
        return std


# ---------------------------------------------------------------------------
# model-error bound and gain conditions


@dataclass(frozen=True)
class ModelErrorBound:
    """Affine covering bound r <= alpha + beta ||qd|| fitted from probes."""

    alpha: float
    beta: float
    superlinear_warning: bool
    max_residual: float
    max_speed: float

    def covers(self, speed: float, residual: float) -> bool:
        return residual <= self.alpha + self.beta * speed + 1e-12


def _upper_hull_rightmost_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Slope of the rightmost segment of the upper convex hull of (x, y)."""
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    hull: list[tuple[float, float]] = []
    for px, py in zip(xs, ys):
        if hull and hull[-1][0] == px:
            if py <= hull[-1][1]:
                continue
            hull.pop()
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep only right turns (concave-from-above chain)
            if (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1) >= 0:
                hull.pop()
            else:
                break
        hull.append((px, py))
    if len(hull) < 2:
        return 0.0
    (x1, y1), (x2, y2) = hull[-2], hull[-1]
    if x2 == x1:
        return 0.0
    return (y2 - y1) / (x2 - x1)


def _uniform_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal((count, dim))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, (count, 1)) ** (1.0 / dim)
    return direction / norms * radii


def estimate_error_bound(
    true_model: ManipulatorModel,
    est_model: ManipulatorModel,
    ref_bounds: tuple[float, float, float],
    probe_count: int = 2000,
    seed: int = 0,
    velocity_cap: float | None = None,
) -> ModelErrorBound:
    """Fit the affine model-error bound from sampled dynamics residuals.

    Probes draw q in a ball of radius c_q + 0.5 (tracking overshoots the
    reference transiently), qd up to velocity_cap (default max(2 c_qd, 1)),
    desired velocity/acceleration inside their trajectory balls, and measure

        r = || (H - H_hat) qdd_d + (C - C_hat)(q, qd) qd_d + g(q, qd) - g_hat(q) ||.

    beta is the rightmost-segment slope of the upper convex hull of
    (||qd||, r), clipped at zero; alpha the smallest intercept covering all
    probes.  A quadratic fit flags super-linear velocity growth (the affine
    form is then unsound).
    """
    c_q, c_qd, c_qdd = (float(v) for v in ref_bounds)
    if velocity_cap is None:
        velocity_cap = max(2.0 * c_qd, 1.0)
    n = true_model.n
    rng = np.random.default_rng(seed)
    q = _uniform_ball(rng, probe_count, n, c_q + 0.5)
    qd = _uniform_ball(rng, probe_count, n, velocity_cap)
    qd_d = _uniform_ball(rng, probe_count, n, c_qd)
    qdd_d = _uniform_ball(rng, probe_count, n, c_qdd)

    def generalized(model, with_qd):
        g = model.gravity_vector(q, qd if with_qd else None)
        return model.mass_times(q, qdd_d) + model.coriolis_times(q, qd, qd_d) + g

    residual = generalized(true_model, True) - generalized(est_model, False)
    r = np.linalg.norm(residual, axis=1)
    speed = np.linalg.norm(qd, axis=1)

    beta = max(0.0, _upper_hull_rightmost_slope(speed, r))
    alpha = float(np.max(r - beta * speed)) if probe_count else 0.0

    # quadratic growth check: c2 v^2 contributing > 25% of the peak residual
    # at the probed speed range means the affine form extrapolates unsafely
    vmax = float(np.max(speed))
    if probe_count >= 3:
        coeffs = np.polynomial.polynomial.polyfit(speed, r, 2)
        superlinear = bool(
            coeffs[2] > 0 and coeffs[2] * vmax**2 > 0.25 * float(np.max(r)))
    else:
        superlinear = False

    return ModelErrorBound(
        alpha=alpha,
        beta=float(beta),
        superlinear_warning=superlinear,
        max_residual=float(np.max(r)),
        max_speed=vmax,
    )


@dataclass
class ConditionsReport:
    c_q: float
    c_qd: float
    c_qdd: float
    bounded_reference: bool
    kp_positive_definite: bool
    kd_positive_definite: bool
    sigma_min_kd: float
    beta: float
    gain_margin: float
    affine_bound_sound: bool

    @property
    def passed(self) -> bool:
        return (self.bounded_reference and self.kp_positive_definite
                and self.kd_positive_definite and self.gain_margin > 0
                and self.affine_bound_sound)

    def summary(self) -> str:
        rows = [
            ("reference bounded", self.bounded_reference,
             f"c_q={self.c_q:.4g}, c_qd={self.c_qd:.4g}, c_qdd={self.c_qdd:.4g}"),
            ("Kp positive definite", self.kp_positive_definite, ""),
            ("Kd positive definite", self.kd_positive_definite, ""),
            ("sigma_min(Kd) > beta", self.gain_margin > 0,
             f"sigma_min={self.sigma_min_kd:.4g}, beta={self.beta:.4g}, "
             f"margin={self.gain_margin:.4g}"),
            ("affine error bound sound", self.affine_bound_sound, ""),
        ]
        return "\n".join(
            f"{'PASS' if ok else 'FAIL'}  {name}" + (f" ({d})" if d else "")
            for name, ok, d in rows
        )


def verify_conditions(gains: Gains, bound: ModelErrorBound,
                      ref_bounds: tuple[float, float, float]) -> ConditionsReport:
    """Evaluate the three tracking conditions for the given design.

    (i) the reference and its first two derivatives are bounded, (ii) the
    gains are symmetric positive definite with sigma_min(Kd) exceeding the
    velocity slope of the model error, (iii) the model error admits the
    affine covering bound (no super-linear growth flagged).
    """
    c_q, c_qd, c_qdd = (float(v) for v in ref_bounds)
    bounded = all(math.isfinite(v) for v in (c_q, c_qd, c_qdd))
    kp_pd = bool(np.min(np.linalg.eigvalsh(gains.kp)) > 0)
    kd_pd = bool(np.min(np.linalg.eigvalsh(gains.kd)) > 0)
    smin = gains.sigma_min_kd()
    return ConditionsReport(
        c_q=c_q, c_qd=c_qd, c_qdd=c_qdd,
        bounded_reference=bounded,
        kp_positive_definite=kp_pd,
        kd_positive_definite=kd_pd,
        sigma_min_kd=smin,
        beta=bound.beta,
        gain_margin=smin - bound.beta,
        affine_bound_sound=not bound.superlinear_warning,
    )
