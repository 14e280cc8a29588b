"""Reference expressions the tests compare the package against.

Plain, unoptimized forms of quantities the package itself no longer needs:
the squared-exponential kernel of one pair of points and its regularized
Gram matrix, the kinetic energy of a model and the 2-link arm's effector
position and Jacobian.
"""
from __future__ import annotations

import math

import numpy as np

from ctgp.gp import _self_sq_dists


def kernel_eval(x, x_prime, hp) -> float:
    """Squared-exponential kernel sigma_f^2 exp(-||x - x'||^2 / (2 lambda^2))."""
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    if x.shape != x_prime.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_prime.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_prime))):
        raise ValueError("kernel inputs must be finite")
    r2 = float(np.sum((x - x_prime) ** 2))
    return hp.signal_variance * math.exp(-r2 / (2.0 * hp.length_scale**2))


def gram_matrix(inputs: np.ndarray, hp) -> np.ndarray:
    """Regularized Gram matrix K + sigma_n^2 I over (d, m) inputs."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise ValueError(f"inputs must be (d, m), got shape {inputs.shape}")
    pts = inputs.T
    d2 = _self_sq_dists(pts)
    k = hp.signal_variance * np.exp(-d2 / (2.0 * hp.length_scale**2))
    k[np.diag_indices_from(k)] += hp.noise_variance
    return k


def kinetic_energy(model, q, qd):
    """qd' H(q) qd / 2."""
    return 0.5 * np.einsum("...i,...ij,...j->...", qd, model.mass_matrix(q), qd)


def effector_position(arm, q):
    s1, c1 = np.sin(q[..., 0]), np.cos(q[..., 0])
    s12, c12 = np.sin(q[..., 0] + q[..., 1]), np.cos(q[..., 0] + q[..., 1])
    return np.stack([arm.l1 * c1 + arm.l2 * c12, arm.l1 * s1 + arm.l2 * s12], axis=-1)


def effector_jacobian(arm, q):
    s1, c1 = np.sin(q[..., 0]), np.cos(q[..., 0])
    s12, c12 = np.sin(q[..., 0] + q[..., 1]), np.cos(q[..., 0] + q[..., 1])
    j = np.zeros(q.shape[:-1] + (2, 2))
    j[..., 0, 0] = -arm.l1 * s1 - arm.l2 * s12
    j[..., 0, 1] = -arm.l2 * s12
    j[..., 1, 0] = arm.l1 * c1 + arm.l2 * c12
    j[..., 1, 1] = arm.l2 * c12
    return j
