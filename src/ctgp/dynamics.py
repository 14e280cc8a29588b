"""Rigid-body manipulator models in the form H(q) qdd + C(q, qd) qd + g(q, qd) = tau.

Two plants and their deliberately imperfect estimates:

* a 1-dof actuated wing section under gravity and tabulated aerodynamic
  lift/drag, estimated as a plain damping-free pendulum with scaled-down
  inertia and lever-mass product;
* a 2-link planar arm moving horizontally (no gravity torque) with joint
  friction and a cubic-stiffness elastic band pulling on the end effector,
  estimated as the bare rigid-body arm.

The Coriolis matrices use the Christoffel-symbol construction, so
Hdot - 2C is skew-symmetric and C(q, a) b = C(q, b) a; forward dynamics
factorizes H instead of inverting it.  All model methods accept batched
configurations: (..., n) in, (..., n) or (..., n, n) out.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np


class DynamicsError(Exception):
    """Model evaluation failure (singular mass matrix, bad table, ...)."""


@dataclass
class JointState:
    """Joint positions and velocities."""

    q: np.ndarray
    qd: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.qd = np.asarray(self.qd, dtype=float)
        if self.q.shape != self.qd.shape:
            raise ValueError(f"q shape {self.q.shape} != qd shape {self.qd.shape}")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.qd))):
            raise ValueError("joint state contains non-finite values")


def _mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", m, v)


class ManipulatorModel(abc.ABC):
    """Common interface: H, C, g and the derived forward/inverse dynamics."""

    n: int

    @abc.abstractmethod
    def mass_matrix(self, q: np.ndarray) -> np.ndarray:
        """Symmetric positive definite inertia matrix, (..., n) -> (..., n, n)."""

    @abc.abstractmethod
    def coriolis_matrix(self, q: np.ndarray, qd: np.ndarray) -> np.ndarray:
        """Christoffel Coriolis/centrifugal matrix, -> (..., n, n)."""

    @abc.abstractmethod
    def gravity_vector(self, q: np.ndarray, qd: np.ndarray | None = None) -> np.ndarray:
        """Configuration-dependent forces (gravity, aero, friction, spring).

        Velocity-dependent contributions (friction) are folded in here and
        require qd; models without such terms ignore qd.
        """

    def inverse_dynamics(self, q, qd, qdd) -> np.ndarray:
        h = self.mass_matrix(q)
        c = self.coriolis_matrix(q, qd)
        return _mat_vec(h, qdd) + _mat_vec(c, qd) + self.gravity_vector(q, qd)

    def forward_dynamics(self, q, qd, tau) -> np.ndarray:
        """qdd = H(q)^-1 (tau - C qd - g), by factorization of H."""
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        tau = np.asarray(tau, dtype=float)
        h = self.mass_matrix(q)
        rhs = tau - _mat_vec(self.coriolis_matrix(q, qd), qd) - self.gravity_vector(q, qd)
        try:
            return np.linalg.solve(h, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as err:
            raise DynamicsError(f"mass matrix solve failed: {err}") from err

    def kinetic_energy(self, q, qd) -> np.ndarray:
        h = self.mass_matrix(q)
        return 0.5 * np.einsum("...i,...ij,...j->...", qd, h, qd)


# ---------------------------------------------------------------------------
# aerodynamic coefficient table


class AeroTable:
    """Lift/drag coefficients versus angle of attack, linearly interpolated.

    The grid is in degrees, strictly increasing, and must cover
    [-180, 180]; queries are taken in radians and wrapped into that range.
    """

    def __init__(self, alpha_deg, cl, cd):
        alpha_deg = np.asarray(alpha_deg, dtype=float)
        cl = np.asarray(cl, dtype=float)
        cd = np.asarray(cd, dtype=float)
        if alpha_deg.ndim != 1 or alpha_deg.shape != cl.shape or cl.shape != cd.shape:
            raise ValueError("alpha_deg, cl, cd must be equal-length 1-d arrays")
        if alpha_deg.size < 2 or np.any(np.diff(alpha_deg) <= 0):
            raise ValueError("alpha grid must be strictly increasing with >= 2 nodes")
        if alpha_deg[0] > -180.0 or alpha_deg[-1] < 180.0:
            raise ValueError(
                f"table must cover [-180, 180] deg, got "
                f"[{alpha_deg[0]}, {alpha_deg[-1]}]"
            )
        if not (np.all(np.isfinite(cl)) and np.all(np.isfinite(cd))):
            raise ValueError("coefficients contain non-finite values")
        if np.any(cd < 0):
            raise ValueError("drag coefficient must be non-negative")
        self.alpha_deg = alpha_deg
        self.cl = cl
        self.cd = cd

    def coefficients(self, alpha_rad):
        """(cl, cd) at angle(s) of attack in radians, wrapped to [-pi, pi)."""
        alpha_rad = np.asarray(alpha_rad, dtype=float)
        if not np.all(np.isfinite(alpha_rad)):
            raise DynamicsError("angle of attack non-finite")
        wrapped = np.degrees((alpha_rad + math.pi) % (2.0 * math.pi) - math.pi)
        cl = np.interp(wrapped, self.alpha_deg, self.cl)
        cd = np.interp(wrapped, self.alpha_deg, self.cd)
        return cl, cd

    @classmethod
    def naca0015(cls, step_deg: float = 1.0, stall_deg: float = 12.0,
                 blend_width_deg: float = 7.0) -> "AeroTable":
        """Synthetic symmetric-airfoil table.

        Thin-airfoil lift 2 pi sin(a) attached below ~stall_deg, blended by a
        logistic weight of the given width into the deep-stall flat-plate law
        1.1 sin(2a); drag 0.01 + 1.3 sin^2(a).  Antisymmetric cl / symmetric
        cd hold exactly on the grid.  Defaults model the gentle stall typical
        of chord Reynolds numbers around 3e4.
        """
        count = int(round(360.0 / step_deg)) + 1
        grid = np.linspace(-180.0, 180.0, count)
        a = np.radians(grid)
        attached = 2.0 * math.pi * np.sin(a)
        deep_stall = 1.1 * np.sin(2.0 * a)
        w = 1.0 / (1.0 + np.exp((np.abs(grid) - stall_deg) / blend_width_deg))
        cl = w * attached + (1.0 - w) * deep_stall
        cd = 0.01 + 1.3 * np.sin(a) ** 2
        return cls(grid, cl, cd)

    def save_csv(self, path, manifest: tuple[str, ...] = ()):
        lines = list(manifest)
        lines.append("alpha_deg,cl,cd")
        for adeg, cl, cd in zip(self.alpha_deg, self.cl, self.cd):
            lines.append(f"{repr(float(adeg))},{repr(float(cl))},{repr(float(cd))}")
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load_csv(cls, path) -> "AeroTable":
        with open(path) as fh:
            rows = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
        if not rows or rows[0].split(",") != ["alpha_deg", "cl", "cd"]:
            raise ValueError(f"{path}: expected header alpha_deg,cl,cd")
        data = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
        return cls(data[:, 0], data[:, 1], data[:, 2])


def aero_torque(table: AeroTable, q, airspeed: float, *, air_density: float = 1.225,
                chord: float = 0.1, span: float = 1.0, lever: float = 1.0,
                qd=None, apparent_wind: bool = False):
    """Aerodynamic joint-load torque as it enters the g-vector (actuator side).

    The free stream blows along +x; the wing chord line sits at joint angle q
    from the stream, so without the apparent-wind correction the angle of
    attack is q itself.  Lift acts perpendicular to the relative wind, drag
    along it; the returned value is the torque the actuator must overcome,

        tau_g = qbar * S * l * (cd sin q - cl cos q),   qbar = rho v^2 / 2,

    in the stationary case.  With apparent_wind=True the relative wind
    includes the chord-point velocity l*qd and both the angle of attack and
    the dynamic pressure follow from it.
    """
    q = np.asarray(q, dtype=float)
    if apparent_wind and qd is not None:
        qd = np.asarray(qd, dtype=float)
        wx = airspeed + lever * qd * np.sin(q)
        wy = -lever * qd * np.cos(q)
        speed2 = wx * wx + wy * wy
        gamma = np.arctan2(wy, wx)
        alpha = q - gamma
    else:
        speed2 = np.broadcast_to(float(airspeed) ** 2, q.shape).copy()
        wx = np.sqrt(speed2)
        wy = np.zeros_like(q)
        alpha = q
    cl, cd = table.coefficients(alpha)
    qbar_s = 0.5 * air_density * speed2 * chord * span
    lift = qbar_s * cl
    drag = qbar_s * cd
    speed = np.sqrt(speed2)
    safe = np.where(speed > 1e-12, speed, 1.0)
    ux, uy = wx / safe, wy / safe
    fx = drag * ux + lift * (-uy)
    fy = drag * uy + lift * ux
    torque = lever * (np.cos(q) * fy - np.sin(q) * fx)
    torque = np.where(speed > 1e-12, torque, 0.0)
    return -torque


def _constant_inertia(self, q):
    """1x1 inertia `self.inertia` at every configuration (1-dof models)."""
    q = np.asarray(q, dtype=float)
    out = np.zeros(q.shape[:-1] + (1, 1))
    out[..., 0, 0] = self.inertia
    return out


def _no_coriolis(self, q, qd):
    """Zero Coriolis matrix: a constant 1x1 inertia has no Christoffel terms."""
    q = np.asarray(q, dtype=float)
    return np.zeros(q.shape[:-1] + (1, 1))


@dataclass(frozen=True)
class WingModel(ManipulatorModel):
    """Actuated 1-dof wing: pendulum under gravity plus tabulated aero load."""

    inertia: float = 1.0
    mass: float = 1.0
    lever: float = 1.0
    gravity: float = 9.81
    airspeed: float = 5.0
    air_density: float = 1.225
    chord: float = 0.1
    span: float = 1.0
    apparent_wind: bool = False
    aero_table: AeroTable = field(default_factory=AeroTable.naca0015)

    n = 1

    def __post_init__(self):
        if self.inertia <= 0:
            raise ValueError("inertia must be positive")

    mass_matrix = _constant_inertia
    coriolis_matrix = _no_coriolis

    def gravity_vector(self, q, qd=None):
        q = np.asarray(q, dtype=float)
        g = self.mass * self.gravity * self.lever * np.sin(q)
        if self.airspeed != 0.0 or (self.apparent_wind and qd is not None):
            qd1 = None if qd is None else np.asarray(qd, dtype=float)[..., 0]
            g = g + aero_torque(
                self.aero_table, q[..., 0], self.airspeed,
                air_density=self.air_density, chord=self.chord, span=self.span,
                lever=self.lever, qd=qd1, apparent_wind=self.apparent_wind,
            )[..., None]
        return g

    def estimate(self, inertia_scale: float = 0.9,
                 lever_mass_scale: float = 0.9) -> "PendulumEstimate":
        return PendulumEstimate(
            inertia=inertia_scale * self.inertia,
            lever_mass=lever_mass_scale * self.mass * self.lever,
            gravity=self.gravity,
        )


@dataclass(frozen=True)
class PendulumEstimate(ManipulatorModel):
    """Damping-free pendulum J qdd + m*l*g0 sin q = tau used as the wing estimate."""

    inertia: float = 0.9
    lever_mass: float = 0.9
    gravity: float = 9.81

    n = 1

    mass_matrix = _constant_inertia
    coriolis_matrix = _no_coriolis

    def gravity_vector(self, q, qd=None):
        q = np.asarray(q, dtype=float)
        return self.lever_mass * self.gravity * np.sin(q)


# ---------------------------------------------------------------------------
# 2-link planar arm


@dataclass(frozen=True)
class RadialSpring:
    """Elastic band from a fixed anchor to the end effector.

    Force magnitude k1*s + k3*s^3 along the anchor line, s = distance minus
    rest length; negative s pushes back (the smooth two-sided law keeps the
    vector field C^1 so fixed-step integration stays clean).
    """

    anchor: tuple[float, float]
    rest_length: float
    k1: float
    k3: float = 0.0

    def linearized(self) -> "RadialSpring":
        return RadialSpring(self.anchor, self.rest_length, self.k1, 0.0)


@dataclass(frozen=True)
class TwoLinkArm(ManipulatorModel):
    """Planar 2-link arm moving horizontally; friction and band fold into g.

    Joint friction is viscous plus tanh-smoothed Coulomb; the elastic band
    acts on the end effector through the manipulator Jacobian.  The rigid
    estimate (CAD analog) drops friction and band entirely.
    """

    l1: float = 0.3
    l2: float = 0.3
    m1: float = 1.5
    m2: float = 1.0
    lc1: float = 0.15
    lc2: float = 0.15
    i1: float = 0.01125
    i2: float = 0.0075
    viscous: float = 0.2
    coulomb: float = 0.1
    coulomb_velocity_scale: float = 0.05
    spring: RadialSpring | None = None

    n = 2

    def mass_matrix(self, q):
        q = np.asarray(q, dtype=float)
        c2 = np.cos(q[..., 1])
        a = self.m1 * self.lc1**2 + self.i1 + self.i2 + self.m2 * (
            self.l1**2 + self.lc2**2
        )
        b = self.m2 * self.l1 * self.lc2
        d = self.m2 * self.lc2**2 + self.i2
        h = np.zeros(q.shape[:-1] + (2, 2))
        h[..., 0, 0] = a + 2.0 * b * c2
        h[..., 0, 1] = d + b * c2
        h[..., 1, 0] = d + b * c2
        h[..., 1, 1] = d
        return h

    def coriolis_matrix(self, q, qd):
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        # Christoffel construction for the standard 2-link inertia
        hcoef = self.m2 * self.l1 * self.lc2 * np.sin(q[..., 1])
        c = np.zeros(q.shape[:-1] + (2, 2))
        c[..., 0, 0] = -hcoef * qd[..., 1]
        c[..., 0, 1] = -hcoef * (qd[..., 0] + qd[..., 1])
        c[..., 1, 0] = hcoef * qd[..., 0]
        return c

    def effector_position(self, q):
        q = np.asarray(q, dtype=float)
        s1, c1 = np.sin(q[..., 0]), np.cos(q[..., 0])
        s12, c12 = np.sin(q[..., 0] + q[..., 1]), np.cos(q[..., 0] + q[..., 1])
        x = self.l1 * c1 + self.l2 * c12
        y = self.l1 * s1 + self.l2 * s12
        return np.stack([x, y], axis=-1)

    def effector_jacobian(self, q):
        q = np.asarray(q, dtype=float)
        s1, c1 = np.sin(q[..., 0]), np.cos(q[..., 0])
        s12, c12 = np.sin(q[..., 0] + q[..., 1]), np.cos(q[..., 0] + q[..., 1])
        j = np.zeros(q.shape[:-1] + (2, 2))
        j[..., 0, 0] = -self.l1 * s1 - self.l2 * s12
        j[..., 0, 1] = -self.l2 * s12
        j[..., 1, 0] = self.l1 * c1 + self.l2 * c12
        j[..., 1, 1] = self.l2 * c12
        return j

    def spring_torque(self, q):
        """Joint-torque contribution of the band, g-vector side."""
        if self.spring is None:
            q = np.asarray(q, dtype=float)
            return np.zeros(q.shape)
        p = self.effector_position(q)
        anchor = np.asarray(self.spring.anchor, dtype=float)
        delta = p - anchor
        dist = np.linalg.norm(delta, axis=-1)
        stretch = dist - self.spring.rest_length
        magnitude = self.spring.k1 * stretch + self.spring.k3 * stretch**3
        safe = np.where(dist > 1e-9, dist, 1.0)
        unit = delta / safe[..., None]
        force = np.where(dist[..., None] > 1e-9, unit * magnitude[..., None], 0.0)
        jac = self.effector_jacobian(q)
        return np.einsum("...ji,...j->...i", jac, force)

    def gravity_vector(self, q, qd=None):
        q = np.asarray(q, dtype=float)
        g = self.spring_torque(q)
        if qd is not None and (self.viscous != 0.0 or self.coulomb != 0.0):
            qd = np.asarray(qd, dtype=float)
            g = g + self.viscous * qd
            g = g + self.coulomb * np.tanh(qd / self.coulomb_velocity_scale)
        return g

    def rigid_estimate(self) -> "TwoLinkArm":
        """Friction-free, band-free copy (the rigid-body CAD model)."""
        return TwoLinkArm(
            l1=self.l1, l2=self.l2, m1=self.m1, m2=self.m2,
            lc1=self.lc1, lc2=self.lc2, i1=self.i1, i2=self.i2,
            viscous=0.0, coulomb=0.0, spring=None,
        )

    def spring_estimate(self) -> "TwoLinkArm":
        """Rigid estimate plus the band's linear term only."""
        if self.spring is None:
            raise DynamicsError("plant has no spring to linearize")
        est = self.rigid_estimate()
        return TwoLinkArm(
            l1=est.l1, l2=est.l2, m1=est.m1, m2=est.m2,
            lc1=est.lc1, lc2=est.lc2, i1=est.i1, i2=est.i2,
            viscous=0.0, coulomb=0.0, spring=self.spring.linearized(),
        )


# ---------------------------------------------------------------------------
# structural property verification


@dataclass
class StructuralReport:
    samples: int
    max_symmetry_defect: float
    min_mass_eigenvalue: float
    max_skew_defect: float
    max_linearity_defect: float
    mass_bound: float
    symmetric: bool
    positive_definite: bool
    skew_property: bool
    linear_in_velocity: bool

    @property
    def passed(self) -> bool:
        return (self.symmetric and self.positive_definite
                and self.skew_property and self.linear_in_velocity)

    def summary(self) -> str:
        rows = [
            ("mass matrix symmetric", self.symmetric,
             f"max defect {self.max_symmetry_defect:.3e}"),
            ("mass matrix positive definite", self.positive_definite,
             f"min eigenvalue {self.min_mass_eigenvalue:.3e}"),
            ("Hdot - 2C skew", self.skew_property,
             f"max |v'(Hdot-2C)v| {self.max_skew_defect:.3e}"),
            ("C linear in velocity", self.linear_in_velocity,
             f"max defect {self.max_linearity_defect:.3e}"),
        ]
        lines = [
            f"{'PASS' if ok else 'FAIL'}  {name} ({detail})" for name, ok, detail in rows
        ]
        lines.append(f"mass-matrix norm bound over samples: {self.mass_bound:.6e}")
        return "\n".join(lines)


def check_structural_properties(model: ManipulatorModel, sample_count: int = 1000,
                                seed: int = 0) -> StructuralReport:
    """Sampled verification of the two structural identities.

    Draws (q, qd) uniformly (positions in [-pi, pi], speeds in [-5, 5]) and
    checks symmetry/positive-definiteness of H, skew-symmetry of Hdot - 2C
    along the velocity (Hdot by central differences), and linearity of
    C(q, .) in its velocity argument.  Thresholds: 1e-10 symmetry/linearity,
    1e-8 skew.
    """
    rng = np.random.default_rng(seed)
    n = model.n
    q = rng.uniform(-math.pi, math.pi, size=(sample_count, n))
    qd = rng.uniform(-5.0, 5.0, size=(sample_count, n))
    v = rng.uniform(-1.0, 1.0, size=(sample_count, n))
    w = rng.uniform(-1.0, 1.0, size=(sample_count, n))

    h = model.mass_matrix(q)
    sym_defect = float(np.max(np.abs(h - np.swapaxes(h, -1, -2))))
    eigs = np.linalg.eigvalsh(0.5 * (h + np.swapaxes(h, -1, -2)))
    min_eig = float(np.min(eigs))
    mass_bound = float(np.max(eigs))

    # Hdot along qd by central differences, then the skew quadratic form
    eps = 1e-5
    hdot = np.zeros_like(h)
    for j in range(n):
        dq = np.zeros((sample_count, n))
        dq[:, j] = eps
        dh = (model.mass_matrix(q + dq) - model.mass_matrix(q - dq)) / (2.0 * eps)
        hdot += dh * qd[:, j, None, None]
    c = model.coriolis_matrix(q, qd)
    m = hdot - 2.0 * c
    unit = v / np.linalg.norm(v, axis=1, keepdims=True)
    skew_defect = float(np.max(np.abs(
        np.einsum("si,sij,sj->s", unit, m, unit)
    )))

    # C(q, a) b == C(q, b) a and additivity C(q, a + b) = C(q, a) + C(q, b)
    cab = _mat_vec(model.coriolis_matrix(q, v), w)
    cba = _mat_vec(model.coriolis_matrix(q, w), v)
    add = model.coriolis_matrix(q, v + w) - (
        model.coriolis_matrix(q, v) + model.coriolis_matrix(q, w)
    )
    lin_defect = float(max(np.max(np.abs(cab - cba)), np.max(np.abs(add))))

    return StructuralReport(
        samples=sample_count,
        max_symmetry_defect=sym_defect,
        min_mass_eigenvalue=min_eig,
        max_skew_defect=skew_defect,
        max_linearity_defect=lin_defect,
        mass_bound=mass_bound,
        symmetric=sym_defect <= 1e-10,
        positive_definite=min_eig > 0.0,
        skew_property=skew_defect <= 1e-8,
        linear_in_velocity=lin_defect <= 1e-10,
    )
