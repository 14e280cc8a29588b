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

The products H(q) v and C(q, qd) v and the spring torque are computed per
component in closed form, without building the matrices: for one state the
components are Python floats, so a product costs no numpy call per
operation, and for a batch they are views.  Each component sees the same
IEEE operations, on the same operands and in the same order, as the
`einsum` over the matrix it replaces, including einsum's accumulation onto
+0.0 (two -0.0 products sum to +0.0).  The 2x2 mass matrix is still solved
by LAPACK: no closed form without fused multiply-adds reproduces its bits.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .csvio import read_table


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

    @classmethod
    def _unchecked(cls, q: np.ndarray, qd: np.ndarray) -> "JointState":
        """A state of float arrays the caller has checked: no copy, no check."""
        state = object.__new__(cls)
        state.q = q
        state.qd = qd
        return state


def _mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("...ij,...j->...i", m, v)


def _parts(x: np.ndarray) -> list:
    """Components of (..., n) values along the last axis: Python floats for
    one state, views for a batch."""
    return x.tolist() if x.ndim == 1 else [x[..., j] for j in range(x.shape[-1])]


def _shape(*arrays) -> tuple:
    """The broadcast shape of arrays; the common shape needs no broadcast."""
    shape = arrays[0].shape
    if all(a.shape == shape for a in arrays[1:]):
        return shape
    return np.broadcast_shapes(*(a.shape for a in arrays))


def _assemble(parts, shape) -> np.ndarray:
    """The (..., n) array of components from _parts-style arithmetic."""
    out = np.empty(shape)
    for j, part in enumerate(parts):
        out[..., j] = part
    return out


def _dot2(a0, b0, a1, b1):
    """a0 b0 + a1 b1 with einsum's bits: einsum sums onto +0.0, so two -0.0
    products give +0.0."""
    return a0 * b0 + a1 * b1 + 0.0


def _where(cond, a, b):
    """np.where where any argument is an array, a plain choice for scalars."""
    if (isinstance(cond, np.ndarray) or isinstance(a, np.ndarray)
            or isinstance(b, np.ndarray)):
        return np.where(cond, a, b)
    return a if cond else b


def _scalar_or_array(x):
    """A Python float for a scalar or 0-d input, a float array otherwise."""
    if isinstance(x, float):
        return x
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


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

    def mass_times(self, q, v) -> np.ndarray:
        """H(q) v, (..., n) -> (..., n)."""
        return _mat_vec(self.mass_matrix(q), v)

    def coriolis_times(self, q, qd, v) -> np.ndarray:
        """C(q, qd) v, (..., n) -> (..., n)."""
        return _mat_vec(self.coriolis_matrix(q, qd), v)

    def solve_mass(self, q, rhs) -> np.ndarray:
        """H(q)^-1 rhs by LU factorization; a singular H raises DynamicsError."""
        try:
            return np.linalg.solve(self.mass_matrix(q), rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as err:
            raise DynamicsError(f"mass matrix solve failed: {err}") from err

    def inverse_dynamics(self, q, qd, qdd) -> np.ndarray:
        return (self.mass_times(q, qdd) + self.coriolis_times(q, qd, qd)
                + self.gravity_vector(q, qd))

    def forward_dynamics(self, q, qd, tau) -> np.ndarray:
        """qdd = H(q)^-1 (tau - C qd - g), by factorization of H."""
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        tau = np.asarray(tau, dtype=float)
        rhs = tau - self.coriolis_times(q, qd, qd) - self.gravity_vector(q, qd)
        return self.solve_mass(q, rhs)


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
        alpha_rad = _scalar_or_array(alpha_rad)
        if not (math.isfinite(alpha_rad) if isinstance(alpha_rad, float)
                else np.isfinite(alpha_rad).all()):
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

    @classmethod
    def load_csv(cls, path) -> "AeroTable":
        _, header, data = read_table(path)
        if header != ["alpha_deg", "cl", "cd"]:
            raise ValueError(f"{path}: expected header alpha_deg,cl,cd")
        try:
            return cls(data[:, 0], data[:, 1], data[:, 2])
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err


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
    # one state's angle is a Python float, so its arithmetic costs no numpy
    # call; the stationary wind is one scalar for every angle of a batch
    q = _scalar_or_array(q)
    if apparent_wind and qd is not None:
        qd = _scalar_or_array(qd)
        wx = airspeed + lever * qd * np.sin(q)
        wy = -lever * qd * np.cos(q)
        speed2 = wx * wx + wy * wy
        gamma = np.arctan2(wy, wx)
        alpha = q - gamma
    else:
        speed2 = float(airspeed) ** 2
        wx = np.sqrt(speed2)
        wy = 0.0
        alpha = q
    cl, cd = table.coefficients(alpha)
    qbar_s = 0.5 * air_density * speed2 * chord * span
    lift = qbar_s * cl
    drag = qbar_s * cd
    speed = np.sqrt(speed2)
    safe = _where(speed > 1e-12, speed, 1.0)
    ux, uy = wx / safe, wy / safe
    fx = drag * ux + lift * (-uy)
    fy = drag * uy + lift * ux
    torque = lever * (np.cos(q) * fy - np.sin(q) * fx)
    torque = _where(speed > 1e-12, torque, 0.0)
    return -torque


def _constant_inertia(self, q):
    """1x1 inertia `self.inertia` at every configuration (1-dof models)."""
    q = np.asarray(q, dtype=float)
    return np.full(q.shape[:-1] + (1, 1), float(self.inertia))


def _no_coriolis(self, q, qd):
    """Zero Coriolis matrix: a constant 1x1 inertia has no Christoffel terms."""
    q = np.asarray(q, dtype=float)
    return np.zeros(q.shape[:-1] + (1, 1))


def _scaled_onto_zero(scale, q, v):
    """scale * v summed onto +0.0, the bits of a 1x1 einsum, over q's batch."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    return _assemble([scale * x + 0.0 for x in _parts(v)], _shape(q, v))


def _constant_inertia_times(self, q, v):
    """H v for the constant 1x1 inertia."""
    return _scaled_onto_zero(self.inertia, q, v)


def _no_coriolis_times(self, q, qd, v):
    """C v = 0 v: +0.0 for finite v, NaN for non-finite v, as the einsum gives."""
    return _scaled_onto_zero(0.0, q, v)


def _constant_inertia_solve(self, q, rhs):
    """rhs / inertia: the bits LAPACK's 1x1 solve gives, without its call."""
    if self.inertia == 0.0:
        raise DynamicsError("mass matrix solve failed: Singular matrix")
    return np.asarray(rhs, dtype=float) / self.inertia


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
    mass_times = _constant_inertia_times
    coriolis_times = _no_coriolis_times
    solve_mass = _constant_inertia_solve

    def gravity_vector(self, q, qd=None):
        q = np.asarray(q, dtype=float)
        g = self.mass * self.gravity * self.lever * np.sin(q)
        if self.airspeed != 0.0 or (self.apparent_wind and qd is not None):
            qd1 = None if qd is None else _parts(np.asarray(qd, dtype=float))[0]
            g = g + np.asarray(aero_torque(
                self.aero_table, _parts(q)[0], self.airspeed,
                air_density=self.air_density, chord=self.chord, span=self.span,
                lever=self.lever, qd=qd1, apparent_wind=self.apparent_wind,
            ))[..., None]
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
    mass_times = _constant_inertia_times
    coriolis_times = _no_coriolis_times
    solve_mass = _constant_inertia_solve

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

    def __post_init__(self):
        try:
            terms = self._inertia_terms()
        except OverflowError:  # a float ** past the float range raises
            terms = (math.inf,)
        if not all(math.isfinite(t) for t in terms):
            raise ValueError("the link lengths, masses, center-of-mass offsets and "
                             "inertias give a mass matrix that is not finite")

    def _inertia_terms(self) -> tuple[float, float, float]:
        """(a, b, d) with H = [[a + 2 b cos q2, d + b cos q2], [d + b cos q2, d]]."""
        a = self.m1 * self.lc1**2 + self.i1 + self.i2 + self.m2 * (
            self.l1**2 + self.lc2**2
        )
        b = self.m2 * self.l1 * self.lc2
        d = self.m2 * self.lc2**2 + self.i2
        return a, b, d

    def mass_matrix(self, q):
        q = np.asarray(q, dtype=float)
        c2 = np.cos(q[..., 1])
        a, b, d = self._inertia_terms()
        h = np.empty(q.shape[:-1] + (2, 2))
        h[..., 0, 0] = a + 2.0 * b * c2
        h[..., 0, 1] = d + b * c2
        h[..., 1, 0] = d + b * c2
        h[..., 1, 1] = d
        return h

    def mass_times(self, q, v):
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        _, q1 = _parts(q)
        v0, v1 = _parts(v)
        c2 = np.cos(q1)
        a, b, d = self._inertia_terms()
        h00 = a + 2.0 * b * c2
        h01 = d + b * c2
        return _assemble((_dot2(h00, v0, h01, v1), _dot2(h01, v0, d, v1)), _shape(q, v))

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

    def coriolis_times(self, q, qd, v):
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        v = np.asarray(v, dtype=float)
        _, q1 = _parts(q)
        qd0, qd1 = _parts(qd)
        v0, v1 = _parts(v)
        hcoef = self.m2 * self.l1 * self.lc2 * np.sin(q1)
        c00 = -hcoef * qd1
        c01 = -hcoef * (qd0 + qd1)
        c10 = hcoef * qd0
        return _assemble((_dot2(c00, v0, c01, v1), _dot2(c10, v0, 0.0, v1)),
                         _shape(q, qd, v))

    def spring_torque(self, q):
        """Joint-torque contribution of the band, g-vector side: J(q)' f."""
        q = np.asarray(q, dtype=float)
        return _assemble(self._spring_parts(q), q.shape)

    def _spring_parts(self, q):
        """spring_torque's components (see _parts); zeros without a band.

        f is the band force at the end effector; the effector position and
        the Jacobian share their sines and cosines.
        """
        if self.spring is None:
            return [0.0, 0.0]
        q0, q1 = _parts(q)
        s1, c1 = np.sin(q0), np.cos(q0)
        s12, c12 = np.sin(q0 + q1), np.cos(q0 + q1)
        x = self.l1 * c1 + self.l2 * c12  # also the Jacobian's (1, 0) entry
        y = self.l1 * s1 + self.l2 * s12
        ax, ay = (float(v) for v in self.spring.anchor)
        dx, dy = x - ax, y - ay
        dist = np.sqrt(dx * dx + dy * dy)
        stretch = dist - self.spring.rest_length
        magnitude = self.spring.k1 * stretch + self.spring.k3 * stretch**3
        far = dist > 1e-9
        safe = _where(far, dist, 1.0)
        fx = _where(far, dx / safe * magnitude, 0.0)
        fy = _where(far, dy / safe * magnitude, 0.0)
        j00 = -self.l1 * s1 - self.l2 * s12
        j01 = -self.l2 * s12
        j11 = self.l2 * c12
        return [_dot2(j00, fx, x, fy), _dot2(j01, fx, j11, fy)]

    def gravity_vector(self, q, qd=None):
        q = np.asarray(q, dtype=float)
        g = self._spring_parts(q)
        if qd is None or (self.viscous == 0.0 and self.coulomb == 0.0):
            return _assemble(g, q.shape)
        qd = np.asarray(qd, dtype=float)
        coulomb = _parts(np.tanh(qd / self.coulomb_velocity_scale))
        return _assemble([gj + self.viscous * vj + self.coulomb * cj
                          for gj, vj, cj in zip(g, _parts(qd), coulomb)], _shape(q, qd))

    def rigid_estimate(self) -> "TwoLinkArm":
        """Friction-free, band-free copy (the rigid-body CAD model)."""
        return replace(self, viscous=0.0, coulomb=0.0, spring=None)

    def spring_estimate(self) -> "TwoLinkArm":
        """Rigid estimate plus the band's linear term only."""
        if self.spring is None:
            raise DynamicsError("plant has no spring to linearize")
        return replace(self.rigid_estimate(), spring=self.spring.linearized())


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
