"""Scenario files: YAML schema, strict validation and object construction.

A scenario fixes everything a run needs: the plant and its estimate, the
controller, the reference trajectory, the training plan with hyperparameter
search settings, the integrator setup and the evaluation/check parameters.
Unknown keys anywhere are rejected, so a typo cannot silently fall back to a
default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .control import (CTGPController, ComputedTorqueController, Gains,
                      PDController)
from .dynamics import (AeroTable, ManipulatorModel, RadialSpring, TwoLinkArm,
                       WingModel)
from .gp import Hyperparameters, MultiGP
from .sim import ReferenceTrajectory, SimConfig
from .training import ClosedLoopPlan, OpenLoopPlan

CONTROLLER_KINDS = ("hg-pd", "lg-pd", "ct", "ct-sp", "ct-gp")


class ConfigError(Exception):
    pass


def _require_keys(section: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{where}.{key}: required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}.{key}: must be finite")
    return float(value)


def _integer(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{where}.{key}: required")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _vector(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"{where}.{key}: required")
    if not isinstance(value, list) or not value or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"{where}.{key}: expected a non-empty list of numbers")
    return [float(v) for v in value]


@dataclass
class HyperoptSettings:
    budget: int = 40
    restarts: int = 5
    initial: Hyperparameters = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.initial is None:
            self.initial = Hyperparameters(2.0, 1.0, 0.01)


@dataclass
class Scenario:
    """Fully built scenario plus the raw mapping it came from."""

    name: str
    plant: ManipulatorModel
    estimate: ManipulatorModel
    controller_kind: str
    gains: Gains
    controller_mode: str
    reference: ReferenceTrajectory
    training_plan: OpenLoopPlan | ClosedLoopPlan | None
    exciter_gains: Gains | None
    hyperopt: HyperoptSettings
    sim: SimConfig
    t_skip: float
    check_probe_count: int
    check_seed: int
    check_structural_samples: int
    raw: dict

    def fingerprint(self) -> str:
        """Stable hash of the raw mapping (order-independent)."""
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def control_estimate(self) -> ManipulatorModel:
        """Estimate the control law linearizes; ct-sp augments the rigid
        estimate with the plant band's linear term."""
        if self.controller_kind == "ct-sp":
            if not isinstance(self.plant, TwoLinkArm) or self.plant.spring is None:
                raise ConfigError("ct-sp requires a two-link-arm plant with a spring")
            return self.plant.spring_estimate()
        return self.estimate

    def build_controller(self, gp: MultiGP | None = None):
        kind = self.controller_kind
        if kind in ("hg-pd", "lg-pd"):
            return PDController(self.gains)
        if kind == "ct":
            return ComputedTorqueController(self.estimate, self.gains)
        if kind == "ct-sp":
            return ComputedTorqueController(self.control_estimate(), self.gains)
        if kind == "ct-gp":
            return CTGPController(self.estimate, gp, self.gains, self.controller_mode)
        raise ConfigError(f"unknown controller kind {kind!r}")

    @property
    def needs_gp(self) -> bool:
        return self.controller_kind == "ct-gp"


def _build_plant(cfg: dict) -> ManipulatorModel:
    where = "plant"
    kind = cfg.get("kind")
    if kind == "wing":
        _require_keys(cfg, {"kind", "inertia", "mass", "lever", "gravity", "airspeed",
                            "air_density", "chord", "span", "apparent_wind",
                            "aero_table"}, {"kind"}, where)
        table_path = cfg.get("aero_table")
        if table_path is not None and not isinstance(table_path, str):
            # an int would open a file descriptor, and closing it could close stderr
            raise ConfigError(f"{where}.aero_table: expected a file path, got {table_path!r}")
        table = AeroTable.load_csv(table_path) if table_path else AeroTable.naca0015()
        apparent = cfg.get("apparent_wind", False)
        if not isinstance(apparent, bool):
            raise ConfigError(f"{where}.apparent_wind: expected a boolean")
        return WingModel(
            inertia=_number(cfg, "inertia", where, 1.0),
            mass=_number(cfg, "mass", where, 1.0),
            lever=_number(cfg, "lever", where, 1.0),
            gravity=_number(cfg, "gravity", where, 9.81),
            airspeed=_number(cfg, "airspeed", where, 5.0),
            air_density=_number(cfg, "air_density", where, 1.225),
            chord=_number(cfg, "chord", where, 0.1),
            span=_number(cfg, "span", where, 1.0),
            apparent_wind=apparent,
            aero_table=table,
        )
    if kind == "two-link-arm":
        _require_keys(cfg, {"kind", "link_lengths", "masses", "com_offsets",
                            "inertias", "viscous_friction", "coulomb_friction",
                            "coulomb_velocity_scale", "spring"}, {"kind"}, where)
        links = _vector(cfg, "link_lengths", where, [0.3, 0.3])
        masses = _vector(cfg, "masses", where, [1.5, 1.0])
        coms = _vector(cfg, "com_offsets", where, [0.15, 0.15])
        default_inertias = [masses[0] * links[0]**2 / 12.0, masses[1] * links[1]**2 / 12.0]
        inertias = _vector(cfg, "inertias", where, default_inertias)
        for name, vec in (("link_lengths", links), ("masses", masses),
                          ("com_offsets", coms), ("inertias", inertias)):
            if len(vec) != 2:
                raise ConfigError(f"{where}.{name}: expected exactly 2 entries")
        spring = None
        if cfg.get("spring") is not None:
            scfg = cfg["spring"]
            _require_keys(scfg, {"anchor", "rest_length", "k1", "k3"},
                          {"anchor", "rest_length", "k1"}, f"{where}.spring")
            anchor = _vector(scfg, "anchor", f"{where}.spring")
            if len(anchor) != 2:
                raise ConfigError(f"{where}.spring.anchor: expected [x, y]")
            spring = RadialSpring(
                anchor=(anchor[0], anchor[1]),
                rest_length=_number(scfg, "rest_length", f"{where}.spring"),
                k1=_number(scfg, "k1", f"{where}.spring"),
                k3=_number(scfg, "k3", f"{where}.spring", 0.0),
            )
        return TwoLinkArm(
            l1=links[0], l2=links[1], m1=masses[0], m2=masses[1],
            lc1=coms[0], lc2=coms[1], i1=inertias[0], i2=inertias[1],
            viscous=_number(cfg, "viscous_friction", where, 0.2),
            coulomb=_number(cfg, "coulomb_friction", where, 0.1),
            coulomb_velocity_scale=_number(cfg, "coulomb_velocity_scale", where, 0.05),
            spring=spring,
        )
    raise ConfigError(f"{where}.kind: expected 'wing' or 'two-link-arm', got {kind!r}")


def _build_estimate(cfg: dict, plant: ManipulatorModel) -> ManipulatorModel:
    where = "estimate"
    kind = cfg.get("kind")
    if kind == "pendulum":
        _require_keys(cfg, {"kind", "inertia_scale", "lever_mass_scale"}, {"kind"}, where)
        if not isinstance(plant, WingModel):
            raise ConfigError(f"{where}: pendulum estimate requires a wing plant")
        return plant.estimate(
            inertia_scale=_number(cfg, "inertia_scale", where, 0.9),
            lever_mass_scale=_number(cfg, "lever_mass_scale", where, 0.9),
        )
    if kind == "rigid-arm":
        _require_keys(cfg, {"kind"}, {"kind"}, where)
        if not isinstance(plant, TwoLinkArm):
            raise ConfigError(f"{where}: rigid-arm estimate requires a two-link-arm plant")
        return plant.rigid_estimate()
    raise ConfigError(f"{where}.kind: expected 'pendulum' or 'rigid-arm', got {kind!r}")


def _build_gains(cfg: dict, key: str, where: str) -> np.ndarray:
    """Gain entry: flat list = diagonal, nested lists = full matrix."""
    entry = cfg.get(key)
    if entry is None:
        raise ConfigError(f"{where}.{key}: required")
    if isinstance(entry, list) and entry and all(isinstance(v, list) for v in entry):
        return np.array(entry, dtype=float)
    return np.diag(np.asarray(_vector(cfg, key, where), dtype=float))


def _build_controller_section(cfg: dict) -> tuple[str, Gains, str]:
    where = "controller"
    _require_keys(cfg, {"kind", "kp", "kd", "mode"}, {"kind", "kp", "kd"}, where)
    kind = cfg.get("kind")
    if kind not in CONTROLLER_KINDS:
        raise ConfigError(f"{where}.kind: expected one of {CONTROLLER_KINDS}, got {kind!r}")
    try:
        gains = Gains(_build_gains(cfg, "kp", where), _build_gains(cfg, "kd", where))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    mode = cfg.get("mode", "deterministic")
    if mode not in ("deterministic", "stochastic"):
        raise ConfigError(f"{where}.mode: expected deterministic|stochastic, got {mode!r}")
    if mode == "stochastic" and kind != "ct-gp":
        raise ConfigError(f"{where}.mode: stochastic applies to ct-gp only")
    return kind, gains, mode


def _build_reference(cfg: dict) -> ReferenceTrajectory:
    where = "reference"
    _require_keys(cfg, {"amplitude", "frequency", "phase", "frequency_unit"},
                  {"amplitude", "frequency"}, where)
    amplitude = _vector(cfg, "amplitude", where)
    frequency = _vector(cfg, "frequency", where)
    phase = _vector(cfg, "phase", where, [0.0] * len(amplitude))
    unit = cfg.get("frequency_unit", "hz")
    try:
        return ReferenceTrajectory(amplitude, frequency, phase, unit)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _build_training(cfg: dict | None):
    if cfg is None:
        return None, None, HyperoptSettings()
    where = "training"
    mode = cfg.get("mode")
    hyperopt = _build_hyperopt(cfg.get("hyperopt"))
    if mode == "open-loop":
        _require_keys(cfg, {"mode", "seed", "torque_range", "torque_count",
                            "position_range", "position_count", "hold_duration",
                            "dt", "noise_std_q", "noise_std_qd", "hyperopt"},
                      {"mode", "torque_range", "torque_count", "position_range",
                       "position_count"}, where)
        trange = _vector(cfg, "torque_range", where)
        prange = _vector(cfg, "position_range", where)
        if len(trange) != 2 or len(prange) != 2:
            raise ConfigError(f"{where}: ranges are [min, max] pairs")
        try:
            plan = OpenLoopPlan.grid(
                trange, _integer(cfg, "torque_count", where),
                prange, _integer(cfg, "position_count", where),
                hold_duration=_number(cfg, "hold_duration", where, 0.5),
                dt=_number(cfg, "dt", where, 1e-3),
                noise_std_q=_number(cfg, "noise_std_q", where, 0.0),
                noise_std_qd=_number(cfg, "noise_std_qd", where, 0.0),
                seed=_integer(cfg, "seed", where, 0),
            )
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
        return plan, None, hyperopt
    if mode == "closed-loop":
        _require_keys(cfg, {"mode", "seed", "sample_period", "sample_count", "dt",
                            "duration", "noise_std_q", "noise_std_qd", "exciter",
                            "hyperopt"},
                      {"mode", "sample_period", "sample_count", "exciter"}, where)
        duration = cfg.get("duration")
        try:
            plan = ClosedLoopPlan(
                sample_period=_number(cfg, "sample_period", where, 0.03),
                sample_count=_integer(cfg, "sample_count", where, 351),
                dt=_number(cfg, "dt", where, 1e-3),
                duration=None if duration is None else _number(cfg, "duration", where),
                noise_std_q=_number(cfg, "noise_std_q", where, 1e-3),
                noise_std_qd=_number(cfg, "noise_std_qd", where, 1e-2),
                seed=_integer(cfg, "seed", where, 0),
            )
        except ValueError as err:
            raise ConfigError(f"{where}: {err}") from err
        ecfg = cfg["exciter"]
        _require_keys(ecfg, {"kind", "kp", "kd"}, {"kp", "kd"}, f"{where}.exciter")
        ekind = ecfg.get("kind", "hg-pd")
        if ekind not in ("hg-pd", "lg-pd"):
            raise ConfigError(f"{where}.exciter.kind: expected hg-pd|lg-pd")
        try:
            exciter = Gains(_build_gains(ecfg, "kp", f"{where}.exciter"),
                            _build_gains(ecfg, "kd", f"{where}.exciter"))
        except ValueError as err:
            raise ConfigError(f"{where}.exciter: {err}") from err
        return plan, exciter, hyperopt
    raise ConfigError(f"{where}.mode: expected 'open-loop' or 'closed-loop', got {mode!r}")


def _build_hyperopt(cfg: dict | None) -> HyperoptSettings:
    if cfg is None:
        return HyperoptSettings()
    where = "training.hyperopt"
    _require_keys(cfg, {"budget", "restarts", "initial"}, set(), where)
    initial = None
    if cfg.get("initial") is not None:
        icfg = cfg["initial"]
        _require_keys(icfg, {"length_scale", "signal_variance", "noise_variance"},
                      set(), f"{where}.initial")
        try:
            initial = Hyperparameters(
                length_scale=_number(icfg, "length_scale", where, 2.0),
                signal_variance=_number(icfg, "signal_variance", where, 1.0),
                noise_variance=_number(icfg, "noise_variance", where, 0.01),
            )
        except ValueError as err:
            raise ConfigError(f"{where}.initial: {err}") from err
    settings = HyperoptSettings(
        budget=_integer(cfg, "budget", where, 40),
        restarts=_integer(cfg, "restarts", where, 5),
        initial=initial,
    )
    if settings.budget < 0 or settings.restarts < 1:
        raise ConfigError(f"{where}: budget >= 0 and restarts >= 1 required")
    return settings


def _build_sim(cfg: dict | None) -> SimConfig:
    if cfg is None:
        return SimConfig()
    where = "sim"
    _require_keys(cfg, {"dt", "duration", "integrator", "realizations", "base_seed",
                        "lyapunov_epsilon", "lyapunov_trace", "divergence_threshold"},
                  set(), where)
    integrator = cfg.get("integrator", "rk4")
    trace = cfg.get("lyapunov_trace", False)
    if not isinstance(trace, bool):
        raise ConfigError(f"{where}.lyapunov_trace: expected a boolean")
    try:
        return SimConfig(
            dt=_number(cfg, "dt", where, 1e-3),
            duration=_number(cfg, "duration", where, 10.0),
            integrator=integrator,
            realizations=_integer(cfg, "realizations", where, 1),
            base_seed=_integer(cfg, "base_seed", where, 0),
            lyapunov_epsilon=_number(cfg, "lyapunov_epsilon", where, 0.1),
            lyapunov_trace=trace,
            divergence_threshold=_number(cfg, "divergence_threshold", where, 1e6),
        )
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def scenario_from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario root: expected a mapping, got {type(raw).__name__}")
    _require_keys(raw, {"name", "plant", "estimate", "controller", "reference",
                        "training", "sim", "evaluate", "check"},
                  {"name", "plant", "estimate", "controller", "reference"}, "scenario")
    name = raw.get("name")
    # the name is a whitespace-separated manifest value in every result CSV
    if not isinstance(name, str) or not name or any(c.isspace() for c in name):
        raise ConfigError(f"scenario.name: expected a non-empty string without "
                          f"whitespace, got {name!r}")
    plant = _build_plant(raw["plant"])
    estimate = _build_estimate(raw["estimate"], plant)
    kind, gains, mode = _build_controller_section(raw["controller"])
    reference = _build_reference(raw["reference"])
    if reference.n != plant.n:
        raise ConfigError(
            f"reference dimension {reference.n} != plant dimension {plant.n}"
        )
    if gains.n != plant.n:
        raise ConfigError(f"gain dimension {gains.n} != plant dimension {plant.n}")
    plan, exciter, hyperopt = _build_training(raw.get("training"))
    if isinstance(plan, OpenLoopPlan) and plant.n != 1:
        raise ConfigError("training.mode open-loop requires a 1-dof plant")
    if isinstance(plan, ClosedLoopPlan) and exciter is not None and exciter.n != plant.n:
        raise ConfigError("training.exciter gain dimension mismatch")
    sim = _build_sim(raw.get("sim"))
    ecfg = raw.get("evaluate") or {}
    _require_keys(ecfg, {"t_skip"}, set(), "evaluate")
    t_skip = _number(ecfg, "t_skip", "evaluate", 1.0)
    if t_skip < 0 or t_skip >= sim.duration:
        raise ConfigError(f"evaluate.t_skip must lie in [0, duration), got {t_skip}")
    ccfg = raw.get("check") or {}
    _require_keys(ccfg, {"probe_count", "seed", "structural_samples"}, set(), "check")
    if mode == "stochastic" and sim.integrator != "euler-maruyama":
        raise ConfigError("controller.mode stochastic requires sim.integrator euler-maruyama")
    return Scenario(
        name=name,
        plant=plant,
        estimate=estimate,
        controller_kind=kind,
        gains=gains,
        controller_mode=mode,
        reference=reference,
        training_plan=plan,
        exciter_gains=exciter,
        hyperopt=hyperopt,
        sim=sim,
        t_skip=t_skip,
        check_probe_count=_integer(ccfg, "probe_count", "check", 2000),
        check_seed=_integer(ccfg, "seed", "check", 7),
        check_structural_samples=_integer(ccfg, "structural_samples", "check", 1000),
        raw=raw,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read scenario file {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: YAML parse error: {err}") from err
    return scenario_from_dict(raw)
