"""Scenario files: YAML schema, strict validation and object construction.

A scenario fixes everything a run needs: the plant and its estimate, the
controller, the reference trajectory, the training plan with hyperparameter
search settings, the integrator setup and the evaluation/check parameters.

Each section is a table of YAML key -> parser.  Unknown keys anywhere are
rejected, so a typo cannot silently fall back to a default; an absent key
takes the default declared on the object its section builds, and the
object's own checks report a bad value as a ConfigError naming the section.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace

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


@dataclass
class HyperoptSettings:
    budget: int = 40
    restarts: int = 5
    initial: Hyperparameters = field(
        default_factory=lambda: Hyperparameters(2.0, 1.0, 0.01))


@dataclass(kw_only=True)
class Scenario:
    """Fully built scenario plus the raw mapping it came from."""

    name: str
    plant: ManipulatorModel
    estimate: ManipulatorModel
    controller_kind: str
    gains: Gains
    controller_mode: str = "deterministic"
    reference: ReferenceTrajectory
    training_plan: OpenLoopPlan | ClosedLoopPlan | None = None
    exciter_gains: Gains | None = None
    hyperopt: HyperoptSettings = field(default_factory=HyperoptSettings)
    sim: SimConfig = field(default_factory=SimConfig)
    t_skip: float = 1.0
    check_probe_count: int = 2000
    check_seed: int = 7
    check_structural_samples: int = 1000
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


# ---------------------------------------------------------------------------
# reading a section


# a parser's result for a null value that takes the default, as if absent
_DEFAULT = object()


def _mapping(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(section).__name__}")
    return section


def _read(section, schema: dict, required: set, where: str, prefix: str | None = None
          ) -> dict:
    """The parsed values of the keys present in a mapping section.

    `schema` maps each accepted key to its parser, called as
    parse(value, prefix + key); the prefix defaults to "where.".
    """
    prefix = f"{where}." if prefix is None else prefix
    unknown = set(_mapping(section, where)) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    values = {key: schema[key](value, prefix + key) for key, value in section.items()}
    return {key: value for key, value in values.items() if value is not _DEFAULT}


def _build(make, where: str, **values):
    """make(**values), its ValueError or OverflowError reported as a
    ConfigError naming `where`."""
    try:
        return make(**values)
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _section(make, schema: dict, required: set = frozenset()):
    """Parser of a section that builds make(**values of the keys present)."""
    return lambda section, where: _build(make, where, **_read(section, schema, required, where))


def _variant(section, where: str, key: str, variants: dict):
    """(variants entry named by section[key], the section without that key)."""
    name = _mapping(section, where).get(key)
    if name not in tuple(variants):  # a tuple: the name may be unhashable
        names = " or ".join(repr(v) for v in variants)
        raise ConfigError(f"{where}.{key}: expected {names}, got {name!r}")
    return variants[name], {k: v for k, v in section.items() if k != key}


# ---------------------------------------------------------------------------
# value parsers: parse(value, where) -> parsed value


def _given(value, where):
    """A value the built object checks itself."""
    return value


def _optional(parse):
    """parse, with null taking the default as if the key were absent."""
    return lambda value, where: _DEFAULT if value is None else parse(value, where)


def _number(value, where) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also NaN and ints past the float range
        raise ConfigError(f"{where}: must be finite")
    return float(value)


def _integer(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _at_least(low: int):
    def parse(value, where) -> int:
        if _integer(value, where) < low:
            raise ConfigError(f"{where}: expected an integer >= {low}, got {value}")
        return value
    return parse


def _flag(value, where) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    return value


def _choice(*options):
    def parse(value, where):
        if value not in options:
            raise ConfigError(f"{where}: expected one of {options}, got {value!r}")
        return value
    return parse


def _vector(value, where) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: expected a non-empty list of numbers")
    return [_number(v, where) for v in value]


def _pair(value, where) -> tuple[float, float]:
    vec = _vector(value, where)
    if len(vec) != 2:
        raise ConfigError(f"{where}: expected exactly 2 entries, got {len(vec)}")
    return vec[0], vec[1]


def _gain(value, where):
    """Gain entry: flat list = diagonal, nested lists = full matrix."""
    if isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        return [_vector(row, where) for row in value]
    return np.diag(_vector(value, where))


def _aero_table(value, where):
    # an int would open a file descriptor, and closing it could close stderr
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a file path, got {value!r}")
    return _build(AeroTable.load_csv, where, path=value) if value else _DEFAULT


def _scenario_name(value, where) -> str:
    # the name is a whitespace-separated manifest value in every result CSV
    if not isinstance(value, str) or not value or any(c.isspace() for c in value):
        raise ConfigError(f"scenario.{where}: expected a non-empty string without "
                          f"whitespace, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# section tables


# YAML key -> TwoLinkArm fields, one per link for the list keys
_ARM_FIELDS = {"link_lengths": ("l1", "l2"), "masses": ("m1", "m2"),
               "com_offsets": ("lc1", "lc2"), "inertias": ("i1", "i2"),
               "viscous_friction": ("viscous",), "coulomb_friction": ("coulomb",)}


def _two_link_arm(**values) -> TwoLinkArm:
    """The arm from its plant keys; without `inertias` each link is a uniform
    rod about its center, m l^2 / 12."""
    fields = {}
    for key, value in values.items():
        names = _ARM_FIELDS.get(key, (key,))
        fields.update(zip(names, value if len(names) == 2 else (value,)))
    arm = TwoLinkArm(**fields)
    if "inertias" in values:
        return arm
    return replace(arm, i1=arm.m1 * arm.l1**2 / 12.0, i2=arm.m2 * arm.l2**2 / 12.0)


_PLANTS = {
    "wing": _section(WingModel, {
        "inertia": _number, "mass": _number, "lever": _number, "gravity": _number,
        "airspeed": _number, "air_density": _number, "chord": _number,
        "span": _number, "apparent_wind": _flag, "aero_table": _optional(_aero_table),
    }),
    "two-link-arm": _section(_two_link_arm, {
        "link_lengths": _pair, "masses": _pair, "com_offsets": _pair,
        "inertias": _pair, "viscous_friction": _number, "coulomb_friction": _number,
        "coulomb_velocity_scale": _number,
        "spring": _optional(_section(RadialSpring, {
            "anchor": _pair, "rest_length": _number, "k1": _number, "k3": _number,
        }, {"anchor", "rest_length", "k1"})),
    }),
}

# estimate kind -> (plant kind it needs, its keys, how it derives from the plant)
_ESTIMATES = {
    "pendulum": ("wing", {"inertia_scale": _number, "lever_mass_scale": _number},
                 WingModel.estimate),
    "rigid-arm": ("two-link-arm", {}, TwoLinkArm.rigid_estimate),
}


def _initial_point(**values) -> Hyperparameters:
    """The search's initial point; an absent key keeps the default point's value."""
    return replace(HyperoptSettings().initial, **values)


_HYPEROPT = _optional(_section(HyperoptSettings, {
    "budget": _at_least(0), "restarts": _at_least(1),
    "initial": _optional(_section(_initial_point, {
        "length_scale": _number, "signal_variance": _number, "noise_variance": _number,
    })),
}))

_COMMON_PLAN = {"seed": _integer, "dt": _number, "noise_std_q": _number,
                "noise_std_qd": _number, "hyperopt": _HYPEROPT}

# training mode -> (plan constructor, its keys, the required ones)
_PLANS = {
    "open-loop": (OpenLoopPlan.grid, {
        **_COMMON_PLAN, "torque_range": _pair, "torque_count": _integer,
        "position_range": _pair, "position_count": _integer, "hold_duration": _number,
    }, {"torque_range", "torque_count", "position_range", "position_count"}),
    "closed-loop": (ClosedLoopPlan, {
        **_COMMON_PLAN, "sample_period": _number, "sample_count": _integer,
        "duration": _optional(_number),
        # the exciter kind only names its PD law: both kinds run the same one
        "exciter": _section(lambda kp, kd, kind=None: Gains(kp, kd), {
            "kind": _choice("hg-pd", "lg-pd"), "kp": _gain, "kd": _gain,
        }, {"kp", "kd"}),
    }, {"sample_period", "sample_count", "exciter"}),
}


def _plant(section, where) -> ManipulatorModel:
    parse, rest = _variant(section, where, "kind", _PLANTS)
    return parse(rest, where)


def _estimate(section, plant_kind: str, plant: ManipulatorModel) -> ManipulatorModel:
    where = "estimate"
    (needs, schema, derive), rest = _variant(section, where, "kind", _ESTIMATES)
    if plant_kind != needs:
        raise ConfigError(f"{where}: {section['kind']} estimate requires a {needs} plant")
    return derive(plant, **_read(rest, schema, set(), where))


def _control_law(kp, kd, **law) -> dict:
    """Scenario fields of the controller section: gains, kind and mode."""
    if law.get("mode") == "stochastic" and law["kind"] != "ct-gp":
        raise ConfigError("controller.mode: stochastic applies to ct-gp only")
    return {"gains": Gains(kp, kd), **{f"controller_{key}": v for key, v in law.items()}}


def _training(section, where) -> dict:
    """Scenario fields of the training section: plan, exciter, search settings."""
    (make, schema, required), rest = _variant(section, where, "mode", _PLANS)
    values = _read(rest, schema, required, where)
    fields = {name: values.pop(key) for key, name in
              (("hyperopt", "hyperopt"), ("exciter", "exciter_gains")) if key in values}
    fields["training_plan"] = _build(make, where, **values)
    return fields


_SCENARIO = {
    "name": _scenario_name,
    "plant": _plant,
    "estimate": _given,  # built from the plant below
    "controller": _section(_control_law, {
        "kind": _choice(*CONTROLLER_KINDS), "kp": _gain, "kd": _gain,
        "mode": _choice("deterministic", "stochastic"),
    }, {"kind", "kp", "kd"}),
    "reference": _section(ReferenceTrajectory, {
        "amplitude": _vector, "frequency": _vector, "phase": _vector,
        "frequency_unit": _given,
    }, {"amplitude", "frequency"}),
    "training": _optional(_training),
    "sim": _optional(_section(lambda **values: {"sim": SimConfig(**values)}, {
        "dt": _number, "duration": _number, "integrator": _given,
        "realizations": _integer, "base_seed": _integer,
        "lyapunov_epsilon": _number, "lyapunov_trace": _flag,
        "divergence_threshold": _number,
    })),
    "evaluate": _optional(_section(dict, {"t_skip": _number})),
    "check": _optional(_section(
        lambda **values: {f"check_{key}": value for key, value in values.items()},
        {"probe_count": _at_least(1), "seed": _integer,
         "structural_samples": _at_least(1)})),
}


def scenario_from_dict(raw: dict) -> Scenario:
    top = _read(raw, _SCENARIO, {"name", "plant", "estimate", "controller", "reference"},
                "scenario", prefix="")
    plant = top["plant"]
    s = Scenario(
        name=top["name"], plant=plant,
        estimate=_estimate(top["estimate"], raw["plant"]["kind"], plant),
        reference=top["reference"], **top["controller"],
        **top.get("training", {}), **top.get("sim", {}), **top.get("evaluate", {}),
        **top.get("check", {}), raw=raw,
    )
    if s.reference.n != plant.n:
        raise ConfigError(f"reference dimension {s.reference.n} != plant dimension {plant.n}")
    if s.gains.n != plant.n:
        raise ConfigError(f"gain dimension {s.gains.n} != plant dimension {plant.n}")
    if isinstance(s.training_plan, OpenLoopPlan) and plant.n != 1:
        raise ConfigError("training.mode open-loop requires a 1-dof plant")
    if s.exciter_gains is not None and s.exciter_gains.n != plant.n:
        raise ConfigError("training.exciter gain dimension mismatch")
    if not 0 <= s.t_skip < s.sim.duration:
        raise ConfigError(f"evaluate.t_skip must lie in [0, duration), got {s.t_skip}")
    if s.controller_mode == "stochastic" and s.sim.integrator != "euler-maruyama":
        raise ConfigError("controller.mode stochastic requires sim.integrator euler-maruyama")
    return s


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read scenario file {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: YAML parse error: {err}") from err
    return scenario_from_dict(raw)
