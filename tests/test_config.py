"""Scenario schema validation: strict keys, typed fields, cross-checks.

Silent typos in gains or plant parameters are a correctness hazard, so the
loader must reject unknown keys at every nesting level and enforce the
couplings (stochastic mode needs the SDE integrator, open-loop excitation
needs a 1-dof plant) rather than failing later at run time.
"""
from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from ctgp.config import ConfigError, load_scenario, scenario_from_dict
from ctgp.control import (ComputedTorqueController, CTGPController,
                          PDController)
from ctgp.dynamics import AeroTable, PendulumEstimate, TwoLinkArm, WingModel
from ctgp.gp import Hyperparameters

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _wing_raw() -> dict:
    return {
        "name": "wing-mini",
        "plant": {"kind": "wing"},
        "estimate": {"kind": "pendulum"},
        "controller": {"kind": "ct-gp", "kp": [5.0], "kd": [5.0],
                       "mode": "deterministic"},
        "reference": {"amplitude": [0.3], "frequency": [1.0], "phase": [0.0],
                      "frequency_unit": "rad_per_s"},
        "training": {"mode": "open-loop", "seed": 123,
                     "torque_range": [-8.0, 8.0], "torque_count": 5,
                     "position_range": [-3.1, 3.1], "position_count": 4,
                     "hold_duration": 0.5, "dt": 1e-3,
                     "hyperopt": {"budget": 3, "restarts": 1,
                                  "initial": {"length_scale": 2.0,
                                              "signal_variance": 4.0,
                                              "noise_variance": 0.01}}},
        "sim": {"dt": 1e-3, "duration": 1.0, "integrator": "rk4",
                "realizations": 1, "base_seed": 0},
        "evaluate": {"t_skip": 0.2},
        "check": {"probe_count": 300, "seed": 7, "structural_samples": 100},
    }


def _arm_raw() -> dict:
    return {
        "name": "arm-mini",
        "plant": {"kind": "two-link-arm",
                  "spring": {"anchor": [0.45, -0.15], "rest_length": 0.1,
                             "k1": 15.0, "k3": 150.0}},
        "estimate": {"kind": "rigid-arm"},
        "controller": {"kind": "ct", "kp": [20.0, 15.0], "kd": [5.0, 5.0]},
        "reference": {"amplitude": [0.6283, 0.6283], "frequency": [1.0, 2.0],
                      "frequency_unit": "hz"},
        "training": {"mode": "closed-loop", "seed": 42, "sample_period": 0.03,
                     "sample_count": 20,
                     "exciter": {"kind": "hg-pd", "kp": [800.0, 600.0],
                                 "kd": [5.0, 5.0]}},
        "sim": {"duration": 1.0},
        "evaluate": {"t_skip": 0.2},
        "check": {},
    }


# ---------------------------------------------------------------------------
# happy paths


def test_wing_scenario_builds_with_defaults():
    s = scenario_from_dict(_wing_raw())
    assert s.name == "wing-mini"
    assert isinstance(s.plant, WingModel)
    assert isinstance(s.estimate, PendulumEstimate)
    assert s.estimate.inertia == pytest.approx(0.9)
    assert s.controller_kind == "ct-gp" and s.needs_gp
    assert s.reference.frequency_unit == "rad_per_s"
    assert s.training_plan.cells == 20
    assert s.hyperopt.budget == 3
    assert s.sim.duration == 1.0
    assert s.t_skip == 0.2
    assert s.check_probe_count == 300


def test_arm_scenario_builds():
    s = scenario_from_dict(_arm_raw())
    assert isinstance(s.plant, TwoLinkArm)
    assert s.plant.spring.k3 == 150.0
    assert s.estimate.spring is None and s.estimate.viscous == 0.0
    assert s.training_plan.mode == "closed-loop"
    assert s.exciter_gains.kp[0, 0] == 800.0
    assert not s.needs_gp
    # unset check section falls back to defaults
    assert s.check_probe_count == 2000 and s.check_seed == 7


# The schema's default for every optional key, pinned here once: the objects
# the sections build declare them, and an absent key must give these values.
_DEFAULTS = {
    "wing": dict(inertia=1.0, mass=1.0, lever=1.0, gravity=9.81, airspeed=5.0,
                 air_density=1.225, chord=0.1, span=1.0, apparent_wind=False),
    "pendulum": dict(inertia=0.9 * 1.0, lever_mass=0.9 * 1.0 * 1.0, gravity=9.81),
    "arm": dict(l1=0.3, l2=0.3, m1=1.5, m2=1.0, lc1=0.15, lc2=0.15,
                i1=1.5 * 0.3**2 / 12.0, i2=1.0 * 0.3**2 / 12.0, viscous=0.2,
                coulomb=0.1, coulomb_velocity_scale=0.05),
    "spring": dict(k3=0.0),
    "open-loop": dict(hold_duration=0.5, dt=1e-3, noise_std_q=0.0,
                      noise_std_qd=0.0, seed=0),
    "closed-loop": dict(dt=1e-3, duration=None, noise_std_q=1e-3,
                        noise_std_qd=1e-2, seed=0),
    "hyperopt": dict(budget=40, restarts=5),
    "initial": dict(length_scale=2.0, signal_variance=1.0, noise_variance=0.01),
    "sim": dict(dt=1e-3, duration=10.0, integrator="rk4", realizations=1,
                base_seed=0, lyapunov_epsilon=0.1, lyapunov_trace=False,
                divergence_threshold=1e6),
    "scenario": dict(controller_mode="deterministic", t_skip=1.0,
                     check_probe_count=2000, check_seed=7,
                     check_structural_samples=1000),
    "reference": dict(frequency_unit="hz"),
}


def _fields(obj, names) -> dict:
    return {name: getattr(obj, name) for name in names}


def test_required_keys_alone_take_every_default():
    wing = scenario_from_dict({
        "name": "wing-min", "plant": {"kind": "wing"}, "estimate": {"kind": "pendulum"},
        "controller": {"kind": "ct-gp", "kp": [5.0], "kd": [5.0]},
        "reference": {"amplitude": [0.3], "frequency": [1.0]},
        "training": {"mode": "open-loop", "torque_range": [-8.0, 8.0], "torque_count": 3,
                     "position_range": [-3.0, 3.0], "position_count": 2},
    })
    arm = scenario_from_dict({
        "name": "arm-min",
        "plant": {"kind": "two-link-arm",
                  "spring": {"anchor": [0.45, -0.15], "rest_length": 0.1, "k1": 15.0}},
        "estimate": {"kind": "rigid-arm"},
        "controller": {"kind": "ct", "kp": [20.0, 15.0], "kd": [5.0, 5.0]},
        "reference": {"amplitude": [0.6, 0.6], "frequency": [1.0, 2.0]},
        "training": {"mode": "closed-loop", "sample_period": 0.03, "sample_count": 20,
                     "exciter": {"kp": [800.0, 600.0], "kd": [5.0, 5.0]},
                     "hyperopt": {"initial": {"length_scale": 3.0}}},
    })
    d = _DEFAULTS
    assert _fields(wing.plant, d["wing"]) == d["wing"]
    table = AeroTable.naca0015()
    for name in ("alpha_deg", "cl", "cd"):
        assert np.array_equal(getattr(wing.plant.aero_table, name), getattr(table, name))
    assert _fields(wing.estimate, d["pendulum"]) == d["pendulum"]
    assert _fields(arm.plant, d["arm"]) == d["arm"]
    assert _fields(arm.plant.spring, d["spring"]) == d["spring"]
    assert _fields(wing.training_plan, d["open-loop"]) == d["open-loop"]
    assert _fields(arm.training_plan, d["closed-loop"]) == d["closed-loop"]
    for s in (wing, arm):
        assert _fields(s.hyperopt, d["hyperopt"]) == d["hyperopt"]
        assert _fields(s.sim, d["sim"]) == d["sim"]
        assert _fields(s, d["scenario"]) == d["scenario"]
        assert _fields(s.reference, d["reference"]) == d["reference"]
        assert np.array_equal(s.reference.phase, np.zeros(s.plant.n))
    assert wing.hyperopt.initial == Hyperparameters(**d["initial"])
    # a partial initial point takes the rest of the default one
    assert arm.hyperopt.initial == Hyperparameters(**{**d["initial"], "length_scale": 3.0})


def test_scenario_without_training_section():
    raw = _wing_raw()
    del raw["training"]
    raw["controller"]["kind"] = "ct"
    s = scenario_from_dict(raw)
    assert s.training_plan is None
    assert s.hyperopt.budget == 40  # defaults still available


def test_shipped_configs_are_valid():
    wing = load_scenario("configs/wing.yaml")
    assert wing.plant.n == 1 and wing.needs_gp
    assert wing.training_plan.cells == 33 * 30
    arm = load_scenario("configs/arm.yaml")
    assert arm.plant.n == 2
    assert arm.training_plan.sample_count == 351


def test_build_controller_kinds():
    raw = _wing_raw()
    del raw["training"]
    for kind, cls in (("hg-pd", PDController), ("lg-pd", PDController),
                      ("ct", ComputedTorqueController)):
        raw["controller"]["kind"] = kind
        assert isinstance(scenario_from_dict(raw).build_controller(), cls)
    raw["controller"]["kind"] = "ct-gp"
    ctl = scenario_from_dict(raw).build_controller(None)
    assert isinstance(ctl, CTGPController)


def test_ct_sp_linearizes_the_plant_spring():
    raw = _arm_raw()
    raw["controller"]["kind"] = "ct-sp"
    s = scenario_from_dict(raw)
    est = s.control_estimate()
    assert est.spring.k1 == 15.0 and est.spring.k3 == 0.0
    assert isinstance(s.build_controller(), ComputedTorqueController)


def test_ct_sp_requires_a_sprung_arm():
    raw = _arm_raw()
    raw["controller"]["kind"] = "ct-sp"
    raw["plant"]["spring"] = None
    with pytest.raises(ConfigError, match="ct-sp"):
        scenario_from_dict(raw).control_estimate()


def test_full_matrix_gains_accepted():
    raw = _arm_raw()
    raw["controller"]["kp"] = [[20.0, 1.0], [1.0, 15.0]]
    s = scenario_from_dict(raw)
    assert s.gains.kp[0, 1] == 1.0


# ---------------------------------------------------------------------------
# strict key checking


def test_unknown_top_level_key_rejected():
    raw = _wing_raw()
    raw["plotting"] = {}
    with pytest.raises(ConfigError, match="plotting"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("path,key", [
    (("plant",), "wingspan"),
    (("controller",), "gain"),
    (("reference",), "offset"),
    (("training",), "grid"),
    (("training", "hyperopt"), "iterations"),
    (("training", "hyperopt", "initial"), "lambda"),
    (("sim",), "step"),
    (("evaluate",), "window"),
    (("check",), "threshold"),
])
def test_unknown_nested_key_rejected(path, key):
    raw = _wing_raw()
    section = raw
    for part in path:
        section = section[part]
    section[key] = 1
    with pytest.raises(ConfigError, match=key):
        scenario_from_dict(raw)


def test_unknown_spring_key_rejected():
    raw = _arm_raw()
    raw["plant"]["spring"]["damping"] = 1.0
    with pytest.raises(ConfigError, match="damping"):
        scenario_from_dict(raw)


def test_missing_required_keys():
    for key in ("name", "plant", "controller", "reference"):
        raw = _wing_raw()
        del raw[key]
        with pytest.raises(ConfigError, match="missing"):
            scenario_from_dict(raw)
    raw = _wing_raw()
    del raw["controller"]["kp"]
    with pytest.raises(ConfigError, match="kp"):
        scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# field typing and values


def test_field_type_errors():
    raw = _wing_raw()
    raw["plant"]["inertia"] = "heavy"
    with pytest.raises(ConfigError, match="number"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["plant"]["inertia"] = True  # booleans are not numbers here
    with pytest.raises(ConfigError, match="number"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["training"]["seed"] = 1.5
    with pytest.raises(ConfigError, match="integer"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["controller"]["kp"] = 5.0
    with pytest.raises(ConfigError, match="list"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["sim"]["lyapunov_trace"] = "yes"
    with pytest.raises(ConfigError, match="boolean"):
        scenario_from_dict(raw)
    raw = _arm_raw()
    raw["plant"]["link_lengths"] = [1.0e200, 0.3]  # the default m l^2 / 12 overflows
    with pytest.raises(ConfigError, match="plant: "):
        scenario_from_dict(raw)


def test_unknown_enumeration_values():
    raw = _wing_raw()
    raw["plant"]["kind"] = "quadrotor"
    with pytest.raises(ConfigError, match="quadrotor"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["estimate"]["kind"] = "cad"
    with pytest.raises(ConfigError, match="cad"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["controller"]["kind"] = "mpc"
    with pytest.raises(ConfigError, match="mpc"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["training"]["mode"] = "replay"
    with pytest.raises(ConfigError, match="replay"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["sim"]["integrator"] = "verlet"
    with pytest.raises(ConfigError, match="verlet"):
        scenario_from_dict(raw)


def test_non_positive_definite_gains_rejected():
    raw = _wing_raw()
    raw["controller"]["kp"] = [-5.0]
    with pytest.raises(ConfigError, match="positive definite"):
        scenario_from_dict(raw)


def test_hyperopt_bounds():
    raw = _wing_raw()
    raw["training"]["hyperopt"]["budget"] = -1
    with pytest.raises(ConfigError, match="budget"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["training"]["hyperopt"]["restarts"] = 0
    with pytest.raises(ConfigError, match="restarts"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["training"]["hyperopt"]["initial"]["noise_variance"] = -1.0
    with pytest.raises(ConfigError):
        scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# cross-section couplings


def test_dimension_mismatches():
    raw = _wing_raw()
    raw["reference"]["amplitude"] = [0.3, 0.3]
    raw["reference"]["frequency"] = [1.0, 1.0]
    raw["reference"]["phase"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match="reference dimension"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["controller"]["kp"] = [5.0, 5.0]
    raw["controller"]["kd"] = [5.0, 5.0]
    with pytest.raises(ConfigError, match="gain dimension"):
        scenario_from_dict(raw)


def test_open_loop_training_needs_single_joint():
    raw = _arm_raw()
    raw["training"] = _wing_raw()["training"]
    with pytest.raises(ConfigError, match="1-dof"):
        scenario_from_dict(raw)


def test_exciter_gain_dimension_checked():
    raw = _arm_raw()
    raw["training"]["exciter"]["kp"] = [800.0]
    raw["training"]["exciter"]["kd"] = [5.0]
    with pytest.raises(ConfigError, match="exciter"):
        scenario_from_dict(raw)


def test_stochastic_mode_requires_em_integrator():
    raw = _wing_raw()
    raw["controller"]["mode"] = "stochastic"
    with pytest.raises(ConfigError, match="euler-maruyama"):
        scenario_from_dict(raw)
    raw["sim"]["integrator"] = "euler-maruyama"
    assert scenario_from_dict(raw).controller_mode == "stochastic"


def test_stochastic_mode_is_ct_gp_only():
    raw = _wing_raw()
    del raw["training"]
    raw["controller"]["kind"] = "ct"
    raw["controller"]["mode"] = "stochastic"
    with pytest.raises(ConfigError, match="ct-gp"):
        scenario_from_dict(raw)


def test_t_skip_must_precede_duration_end():
    raw = _wing_raw()
    raw["evaluate"]["t_skip"] = 1.0  # equals duration
    with pytest.raises(ConfigError, match="t_skip"):
        scenario_from_dict(raw)
    raw = _wing_raw()
    raw["evaluate"]["t_skip"] = -0.1
    with pytest.raises(ConfigError, match="t_skip"):
        scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# fingerprint


@pytest.mark.parametrize("sim", [{"dt": 1e-9, "duration": 10.0},
                                 {"duration": 10.0, "realizations": 1_000_000_000}])
def test_unbounded_record_rejected(tmp_path, sim):
    raw = _wing_raw()
    raw["sim"].update(sim)
    with pytest.raises(ConfigError, match="sim.dt or lower sim.duration or "
                                          "sim.realizations"):
        scenario_from_dict(raw)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="recorded rows"):
        load_scenario(path)


def test_fingerprint_stable_and_order_independent():
    a = scenario_from_dict(_wing_raw())
    b = scenario_from_dict(_wing_raw())
    assert a.fingerprint() == b.fingerprint()
    shuffled = dict(reversed(list(copy.deepcopy(_wing_raw()).items())))
    c = scenario_from_dict(shuffled)
    assert c.fingerprint() == a.fingerprint()


def test_fingerprint_changes_with_content():
    raw = _wing_raw()
    raw["sim"]["base_seed"] = 1
    assert (scenario_from_dict(raw).fingerprint()
            != scenario_from_dict(_wing_raw()).fingerprint())


# ---------------------------------------------------------------------------
# file loading


def test_load_scenario_from_yaml_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(_wing_raw()))
    s = load_scenario(path)
    assert s.name == "wing-mini"


@pytest.mark.parametrize("name", ["wing\nct run", "wing ct run", "wing\tct"])
def test_scenario_name_with_whitespace_rejected(tmp_path, name):
    # the name is a manifest value: a newline split the manifest line and a
    # space truncated it on reading back
    raw = _wing_raw()
    raw["name"] = name
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match="scenario.name"):
        load_scenario(path)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "absent.yaml")


def test_load_scenario_parse_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("plant: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_scenario(path)


def test_scenario_root_must_be_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        scenario_from_dict(["not", "a", "dict"])


# ---------------------------------------------------------------------------
# one bad key of a shipped config


_SHIPPED = {name: yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
            for name in ("wing", "arm")}
_DROP = object()
_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]
_BAD_VALUES = st.one_of(
    st.just(_DROP), st.none(), st.booleans(), st.text(max_size=8),
    st.lists(st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6)), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
    st.integers(-10**6, 10**6), st.sampled_from(_SPECIAL),
)


def _key_paths(section, prefix=()):
    for key, value in section.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@given(config=st.sampled_from(sorted(_SHIPPED)), data=st.data())
def test_one_bad_key_ends_in_a_config_or_file_error(config, data):
    # integers stay within 1e6, so that no grid or record the loader sizes
    # from a count takes more than a few MB
    raw = copy.deepcopy(_SHIPPED[config])
    path = data.draw(st.sampled_from(list(_key_paths(raw))))
    value = data.draw(_BAD_VALUES)
    section = raw
    for key in path[:-1]:
        section = section[key]
    if value is _DROP:
        del section[path[-1]]
    else:
        section[path[-1]] = value
    try:
        scenario_from_dict(raw)
    except (ConfigError, OSError):
        pass
