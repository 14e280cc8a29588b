"""End-to-end pipeline operations behind the command-line interface.

Every produced CSV starts with a manifest line (config fingerprint, seeds,
controller, frequency unit, package version; the format is `csvio`'s) so a
result file is traceable to the exact scenario that made it; identical
scenario + seed reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import ConfigError, Scenario
from .control import PDController, estimate_error_bound, verify_conditions
from .csvio import manifest_line, read_table, write_lines, write_table
from .dynamics import check_structural_properties
from .gp import (Hyperparameters, MultiGP, TrainingSet, fit,
                 load_hyperparameters, log_marginal_likelihood,
                 optimize_hyperparameters, save_hyperparameters)
from .sim import DivergenceError, run_ensemble, simulate
from .training import (ClosedLoopPlan, OpenLoopPlan, generate_closed_loop,
                       generate_open_loop)

TRAINING_CSV = "training_data.csv"
TRAINING_PROVENANCE = "training_data.provenance.json"
HYPERPARAMETERS_FILE = "hyperparameters.txt"
TRAIN_LOG = "train_log.txt"
TRAJECTORY_CSV = "trajectory.csv"
ENSEMBLE_CSV = "ensemble.csv"
RUN_MANIFEST = "manifest.txt"
LEARNING_CURVE_CSV = "learning_curve.csv"
CHECK_REPORT = "check_report.txt"


def manifest_lines(scenario: Scenario, **extra) -> tuple[str, ...]:
    pairs = {
        "config": scenario.fingerprint(),
        "scenario": scenario.name,
        "controller": scenario.controller_kind,
        "mode": scenario.controller_mode,
        "frequency_unit": scenario.reference.frequency_unit,
        "base_seed": scenario.sim.base_seed,
        "version": __version__,
    }
    pairs.update(extra)
    return (manifest_line(pairs),)


def _seeded_plan(plan, seed_override):
    if seed_override is None or plan is None:
        return plan
    from dataclasses import replace
    return replace(plan, seed=seed_override)


@dataclass
class TrainOutputs:
    training_csv: str
    hyperparameters_file: str
    log_file: str
    train: TrainingSet
    gp: MultiGP
    dropped: int


def generate_training_data(scenario: Scenario, seed_override: int | None = None
                           ) -> tuple[TrainingSet, dict]:
    """Generate the residual data set and its provenance record."""
    plan = _seeded_plan(scenario.training_plan, seed_override)
    if plan is None:
        raise ConfigError("scenario has no training section")
    if plan.mode == "open-loop":
        train, report = generate_open_loop(plan, scenario.plant, scenario.estimate)
    else:
        exciter = PDController(scenario.exciter_gains)
        train, report = generate_closed_loop(plan, scenario.plant, scenario.estimate,
                                             exciter, scenario.reference)
    meta = {
        "plan": report.plan,
        "total": report.total,
        "dropped": report.dropped,
        "dropped_indices": report.dropped_indices,
    }
    return train, meta


def optimize_training_set(train: TrainingSet, scenario: Scenario) -> list[Hyperparameters]:
    settings = scenario.hyperopt
    return [
        optimize_hyperparameters(train, settings.initial, settings.budget,
                                 output_index=i, restarts=settings.restarts)
        for i in range(train.output_dim)
    ]


def run_train(scenario: Scenario, out_dir, seed_override: int | None = None) -> TrainOutputs:
    os.makedirs(out_dir, exist_ok=True)
    train, meta = generate_training_data(scenario, seed_override)
    hypers = optimize_training_set(train, scenario)
    manifest = manifest_lines(
        scenario,
        training_seed=meta["plan"]["seed"],
        points=train.size,
        dropped=meta["dropped"],
    )
    training_csv = os.path.join(out_dir, TRAINING_CSV)
    train.save_csv(training_csv, manifest)
    write_lines(os.path.join(out_dir, TRAINING_PROVENANCE),
                [json.dumps(meta, indent=2, sort_keys=True)])
    hp_file = os.path.join(out_dir, HYPERPARAMETERS_FILE)
    save_hyperparameters(hp_file, hypers, manifest)
    log_file = os.path.join(out_dir, TRAIN_LOG)
    lines = list(manifest)
    for i, hp in enumerate(hypers):
        value, _ = log_marginal_likelihood(train, hp, i)
        lines.append(
            f"output {i + 1}: log_marginal_likelihood = {repr(float(value))}, "
            f"lambda = {repr(float(hp.length_scale))}, "
            f"sigma_f = {repr(float(hp.signal_variance))}, "
            f"sigma_n = {repr(float(hp.noise_variance))}"
        )
    write_lines(log_file, lines)
    gp = fit(train, hypers)
    return TrainOutputs(training_csv, hp_file, log_file, train, gp, meta["dropped"])


def load_gp(out_dir) -> MultiGP:
    """Rebuild the fitted GP from the training artifacts in out_dir."""
    training_csv = os.path.join(out_dir, TRAINING_CSV)
    hp_file = os.path.join(out_dir, HYPERPARAMETERS_FILE)
    for path in (training_csv, hp_file):
        if not os.path.exists(path):
            raise ConfigError(
                f"missing model artifact {path}; run the train step first"
            )
    train = TrainingSet.load_csv(training_csv)
    hypers = load_hyperparameters(hp_file)
    if len(hypers) != train.output_dim:
        raise ConfigError(
            f"{hp_file}: {len(hypers)} hyperparameter sets for "
            f"{train.output_dim} outputs"
        )
    return fit(train, hypers)


@dataclass
class SimulateOutputs:
    trajectory_csv: str
    ensemble_csv: str | None
    manifest_file: str
    divergent_runs: list[int]
    realizations: int


def run_simulate(scenario: Scenario, out_dir, seed_override: int | None = None,
                 realizations_override: int | None = None) -> SimulateOutputs:
    sim_cfg = scenario.sim
    if seed_override is not None or realizations_override is not None:
        from dataclasses import replace
        try:
            sim_cfg = replace(
                sim_cfg,
                base_seed=scenario.sim.base_seed if seed_override is None else seed_override,
                realizations=(scenario.sim.realizations if realizations_override is None
                              else realizations_override),
            )
        except ValueError as err:
            raise ConfigError(f"sim: {err}") from err
    os.makedirs(out_dir, exist_ok=True)
    gp = load_gp(out_dir) if scenario.needs_gp else None
    controller = scenario.build_controller(gp)
    manifest = manifest_lines(
        scenario, seed=sim_cfg.base_seed, realizations=sim_cfg.realizations,
        integrator=sim_cfg.integrator, gp_points=gp.size if gp is not None else 0,
    )
    trajectory_csv = os.path.join(out_dir, TRAJECTORY_CSV)
    ensemble_csv = None
    divergent: list[int] = []
    if sim_cfg.realizations > 1:
        stats, results = run_ensemble(scenario.plant, controller,
                                      scenario.reference, sim_cfg)
        divergent = stats.divergent_runs
        results[0].to_csv(trajectory_csv, manifest)
        ensemble_csv = os.path.join(out_dir, ENSEMBLE_CSV)
        stats.to_csv(ensemble_csv, manifest)
    else:
        result = simulate(scenario.plant, controller, scenario.reference, sim_cfg)
        result.to_csv(trajectory_csv, manifest)
        if result.diverged:
            divergent = [0]
    manifest_file = os.path.join(out_dir, RUN_MANIFEST)
    info = {
        "scenario": scenario.name,
        "config_fingerprint": scenario.fingerprint(),
        "controller": scenario.controller_kind,
        "mode": scenario.controller_mode,
        "integrator": sim_cfg.integrator,
        "frequency_unit": scenario.reference.frequency_unit,
        "base_seed": sim_cfg.base_seed,
        "realizations": sim_cfg.realizations,
        "divergent_runs": divergent,
        "version": __version__,
    }
    write_lines(manifest_file, [json.dumps(info, indent=2, sort_keys=True)])
    if len(divergent) == sim_cfg.realizations:
        raise DivergenceError(
            f"all {sim_cfg.realizations} realization(s) diverged; partial "
            f"trace in {trajectory_csv}"
        )
    return SimulateOutputs(trajectory_csv, ensemble_csv, manifest_file,
                           divergent, sim_cfg.realizations)


def read_result_csv(path) -> tuple[dict, list[str], np.ndarray]:
    """(manifest key/values, column names, data) from a result CSV."""
    try:
        return read_table(path)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def trajectory_rmse(path, t_skip: float) -> tuple[str, int, np.ndarray]:
    """(controller label, joint count, per-joint RMSE) for one trajectory CSV."""
    meta, header, data = read_result_csv(path)
    cols = {name: i for i, name in enumerate(header)}
    n = sum(1 for name in header if name.startswith("e_"))
    if n == 0 or "t" not in cols:
        raise ConfigError(f"{path}: not a trajectory file (needs t and e_* columns)")
    t = data[:, cols["t"]]
    mask = t >= t_skip - 1e-12
    if not np.any(mask):
        raise ConfigError(f"{path}: t_skip {t_skip} leaves no samples")
    e = np.stack([data[:, cols[f"e_{j + 1}"]] for j in range(n)], axis=1)
    rmse = np.sqrt(np.mean(e[mask] ** 2, axis=0))
    label = meta.get("controller", os.path.basename(path))
    return label, n, rmse


def run_evaluate(paths, t_skip: float, out_path) -> list[tuple[str, np.ndarray]]:
    """Tabulate per-joint RMSE for each trajectory file; grids must agree."""
    if not paths:
        raise ConfigError("evaluate needs at least one trajectory CSV")
    grids = []
    table = []
    for path in paths:
        meta, header, data = read_result_csv(path)
        cols = {name: i for i, name in enumerate(header)}
        if "t" not in cols:
            raise ConfigError(f"{path}: missing t column")
        grids.append(data[:, cols["t"]])
        label, n, rmse = trajectory_rmse(path, t_skip)
        table.append((label, rmse))
    base = grids[0]
    for grid in grids[1:]:
        if grid.shape != base.shape or not np.array_equal(grid, base):
            raise ConfigError("trajectory files do not share a common time grid")
    if out_path is not None:
        n = max(len(rmse) for _, rmse in table)
        manifest = [manifest_line({"t_skip": repr(float(t_skip)), "version": __version__})]
        header = ["controller"] + [f"rmse_{j + 1}" for j in range(n)]
        rows = ([label, *rmse, *[""] * (n - len(rmse))] for label, rmse in table)
        write_table(out_path, manifest, header, rows)
    return table


def _probe_inputs(scenario: Scenario, count: int = 500):
    """Held-out probe set from the scenario's own excitation protocol.

    Consistency only holds where training data densifies, so the probe must
    live on the same manifold: open-loop plans probe a fresh torque/position
    grid of about `count` cells between the training nodes, closed-loop plans
    resample the exciter run at about `count` offset times.  Noise is
    disabled, so the targets are the exact residuals at the probed states.
    """
    plan = scenario.training_plan
    if plan.mode == "open-loop":
        t_count = max(2, int(round(math.sqrt(count * 5.0 / 4.0))))
        p_count = max(2, count // t_count)
        probe_plan = OpenLoopPlan.grid(
            (plan.torques[0], plan.torques[-1]), t_count,
            (plan.positions[0], plan.positions[-1]), p_count,
            hold_duration=plan.hold_duration, dt=plan.dt,
        )
        probe, _ = generate_open_loop(probe_plan, scenario.plant, scenario.estimate)
    else:
        stride = max(1, int(plan.span / (count * plan.dt)))
        probe_plan = ClosedLoopPlan(
            sample_period=stride * plan.dt, sample_count=count, dt=plan.dt,
            noise_std_q=0.0, noise_std_qd=0.0, seed=plan.seed,
        )
        exciter = PDController(scenario.exciter_gains)
        probe, _ = generate_closed_loop(probe_plan, scenario.plant,
                                        scenario.estimate, exciter,
                                        scenario.reference)
    return probe.inputs.T.copy(), probe.outputs.copy()


def prediction_error_median(gp: MultiGP, scenario: Scenario, count: int = 500) -> float:
    """Median over the probe grid of ||gp_mean - true residual||."""
    queries, true_resid = _probe_inputs(scenario, count)
    if gp is None or gp.size == 0:
        err = np.linalg.norm(true_resid, axis=1)
    else:
        err = np.linalg.norm(gp.predict_mean(queries) - true_resid, axis=1)
    return float(np.median(err))


def run_learning_curve(scenario: Scenario, sizes, out_dir,
                       seed_override: int | None = None) -> str:
    """Retrain on nested subsets and simulate the GP controller per size.

    Writes one row per size: points, per-joint tracking RMSE over the
    evaluation window, and the median model-error prediction gap on the
    probe grid.  Size 0 is the uncompensated computed-torque baseline by
    construction.
    """
    sizes = list(sizes)
    if not sizes or sorted(sizes) != sizes:
        raise ConfigError(f"sizes must be ascending and non-empty, got {sizes}")
    if scenario.controller_kind != "ct-gp":
        raise ConfigError("learning-curve requires a ct-gp controller scenario")
    os.makedirs(out_dir, exist_ok=True)
    train, meta = generate_training_data(scenario, seed_override)
    if sizes[-1] > train.size:
        raise ConfigError(
            f"requested size {sizes[-1]} exceeds the {train.size} available points"
        )
    subsample_seed = scenario.training_plan.seed if seed_override is None else seed_override
    rows = []
    for size in sizes:
        subset = train.subsample(size, seed=subsample_seed)
        if size == 0:
            gp = MultiGP.empty(train.input_dim, train.output_dim)
        else:
            hypers = optimize_training_set(subset, scenario)
            gp = fit(subset, hypers)
        controller = scenario.build_controller(gp)
        result = simulate(scenario.plant, controller, scenario.reference, scenario.sim)
        if result.diverged:
            raise DivergenceError(f"learning-curve run with {size} points diverged")
        rmse = result.rmse(scenario.t_skip)
        probe = prediction_error_median(gp, scenario)
        rows.append((size, rmse, probe))
    path = os.path.join(out_dir, LEARNING_CURVE_CSV)
    manifest = manifest_lines(scenario, points_available=train.size,
                              training_seed=meta["plan"]["seed"])
    header = (["points"] + [f"rmse_{j + 1}" for j in range(scenario.plant.n)]
              + ["probe_median"])
    write_table(path, manifest, header,
                ([str(size), *rmse, probe] for size, rmse, probe in rows))
    return path


def run_check(scenario: Scenario, out_dir=None) -> tuple[str, bool]:
    """Structural properties, model-error bound and gain conditions."""
    structural = check_structural_properties(
        scenario.plant, scenario.check_structural_samples, scenario.check_seed
    )
    ref_bounds = scenario.reference.bounds()
    bound = estimate_error_bound(
        scenario.plant, scenario.control_estimate(), ref_bounds,
        probe_count=scenario.check_probe_count, seed=scenario.check_seed,
    )
    report = verify_conditions(scenario.gains, bound, ref_bounds)
    passed = structural.passed and report.passed
    lines = [
        f"scenario: {scenario.name} (config {scenario.fingerprint()})",
        "",
        "structural properties of the plant:",
        structural.summary(),
        "",
        f"model-error bound: alpha = {bound.alpha:.6g}, beta = {bound.beta:.6g} "
        f"(max residual {bound.max_residual:.6g} at speeds up to {bound.max_speed:.4g})",
        "",
        "tracking conditions:",
        report.summary(),
        "",
        f"overall: {'PASS' if passed else 'FAIL'}",
    ]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_lines(os.path.join(out_dir, CHECK_REPORT), lines)
    return "\n".join(lines) + "\n", passed
