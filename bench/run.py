#!/usr/bin/env python3
"""The ctgp benchmark: three workloads run through the ctgp CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command is a fresh
`python -m ctgp.cli` process with the checkout's `src` on PYTHONPATH, run to
exit before the next one starts (a closed loop with one client), with one
BLAS thread.  The workload seed is passed to ctgp as `--seed`.

With `--trace 0` the workload's run is repeated for S seconds with tracing
off and the end-to-end metrics are medians over those runs.  With
`--trace 1` the run is made once untraced and once traced; the traced
commands record spans around ctgp's public functions (see tracer.py), the
per-layer metrics come from those spans, and the traced artifacts must be
byte-identical to the untraced ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it gives the
machine facts and the sample counts behind each figure.  See README.md for
the workloads, the metrics and the correctness gates.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_work"

# Every run must end within 180 s; commands still running at this budget are
# killed and counted as failed.
BUDGET_S = 170.0
# One BLAS thread (nproc is 2 on the reference machine): on a shared 2-core
# host a second thread made the wing search slower and its timings noisier,
# and hyperparameters depend in their last digits on the thread count.
BLAS_THREADS = 1
# The shipped search (budget 40, 5 restarts) takes ~75 s at m = 990; this one
# keeps m and the search code path at a size that fits the run.
HYPEROPT = {"budget": 10, "restarts": 2}
SETUP_REPS = 5
# Each control pass is a fresh process; more passes spread the measurement
# over more of the run.  The arm's batch-1 latency is mostly Python and
# drifted most with the host's speed, so it gets a pass in every gap.
CONTROL_PASSES = 3
ARM_CONTROL_PASSES = 5
# ct-gp first, so that its trajectory exists for the probes that run
# between the other commands
ARM_KINDS = ("ct-gp", "hg-pd", "lg-pd", "ct", "ct-sp")
ARM_HG_KP = [800.0, 600.0]
GP_ARTIFACTS = ("training_data.csv", "hyperparameters.txt")
TRAIN_ARTIFACTS = ("training_data.csv", "training_data.provenance.json",
                   "hyperparameters.txt", "train_log.txt")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "run_steps_per_s": "steps/s",
    "control_p50_us": "us",
    "control_p99_us": "us",
    "peak_rss_mb": "MB",
    "lml": "nats",
    "track_rmse": "rad",
}
PER_LAYER = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "gp.lml_calls": "count",
    "gp.lml_ms_p50": "ms",
    "gp.lml_ms_p99": "ms",
    "gp.lml_self_s": "s",
    "gp.cholesky_rejects": "count",
    "gp.lml_reject_ratio": "ratio",
    "gp.hyperopt_s": "s",
    "gp.fit_ms": "ms",
    "gp.predict_calls": "count",
    "gp.predict_batch": "rows",
    "gp.predict_us_p50": "us",
    "gp.predict_us_p99": "us",
    "control.output_calls": "count",
    "control.output_self_us_p50": "us",
    "dynamics.forward_calls": "count",
    "dynamics.forward_us_p50": "us",
    "dynamics.mass_matrix_calls": "count",
    "sim.step_self_us": "us",
    "sim.divergent_runs": "count",
    "training.generate_s": "s",
    "training.points": "count",
    "training.dropped_ratio": "ratio",
    "harness.csv_write_s": "s",
    "harness.csv_bytes_written": "bytes",
    "harness.csv_read_s": "s",
    "harness.csv_bytes_read": "bytes",
    "failed_ops": "ratio",
    "trace.overhead_s": "s",
}


class Ops:
    """Attempted and failed operations.

    An operation is a process the benchmark starts or one realization of an
    ensemble.  It fails on a non-zero exit, a divergent realization or a
    failed correctness gate, and counts as failed at most once.
    """

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.reasons: list[str] = []

    def add(self, count: int = 1) -> list[int]:
        ids = list(range(self.attempted, self.attempted + count))
        self.attempted += count
        return ids

    def fail(self, op: int, reason: str) -> None:
        self.reasons.append(reason)
        self.failed.add(op)

    def check(self, ok: bool, op: int, reason: str) -> bool:
        if not ok:
            self.fail(op, reason)
        return ok

    @property
    def ratio(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0


@dataclass
class Cmd:
    op: int
    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Run:
    dir: Path
    cmds: list[Cmd] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.cmds)


class Bench:
    """Process runner and bookkeeping for one benchmark invocation."""

    def __init__(self, work: Path, seed: int, seconds: float, trace: bool):
        self.work = work
        self.seed = str(seed)
        self.seconds = seconds
        self.trace = trace
        self.ops = Ops()
        self.span_files: list[Path] = []
        self.detail: dict = {}
        self.trace_overhead_s = 0.0
        self.setup_args: list | None = None
        self.control_args: list | None = None
        self.setup_tries = self.control_tries = 0
        self.control_passes_wanted = CONTROL_PASSES
        self.setup_walls: list[float] = []
        self.control_passes: list[list[int]] = []
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def path(self, name: str) -> Path:
        p = self.work / name
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def config(self, name: str, base: str, changes: dict) -> Path:
        """Write a scenario derived from a shipped config; JSON is valid YAML."""
        raw = yaml.safe_load((CONFIGS / base).read_text())
        _merge(raw, {"training": {"hyperopt": HYPEROPT}})
        _merge(raw, changes)
        path = self.path(f"{name}.json")
        path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
        return path

    def spawn(self, cmd: list) -> Cmd:
        """Run one process to exit: (op, exit code, wall time, peak RSS)."""
        op = self.ops.add()[0]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.ops.fail(op, f"time budget spent before {cmd[1:3]}")
            return Cmd(op, -1, 0.0, 0.0)
        with open(self.path("log.txt"), "ab") as log:
            log.write((" ".join(str(c) for c in cmd) + "\n").encode())
            log.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        self.ops.check(code == 0, op, f"exit {code}: {' '.join(str(c) for c in cmd[1:4])}")
        return Cmd(op, code, wall, usage.ru_maxrss / 1024.0)

    def cli(self, args: list, traced: bool | None = None) -> Cmd:
        """One ctgp command; traced when asked, by default when the run traces."""
        traced = self.trace if traced is None else traced
        if traced:
            spans = self.path(f"spans/{len(self.span_files)}.npz")
            self.span_files.append(spans)
            return self.spawn([sys.executable, HERE / "traced_cli.py", spans, *args])
        return self.spawn([sys.executable, "-m", "ctgp.cli", *args])

    def probe(self, *args) -> Cmd:
        return self.spawn([sys.executable, HERE / "probe.py", *args])

    def timed_runs(self, one_run, min_runs: int = 1) -> list[Run]:
        """Untraced: repeat the run for the measured seconds (at least
        `min_runs` times).  Traced: one untraced and one traced run, whose
        artifact trees must be identical."""
        if self.trace:
            runs = [one_run(0, False), one_run(1, True)]
            self.trace_overhead_s = runs[1].wall_s - runs[0].wall_s
            same = same_tree(runs[0].dir, runs[1].dir)
            self.ops.check(same, runs[1].cmds[-1].op,
                           "traced artifacts differ from the untraced run")
            return runs
        runs = []
        t0 = time.monotonic()
        while True:
            runs.append(one_run(len(runs), False))
            spent = sum(r.wall_s for r in runs)
            per_run = (time.monotonic() - t0) / len(runs)
            if len(runs) >= min_runs and spent + spent / len(runs) > self.seconds:
                return runs
            if time.monotonic() + 2 * per_run > self.deadline:
                return runs

    def probe_slot(self) -> None:
        """One setup process and one control pass, while either is short of
        its count.

        Workloads call this between timed commands. The probes then sample
        several moments of the run, so a burst of load on a shared host
        cannot set a whole metric.
        """
        if self.trace:
            return
        if self.setup_args is not None and self.setup_tries < SETUP_REPS:
            self.setup_tries += 1
            cmd = self.probe("setup", *self.setup_args)
            if cmd.code == 0:
                self.setup_walls.append(cmd.wall_s)
        if self.control_args is not None and self.control_tries < self.control_passes_wanted:
            out = self.path(f"control/{self.control_tries}.json")
            self.control_tries += 1
            if self.probe("control", *self.control_args, out).code == 0:
                self.control_passes.append(json.loads(out.read_text()))

    def probe_metrics(self) -> dict:
        """Finish the probes; `setup_s` and the control latency."""
        while ((self.setup_args is not None and self.setup_tries < SETUP_REPS)
               or (self.control_args is not None and self.control_tries < self.control_passes_wanted)):
            self.probe_slot()
        m = {}
        if self.setup_walls:
            m["setup_s"] = statistics.median(self.setup_walls)
            self.detail["setup_s"] = {"samples": len(self.setup_walls)}
        if self.control_passes:
            # per state, the median of its calls in the passes: a single
            # preemption of the shared host otherwise sets the 99th percentile
            per_state = np.median(np.array(self.control_passes, dtype=float), axis=0)
            pct, p_tail = tracer.tail(per_state)
            self.detail["control_p99_us"] = {"samples": per_state.size, "percentile": pct,
                                             "passes": len(self.control_passes)}
            m["control_p50_us"] = float(np.median(per_state)) / 1e3
            m["control_p99_us"] = p_tail / 1e3
        return m

    def result(self, metrics: dict) -> dict:
        units = PER_LAYER if self.trace else END_TO_END
        failed = len(self.ops.failed)
        return {
            "correct": failed == 0,
            "attempted": self.ops.attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u}
                        for k, u in units.items()},
        }


def _merge(raw: dict, changes: dict) -> None:
    for key, value in changes.items():
        if isinstance(value, dict):
            _merge(raw.setdefault(key, {}), value)
        else:
            raw[key] = value


def same_tree(a: Path, b: Path) -> bool:
    """Both directories hold the same relative file names with equal bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """(header, data) of a ctgp result CSV; `#` lines are skipped."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def read_rmse(path: Path) -> dict[str, list[float]]:
    """controller label -> per-joint RMSE from an `evaluate` report."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return {ln.split(",")[0]: [float(v) for v in ln.split(",")[1:] if v]
            for ln in lines[1:]}


_LML = re.compile(r"log_marginal_likelihood = ([^,]+),")


def read_lml(train_log: Path) -> float:
    """Sum over outputs of the final LML in a train_log.txt."""
    return sum(float(v) for v in _LML.findall(train_log.read_text()))


def max_error_after(trajectory: Path, t_from: float) -> float:
    header, data = read_csv(trajectory)
    t = data[:, header.index("t")]
    e = data[:, [i for i, h in enumerate(header) if h.startswith("e_")]]
    return float(np.max(np.linalg.norm(e[t > t_from], axis=1)))


def ensemble_mean_rmse(trajectory: Path, ensemble: Path, t_skip: float) -> float:
    """Largest per-joint RMSE after `t_skip` of the ensemble-mean trajectory.

    The reference is recovered from run 0's trajectory as q - e.
    """
    th, traj = read_csv(trajectory)
    eh, ens = read_csv(ensemble)
    rows = min(len(traj), len(ens))
    n = sum(1 for h in th if h.startswith("e_"))
    ref = np.stack([traj[:rows, th.index(f"q_{j + 1}")] - traj[:rows, th.index(f"e_{j + 1}")]
                    for j in range(n)], axis=1)
    mean = np.stack([ens[:rows, eh.index(f"mean_q_{j + 1}")] for j in range(n)], axis=1)
    keep = ens[:rows, eh.index("t")] >= t_skip - 1e-12
    return float(np.max(np.sqrt(np.mean((mean - ref)[keep] ** 2, axis=0))))


def copy_gp(src: Path, dst: Path) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for name in GP_ARTIFACTS:
        shutil.copyfile(src / name, dst / name)


def _steps(config: Path) -> int:
    sim = json.loads(config.read_text())["sim"]
    return int(round(sim["duration"] / sim["dt"]))


def _t_skip(config: Path) -> str:
    return repr(float(json.loads(config.read_text())["evaluate"]["t_skip"]))


# ---------------------------------------------------------------------------
# workloads


def wing_train(b: Bench) -> dict:
    """`ctgp train` on the wing grid (m = 990); the run is the train alone.

    After the first run, one short deterministic ct-gp simulate on its
    artifacts gives the wing's steps/s, controller latency and tracking RMSE.
    """
    cfg = b.config("wing-train", "wing.yaml", {"sim": {"duration": 3.0}})
    probe = b.path("probe")
    b.setup_args = [cfg]
    b.control_args = [cfg, probe, probe / "trajectory.csv"]
    sims = []

    def one_run(k, traced):
        out = b.path(f"run{k}")
        run = Run(out, [b.cli(["train", "--config", cfg, "--out", out,
                               "--seed", b.seed], traced)])
        if k == 0:
            copy_gp(out, probe)
            sims.append(b.cli(["simulate", "--config", cfg, "--out", probe, "--seed", b.seed]))
            b.cli(["evaluate", probe / "trajectory.csv", "--out", probe / "rmse.csv",
                   "--t-skip", _t_skip(cfg)])
        b.probe_slot()
        return run

    runs = b.timed_runs(one_run, min_runs=2)
    first = runs[0].dir
    for run in runs[1:]:
        same = all(filecmp.cmp(first / f, run.dir / f, shallow=False)
                   if (first / f).exists() and (run.dir / f).exists() else False
                   for f in TRAIN_ARTIFACTS)
        b.ops.check(same, run.cmds[0].op, f"{run.dir.name} artifacts differ from run 0")
    if b.trace:
        return {}
    m = _common(b, runs)
    m["run_steps_per_s"] = _steps(cfg) / sims[0].wall_s
    m["lml"] = read_lml(first / "train_log.txt")
    m["track_rmse"] = max(read_rmse(probe / "rmse.csv")["ct-gp"])
    return m


def arm_track(b: Bench) -> dict:
    """Five controllers on the 2-link arm (n = 2, m = 351), then evaluate.

    The arm GP is trained once per invocation before the timed runs.
    """
    base = b.config("arm", "arm.yaml", {"sim": {"duration": 3.0}})
    cfgs = {}
    for kind in ARM_KINDS:
        ctl = {"kind": kind, **({"kp": ARM_HG_KP} if kind == "hg-pd" else {})}
        cfgs[kind] = b.config(f"arm-{kind}", "arm.yaml",
                              {"sim": {"duration": 3.0}, "controller": ctl})
    model = b.path("model")
    b.cli(["train", "--config", base, "--out", model])
    gp_run = b.work / "run0" / "ct-gp"
    b.setup_args = [cfgs["ct-gp"], model]
    b.control_args = [cfgs["ct-gp"], gp_run, gp_run / "trajectory.csv"]
    b.control_passes_wanted = ARM_CONTROL_PASSES

    def one_run(k, traced):
        run = Run(b.path(f"run{k}"))
        for kind in ARM_KINDS:
            out = run.dir / kind
            if kind == "ct-gp":
                copy_gp(model, out)
            else:
                out.mkdir(parents=True)
                b.probe_slot()
            run.cmds.append(b.cli(["simulate", "--config", cfgs[kind], "--out", out,
                                   "--seed", b.seed], traced))
        b.probe_slot()
        run.cmds.append(b.cli(["evaluate", *(run.dir / k / "trajectory.csv" for k in ARM_KINDS),
                               "--out", run.dir / "rmse.csv", "--t-skip", _t_skip(base)],
                              traced))
        _arm_gate(b, run)
        return run

    runs = b.timed_runs(one_run)
    if b.trace:
        return {}
    m = _common(b, runs)
    m["run_steps_per_s"] = statistics.median(
        len(ARM_KINDS) * _steps(base) / sum(c.wall_s for c in r.cmds[:len(ARM_KINDS)])
        for r in runs)
    m["lml"] = read_lml(model / "train_log.txt")
    m["track_rmse"] = max(read_rmse(runs[0].dir / "rmse.csv")["ct-gp"])
    return m


def _arm_gate(b: Bench, run: Run) -> None:
    """Criterion 10: ct-gp < ct-sp < ct < lg-pd per joint, ct-gp <= 1.5 hg-pd."""
    op = run.cmds[-1].op
    report = run.dir / "rmse.csv"
    if not b.ops.check(report.exists(), op, "no arm rmse report"):
        return
    r = {k: np.array(v) for k, v in read_rmse(report).items()}
    ordered = bool(np.all(r["ct-gp"] < r["ct-sp"]) and np.all(r["ct-sp"] < r["ct"])
                   and np.all(r["ct"] < r["lg-pd"]))
    b.ops.check(ordered, op, f"arm ordering ct-gp < ct-sp < ct < lg-pd fails: {r}")
    b.ops.check(bool(np.all(r["ct-gp"] <= 1.5 * r["hg-pd"])), op,
                f"arm ct-gp above 1.5x hg-pd: {r}")


def wing_ensemble(b: Bench) -> dict:
    """100 Euler-Maruyama realizations of stochastic ct-gp on the wing (m = 990).

    The wing GP is trained once per invocation before the timed runs.
    """
    cfg = b.config("wing-ensemble", "wing.yaml", {
        "controller": {"mode": "stochastic"},
        "sim": {"integrator": "euler-maruyama", "realizations": 100, "duration": 3.2},
    })
    realizations = json.loads(cfg.read_text())["sim"]["realizations"]
    model = b.path("model")
    b.cli(["train", "--config", cfg, "--out", model])
    b.setup_args = [cfg, model]
    b.control_args = [cfg, model, b.work / "run0" / "trajectory.csv"]

    def one_run(k, traced):
        run = Run(b.path(f"run{k}"))
        copy_gp(model, run.dir)
        run.cmds.append(b.cli(["simulate", "--config", cfg, "--out", run.dir,
                               "--seed", b.seed], traced))
        b.probe_slot()
        run.cmds.append(b.cli(["evaluate", run.dir / "trajectory.csv", "--out",
                               run.dir / "rmse.csv", "--t-skip", _t_skip(cfg)], traced))
        b.probe_slot()
        _ensemble_gate(b, run, realizations)
        return run

    runs = b.timed_runs(one_run)
    if b.trace:
        return {}
    m = _common(b, runs)
    m["run_steps_per_s"] = statistics.median(
        _steps(cfg) * realizations / r.cmds[0].wall_s for r in runs)
    m["lml"] = read_lml(model / "train_log.txt")
    # run 0 alone varies ~18% (IQR/median) across seeds; the mean of 100 does not
    m["track_rmse"] = ensemble_mean_rmse(runs[0].dir / "trajectory.csv",
                                         runs[0].dir / "ensemble.csv", float(_t_skip(cfg)))
    return m


def _ensemble_gate(b: Bench, run: Run, realizations: int) -> None:
    """No divergent realization; run 0's error norm after 3 s below 0.5."""
    ops = b.ops.add(realizations)
    manifest = run.dir / "manifest.txt"
    divergent = (json.loads(manifest.read_text())["divergent_runs"]
                 if manifest.exists() else range(realizations))
    for i in divergent:
        b.ops.fail(ops[i], f"realization {i} diverged")
    trajectory = run.dir / "trajectory.csv"
    if b.ops.check(trajectory.exists(), run.cmds[0].op, "no ensemble trajectory"):
        worst = max_error_after(trajectory, 3.0)
        b.ops.check(worst < 0.5, run.cmds[0].op,
                    f"run-0 error norm {worst:.4f} >= 0.5 after 3 s")


def _common(b: Bench, runs: list[Run]) -> dict:
    b.detail["runs"] = len(runs)
    m = b.probe_metrics()
    m["wall_s"] = statistics.median(r.wall_s for r in runs)
    m["peak_rss_mb"] = max(c.rss_mb for r in runs for c in r.cmds)
    return m


WORKLOADS = {
    "wing-train": wing_train,
    "arm-track": arm_track,
    "wing-ensemble": wing_ensemble,
}


# ---------------------------------------------------------------------------
# machine facts


def machine_facts() -> dict:
    import scipy

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = None
    try:
        cpu = next((ln.split(":", 1)[1].strip() for ln in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit or None,
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "ctgp" / "cli.py", CONFIGS / "wing.yaml",
                           CONFIGS / "arm.yaml") if not p.is_file()]
    if missing:
        print(f"bench: not a ctgp checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    b = Bench(work, args.seed, args.seconds, bool(args.trace))
    try:
        try:
            metrics = WORKLOADS[args.workload](b)
        except (OSError, LookupError, ValueError) as err:
            # a command that failed left an artifact missing or malformed
            b.ops.fail(b.ops.add()[0], f"{type(err).__name__}: {err}")
            metrics = {}
        if b.trace:
            spans = [tracer.load_spans(p) for p in b.span_files if p.exists()]
            metrics, notes = tracer.layer_metrics(spans)
            b.detail.update(notes)
            metrics["failed_ops"] = b.ops.ratio
            metrics["trace.overhead_s"] = b.trace_overhead_s
        result = b.result(metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another invocation's directory is still there
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(), "counts": b.detail,
              "failures": b.ops.reasons}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
