"""Span recording around ctgp's public functions, and the statistics over spans.

`Tracer` wraps functions and methods so that every call records a span:
name, start and end (perf_counter_ns), the span that was open when the call
began (its parent), two integers measured from the call (a batch size, a
step count, a file size, ...) and the exception type if the call raised.
Spans stay in memory and are written to one `.npz` file when the traced
command ends.  Nothing inside `src/` is changed: the wrappers replace module
globals and class attributes in the running process only.

The pure functions at the bottom (`covered`, `self_times`, `tail`,
`layer_metrics`) turn span files into the per-layer metrics; the benchmark's
tests exercise them directly.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self.err: list[int] = []  # 0, or 1 + name id of the exception type
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: int, end: int) -> None:
        """Add a finished span measured by the caller under the open span."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1])
        self.a.append(0)
        self.b.append(0)
        self.err.append(0)

    def wrap(self, fn, name: str, measure=None):
        """Return `fn` recording one span per call.

        `measure(args, kwargs, result)` returns the span's two integers; it
        runs after a successful call and is not timed.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(0)
            self.end.append(0)
            self.a.append(0)
            self.b.append(0)
            self.err.append(0)
            self._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as error:
                self.err[idx] = 1 + self.name_id(type(error).__name__)
                raise
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if measure is not None:
                try:
                    self.a[idx], self.b[idx] = measure(args, kwargs, out)
                except Exception:  # the traced program must run as untraced
                    self.a[idx] = self.b[idx] = -1
            return out

        return traced

    def install(self, module, attr: str, name: str, measure=None) -> None:
        """Wrap `module.attr` (a function, or `Class.method`) everywhere.

        A function is replaced in every loaded `ctgp` module that holds it
        under any name, so that call sites which imported it by name, and
        callers that reach it through the defining module's globals, all go
        through the wrapper.  A method is replaced on the class that defines
        it; subclasses that inherit it are covered by attribute lookup.
        """
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(owner, meth, classmethod(self.wrap(raw.__func__, name, measure)))
            else:
                setattr(owner, meth, self.wrap(raw, name, measure))
            return
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ctgp" or mod_name.startswith("ctgp.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            a=np.array(self.a, dtype=np.int64),
            b=np.array(self.b, dtype=np.int64),
            err=np.array(self.err, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# measure hooks: (args, kwargs, result) -> (a, b)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _file_size(pos, key):
    def measure(args, kwargs, out):
        return os.path.getsize(_arg(args, kwargs, pos, key)), 0
    return measure


def _batch(args, kwargs, out):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    return (1 if x.ndim == 1 else x.shape[0]), 0


def _sim_steps(args, kwargs, out):
    steps = _arg(args, kwargs, 3, "config").steps
    return steps, int(out.diverged)


def _ensemble_steps(args, kwargs, out):
    steps = _arg(args, kwargs, 3, "config").steps
    return steps, len(out[0].divergent_runs)


def _generated(args, kwargs, out):
    report = out[1]
    return report.total, report.dropped


def install_ctgp(tracer: Tracer) -> None:
    """Wrap the public functions of every ctgp layer the benchmark reports."""
    from ctgp import config, control, dynamics, gp, harness, sim, training

    tracer.install(config, "load_scenario", "config.load")
    tracer.install(gp, "log_marginal_likelihood", "gp.lml")
    tracer.install(gp, "optimize_hyperparameters", "gp.hyperopt")
    tracer.install(gp, "fit", "gp.fit")
    for meth in ("predict", "predict_mean", "predict_var"):
        tracer.install(gp, f"MultiGP.{meth}", "gp.predict", _batch)
    for cls in ("PDController", "ComputedTorqueController", "CTGPController"):
        tracer.install(control, f"{cls}.output", "control.output")
    tracer.install(dynamics, "ManipulatorModel.forward_dynamics", "dynamics.forward")
    for cls in ("WingModel", "PendulumEstimate", "TwoLinkArm"):
        tracer.install(dynamics, f"{cls}.mass_matrix", "dynamics.mass_matrix")
    tracer.install(sim, "simulate", "sim.simulate", _sim_steps)
    tracer.install(sim, "run_ensemble", "sim.run_ensemble", _ensemble_steps)
    tracer.install(training, "generate_open_loop", "training.generate", _generated)
    tracer.install(training, "generate_closed_loop", "training.generate", _generated)
    tracer.install(gp, "TrainingSet.save_csv", "harness.csv_write", _file_size(1, "path"))
    tracer.install(gp, "save_hyperparameters", "harness.csv_write", _file_size(0, "path"))
    tracer.install(sim, "SimResult.to_csv", "harness.csv_write", _file_size(1, "path"))
    tracer.install(sim, "EnsembleStats.to_csv", "harness.csv_write", _file_size(1, "path"))
    tracer.install(gp, "TrainingSet.load_csv", "harness.csv_read", _file_size(1, "path"))
    tracer.install(gp, "load_hyperparameters", "harness.csv_read", _file_size(0, "path"))
    tracer.install(harness, "read_result_csv", "harness.csv_read", _file_size(0, "path"))


# ---------------------------------------------------------------------------
# statistics over spans


def covered(start: int, end: int, intervals) -> int:
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its direct children cover."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    out = end - start
    children: dict[int, list[tuple[int, int]]] = {}
    for i, p in enumerate(np.asarray(parent).tolist()):
        if p >= 0:
            children.setdefault(p, []).append((int(start[i]), int(end[i])))
    for p, ivs in children.items():
        out[p] -= covered(int(start[p]), int(end[p]), ivs)
    return out


def tail_percentile(n: int) -> float:
    """Highest percentile (at most 99) with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies, and the median is
    reported instead.
    """
    if n <= 10:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the reported tail of `values`."""
    pct = tail_percentile(len(values))
    return pct, float(np.percentile(np.asarray(values, dtype=float), pct))


def load_spans(path) -> dict:
    with np.load(path) as data:
        spans = {k: data[k] for k in data.files}
    spans["self"] = self_times(spans["start"], spans["end"], spans["parent"])
    return spans


def _select(spans_list, name):
    """Concatenated per-span fields of every span called `name`."""
    fields = ("start", "end", "self", "a", "b")
    parts = {k: [] for k in fields}
    errors = []
    for spans in spans_list:
        names = spans["names"].tolist()
        if name not in names:
            continue
        mask = spans["name"] == names.index(name)
        for k in fields:
            parts[k].append(spans[k][mask])
        errs = spans["err"][mask]
        errors.extend(names[e - 1] if e else "" for e in errs.tolist())
    sel = {k: (np.concatenate(v) if v else np.zeros(0, dtype=np.int64))
           for k, v in parts.items()}
    sel["dur"] = sel["end"] - sel["start"]
    sel["err"] = errors
    return sel


def _median(values, scale) -> float:
    return float(np.median(values)) * scale if len(values) else 0.0


def _tail_value(values, scale) -> float:
    return tail(values)[1] * scale if len(values) else 0.0


def layer_metrics(spans_list) -> tuple[dict, dict]:
    """Per-layer metrics over the spans of every traced command.

    Returns (metrics, notes): metric name -> value in the unit its name
    states, and metric name -> sample count and percentile for the tails.
    """
    ns_s, ns_ms, ns_us = 1e-9, 1e-6, 1e-3
    m: dict[str, float] = {}
    notes: dict[str, dict] = {}

    imp = _select(spans_list, "cli.import")
    m["cli.import_s"] = _median(imp["dur"], ns_s)
    load = _select(spans_list, "config.load")
    m["config.load_s"] = _median(load["dur"], ns_s)

    lml = _select(spans_list, "gp.lml")
    calls = len(lml["dur"])
    rejects = sum(1 for e in lml["err"] if e == "CholeskyError")
    m["gp.lml_calls"] = calls
    m["gp.lml_ms_p50"] = _median(lml["dur"], ns_ms)
    m["gp.lml_ms_p99"] = _tail_value(lml["dur"], ns_ms)
    m["gp.lml_self_s"] = float(np.sum(lml["self"])) * ns_s
    m["gp.cholesky_rejects"] = rejects
    m["gp.lml_reject_ratio"] = rejects / calls if calls else 0.0
    m["gp.hyperopt_s"] = float(np.sum(_select(spans_list, "gp.hyperopt")["dur"])) * ns_s
    m["gp.fit_ms"] = _median(_select(spans_list, "gp.fit")["dur"], ns_ms)

    pred = _select(spans_list, "gp.predict")
    m["gp.predict_calls"] = len(pred["dur"])
    m["gp.predict_batch"] = _median(pred["a"], 1.0)
    m["gp.predict_us_p50"] = _median(pred["dur"], ns_us)
    m["gp.predict_us_p99"] = _tail_value(pred["dur"], ns_us)

    ctl = _select(spans_list, "control.output")
    m["control.output_calls"] = len(ctl["dur"])
    m["control.output_self_us_p50"] = _median(ctl["self"], ns_us)

    fwd = _select(spans_list, "dynamics.forward")
    m["dynamics.forward_calls"] = len(fwd["dur"])
    m["dynamics.forward_us_p50"] = _median(fwd["dur"], ns_us)
    m["dynamics.mass_matrix_calls"] = len(_select(spans_list, "dynamics.mass_matrix")["dur"])

    simulate = _select(spans_list, "sim.simulate")
    ensemble = _select(spans_list, "sim.run_ensemble")
    steps = int(np.sum(simulate["a"]) + np.sum(ensemble["a"]))
    sim_self = float(np.sum(simulate["self"]) + np.sum(ensemble["self"]))
    m["sim.step_self_us"] = sim_self * ns_us / steps if steps else 0.0
    m["sim.divergent_runs"] = int(np.sum(simulate["b"]) + np.sum(ensemble["b"]))

    gen = _select(spans_list, "training.generate")
    total = int(np.sum(gen["a"]))
    dropped = int(np.sum(gen["b"]))
    m["training.generate_s"] = float(np.sum(gen["dur"])) * ns_s
    m["training.points"] = total - dropped
    m["training.dropped_ratio"] = dropped / total if total else 0.0

    for kind, label in (("write", "written"), ("read", "read")):
        io = _select(spans_list, f"harness.csv_{kind}")
        m[f"harness.csv_{kind}_s"] = float(np.sum(io["dur"])) * ns_s
        m[f"harness.csv_bytes_{label}"] = int(np.sum(io["a"]))

    for key, sel in (("gp.lml_ms_p99", lml), ("gp.predict_us_p99", pred)):
        notes[key] = {"samples": len(sel["dur"]), "percentile": tail_percentile(len(sel["dur"]))}
    notes["sim.step_self_us"] = {"steps": steps}
    return m, notes
