"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ---------------------------------------------------------------------------
# self time


def test_covered_merges_overlaps_and_clips_to_the_span():
    assert tracer.covered(0, 100, [(10, 30), (20, 40), (90, 120), (-5, 2)]) == 30 + 10 + 2
    assert tracer.covered(0, 100, []) == 0
    assert tracer.covered(0, 100, [(50, 50), (200, 300)]) == 0


def test_self_time_is_duration_minus_covered_child_intervals():
    # 0: [0, 100] root; 1, 2 its children (overlapping); 3 a child of 1
    start = [0, 10, 20, 12]
    end = [100, 30, 40, 18]
    parent = [-1, 0, 0, 1]
    assert tracer.self_times(start, end, parent).tolist() == [100 - 30, 20 - 6, 20, 6]


def test_tracer_records_nested_spans_with_parents_and_errors():
    rec = tracer.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = rec.wrap(inner, "inner", lambda a, k, out: (a[0], out + 1))

    def outer():
        inner_t(3)
        with pytest.raises(ValueError):
            inner_t(-1)
        return 0

    rec.wrap(outer, "outer")()
    names = [rec.names[i] for i in rec.name]
    assert names == ["outer", "inner", "inner"]
    assert rec.parent == [-1, 0, 0]
    assert (rec.a[1], rec.b[1]) == (3, 4)
    assert rec.err[1] == 0 and rec.names[rec.err[2] - 1] == "ValueError"
    selfs = tracer.self_times(rec.start, rec.end, rec.parent)
    children = (rec.end[1] - rec.start[1]) + (rec.end[2] - rec.start[2])
    assert selfs[0] == rec.end[0] - rec.start[0] - children


# ---------------------------------------------------------------------------
# tails


@pytest.mark.parametrize("n", [11, 25, 40, 100, 400, 1000, 5000])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n):
    values = np.random.default_rng(n).permutation(np.arange(n, dtype=float))
    pct, value = tracer.tail(values)
    assert np.sum(values > value) >= 10
    if pct < 99.0:
        higher = np.percentile(values, pct + 100.0 / n)
        assert np.sum(values > higher) < 10
    else:
        assert n >= 1000


def test_tail_without_enough_samples_is_the_median():
    assert tracer.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


# ---------------------------------------------------------------------------
# names and the benchmark definition


def test_names_are_valid_and_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])


def test_layer_metrics_cover_every_per_layer_name():
    metrics, _ = tracer.layer_metrics([])
    assert set(metrics) | {"failed_ops", "trace.overhead_s"} == set(run.PER_LAYER)


# ---------------------------------------------------------------------------
# failed operations


def test_an_operation_fails_at_most_once():
    ops = run.Ops()
    a, b, c = ops.add(3)
    ops.fail(b, "exit 2")
    ops.check(False, b, "gate")
    ops.check(True, c, "gate")
    assert (ops.attempted, len(ops.failed), ops.ratio) == (3, 1, 1 / 3)


def _bench(tmp_path):
    return run.Bench(tmp_path, seed=0, seconds=1.0, trace=False)


def test_nonzero_exit_counts_as_failed(tmp_path):
    b = _bench(tmp_path)
    ok = b.spawn([sys.executable, "-c", "pass"])
    bad = b.spawn([sys.executable, "-c", "raise SystemExit(3)"])
    assert (ok.code, bad.code) == (0, 3)
    assert b.ops.attempted == 2 and b.ops.failed == {bad.op}
    assert ok.wall_s > 0 and ok.rss_mb > 0


def _trajectory(path, err_after_3s):
    t = np.arange(0.0, 3.2001, 0.1)
    e = np.where(t > 3.0, err_after_3s, 0.01)
    lines = ["# manifest: controller=ct-gp", "t,q_1,e_1"]
    lines += [f"{float(ti)!r},0.0,{float(ei)!r}" for ti, ei in zip(t, e)]
    path.write_text("\n".join(lines) + "\n")


def test_ensemble_gate_counts_divergent_realizations_and_the_error_ball(tmp_path):
    b = _bench(tmp_path)
    run_ = run.Run(tmp_path, [run.Cmd(b.ops.add()[0], 0, 1.0, 1.0)])
    (tmp_path / "manifest.txt").write_text(json.dumps({"divergent_runs": [4, 7]}))
    _trajectory(tmp_path / "trajectory.csv", 0.6)
    run._ensemble_gate(b, run_, realizations=10)
    assert b.ops.attempted == 11
    assert len(b.ops.failed) == 3

    b = _bench(tmp_path)
    run_ = run.Run(tmp_path, [run.Cmd(b.ops.add()[0], 0, 1.0, 1.0)])
    (tmp_path / "manifest.txt").write_text(json.dumps({"divergent_runs": []}))
    _trajectory(tmp_path / "trajectory.csv", 0.4)
    run._ensemble_gate(b, run_, realizations=10)
    assert (b.ops.attempted, len(b.ops.failed)) == (11, 0)


def test_arm_gate_checks_the_controller_ordering(tmp_path):
    rows = {"hg-pd": "0.01,0.2", "lg-pd": "0.5,0.5", "ct": "0.4,0.4",
            "ct-sp": "0.3,0.3", "ct-gp": "0.012,0.2"}
    for broken, expected in ((False, 0), (True, 1)):
        if broken:
            rows["ct-sp"] = "0.3,0.1"  # ct-gp above ct-sp on joint 2
        (tmp_path / "rmse.csv").write_text(
            "# manifest: t_skip=1.0\ncontroller,rmse_1,rmse_2\n"
            + "".join(f"{k},{v}\n" for k, v in rows.items()))
        b = _bench(tmp_path)
        run._arm_gate(b, run.Run(tmp_path, [run.Cmd(b.ops.add()[0], 0, 1.0, 1.0)]))
        assert len(b.ops.failed) == expected


# ---------------------------------------------------------------------------
# the traced command


TINY = {
    "name": "wing-tiny",
    "plant": {"kind": "wing"},
    "estimate": {"kind": "pendulum"},
    "controller": {"kind": "ct-gp", "kp": [5.0], "kd": [5.0]},
    "reference": {"amplitude": [0.3], "frequency": [1.0], "phase": [0.0],
                  "frequency_unit": "rad_per_s"},
    "training": {"mode": "open-loop", "seed": 1, "torque_range": [-8.0, 8.0],
                 "torque_count": 5, "position_range": [-3.1, 3.1],
                 "position_count": 4, "hold_duration": 0.1, "dt": 1e-3,
                 "hyperopt": {"budget": 3, "restarts": 2}},
    "sim": {"dt": 1e-3, "duration": 0.05, "integrator": "rk4",
            "realizations": 1, "base_seed": 0},
    "evaluate": {"t_skip": 0.0},
}


def test_traced_command_matches_untraced_and_counts_every_call_site(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    b = _bench(tmp_path)
    outs = []
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}"
        for cmd in (["train", "--config", cfg, "--out", out],
                    ["simulate", "--config", cfg, "--out", out]):
            assert b.cli(cmd, traced).code == 0
        outs.append(out)
    assert run.same_tree(*outs)
    spans = [tracer.load_spans(p) for p in b.span_files]
    m, _ = tracer.layer_metrics(spans)
    # the search reaches the LML through gp's module global, train_log
    # through harness's imported name: both are counted
    train = spans[0]
    names = train["names"].tolist()
    lml_parents = {names[train["name"][p]] for p, n in zip(train["parent"], train["name"])
                   if names[n] == "gp.lml" and p >= 0}
    assert lml_parents == {"gp.hyperopt", "cli.main"}
    assert m["training.points"] == 20 and m["gp.fit_ms"] > 0
    assert m["sim.step_self_us"] > 0 and m["gp.predict_batch"] == 1
    assert m["control.output_calls"] == 4 * 50 + 1
    assert m["harness.csv_bytes_written"] > 0 and m["harness.csv_bytes_read"] > 0


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in ("run.py", "tracer.py"):
        (bench / f).write_bytes((HERE / f).read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wing-train",
                           "--seed", "0", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
