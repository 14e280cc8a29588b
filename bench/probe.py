"""Child processes the benchmark times from outside or that time one call.

    python bench/probe.py setup CONFIG [GP_DIR]
        what every ctgp command pays before work: import the CLI, load the
        scenario and, when a GP directory is given and the scenario's
        controller uses a GP, rebuild the fitted GP from its artifacts.

    python bench/probe.py control CONFIG GP_DIR TRAJECTORY OUT_JSON
        latency of one `controller.output(state, ref, include_std=True)` at
        batch 1, at every third recorded state of a trajectory CSV; written
        to OUT_JSON as a list of nanosecond durations, one per state.
"""

import json
import sys
from time import perf_counter_ns

WARMUP_CALLS = 20
STATE_STRIDE = 3


def setup(config, gp_dir=None) -> int:
    from ctgp.config import load_scenario
    from ctgp.harness import load_gp

    scenario = load_scenario(config)
    if gp_dir is not None and scenario.needs_gp:
        load_gp(gp_dir)
    return 0


def control(config, gp_dir, trajectory, out_json) -> int:
    import numpy as np
    from ctgp.config import load_scenario
    from ctgp.dynamics import JointState
    from ctgp.harness import load_gp, read_result_csv

    scenario = load_scenario(config)
    controller = scenario.build_controller(load_gp(gp_dir))
    _, header, data = read_result_csv(trajectory)
    n = scenario.plant.n
    rows = data[::STATE_STRIDE]
    t = rows[:, header.index("t")]
    q = rows[:, [header.index(f"q_{j + 1}") for j in range(n)]]
    qd = rows[:, [header.index(f"qd_{j + 1}") for j in range(n)]]
    refs = [scenario.reference.sample(float(tk)) for tk in t]
    states = [JointState(np.array(q[k]), np.array(qd[k])) for k in range(t.size)]
    for k in range(min(WARMUP_CALLS, t.size)):
        controller.output(states[k], refs[k], include_std=True)
    durations = []
    for state, ref in zip(states, refs):
        t0 = perf_counter_ns()
        controller.output(state, ref, include_std=True)
        durations.append(perf_counter_ns() - t0)
    with open(out_json, "w") as fh:
        json.dump(durations, fh)
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"setup": setup, "control": control}[mode](*args))
