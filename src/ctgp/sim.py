"""Closed-loop simulation: sinusoidal references, fixed-step integrators,
seeded stochastic ensembles and a Lyapunov-function trace.

One step loop, `_integrate`, serves three callers over a state with a
leading batch shape: () for `simulate`, (runs,) for a share of a stochastic
`run_ensemble` and (cells,) for the open-loop training grid, which drives it
with a constant-torque policy and records nothing.  A single run stays unbatched
because the model functions do not give the same bits at every batch shape
(TwoLinkArm.spring_torque's stretch**3 is a C pow for one state and numpy's
array power for a batch), and a single run must reproduce its own past
trajectories exactly.

Deterministic runs use classic fixed-step RK4 with the controller evaluated
at every stage.  Stochastic runs use Euler-Maruyama: the controller output
is held over the step, the drift torque drives the rigid-body dynamics, and
the diagonal diffusion (GP posterior std) enters the velocity update through
H(q)^-1 scaled by sqrt(dt).  A controller that reports no diffusion at all
makes the Euler-Maruyama update an exact explicit-Euler step (no noise term
is added, no random numbers are drawn).

The step path does each floating-point operation of the plain RK4
expression, on the same operands and in the same order, and spends nothing
else per stage:
- Validation happens once, at the run boundary: `_integrate` checks the
  start state with `JointState`, and the stages hand the controller
  unchecked `JointState`s.  The public `JointState(q, qd)` keeps its checks.
- The reference is sampled into arrays, REFERENCE_BLOCK steps at a time,
  at t_k, at t_k + dt/2 (stages 2 and 3) and at t_k + dt (stage 4); a
  vectorized sample gives the bits of the per-time one.  Stage 4 uses
  t_k + dt, not t_(k+1) = (k+1) dt: the two are different floats in 31% of
  the steps of a 12 s run at dt = 1 ms.
- The model functions form H v, C v and the spring torque in closed form
  (see `dynamics`).  The 2x2 mass matrix is still solved by LAPACK: the
  only closed form that matched OpenBLAS's bits needs fused multiply-adds.
  The 1x1 solve is a division, which gives LAPACK's bits.

A run diverges when a state component turns non-finite or leaves
[-divergence_threshold, divergence_threshold] at the end of a step, or when
an RK4 stage state turns non-finite inside it: either way the run diverged
at that step.  It freezes at its last state, keeps its rows up to that
state, and the loop stops once no run is active.

A deterministic law uses the GP only through its posterior mean, so a
deterministic run of a controller with a `posterior_std` method (CT-GP)
evaluates no variance inside the step loop.  It keeps the reference rows of
each recorded step and, after the loop, computes the recorded gp_std column
from them in one batched pass per run, in chunks of bounded size.
Stochastic runs need the std at every step as their diffusion and keep
computing it there.

A run records (steps + 1) x realizations rows; a SimConfig asking for more
than MAX_RECORD_ROWS is rejected before anything is allocated.

A law that is not stochastic draws no noise, so the realizations of its
ensemble, all from rest, are one trajectory: `run_ensemble` integrates it
once with `simulate`, gives it to every realization, reports std 0 exactly
and forks nothing.  A stochastic ensemble gives each realization its own
generator, seeded base_seed + i.  A run draws its Euler-Maruyama noise
REFERENCE_BLOCK steps at a time, which is the sequence of one draw per step;
a frozen run's unused draws are never read.  So results do not depend on
scheduling, and rerunning a single realization reproduces its ensemble
member.  In one process an ensemble is one lockstep batch.  When BLAS runs
one thread per process and the host has cores to spare (`parallel`), it is
cut into contiguous shares at multiples of ENSEMBLE_ALIGN runs, one lockstep
batch per process.  A one-thread BLAS call computes each run in a tile of
columns, and a cut on a tile edge leaves every run in a tile of the same
width at the same offset, so the shares give every run the bits of the whole
batch.  Every run records into one shared mapping, and the outcomes are
merged in share order, so every result is the same at any process count.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field, replace

import numpy as np

from . import parallel
from .control import ReferenceSample
from .csvio import write_table
from .dynamics import JointState, ManipulatorModel


class DivergenceError(Exception):
    """Raised when every requested realization diverged.

    `results` holds the runs' partial traces when the raiser has them.
    """

    def __init__(self, message: str, results: list | None = None):
        super().__init__(message)
        self.results = results


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Per-joint sinusoid q_d,i(t) = A_i sin(w_i t + phi_i).

    frequency_unit selects how `frequency` is read: cycles per second
    ("hz", w = 2 pi f) or angular rate ("rad_per_s", w = f).
    """

    amplitude: np.ndarray
    frequency: np.ndarray
    phase: np.ndarray | None = None  # None: zero on every joint
    frequency_unit: str = "hz"

    def __post_init__(self):
        if self.phase is None:
            object.__setattr__(self, "phase", np.zeros(np.shape(self.amplitude)))
        for name in ("amplitude", "frequency", "phase"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 1-d array")
            object.__setattr__(self, name, arr)
        if not (self.amplitude.shape == self.frequency.shape == self.phase.shape):
            raise ValueError("amplitude, frequency, phase must share shape")
        if self.frequency_unit not in ("hz", "rad_per_s"):
            raise ValueError(f"unknown frequency_unit {self.frequency_unit!r}")

    @property
    def n(self) -> int:
        return self.amplitude.shape[0]

    @property
    def omega(self) -> np.ndarray:
        if self.frequency_unit == "hz":
            return 2.0 * math.pi * self.frequency
        return self.frequency

    def sample(self, t) -> ReferenceSample:
        """q_d, qd_d, qdd_d at time t: (n,) each for a scalar t, (*t.shape, n)
        for an array of times, each row with the bits of its scalar call."""
        w = self.omega
        arg = w * np.asarray(t, dtype=float)[..., None] + self.phase
        s, c = np.sin(arg), np.cos(arg)
        return ReferenceSample(
            q=self.amplitude * s,
            qd=self.amplitude * w * c,
            qdd=-self.amplitude * w**2 * s,
        )

    def bounds(self) -> tuple[float, float, float]:
        """(c_q, c_qd, c_qdd): Euclidean norms of the per-joint envelopes."""
        w = self.omega
        return (
            float(np.linalg.norm(self.amplitude)),
            float(np.linalg.norm(self.amplitude * w)),
            float(np.linalg.norm(self.amplitude * w**2)),
        )


# Steps of reference samples the loop holds at a time: the samples are taken
# in blocks, so their memory does not grow with the run.
REFERENCE_BLOCK = 256

# Ensemble shares are cut at multiples of this many runs.  The GP's dtrmm,
# the bulk of a stochastic step, runs in scipy's OpenBLAS (0.3.30 in the
# scipy 1.17.1 wheel, not numpy's 0.3.31) and tiles the batch in 12-column
# panels on an AVX-512 Xeon; a cut off a panel edge moves the bits of the
# runs beside it, and a cut on one moves none.  48 leaves room for kernels
# tiled at 16 or 24 columns.
ENSEMBLE_ALIGN = 48

# Upper bound on the rows a run records, (steps + 1) x realizations.  Each
# row holds 7 n-vectors (q, qd, e, ed, tau, gp_mean, gp_std), so at n = 2 the
# record arrays of 10^7 rows take ~1.1 GB.
MAX_RECORD_ROWS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    duration: float = 10.0
    integrator: str = "rk4"  # "rk4" | "euler-maruyama"
    realizations: int = 1
    base_seed: int = 0
    lyapunov_epsilon: float = 0.1
    lyapunov_trace: bool = False
    divergence_threshold: float = 1e6

    def __post_init__(self):
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.duration):
            raise ValueError(f"duration must be finite, got {self.duration}")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")
        if self.integrator not in ("rk4", "euler-maruyama"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if not math.isfinite(self.divergence_threshold):
            raise ValueError("divergence_threshold must be finite")
        # the float ratio first: duration / dt can exceed what steps can round
        if (self.duration / self.dt >= MAX_RECORD_ROWS
                or (self.steps + 1) * self.realizations > MAX_RECORD_ROWS):
            raise ValueError(
                f"dt {self.dt}, duration {self.duration} and realizations "
                f"{self.realizations} ask for (duration / dt + 1) x realizations "
                f"= {(self.duration / self.dt + 1) * self.realizations:.4g} "
                f"recorded rows, above the limit of {MAX_RECORD_ROWS}; raise "
                f"sim.dt or lower sim.duration or sim.realizations"
            )

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.dt))


def rmse_after(t: np.ndarray, e: np.ndarray, t_skip: float) -> np.ndarray:
    """Per-joint root-mean-square of the errors e (steps, n) over t >= t_skip."""
    mask = t >= t_skip - 1e-12
    if not np.any(mask):
        raise ValueError(f"t_skip {t_skip} leaves no samples")
    return np.sqrt(np.mean(e[mask] ** 2, axis=0))


# the per-step arrays of a run, in the column order of its CSV
_RECORDED = ("q", "qd", "e", "ed", "tau", "gp_mean", "gp_std")


@dataclass
class SimResult:
    """Recorded trajectory on the uniform grid t_k = k dt.

    tau holds the drift (commanded) torque; in stochastic mode the diffusion
    is not a recorded torque.  Divergent runs carry the partial trace up to
    the last finite state and diverged=True.
    """

    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    e: np.ndarray
    ed: np.ndarray
    tau: np.ndarray
    gp_mean: np.ndarray
    gp_std: np.ndarray
    seed: int
    diverged: bool = False
    v: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.q.shape[1]

    def error_norms(self) -> np.ndarray:
        """||(e, ed)|| per step."""
        return np.sqrt(np.sum(self.e**2, axis=1) + np.sum(self.ed**2, axis=1))

    def rmse(self, t_skip: float = 0.0) -> np.ndarray:
        """Per-joint root-mean-square of e over t >= t_skip."""
        return rmse_after(self.t, self.e, t_skip)

    def to_csv(self, path, manifest: tuple[str, ...] = ()):
        cols = ["t"] + [f"{key}_{j + 1}" for key in _RECORDED for j in range(self.n)]
        arrays = [self.t[:, None]] + [getattr(self, key) for key in _RECORDED]
        if self.v is not None:
            cols.append("v")
            arrays.append(self.v[:, None])
        write_table(path, manifest, cols, np.concatenate(arrays, axis=1))


@dataclass
class EnsembleStats:
    """Per-step mean/std over the completed distinct realizations."""

    t: np.ndarray
    mean_q: np.ndarray
    std_q: np.ndarray
    mean_qd: np.ndarray
    std_qd: np.ndarray
    divergent_runs: list[int] = field(default_factory=list)
    realizations: int = 1

    def to_csv(self, path, manifest: tuple[str, ...] = ()):
        keys = ("mean_q", "std_q", "mean_qd", "std_qd")
        cols = ["t"] + [f"{key}_{j + 1}" for key in keys for j in range(self.mean_q.shape[1])]
        arrays = [self.t[:, None]] + [getattr(self, key) for key in keys]
        write_table(path, manifest, cols, np.concatenate(arrays, axis=1))


def _records(shape: tuple[int, ...]) -> dict[str, np.ndarray]:
    """Zero-filled record arrays of `shape`, one per key of _RECORDED, in one
    anonymous shared mapping, which forked workers write into in place."""
    full = (len(_RECORDED),) + shape
    mapping = mmap.mmap(-1, math.prod(full) * 8)  # MAP_SHARED, zero-filled
    return dict(zip(_RECORDED, np.frombuffer(mapping, dtype=float).reshape(full)))


def _runs(records: dict[str, np.ndarray], end, seeds: list[int],
          config: SimConfig) -> list[SimResult]:
    """One SimResult per run of `records` ((*batch, steps + 1, n) arrays),
    seeds in batch order, each keeping its first end[run] rows."""
    end = np.asarray(end)
    t = np.arange(config.steps + 1) * config.dt
    results = []
    for seed, idx in zip(seeds, np.ndindex(end.shape)):
        rows = slice(0, int(end[idx]))
        run = {key: rec[idx][rows] for key, rec in records.items()}
        results.append(SimResult(t=t[rows], **run, seed=seed,
                                 diverged=bool(end[idx] <= config.steps)))
    return results


def _integrate(model: ManipulatorModel, controller, ref: ReferenceTrajectory | None,
               config: SimConfig, q: np.ndarray, qd: np.ndarray,
               seeds: list[int] | None, records: dict[str, np.ndarray] | None = None):
    """The step loop of simulate, run_ensemble and the open-loop grid.

    q and qd are (*batch, n) start states, with batch () for one run,
    (runs,) for an ensemble share and (cells,) for the grid; seeds holds one
    seed per run in batch order.  With seeds=None nothing is recorded and
    ref may be None (a policy that reads no reference).  The runs record
    into `records` (zero-filled (*batch, steps + 1, n) arrays, one per key
    of _RECORDED), allocated here when None.  Returns the final states, the
    mask of runs that never diverged and one SimResult per run (None
    without seeds).
    """
    mode = getattr(controller, "mode", "deterministic")
    if mode == "stochastic" and config.integrator != "euler-maruyama":
        raise ValueError("stochastic controllers require the euler-maruyama integrator")
    if ref is not None and ref.n != model.n:
        raise ValueError(f"reference dimension {ref.n} != model dimension {model.n}")
    JointState(q, qd)  # the run boundary: shapes agree, every value is finite
    batch, n = q.shape[:-1], q.shape[-1]
    steps, dt, threshold = config.steps, config.dt, config.divergence_threshold
    rk4 = config.integrator == "rk4"
    record = seeds is not None
    noisy = mode == "stochastic"  # a stochastic law reports a diffusion at every step
    defer_std = record and not noisy and hasattr(controller, "posterior_std")
    rngs = [np.random.default_rng(s) for s in seeds or ()]

    t_arr = np.arange(steps + 1) * dt
    active = np.ones(batch, dtype=bool)
    end = np.full(batch, steps + 1)  # rows each run keeps
    if record:
        rec = _records(batch + (steps + 1, n)) if records is None else records
    if defer_std:
        ref_qd = np.empty((steps + 1, n))
        ref_qdd = np.empty((steps + 1, n))

    # a state that overflows is reported as divergence below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            j = k % REFERENCE_BLOCK
            if ref is not None and j == 0:
                t_block = t_arr[k:k + REFERENCE_BLOCK]
                grid = ref.sample(t_block)
                if rk4:
                    mid = ref.sample(t_block + 0.5 * dt)  # stages 2 and 3
                    last = ref.sample(t_block + dt)       # stage 4: t_k + dt, not t_(k+1)
                if defer_std:
                    ref_qd[k:k + REFERENCE_BLOCK] = grid.qd
                    ref_qdd[k:k + REFERENCE_BLOCK] = grid.qdd
            if noisy and j == 0:
                # each run's draws for the block's steps, from its own
                # generator: the sequence of one standard_normal(n) per step
                draws = min(REFERENCE_BLOCK, steps - k)
                noise = np.stack([rng.standard_normal((draws, n)) for rng in rngs])
                noise = noise.reshape(batch + (draws, n))
            ref_k = None if ref is None else ReferenceSample(grid.q[j], grid.qd[j], grid.qdd[j])
            out = controller.output(JointState._unchecked(q, qd), ref_k,
                                    include_std=not defer_std)
            if record:
                row = (..., k, slice(None))
                rec["q"][row] = q
                rec["qd"][row] = qd
                rec["e"][row] = q - ref_k.q
                rec["ed"][row] = qd - ref_k.qd
                rec["tau"][row] = out.drift
                gp_mean, gp_std = out.traces()
                if gp_mean is not None:
                    rec["gp_mean"][row] = gp_mean
                if gp_std is not None and not defer_std:
                    rec["gp_std"][row] = gp_std
            if k == steps:
                break
            if rk4:
                stage_refs = None if ref is None else (
                    ReferenceSample(mid.q[j], mid.qd[j], mid.qdd[j]),
                    ReferenceSample(last.q[j], last.qd[j], last.qdd[j]))
                q_new, qd_new, ok = _rk4_step(model, controller, q, qd, dt, out, stage_refs)
            else:
                # Euler-Maruyama, the controller output held over the step;
                # diffusion=None adds no noise term (exact explicit Euler)
                q_new = q + dt * qd
                qd_new = qd + dt * model.forward_dynamics(q, qd, out.drift)
                if out.diffusion is not None:
                    drive = np.einsum("...ij,...j->...i", out.diffusion, noise[..., j, :])
                    qd_new = qd_new + math.sqrt(dt) * model.solve_mass(q, drive)
                ok = True
            # a NaN or infinite component fails the comparison too
            ok = np.asarray(ok & _within(q_new, threshold) & _within(qd_new, threshold))
            if not (ok.all() and active.all()):
                end[active & ~ok] = k + 1
                active &= ok
                if not active.any():
                    break
                # frozen runs keep their last finite state
                q_new = np.where(active[..., None], q_new, q)
                qd_new = np.where(active[..., None], qd_new, qd)
            q, qd = q_new, qd_new

    if not record:
        return q, qd, active, None
    if defer_std:
        for idx in np.ndindex(batch):
            rows = slice(0, int(end[idx]))
            rec["gp_std"][idx][rows] = controller.posterior_std(
                rec["q"][idx][rows], ref_qd[rows], ref_qdd[rows])
    return q, qd, active, _runs(rec, end, seeds, config)


def _within(x: np.ndarray, bound: float):
    """Per run, every component of x lies in [-bound, bound]; NaN fails.

    A bool for one run, a mask over the batch otherwise.
    """
    if x.ndim == 1:
        return all(abs(v) <= bound for v in x.tolist())
    return np.all(np.abs(x) <= bound, axis=-1)


def _finite(x: np.ndarray):
    """Per run, every component of x is finite (a bool for one run)."""
    if x.ndim == 1:
        return all(map(math.isfinite, x.tolist()))
    return np.all(np.isfinite(x), axis=-1)


def _rk4_step(model, controller, q, qd, dt, out1, stage_refs):
    """One RK4 step; the controller is re-evaluated at every stage.

    stage_refs holds the reference at t + dt/2 (stages 2 and 3) and at
    t + dt (stage 4), or is None.  Returns the new state and whether each
    run's stage states stayed finite.  A run whose stage state turns
    non-finite has diverged at this step: one run stops there and returns
    its start state; in a batch the stage is evaluated at the run's start
    state instead, so the others go on, and the caller freezes the run.
    """
    ref_mid, ref_last = stage_refs or (None, None)
    ok = True
    ks = [(qd, model.forward_dynamics(q, qd, out1.drift))]
    for scale, ref_s in ((0.5 * dt, ref_mid), (0.5 * dt, ref_mid), (dt, ref_last)):
        kq, kv = ks[-1]
        qs = q + scale * kq
        qds = qd + scale * kv
        finite = _finite(qs) & _finite(qds)
        if q.ndim == 1:
            if not finite:
                return q, qd, False
        elif not finite.all():
            ok = ok & finite
            qs = np.where(finite[..., None], qs, q)
            qds = np.where(finite[..., None], qds, qd)
        out = controller.output(JointState._unchecked(qs, qds), ref_s, include_std=False)
        ks.append((qds, model.forward_dynamics(qs, qds, out.drift)))
    (k1q, k1v), (k2q, k2v), (k3q, k3v), (k4q, k4v) = ks
    q_new = q + (dt / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
    qd_new = qd + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return q_new, qd_new, ok


def simulate(model: ManipulatorModel, controller, ref: ReferenceTrajectory,
             config: SimConfig, seed: int | None = None,
             q0: np.ndarray | None = None, qd0: np.ndarray | None = None) -> SimResult:
    """Integrate one closed-loop run on the fixed grid.

    The run stops with diverged=True (partial trace kept) when any state
    component leaves [-threshold, threshold] or turns non-finite.
    """
    n = model.n
    q = np.zeros(n) if q0 is None else np.array(q0, dtype=float)
    qd = np.zeros(n) if qd0 is None else np.array(qd0, dtype=float)
    run_seed = config.base_seed if seed is None else seed
    *_, (result,) = _integrate(model, controller, ref, config, q, qd, [run_seed])
    if config.lyapunov_trace:
        result.v = lyapunov_trace(result, model, controller.gains,
                                  config.lyapunov_epsilon).v
    return result


def _shares(runs: int, processes: int) -> list[range]:
    """min(processes, ceil(runs / ENSEMBLE_ALIGN)) contiguous ranges covering
    range(runs) in order, cut at multiples of ENSEMBLE_ALIGN, each holding
    the floor or the ceiling of an even split of the ENSEMBLE_ALIGN-run
    pieces (the last piece may be partial)."""
    pieces = -(-runs // ENSEMBLE_ALIGN)
    count = min(processes, pieces)
    edges = [ENSEMBLE_ALIGN * (pieces * p // count) for p in range(count)] + [runs]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def run_ensemble(model: ManipulatorModel, controller, ref: ReferenceTrajectory,
                 config: SimConfig) -> tuple[EnsembleStats, list[SimResult]]:
    """Integrate `realizations` runs from rest, seeds base_seed + i.

    A law that is not stochastic draws no noise, so its runs are one
    trajectory: `simulate` integrates it once, and every realization is that
    run under its own seed, sharing its arrays.  The statistics are taken
    over the one distinct run, so std is exactly 0 and mean_q is its q, and
    nothing is forked.

    A stochastic run draws from its own generator in step order, so it
    reproduces `simulate` with the same seed to floating round-off (BLAS
    batching), and divergence freezes a run without disturbing the others'
    streams.  The stochastic runs are cut into `_shares`, one per process,
    P = parallel.process_count(ceil(realizations / ENSEMBLE_ALIGN)) with one
    BLAS thread per process and P = 1 otherwise, and each share is one
    lockstep batch of `_integrate`, run by `parallel.run_in_order`: at
    P = 1 the whole ensemble is one batch in this process.  The cuts lie on
    BLAS tile edges, so with one BLAS thread a share gives each of its runs
    the bits of the whole batch.  Every run records into one
    anonymous shared mapping made before the fork, so a worker writes its
    rows in place and sends back only each run's row count.  The outcomes
    are merged in share order, so every result is the same, bit for bit, at
    any P.  An exception is the first in share order; only two shares that
    fail in different ways could make it differ from the one-batch run's.

    Divergent runs are returned truncated and excluded from the statistics;
    if every run diverges a DivergenceError carrying the truncated runs is
    raised.
    """
    runs, n = config.realizations, model.n
    seeds = [config.base_seed + i for i in range(runs)]
    if getattr(controller, "mode", "deterministic") != "stochastic":
        run = simulate(model, controller, ref, config)
        results = [replace(run, seed=seed) for seed in seeds]
        distinct = results[:1]
    else:
        records = _records((runs, config.steps + 1, n))
        # a threaded BLAS call splits its columns by the call's width, so shares
        # keep the bits of one batch only with one BLAS thread per process
        processes = (parallel.process_count(-(-runs // ENSEMBLE_ALIGN))
                     if parallel.blas_threads() == 1 else 1)

        def share(part: range):
            runs_p = slice(part.start, part.stop)

            def job():
                *_, done = _integrate(model, controller, ref, config,
                                      np.zeros((len(part), n)), np.zeros((len(part), n)),
                                      seeds[runs_p],
                                      {key: rec[runs_p] for key, rec in records.items()})
                return [res.t.shape[0] for res in done]  # the rows each run kept
            return job

        kept = parallel.run_in_order([share(part) for part in _shares(runs, processes)],
                                     "ensemble")
        results = distinct = _runs(records, [rows for share_kept in kept
                                             for rows in share_kept], seeds, config)

    complete = [res for res in distinct if not res.diverged]
    if not complete:
        raise DivergenceError(f"all {runs} realizations diverged", results)
    qc = np.stack([res.q for res in complete])
    qdc = np.stack([res.qd for res in complete])
    ddof_ok = len(complete) >= 2
    stats = EnsembleStats(
        t=complete[0].t,
        mean_q=np.mean(qc, axis=0),
        std_q=np.std(qc, axis=0, ddof=1) if ddof_ok else np.zeros_like(qc[0]),
        mean_qd=np.mean(qdc, axis=0),
        std_qd=np.std(qdc, axis=0, ddof=1) if ddof_ok else np.zeros_like(qdc[0]),
        divergent_runs=[i for i, res in enumerate(results) if res.diverged],
        realizations=runs,
    )
    return stats, results


# ---------------------------------------------------------------------------
# Lyapunov trace


@dataclass
class LyapunovTrace:
    v: np.ndarray
    ball_radius: float
    indefinite_warning: bool


def lyapunov_trace(result: SimResult, model: ManipulatorModel, gains,
                   epsilon: float = 0.1) -> LyapunovTrace:
    """V(t) = 1/2 ed' H ed + 1/2 e' Kp e + eps e' H ed along a trajectory.

    The cross term makes V a Lyapunov candidate only while the block form
    [[Kp, eps H], [eps H, H]] / 2 stays positive definite; if any sampled
    instant violates that, indefinite_warning is set.  Also reports the
    smallest empirically consistent error-ball radius: with s_j the error
    norms and M_j = max_{i >= j} s_i, a candidate entry index j needs
    M_j < min_{i < j} s_i, and the radius is the smallest such M_j.
    """
    e, ed = result.e, result.ed
    h = model.mass_matrix(result.q)
    kp = gains.kp
    v = (
        0.5 * np.einsum("ti,tij,tj->t", ed, h, ed)
        + 0.5 * np.einsum("ti,ij,tj->t", e, kp, e)
        + epsilon * np.einsum("ti,tij,tj->t", e, h, ed)
    )
    n = result.n
    block = np.zeros((e.shape[0], 2 * n, 2 * n))
    block[:, :n, :n] = 0.5 * kp
    block[:, n:, n:] = 0.5 * h
    block[:, :n, n:] = 0.5 * epsilon * h
    block[:, n:, :n] = 0.5 * epsilon * np.swapaxes(h, -1, -2)
    indefinite = bool(np.min(np.linalg.eigvalsh(block)) <= 0)

    s = result.error_norms()
    m = np.maximum.accumulate(s[::-1])[::-1]  # M_j = sup of the tail
    prefix = np.concatenate([[np.inf], np.minimum.accumulate(s)[:-1]])
    valid = m < prefix
    radius = float(np.min(m[valid])) if np.any(valid) else float(m[0])
    return LyapunovTrace(v=v, ball_radius=radius, indefinite_warning=indefinite)
