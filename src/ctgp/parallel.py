"""Independent jobs in forked worker processes, with the serial results.

`run_in_order(jobs, what)` returns [job() for job in jobs] and raises what
that loop would raise, whatever the process count.  Job i runs in process
i mod P, where P = process_count(len(jobs)): this process runs jobs 0, P,
2P, ... and P - 1 forked workers run the others, each process its jobs in
order up to the first that raises.  A worker pickles its results, and the
exception that stopped it, into a pipe; the outcomes are merged in job
order, and the first exception in job order is raised.  A job must give the
same result in any process, as the hyperparameter search's restarts and the
ensemble's shares of realizations do: each computes from inputs it inherits
and writes nothing another job reads.
"""

from __future__ import annotations

import os
import pickle
import re
import signal
import threading


class WorkerError(Exception):
    """A worker process ended without delivering its results."""


def blas_threads() -> int | None:
    """The BLAS threads per process, read as OpenBLAS reads them:
    OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, each as C's atoi, a value
    below 1 counting as unset.  None when unset: BLAS then takes every core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        match = re.match(r"\s*[+-]?\d+", os.environ.get(var, ""))
        if match and int(match.group()) > 0:
            return int(match.group())
    return None


def process_count(jobs: int) -> int:
    """How many processes `jobs` independent jobs run in.

    min(jobs, usable cores // blas_threads()), and 1 while another Python
    thread runs, since a forked child holds only the calling thread.  Usable
    cores are the process's CPU affinity.  With the BLAS thread count unset,
    BLAS takes every core, and the jobs stay in one process.
    """
    blas = blas_threads()
    if jobs < 2 or blas is None or threading.active_count() > 1 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(jobs, cores // blas))


def _run_share(jobs: list) -> tuple[list, Exception | None]:
    """(results, None) of the jobs run in order, or (the results before the
    first job that raised, its exception)."""
    results = []
    for job in jobs:
        try:
            results.append(job())
        except Exception as err:
            return results, err
    return results, None


def _fork_worker(jobs: list) -> tuple[int, int] | None:
    """Run _run_share(jobs) in a forked child that pickles it into a pipe.

    Returns (pid, read end of the pipe), or None when no child could be
    made.  The child leaves through os._exit on every path, so it never
    returns into the caller's stack or runs its finally blocks; it exits
    with status 1 and no result only when the outcome cannot be pickled.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(_run_share(jobs), protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def run_in_order(jobs: list, what: str) -> list:
    """[job() for job in jobs], spread over process_count(len(jobs)) processes.

    Raises the first exception in job order.  A share whose worker could not
    be forked runs here when its first job's outcome is needed.  A worker
    that exits without a result raises WorkerError ("<what> worker <pid>
    exited without a result").  Every worker is reaped before this returns
    or raises, and killed first when its results are not needed or not yet
    delivered.
    """
    processes = process_count(len(jobs))
    workers = {}
    try:
        for p in range(1, processes):
            workers[p] = _fork_worker(jobs[p::processes])
        shares = {0: _run_share(jobs[0::processes])}
        results = []
        for i in range(len(jobs)):
            p = i % processes
            if p not in shares:
                shares[p] = _collect(workers, p, jobs[p::processes], what)
            done, error = shares[p]
            if i // processes == len(done):
                raise error
            results.append(done[i // processes])
        return results
    finally:
        for worker in workers.values():
            if worker is not None:
                pid, fd = worker
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                os.close(fd)


def _collect(workers: dict, p: int, jobs: list, what: str) -> tuple[list, Exception | None]:
    """The outcome of process p's share, read from its worker (reaped and
    removed from `workers`) or, when it could not be forked, run here."""
    if workers[p] is None:
        del workers[p]
        return _run_share(jobs)
    pid, fd = workers[p]
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del workers[p]
    os.close(fd)
    if code != 0 or not data:
        raise WorkerError(
            f"{what} worker {pid} exited without a result "
            f"({f'signal {-code}' if code < 0 else f'exit status {code}'})"
        )
    return pickle.loads(data)
