"""Shared test settings and fixtures.

Property tests draw their examples from a fixed derandomized sequence and
have no per-example deadline, so the suite gives the same result on every
run and on a slow or loaded host.

The suite runs BLAS with one thread per process, as CI and the benchmark
do, whatever the caller's environment: results differ in their last digits
between BLAS thread counts, and a forked ensemble keeps the bits of one
batch only with one thread (`sim.run_ensemble`).  The variables are set here
because OpenBLAS reads them once, when numpy and scipy load it.

The process count of forked jobs follows the host
(`parallel.process_count`); `pin_processes` pins it by replacing that
function, so the tests of forked jobs fork on any host, and `forks` records
the workers they fork.
"""
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import pytest
from hypothesis import settings

from ctgp import parallel

settings.register_profile("ctgp", derandomize=True, deadline=None)
settings.load_profile("ctgp")


class Forks(list):
    """The pids of the workers forked while a test runs."""

    def assert_reaped(self):
        for pid in self:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    pids = Forks()
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def pin_processes(monkeypatch):
    """pin_processes(P): every later run_in_order uses min(P, jobs) processes."""
    def pin(processes):
        monkeypatch.setattr(parallel, "process_count", lambda jobs: min(processes, jobs))
    return pin
