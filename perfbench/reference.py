"""A fixed reference kernel that tracks the machine's speed.

On a shared machine every wall time of a run drifts together: the
machine goes through fast and slow periods lasting minutes, so the
median job wall of one run can differ from the next by a quarter with no
change to the program.  The benchmark times this kernel, which runs no
program code, right before every job and reports each job's times in
*reference seconds*: ``wall / kernel wall * NOMINAL_S``, the seconds the
job would take on a machine where the kernel takes ``NOMINAL_S``.  A
faster program still reads faster; a slower machine period does not.

The kernel mixes the two kinds of work the program does: interpreted
dict loops, and scattered numpy updates and sorts.  Its inputs are
fixed; they do not depend on the benchmark seed.  It holds about 7 MB,
which the benchmark's peak RSS includes.

A job of the process runtime loads every core its workers run on, and
the cores of a shared machine do not slow down together, so its
reference is the mean kernel wall of as many processes run at once
(:class:`Reference`); one process would time only the core it happens
to run on.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Dict, List

import numpy as np

#: The kernel's typical wall on the 2-vCPU x86-64 VM the benchmark was
#: written on, so reference seconds read close to seconds there.
NOMINAL_S = 0.08


class Kernel:
    """The kernel's fixed inputs and a timer for one run of it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small_idx = rng.integers(0, 50_000, 400_000)
        self.small_val = rng.random(400_000)

    def time_s(self) -> float:
        """One timed run of the kernel, in seconds."""
        started = time.perf_counter()
        sums: Dict[int, int] = {}
        for i in range(150_000):
            sums[i & 1023] = sums.get(i & 1023, 0) + i
        acc = np.zeros(50_000)
        np.add.at(acc, self.small_idx, self.small_val)
        np.argsort(self.small_val, kind="stable")
        return time.perf_counter() - started


def _serve(conn) -> None:
    """A kernel process: one timed kernel run per request until told to stop."""
    kernel = Kernel()
    while conn.recv():
        conn.send(kernel.time_s())


class Reference:
    """The kernel timed in this process, or at once in ``processes``
    spawned processes; :meth:`close` stops them and waits for them."""

    def __init__(self, processes: int = 1) -> None:
        self._kernel = Kernel() if processes == 1 else None
        self._conns: List = []
        self._procs: List = []
        if processes > 1:
            ctx = multiprocessing.get_context("spawn")
            for _ in range(processes):
                conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(child_conn,), daemon=True)
                proc.start()
                child_conn.close()
                self._conns.append(conn)
                self._procs.append(proc)

    def time_s(self) -> float:
        """One kernel wall, in seconds (the mean over the processes)."""
        if self._kernel is not None:
            return self._kernel.time_s()
        for conn in self._conns:
            conn.send(True)
        return statistics.mean(conn.recv() for conn in self._conns)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._conns, self._procs = [], []
