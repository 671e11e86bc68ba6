"""Pluggable round execution for the BSP executor.

A *host runner* owns the body of one BSP round — compute on every host,
the reduce/apply/broadcast collective, frontier advance, and the round's
raw measurements — while the executor's main loop keeps everything
around it: fault scheduling, tracing, metrics, round records, and the
convergence decision.

Two implementations exist:

* :class:`InProcessRunner` (default) — the historical simulated runtime:
  every host executes round-robin inside the calling process.
* :class:`~repro.parallel.coordinator.ProcessRunner` — hosts execute in
  real worker processes over shared-memory graph stores
  (``--runtime process``).

Both produce the same :class:`RoundData`, and by construction the same
bits: the executor's results are invariant to which runner executed the
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.runtime.sync import apply_hooks_locally, host_compute_time


@dataclass
class RoundData:
    """One BSP round's raw measurements, runner-independent."""

    #: Simulated per-host compute seconds (includes the sync-scan term).
    comp_times: List[float]
    #: Alpha-beta communication time of the round's exact byte trace.
    comm_time: float
    #: Total bytes on the wire this round.
    comm_bytes: int
    #: Total transport messages this round.
    comm_messages: int
    #: Global count of frontier-active nodes after synchronization.
    active: int
    #: Extra bytes transient faults cost this round.
    fault_bytes: int
    #: Global residual (non-frontier apps only; ``None`` otherwise).
    residual_sum: Optional[float]


class InProcessRunner:
    """The simulated runtime: all hosts round-robin in this process."""

    def __init__(self, executor) -> None:
        self.ex = executor

    def start(self) -> None:
        """Nothing to launch: the executor's own state is the cluster."""

    def run_round(self, round_index: int) -> RoundData:
        """Execute one round over every host of the executor."""
        ex = self.ex
        parts = ex.partitioned.partitions
        hosts = range(len(parts))
        outcomes = ex._compute_round_all(parts, ex._frontiers, round_index)
        num_fields = len(ex.fields[0]) if ex.enable_sync else 0
        comp_times = [
            host_compute_time(ex.engines[h], outcomes[h], parts[h], num_fields)
            for h in hosts
        ]
        pre_translations = [sub.stats.translations for sub in ex.substrates]
        next_frontiers = [o.updated.copy() for o in outcomes]
        if ex.enable_sync:
            ex._synchronize(outcomes, next_frontiers)
            if ex.sanitizer is not None:
                ex.sanitizer.note_sync_completed()
        else:
            apply_hooks_locally(hosts, ex.fields, next_frontiers)
        fault_bytes = ex._take_round_fault_bytes()
        comm_time, comm_bytes, comm_messages = ex._close_round({
            h: sub.stats.translations - pre_translations[h]
            for h, sub in enumerate(ex.substrates)
        })
        active = sum(int(f.sum()) for f in next_frontiers)
        residual_sum = None
        if ex.app.uses_frontier:
            if active > 0:
                ex._frontiers = next_frontiers
        else:
            residual_sum = sum(
                ex.app.local_residual(state) for state in ex.states
            )
        return RoundData(
            comp_times=comp_times,
            comm_time=comm_time,
            comm_bytes=comm_bytes,
            comm_messages=comm_messages,
            active=active,
            fault_bytes=fault_bytes,
            residual_sum=residual_sum,
        )

    def finish(self, result) -> None:
        """Nothing to tear down."""

    def abort(self) -> None:
        """Nothing to tear down on error either."""
