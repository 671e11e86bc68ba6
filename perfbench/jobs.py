"""Workloads, jobs and the metrics measured from them.

A *job* is one :func:`repro.run_app` call on an edge list already in
hand, followed by :func:`repro.verify_run` against the sequential oracle.
Generating the graph and verifying are costs of the benchmark, not of the
system: they are reported as layer metrics and kept out of the
end-to-end times, which are given in reference seconds (see
:mod:`perfbench.reference`).  A job that raises, fails verification, or
whose exact counts differ from an earlier job of the same kind in the
run counts as failed; it never aborts the workload.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import generators, make_app, prepare_input, run_app, verify_run
from repro.graph.edgelist import EdgeList

from perfbench import reference
from perfbench.spans import COMPUTE_LAYER, LayerProbes, SpanRecorder, Totals

#: The root span of a traced job; its self time is the wall no probed
#: layer covers (the "unattributed" row).
JOB_ROOT = "job"
VERIFY_ROOT = "verify.oracle"

#: The worker count of the process runtime: one per core, at most one per
#: host of the 4-host job.
PROCESS_WORKERS = min(len(os.sched_getaffinity(0)), 4)


@dataclass(frozen=True)
class JobSpec:
    """One kind of job a workload repeats."""

    system: str
    app: str
    policy: str
    hosts: int
    runtime: str = "simulated"
    workers: Optional[int] = None

    @property
    def key(self) -> str:
        return f"{self.system}/{self.app}/{self.policy}/{self.hosts}/{self.runtime}"


@dataclass(frozen=True)
class Workload:
    """A named input graph and the job mix run on it."""

    name: str
    graph: str
    graph_args: Dict = field(default_factory=dict)
    jobs: Tuple[JobSpec, ...] = ()

    def generate(self, seed: int) -> EdgeList:
        """The input graph; RMAT inputs are drawn from ``seed``."""
        if self.graph == "rmat":
            return generators.rmat(seed=seed, **self.graph_args)
        if self.graph == "grid":
            return generators.grid_graph(**self.graph_args)
        raise ValueError(f"unknown graph kind {self.graph!r}")

    def params(self) -> Dict:
        return {
            "graph": self.graph,
            "graph_args": dict(self.graph_args),
            "jobs": [job.key for job in self.jobs],
            "workers": [job.workers for job in self.jobs],
        }


_PR_LARGE = JobSpec("d-galois", "pr", "cvc", 4)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pr-large",
            graph="rmat",
            graph_args={"scale": 17, "edge_factor": 16},
            jobs=(_PR_LARGE,),
        ),
        Workload(
            name="traverse-grid",
            graph="grid",
            graph_args={"rows": 128, "cols": 128},
            jobs=tuple(
                JobSpec("d-ligra", app, policy, 8)
                for app in ("bfs", "sssp", "cc")
                for policy in ("oec", "cvc")
            ),
        ),
        Workload(
            name="pr-large-process",
            graph="rmat",
            graph_args={"scale": 17, "edge_factor": 16},
            jobs=(
                JobSpec("d-galois", "pr", "cvc", 4, "process", PROCESS_WORKERS),
            ),
        ),
    )
}

#: What each per-layer metric (from the traced run) should move.  Units,
#: better directions and bounds live in ``BENCHMARK.json``; times are
#: self times per job unless noted.
MOVES = {
    "graph.generate_s": "benchmark cost (once per run); moves no end-to-end metric",
    "graph.prepare_s": "setup_s on traverse-grid, where cc symmetrizes its input",
    "partition.build_s": "setup_s on both pr workloads; ~0 on traverse-grid",
    "partition.local_s": "setup_s on both pr workloads; ~0 on traverse-grid",
    "partition.replication_factor": "setup_s on pr-large and pr-large-process",
    "partition.proxies": "setup_s on pr-large and pr-large-process",
    "core.memoization.exchange_s": "setup_s",
    "core.memoization.bytes": "setup_s and construction_bytes",
    "engines.compute_s": "exec_s on pr-large; little change on traverse-grid",
    "engines.compute_calls": "exec_s on pr-large",
    "engines.edges_processed": "exec_s on pr-large",
    "core.sync.apply_s": "exec_s on pr-large",
    "core.substrate.stage_s": "exec_s on traverse-grid",
    "core.substrate.receive_s": "exec_s on traverse-grid",
    "comm.channel_s": "exec_s on traverse-grid",
    "comm.codec.encode_s": "exec_s on traverse-grid",
    "comm.codec.decode_s": "exec_s on traverse-grid",
    "comm.codec.calls": "exec_s on traverse-grid",
    "comm.codec.mode.FULL": "comm_bytes where the metadata-mode mix shifts",
    "comm.codec.mode.BITVEC": "comm_bytes where the metadata-mode mix shifts",
    "comm.codec.mode.INDICES": "comm_bytes where the metadata-mode mix shifts",
    "comm.codec.mode.EMPTY": "comm_bytes where the metadata-mode mix shifts",
    "comm.frame.encode_s": "exec_s on traverse-grid",
    "comm.frame.decode_s": "exec_s on traverse-grid",
    "comm.frame.frames": "exec_s and comm_messages on traverse-grid",
    "network.transport.send_s": "exec_s on traverse-grid",
    "network.transport.sends": "exec_s and comm_messages on traverse-grid",
    "network.transport.receive_s": "exec_s on traverse-grid",
    "runtime.executor.round_self_s": "exec_s on traverse-grid (~255 rounds/job)",
    "parallel.start_s": "setup_s on pr-large-process",
    "parallel.round_s": "exec_s on pr-large-process (coordinator-side round wall)",
    "parallel.finish_s": "setup_s on pr-large-process",
    "verify.oracle_s": "benchmark cost; moves no end-to-end metric",
    "trace.job_s": "traced job wall: the layer times plus unattributed",
    "trace.unattributed_s": "job wall no probed layer covers",
    "trace.overhead": "traced job_s / untraced job_s - 1",
}

#: Layer-time metrics of the traced split, in table order: metric ->
#: span layer whose self time it reports.
SPLIT = {
    "graph.prepare_s": "graph.prepare",
    "partition.build_s": "partition.build",
    "partition.local_s": "partition.local",
    "core.memoization.exchange_s": "core.memoization.exchange",
    "parallel.start_s": "parallel.start",
    "engines.compute_s": COMPUTE_LAYER,
    "core.sync.apply_s": "core.sync.apply",
    "core.substrate.stage_s": "core.substrate.stage",
    "core.substrate.receive_s": "core.substrate.receive",
    "comm.channel_s": "comm.channel",
    "comm.codec.encode_s": "comm.codec.encode",
    "comm.codec.decode_s": "comm.codec.decode",
    "comm.frame.encode_s": "comm.frame.encode",
    "comm.frame.decode_s": "comm.frame.decode",
    "network.transport.send_s": "network.transport.send",
    "network.transport.receive_s": "network.transport.receive",
    "runtime.executor.round_self_s": "runtime.executor.round",
    "parallel.round_s": "parallel.round",
    "parallel.finish_s": "parallel.finish",
}

MODES = ("FULL", "BITVEC", "INDICES", "EMPTY")


@dataclass
class JobRecord:
    """What one job produced: its walls, its exact counts, its verdict."""

    spec: JobSpec
    ok: bool
    wall_s: float = 0.0
    exec_s: float = 0.0
    verify_s: float = 0.0
    #: Wall of the reference kernel timed right before the job, on as
    #: many processes as the job has workers.
    ref_s: float = 0.0
    counts: Dict = field(default_factory=dict)
    traced: bool = False
    layers: Dict[str, float] = field(default_factory=dict)
    error: str = ""


def exact_counts(result) -> Dict:
    """The counts a job must repeat bit for bit at the same seed."""
    parts = result.executor.partitioned.partitions
    modes = {m.name: int(c) for m, c in result.mode_counts.items()}
    return {
        "comm_bytes": int(result.communication_volume),
        "comm_messages": int(result.communication_messages),
        "construction_bytes": int(result.construction_bytes),
        "rounds": int(result.num_rounds),
        "sim_exec_s": float(result.total_time),
        "replication_factor": float(result.replication_factor),
        "proxies": int(sum(p.num_nodes for p in parts)),
        "modes": {name: modes.get(name, 0) for name in MODES},
    }


class JobRunner:
    """Runs and verifies jobs on one input graph at one seed."""

    def __init__(self, edges: EdgeList, seed: int) -> None:
        self.edges = edges
        self.seed = seed
        self._verify_edges: Dict[str, EdgeList] = {}
        #: First good counts per job kind: later jobs must match exactly.
        self.first_counts: Dict[str, Dict] = {}
        #: Reference kernels by process count (one per job worker).
        self._references: Dict[int, reference.Reference] = {}

    def __enter__(self) -> "JobRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the reference kernel processes, if any."""
        for ref in self._references.values():
            ref.close()
        self._references.clear()

    def reference_s(self, spec: JobSpec) -> float:
        """One reference kernel wall on as many processes as ``spec`` has
        workers."""
        processes = spec.workers or 1
        if processes not in self._references:
            self._references[processes] = reference.Reference(processes)
        return self._references[processes].time_s()

    def verify_edges(self, app: str) -> EdgeList:
        """The graph to verify ``app`` against.

        ``verify_run`` re-prepares its input with the default weight
        seed, so a weighted app is verified against the weighted input
        its run actually used (drawn from this run's seed).
        """
        if app not in self._verify_edges:
            edges = self.edges
            if make_app(app).needs_weights:
                edges = prepare_input(app, edges, weight_seed=self.seed).edges
            self._verify_edges[app] = edges
        return self._verify_edges[app]

    def _call(self, spec: JobSpec):
        return run_app(
            spec.system,
            spec.app,
            self.edges,
            spec.hosts,
            policy=spec.policy,
            weight_seed=self.seed,
            runtime=spec.runtime,
            workers=spec.workers,
        )

    def run(self, spec: JobSpec, recorder: Optional[SpanRecorder] = None) -> JobRecord:
        record = JobRecord(spec=spec, ok=False, traced=recorder is not None)
        # A result and its executor reference each other: collect the
        # previous job's cycle now, so neither its memory nor its
        # collection lands inside this job's measurement.
        gc.collect()
        record.ref_s = self.reference_s(spec)
        try:
            if recorder is None:
                started = time.perf_counter()
                result = self._call(spec)
                record.wall_s = time.perf_counter() - started
            else:
                with recorder.root(JOB_ROOT, spec.key) as job_totals:
                    result = self._call(spec)
                record.wall_s = job_totals.total_s(JOB_ROOT)
            record.exec_s = result.wall_rounds_s
            record.counts = exact_counts(result)
            verify_edges = self.verify_edges(spec.app)
            if recorder is None:
                started = time.perf_counter()
                verdict = verify_run(result, verify_edges, raise_on_mismatch=False)
                record.verify_s = time.perf_counter() - started
            else:
                with recorder.root(VERIFY_ROOT, spec.key) as verify_totals:
                    verdict = verify_run(result, verify_edges, raise_on_mismatch=False)
                record.verify_s = verify_totals.total_s(VERIFY_ROOT)
                record.layers = layer_split(job_totals, result.wall_rounds_s)
            del result
        except Exception:  # a failed job is a result, never an abort
            record.error = traceback.format_exc(limit=3)
            return record
        if not verdict.matched:
            record.error = (
                f"{spec.key}: oracle mismatch (max |error| {verdict.max_abs_error})"
            )
            return record
        first = self.first_counts.setdefault(spec.key, record.counts)
        if record.counts != first:
            record.error = f"{spec.key}: counts differ from this run's first job"
            return record
        record.ok = True
        return record


def layer_split(totals: Totals, wall_rounds_s: float) -> Dict[str, float]:
    """One traced job's per-layer self times; they add up to its wall.

    The round-loop wall outside any probed round call (the executor's own
    per-round bookkeeping) is moved from the job root to
    ``runtime.executor.round_self_s``, so the round row covers the whole
    loop and "unattributed" is what lies outside every layer.
    """
    split = {metric: totals.self_s(layer) for metric, layer in SPLIT.items()}
    loop_outside_rounds = wall_rounds_s - (
        totals.total_s("runtime.executor.round") + totals.total_s("parallel.round")
    )
    split["runtime.executor.round_self_s"] += loop_outside_rounds
    split["trace.job_s"] = totals.total_s(JOB_ROOT)
    split["trace.unattributed_s"] = totals.self_s(JOB_ROOT) - loop_outside_rounds
    split["engines.compute_calls"] = totals.calls(COMPUTE_LAYER)
    split["engines.edges_processed"] = totals.counts.get("engines.edges_processed", 0)
    split["comm.codec.calls"] = totals.calls("comm.codec.encode") + totals.calls(
        "comm.codec.decode"
    )
    split["comm.frame.frames"] = totals.calls("comm.frame.encode")
    split["network.transport.sends"] = totals.calls("network.transport.send")
    return split


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (a worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _by_kind(records: List[JobRecord], keep: Callable) -> Dict[str, List[JobRecord]]:
    groups: Dict[str, List[JobRecord]] = {}
    for record in records:
        if keep(record):
            groups.setdefault(record.spec.key, []).append(record)
    return groups


def end_to_end(records: List[JobRecord], rss_mb: float) -> Dict[str, float]:
    """Workload metrics: per job kind medians, averaged over the job mix.

    Times are in reference seconds: each job's wall is scaled by the
    reference kernel timed right before it.
    """
    kinds = _by_kind(records, lambda r: r.ok and not r.traced)

    def ref_seconds(wall: Callable[[JobRecord], float]) -> float:
        return reference.NOMINAL_S * _mean(
            statistics.median(wall(r) / r.ref_s for r in rs) for rs in kinds.values()
        )

    metrics = {
        "job_s": ref_seconds(lambda r: r.wall_s),
        "exec_s": ref_seconds(lambda r: r.exec_s),
        "setup_s": ref_seconds(lambda r: r.wall_s - r.exec_s),
    }
    for name in ("sim_exec_s", "comm_bytes", "comm_messages", "construction_bytes", "rounds"):
        metrics[name] = _mean(rs[0].counts[name] for rs in kinds.values())
    metrics["peak_rss_mb"] = rss_mb
    attempted = len(records)
    metrics["verified_frac"] = sum(r.ok for r in records) / attempted
    return metrics


def per_layer(
    records: List[JobRecord], generate_s: float
) -> Dict[str, float]:
    """Traced-run metrics: per job kind means, averaged over the job mix."""
    traced = _by_kind(records, lambda r: r.ok and r.traced)
    plain = _by_kind(records, lambda r: r.ok and not r.traced)
    metrics = {"graph.generate_s": generate_s}
    names = sorted({name for rs in traced.values() for name in rs[0].layers})
    for name in names:
        metrics[name] = _mean(_mean(r.layers[name] for r in rs) for rs in traced.values())
    metrics["verify.oracle_s"] = _mean(
        _mean(r.verify_s for r in rs) for rs in traced.values()
    )
    first = [rs[0].counts for rs in traced.values()]
    metrics["partition.replication_factor"] = _mean(c["replication_factor"] for c in first)
    metrics["partition.proxies"] = _mean(c["proxies"] for c in first)
    metrics["core.memoization.bytes"] = _mean(c["construction_bytes"] for c in first)
    for mode in MODES:
        metrics[f"comm.codec.mode.{mode}"] = _mean(c["modes"][mode] for c in first)
    metrics["trace.overhead"] = _mean(
        statistics.median(r.wall_s for r in traced[key])
        / statistics.median(r.wall_s for r in plain[key])
        - 1.0
        for key in traced
        if key in plain
    )
    return metrics


def run_sweeps(
    workload: Workload,
    runner: JobRunner,
    seconds: float,
    recorder: Optional[SpanRecorder] = None,
) -> List[JobRecord]:
    """Repeat whole sweeps of the job mix while another fits in ``seconds``.

    At least one sweep runs.  With a ``recorder`` (the traced run),
    sweeps alternate between untraced (probes removed, so the program
    runs unwrapped) and traced, and at least one of each runs.
    """
    records: List[JobRecord] = []
    started = time.perf_counter()
    sweep = 0
    while True:
        sweep_started = time.perf_counter()
        if recorder is not None and sweep % 2 == 1:
            with LayerProbes(recorder):
                records.extend(runner.run(spec, recorder) for spec in workload.jobs)
        else:
            records.extend(runner.run(spec) for spec in workload.jobs)
        sweep += 1
        now = time.perf_counter()
        enough = recorder is None or sweep >= 2
        if enough and now + (now - sweep_started) - started > seconds:
            return records
