"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pr-large --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --held-out

A run generates its input graph from ``--seed``, repeats whole sweeps of
the workload's job mix for about ``--seconds`` seconds (by default
``run_seconds`` of ``BENCHMARK.json``), verifies every job against its
sequential oracle, and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, measured with no probes installed; their times are
in reference seconds (``perfbench/reference.py``), and each job's raw
walls are in the result file.  With ``--trace 1`` they are the
per-layer ones, in plain seconds: untraced and traced sweeps alternate,
the layer split of the traced jobs is printed as a table on standard
error, and the kept spans are written as a Chrome trace.  Every run also
writes a result file stamped with the machine, the versions, the commit,
the seed and the workload parameters under ``.perfbench/results/``.

``--held-out`` runs every workload at the default seed and at a held-out
seed (one subprocess per run) and reports whether every job verified, so
a claim can be checked on a seed not used while writing it.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Workloads, metric units and directions, bounds and the run length.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

DEFAULT_SEED = 1
#: Kept out of day-to-day tuning: claims are re-checked at this seed.
HELD_OUT_SEED = 9973
OUT_DIR = ".perfbench"


def _load_program() -> None:
    """Put the checkout's own ``src/`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(workload, seed: int, seconds: float, trace: bool) -> dict:
    """What a result depends on besides the code: machine, versions, inputs."""
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "params": workload.params(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_json(directory: Path, name: str, payload: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


def layer_table(metrics: dict) -> str:
    """The traced split: self seconds per job, share of the job wall, and
    the end-to-end metric each layer should move."""
    from perfbench.jobs import MOVES, SPLIT

    job_s = metrics["trace.job_s"]
    rows = [(name, metrics[name], MOVES[name]) for name in SPLIT]
    rows.append(
        ("unattributed", metrics["trace.unattributed_s"], MOVES["trace.unattributed_s"])
    )
    lines = [f"{'layer':30s} {'self s/job':>11s} {'share':>6s}  moves"]
    for name, value, moves in rows:
        lines.append(f"{name:30s} {value:11.6f} {value / job_s:6.1%}  {moves}")
    total = sum(value for _, value, _ in rows)
    lines.append(f"{'total (= traced job_s)':30s} {total:11.6f} {total / job_s:6.1%}")
    return "\n".join(lines)


def run_one(args) -> int:
    from perfbench import jobs
    from perfbench.spans import SpanRecorder

    workload = jobs.WORKLOADS[args.workload]
    started = time.perf_counter()
    edges = workload.generate(args.seed)
    generate_s = time.perf_counter() - started
    recorder = SpanRecorder() if args.trace else None
    with jobs.JobRunner(edges, args.seed) as runner:
        records = jobs.run_sweeps(workload, runner, args.seconds, recorder)
        # Before the reference processes are reaped, so they are not
        # counted as the largest child.
        rss_mb = jobs.peak_rss_mb()
    failed = [r for r in records if not r.ok]
    for record in failed:
        print(f"perfbench: job failed: {record.error}", file=sys.stderr)
    kinds = {spec.key for spec in workload.jobs}
    ok_kinds = {r.spec.key for r in records if r.ok and not r.traced}
    if args.trace:
        ok_kinds &= {r.spec.key for r in records if r.ok and r.traced}
    complete = ok_kinds == kinds
    correct = complete and not failed
    metrics = {}
    if complete:
        if args.trace:
            metrics = jobs.per_layer(records, generate_s)
        else:
            metrics = jobs.end_to_end(records, rss_mb)
    units = {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    info = stamp(workload, args.seed, args.seconds, args.trace)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{info['utc']}-{os.getpid()}"
    out = ROOT / OUT_DIR
    result = {
        "stamp": info,
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "failed_frac": len(failed) / len(records),
        "metrics": metrics,
        "jobs": [
            {
                "key": r.spec.key,
                "ok": r.ok,
                "traced": r.traced,
                "wall_s": r.wall_s,
                "exec_s": r.exec_s,
                "verify_s": r.verify_s,
                "ref_s": r.ref_s,
                "counts": r.counts,
                "error": r.error,
            }
            for r in records
        ],
    }
    path = write_json(out / "results" / workload.name, f"{tag}.json", result)
    print(f"perfbench: {len(records)} jobs, result file {path}", file=sys.stderr)
    if args.trace and complete:
        trace = recorder.chrome_trace(info)
        trace_path = write_json(out / "traces", f"{tag}.json", trace)
        print(f"perfbench: {workload.name} layer split per traced job "
              f"(Chrome trace {trace_path}):", file=sys.stderr)
        print(layer_table(metrics), file=sys.stderr)
    line = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0


def run_held_out(args) -> int:
    """Every workload at the default and the held-out seed, one process each."""
    _load_program()
    from perfbench.jobs import WORKLOADS

    failures = 0
    print(f"{'workload':18s} {'seed':>6s} {'correct':>8s} {'failed':>7s} {'attempted':>9s}")
    for name in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                failures += 1
                print(f"{name:18s} {seed:6d} {'error':>8s}")
                continue
            result = json.loads(lines[-1])
            failures += not result["correct"]
            print(f"{name:18s} {seed:6d} {str(result['correct']):>8s} "
                  f"{result['failed']:7d} {result['attempted']:9d}")
    return 1 if failures else 0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Besides the processes the run joins itself, this stops
    ``multiprocessing``'s resource tracker, which the process runtime's
    shared-memory stores and the spawned reference processes start and
    which would otherwise outlive the run.
    """
    from multiprocessing import resource_tracker

    # Run store finalizers now: a later unregister would restart the tracker.
    gc.collect()
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run every workload at the default and the held-out seed")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.held_out:
        return run_held_out(args)
    _load_program()
    from perfbench.jobs import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of: {', '.join(WORKLOADS)}")
    try:
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
