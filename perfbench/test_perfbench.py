"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import compare, jobs, reference  # noqa: E402
from perfbench.spans import LayerProbes, SpanRecorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Each workload's job mix on a graph small enough for a unit test.
SMALL = {
    "pr-large": {"scale": 9, "edge_factor": 8},
    "traverse-grid": {"rows": 12, "cols": 12},
    "pr-large-process": {"scale": 9, "edge_factor": 8},
}


def small(name: str) -> jobs.Workload:
    return dataclasses.replace(jobs.WORKLOADS[name], graph_args=SMALL[name])


def run_mix(workload: jobs.Workload, seed: int, recorder=None):
    with jobs.JobRunner(workload.generate(seed), seed) as runner:
        if recorder is None:
            return [runner.run(spec) for spec in workload.jobs]
        with LayerProbes(recorder):
            return [runner.run(spec, recorder) for spec in workload.jobs]


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_counts_repeat_bit_for_bit_and_verify(name):
    workload = small(name)
    for seed in (1, 9973):
        first = run_mix(workload, seed)
        second = run_mix(workload, seed)
        assert all(r.ok for r in first + second), [r.error for r in first + second]
        assert [r.counts for r in first] == [r.counts for r in second]


def test_repeated_job_with_other_counts_fails():
    workload = small("traverse-grid")
    runner = jobs.JobRunner(workload.generate(1), 1)
    spec = workload.jobs[0]
    runner.first_counts[spec.key] = {"comm_bytes": -1}
    record = runner.run(spec)
    assert not record.ok and "counts differ" in record.error


def test_raising_job_is_a_failure_not_an_abort():
    workload = small("traverse-grid")
    runner = jobs.JobRunner(workload.generate(1), 1)
    record = runner.run(dataclasses.replace(workload.jobs[0], hosts=0))
    assert not record.ok and record.error


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_traced_split_adds_up_to_the_job_wall(name):
    recorder = SpanRecorder()
    records = run_mix(small(name), 1, recorder)
    for record in records:
        assert record.ok, record.error
        split = record.layers
        parts = [split[m] for m in jobs.SPLIT] + [split["trace.unattributed_s"]]
        assert sum(parts) == pytest.approx(split["trace.job_s"], abs=1e-9)
        assert all(value >= 0 for value in parts)
        if record.spec.runtime == "simulated":
            assert split["engines.compute_calls"] > 0
            assert split["network.transport.sends"] > 0
        else:
            assert split["parallel.round_s"] > 0
    assert recorder.events and all(
        parent == 0 or parent < span_id for span_id, parent, *_ in recorder.events
    )


def test_end_to_end_times_are_in_reference_seconds():
    spec = jobs.WORKLOADS["pr-large"].jobs[0]
    counts = {name: 1 for name in (
        "sim_exec_s", "comm_bytes", "comm_messages", "construction_bytes", "rounds"
    )}
    records = [
        jobs.JobRecord(spec, True, wall_s=2.0, exec_s=1.5, ref_s=0.3, counts=counts),
        jobs.JobRecord(spec, True, wall_s=1.0, exec_s=0.75, ref_s=0.15, counts=counts),
    ]
    metrics = jobs.end_to_end(records, rss_mb=100.0)
    scale = reference.NOMINAL_S / 0.15
    assert metrics["job_s"] == pytest.approx(1.0 * scale)
    assert metrics["exec_s"] == pytest.approx(0.75 * scale)
    assert metrics["setup_s"] == pytest.approx(0.25 * scale)
    for processes in (1, 2):
        ref = reference.Reference(processes)
        procs = list(ref._procs)
        assert len(procs) == (processes if processes > 1 else 0)
        try:
            assert ref.time_s() > 0
        finally:
            ref.close()
        assert not any(proc.is_alive() for proc in procs)


def test_stop_children_stops_the_resource_tracker():
    from multiprocessing import resource_tracker

    from perfbench import run

    # Spawning starts the tracker, as the process runtime's stores do; it
    # would outlive the run if it were not stopped.
    ref = reference.Reference(2)
    ref.close()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_probes_restore_the_original_functions():
    import repro.comm.codec as codec
    import repro.core.substrate as substrate
    from repro.engines.ligra import LigraEngine

    before = (
        codec.encode_memoized_field,
        substrate.encode_memoized_field,
        substrate.GluonSubstrate.stage_reduce,
        LigraEngine.compute_round,
    )
    with LayerProbes(SpanRecorder()):
        assert substrate.encode_memoized_field is not before[1]
        assert LigraEngine.compute_round is not before[3]
    after = (
        codec.encode_memoized_field,
        substrate.encode_memoized_field,
        substrate.GluonSubstrate.stage_reduce,
        LigraEngine.compute_round,
    )
    assert after == before


def test_self_time_excludes_child_spans():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", "inner", lambda: sum(range(10_000)))
    outer = recorder.wrap("outer", "outer", lambda: [inner() for _ in range(3)])
    with recorder.root("root", "r") as totals:
        outer()
    assert totals.calls("inner") == 3
    assert totals.self_s("outer") + totals.total_s("inner") == pytest.approx(
        totals.total_s("outer"), abs=1e-12
    )
    assert totals.self_s("root") + totals.total_s("outer") == pytest.approx(
        totals.total_s("root"), abs=1e-12
    )
    trace = recorder.chrome_trace({"workload": "unit"})
    assert [e["name"] for e in trace["traceEvents"]] == ["inner"] * 3 + ["outer", "r"]


def write_results(directory: Path, workload: str, series: dict, broken=()) -> None:
    """One result file per value of ``series``; runs listed in ``broken``
    are not correct, with one failed job each."""
    directory.mkdir()
    count = len(next(iter(series.values())))
    for i in range(count):
        payload = {
            "stamp": {"workload": workload, "trace": 0},
            "correct": i not in broken,
            "attempted": 5,
            "failed": int(i in broken),
            "metrics": {name: values[i] for name, values in series.items()},
        }
        (directory / f"r{i}.json").write_text(json.dumps(payload))


def verdicts(table: str) -> dict:
    rows = [line.split() for line in table.splitlines()[3:] if "%" in line]
    return {row[0]: " ".join(row[1:]).rsplit("%", 1)[1].strip() for row in rows}


def test_compare_flags_worse_and_unresolved(tmp_path):
    write_results(tmp_path / "a", "pr-large", {
        "job_s": [1.00, 1.01, 0.99, 1.00, 1.02],
        "exec_s": [1.0, 1.5, 0.6, 1.2, 0.8],
        "rounds": [67, 67, 67, 67, 67],
        "verified_frac": [1, 1, 1, 1, 1],
    })
    write_results(tmp_path / "b", "pr-large", {
        "job_s": [1.50, 1.52, 1.49, 1.51, 1.50],
        "exec_s": [1.0, 1.4, 0.7, 1.1, 0.9],
        "rounds": [60, 60, 60, 60, 60],
        "verified_frac": [1, 1, 1, 1, 1],
    })
    table, worse = compare.compare(tmp_path / "a", tmp_path / "b", BENCHMARK)
    assert verdicts(table) == {
        "job_s": "WORSE",
        "exec_s": "unresolved",
        "rounds": "better",
        "verified_frac": "same",
    }
    assert "runs (not correct / total)" in table
    assert worse == 1


def test_compare_flags_a_minority_of_broken_runs(tmp_path):
    same = {"job_s": [1.0, 1.0, 1.0, 1.0, 1.0]}
    write_results(tmp_path / "a", "pr-large", {**same, "verified_frac": [1] * 5})
    write_results(
        tmp_path / "b", "pr-large",
        {**same, "verified_frac": [1, 1, 1, 1, 0.8]}, broken={4},
    )
    table, worse = compare.compare(tmp_path / "a", tmp_path / "b", BENCHMARK)
    assert verdicts(table) == {"job_s": "same", "verified_frac": "WORSE"}
    assert "change run r4.json: not correct, 1 failed jobs" in table
    assert worse == 2


def test_compare_fails_when_every_change_run_is_broken(tmp_path):
    write_results(tmp_path / "a", "pr-large", {"job_s": [1.0, 1.0, 1.0]})
    (tmp_path / "b").mkdir()
    for i in range(3):
        (tmp_path / "b" / f"r{i}.json").write_text(json.dumps({
            "stamp": {"workload": "pr-large", "trace": 0},
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }))
    table, worse = compare.compare(tmp_path / "a", tmp_path / "b", BENCHMARK)
    assert "only one side has metrics" in table and worse == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_of_its_mode(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "traverse-grid",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    wanted = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if trace:
        assert "unattributed" in done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pr-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
