"""Compare two sets of benchmark result files, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each side is a directory (searched recursively) or a single file of the
result files ``perfbench/run.py`` writes under ``.perfbench/results/``.
Every workload first gets a ``runs`` row: the change is flagged
``WORSE`` when any of its runs is not correct (a job failed, or a job
kind never verified), whatever its metrics say.  Then, for every metric,
the table shows each side's median and quartiles and the change of the
medians.  An end-to-end metric is flagged ``WORSE`` when the change's
median is worse than the base's by more than the metric's bound in
``BENCHMARK.json``, and ``unresolved`` when either side's spread between
quartiles, as a share of its median, exceeds the bound — unless every
run of the change reads better than every run of the base.
``verified_frac`` is judged by each side's worst run instead, so a
minority of broken runs cannot hide behind a median.  Per-layer metrics
have no bound: their change is shown without a verdict.  Exits 1 when
anything is flagged ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Metrics judged by their worst run rather than their median.
WORST_RUN = {"verified_frac"}


@dataclass
class Side:
    """One side's result files for one workload and trace mode."""

    metrics: Dict[str, List[float]] = field(default_factory=dict)
    #: ``(file name, correct, failed jobs)`` of every run, with or
    #: without metrics.
    runs: List[Tuple[str, bool, int]] = field(default_factory=list)

    def broken(self) -> List[Tuple[str, bool, int]]:
        return [run for run in self.runs if not run[1]]


def load_results(path: Path) -> Dict[Tuple[str, int], Side]:
    """``(workload, trace) -> Side``, one run per result file."""
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    grouped: Dict[Tuple[str, int], Side] = {}
    for file in files:
        result = json.loads(file.read_text())
        if "stamp" not in result:
            continue
        key = (result["stamp"]["workload"], result["stamp"]["trace"])
        side = grouped.setdefault(key, Side())
        side.runs.append((file.name, bool(result["correct"]), int(result["failed"])))
        for name, value in result["metrics"].items():
            side.metrics.setdefault(name, []).append(float(value))
    return grouped


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative(delta: float, base: float) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def verdict(
    base: List[float],
    change: List[float],
    better: str,
    bound: Optional[float],
    worst_run: bool = False,
) -> str:
    """How ``change`` compares to ``base`` for one metric."""
    if bound is None:
        return ""
    sign = 1.0 if better == "lower" else -1.0
    if worst_run:
        b_worst = max(sign * v for v in base)
        c_worst = max(sign * v for v in change)
        worsening = relative(c_worst - b_worst, b_worst)
    else:
        b_q1, b_med, b_q3 = quartiles(base)
        c_q1, c_med, c_q3 = quartiles(change)
        worsening = sign * relative(c_med - b_med, b_med)
        spread = max(relative(b_q3 - b_q1, b_med), relative(c_q3 - c_q1, c_med))
        all_better = max(sign * v for v in change) < min(sign * v for v in base)
        if spread > bound:
            return "better (every run)" if all_better else "unresolved"
    if worsening > bound:
        return "WORSE"
    if worsening < -bound:
        return "better"
    return "same"


def runs_row(base: Side, change: Side) -> Tuple[str, bool]:
    """The ``runs`` row of one workload and whether it is ``WORSE``."""
    broken = change.broken()
    worse = bool(broken)
    line = (
        f"   {'runs (not correct / total)':32s} "
        f"{len(base.broken()):>14d} of {len(base.runs)}".ljust(72)
        + f" {len(broken):>14d} of {len(change.runs)}".ljust(37)
        + " " * 10
        + ("  WORSE" if worse else "  same")
    )
    lines = [line] + [
        f"     change run {name}: not correct, {failed} failed jobs"
        for name, _, failed in broken
    ]
    return "\n".join(lines), worse


def compare(base_dir: Path, change_dir: Path, benchmark: Dict) -> Tuple[str, int]:
    """The comparison table and the number of rows flagged ``WORSE``."""
    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    base = load_results(base_dir)
    change = load_results(change_dir)
    lines = []
    worse = 0
    for key in sorted(set(base) | set(change)):
        workload, trace = key
        lines.append(f"== {workload} ({'traced' if trace else 'untraced'})")
        a_side, b_side = base.get(key, Side()), change.get(key, Side())
        row, runs_worse = runs_row(a_side, b_side)
        worse += runs_worse
        if not a_side.metrics or not b_side.metrics:
            lines.append(row)
            lines.append("   only one side has metrics")
            continue
        lines.append(
            f"   {'metric':32s} {'base median [q1, q3]':>36s} "
            f"{'change median [q1, q3]':>36s} {'change':>9s}  verdict"
        )
        lines.append(row)
        for name in sorted(set(a_side.metrics) & set(b_side.metrics)):
            spec = specs.get(name, {"better": "lower"})
            a, b = a_side.metrics[name], b_side.metrics[name]
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            flag = verdict(
                a, b, spec["better"], spec.get("bound"), worst_run=name in WORST_RUN
            )
            worse += flag == "WORSE"
            lines.append(
                f"   {name:32s} {a_med:14.6g} [{a_q1:.4g}, {a_q3:.4g}]".ljust(72)
                + f" {b_med:14.6g} [{b_q1:.4g}, {b_q3:.4g}]".ljust(37)
                + f" {relative(b_med - a_med, a_med):+9.2%}  {flag}"
            )
    return "\n".join(lines), worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="result directory or file of the base")
    parser.add_argument("change", type=Path, help="result directory or file of the change")
    args = parser.parse_args(argv)
    for path in (args.base, args.change):
        if not path.exists():
            parser.error(f"{path} does not exist")
    table, worse = compare(
        args.base, args.change, json.loads(BENCHMARK_FILE.read_text())
    )
    print(table)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
