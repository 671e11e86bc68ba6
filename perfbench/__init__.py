"""The repository benchmark: workloads, layer tracing and result comparison.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints its metrics as the last line
of standard output; ``python3 perfbench/compare.py A B`` diffs two sets of
result files.  ``BENCHMARK.json`` at the repository root lists the
workloads, the metrics and their bounds.
"""
