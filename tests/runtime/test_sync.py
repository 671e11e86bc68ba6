"""The host-round sync driver shared by every runtime and comm mode."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.kcore import KCore
from repro.engines import make_engine
from repro.network.cost_model import LCI_PARAMETERS, CostModel
from repro.network.stats import RoundTraffic
from repro.observability import Observability
from repro.partition import make_partitioner
from repro.runtime.executor import DistributedExecutor
from repro.runtime.sync import (
    SYNC_SCAN_PER_NODE_S,
    _broadcast_dirty,
    apply_hooks_locally,
    host_compute_time,
    round_comm_time,
)
from repro.runtime.timing import WorkStats, round_communication_time
from repro.systems import prepare_input, run_app


class NoneHookKCore(KCore):
    """kcore whose master hook does its work but returns ``None``.

    ``None`` means "no mask of my own": the driver must fall back to the
    default rule and broadcast the masters the reduce changed or the
    compute updated.
    """

    def make_fields(self, part, state):
        fields = super().make_fields(part, state)
        for field in fields:
            hook = field.on_master_after_reduce

            def returns_none(changed, hook=hook):
                hook(changed)

            field.on_master_after_reduce = returns_none
        return fields


def run_none_hook_kcore(edges, aggregate, runtime):
    prep = prepare_input("kcore", edges, k=4)
    partitioned = make_partitioner("cvc").partition(prep.edges, 4)
    kwargs = {"runtime": "process", "workers": 2} if runtime == "process" else {}
    executor = DistributedExecutor(
        partitioned,
        make_engine("galois"),
        NoneHookKCore(),
        prep.ctx,
        aggregate_comm=aggregate,
        **kwargs,
    )
    return executor.run(), executor.gather_result("alive")


@pytest.mark.parametrize("aggregate", [True, False])
def test_master_hook_returning_none_syncs_on_both_runtimes(
    small_rmat, aggregate
):
    sim, sim_alive = run_none_hook_kcore(small_rmat, aggregate, "simulated")
    proc, proc_alive = run_none_hook_kcore(small_rmat, aggregate, "process")
    assert sim.converged and proc.converged
    assert np.array_equal(sim_alive, proc_alive)
    assert sim.num_rounds == proc.num_rounds
    assert sim.communication_volume == proc.communication_volume


def test_none_from_a_master_hook_means_the_default_rule():
    part = SimpleNamespace(num_masters=2)
    reduce_changed = np.array([True, False, False, True])
    outcome = SimpleNamespace(updated=np.array([False, True, False, True]))
    expected = np.array([True, True, False, False])
    for hook in (None, lambda changed: None):
        field = SimpleNamespace(on_master_after_reduce=hook)
        dirty = _broadcast_dirty(part, field, reduce_changed, outcome)
        assert np.array_equal(dirty, expected)
    mask = np.array([False, False, True, False])
    field = SimpleNamespace(on_master_after_reduce=lambda changed: mask)
    assert _broadcast_dirty(part, field, reduce_changed, outcome) is mask


@pytest.mark.parametrize("aggregate", [True, False])
def test_traced_phase_bytes_reconcile_with_the_wire(small_rmat, aggregate):
    """Phase records come from the staged sub-message sizes in both
    modes; with the frame headers they add up to each round's bytes."""
    obs = Observability()
    result = run_app(
        "d-galois", "sssp", small_rmat, num_hosts=4, policy="cvc",
        aggregate_comm=aggregate, observability=obs,
    )
    phase_bytes = {}
    for span in obs.tracer.spans:
        if span.cat == "sync-phase":
            round_index = span.tags["round"]
            phase_bytes[round_index] = (
                phase_bytes.get(round_index, 0) + span.tags["bytes"]
            )
        if span.cat == "sync-phase" and not aggregate:
            assert not span.name.startswith("framing:")
    for record in result.rounds:
        assert phase_bytes.get(record.round_index, 0) == record.comm_bytes


def test_host_compute_time_adds_the_sync_scan(small_rmat):
    prep = prepare_input("bfs", small_rmat)
    part = make_partitioner("cvc").partition(prep.edges, 2).partitions[0]
    engine = make_engine("galois")
    outcome = SimpleNamespace(work=WorkStats(edges_processed=10, nodes_processed=3))
    base = engine.compute_time(outcome.work)
    assert host_compute_time(engine, outcome, part, 0) == base
    assert host_compute_time(engine, outcome, part, 2) == (
        base + part.num_nodes * 2 * SYNC_SCAN_PER_NODE_S
    )


def test_round_comm_time_charges_translation_and_device_extras():
    cpu, gpu = make_engine("galois"), make_engine("irgl")
    traffic = RoundTraffic(messages=[(0, 1, 1000), (1, 0, 500)])
    model = CostModel(LCI_PARAMETERS)
    gpu_cost = gpu.cost
    extras = [
        7 * cpu.cost.translation_s,
        1500 / gpu_cost.device_bandwidth_bytes_per_s
        + 2 * gpu_cost.device_latency_s,
    ]
    assert round_comm_time(traffic, [cpu, gpu], model, {0: 7}) == (
        round_communication_time(traffic, 2, model, extras)
    )


def test_apply_hooks_locally_ors_returned_masks():
    mask = np.array([False, True, False])
    fields = [[
        SimpleNamespace(values=np.zeros(3), on_master_after_reduce=None),
        SimpleNamespace(values=np.zeros(3), on_master_after_reduce=lambda c: None),
        SimpleNamespace(values=np.zeros(3), on_master_after_reduce=lambda c: mask),
    ]]
    frontiers = [np.array([True, False, False])]
    apply_hooks_locally([0], fields, frontiers)
    assert frontiers[0].tolist() == [True, True, False]
