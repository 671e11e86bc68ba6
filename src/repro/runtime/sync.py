"""The host-round sync driver and the round's shared cost terms.

Every Gluon synchronization is one collective (§3): reduce mirror
contributions to their masters, apply at the masters, broadcast the
canonical values back to the mirrors.  :func:`synchronize` runs it for
whichever hosts the caller drives — every host for the in-process runner
and for confined recovery's healing sync, the owned hosts for a
process-runtime worker — as stage → flush → receive per phase over the
substrates' communication planes.

Per-peer aggregation (§4, the LCI backend) only changes how many
messages carry the collective.  An aggregating plane runs it once over a
group holding every field: one framed buffer per peer per phase.  The
``--no-aggregation`` ablation runs it once per field over one-field
groups; its pass-through plane sends each staged sub-message as its own
raw transport message, which carries no field identity, so each field's
receives must follow its own sends.

The per-round cost terms every runner charges are defined here too:
:func:`host_compute_time` (counted work plus the sync scan) and
:func:`round_comm_time` (alpha-beta time plus the translation and GPU
device-transfer extras).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.comm.frame import frame_overhead
from repro.runtime.timing import round_communication_time

#: Simulated cost of the substrate scanning one proxy's dirty bit during a
#: field synchronization.  This is the (small) per-round price of the
#: Gluon layer that Table 4 measures on a single host.
SYNC_SCAN_PER_NODE_S = 2.0e-10


def synchronize(
    hosts: Sequence[int],
    substrates,
    fields,
    outcomes,
    next_frontiers,
    after_flush: Optional[Callable[[], None]] = None,
    records: Optional[List] = None,
) -> None:
    """Run the reduce/apply/broadcast collective over ``hosts``.

    ``substrates``, ``fields``, ``outcomes`` and ``next_frontiers`` are
    indexed by host id (lists or dicts).  Every proxy the collective
    changes or marks for broadcast is or-ed into ``next_frontiers[h]``
    in place.  ``after_flush`` runs after each phase's flushes and
    before its receives (the process worker emits the pipe's
    end-of-phase markers there).  ``records``, when given, collects the
    trace's phase records ``(label, [(src, dst, nbytes), ...],
    serialize_wall_s, apply_wall_s)`` built from the staged sub-message
    sizes, plus one ``framing:<phase>`` record per aggregated phase for
    the frame headers.
    """
    first = hosts[0]
    num_fields = len(fields[first])
    if substrates[first].aggregate:
        groups = [range(num_fields)]
    else:
        groups = [range(i, i + 1) for i in range(num_fields)]
    for group in groups:
        width = len(group)
        reduce_changed = _run_phase(
            "reduce", hosts, substrates, fields, group,
            {h: [outcomes[h].updated] * width for h in hosts},
            after_flush, records,
        )
        broadcast_dirty = {}
        for h in hosts:
            part = substrates[h].partition
            per_slot = []
            for slot, i in enumerate(group):
                changed = reduce_changed[h][slot]
                dirty = _broadcast_dirty(part, fields[h][i], changed, outcomes[h])
                per_slot.append(dirty)
                next_frontiers[h] |= changed | dirty
            broadcast_dirty[h] = per_slot
        broadcast_changed = _run_phase(
            "broadcast", hosts, substrates, fields, group, broadcast_dirty,
            after_flush, records,
        )
        for h in hosts:
            for mask in broadcast_changed[h]:
                next_frontiers[h] |= mask
    # Channel drain guard: a sub-message staged after its phase flush
    # would sit in a buffer forever — fail loudly, complementing the
    # transport's own undelivered-mail detection at round close.
    for h in hosts:
        substrates[h].assert_drained()


def _run_phase(
    phase: str,
    hosts: Sequence[int],
    substrates,
    fields,
    group: range,
    dirty: Mapping[int, List[np.ndarray]],
    after_flush: Optional[Callable[[], None]],
    records: Optional[List],
) -> Dict[int, List[np.ndarray]]:
    """Stage, flush and receive one phase of one field group.

    Returns, per host, the changed mask of every field in the group.
    """
    width = len(group)
    tracing = records is not None
    staged_msgs = []
    ser_walls = []
    for slot, i in enumerate(group):
        if tracing:
            wall_start = time.perf_counter()
            msgs = []
        for h in hosts:
            sub = substrates[h]
            stage = sub.stage_reduce if phase == "reduce" else sub.stage_broadcast
            staged = stage(slot, fields[h][i], dirty[h][slot])
            if tracing:
                msgs.extend((h, peer, nbytes) for peer, nbytes in staged)
        if tracing:
            ser_walls.append(time.perf_counter() - wall_start)
            staged_msgs.append(msgs)
    flushed = [(h, substrates[h].flush_phase(width)) for h in hosts]
    if after_flush is not None:
        after_flush()
    if tracing:
        wall_start = time.perf_counter()
    changed = {}
    for h in hosts:
        sub = substrates[h]
        receive = (
            sub.receive_reduce_all if phase == "reduce"
            else sub.receive_broadcast_all
        )
        changed[h] = receive([fields[h][i] for i in group])
    if tracing:
        apply_share = (time.perf_counter() - wall_start) / width
        names = fields[hosts[0]]
        for slot, i in enumerate(group):
            records.append((
                f"{phase}:{names[i].name}",
                staged_msgs[slot],
                ser_walls[slot],
                apply_share,
            ))
        # Per-field records carry sub-message bytes only; the frame
        # header belongs to the phase as a whole, so the trace's phase
        # bytes still reconcile exactly with the round's wire volume.
        overhead = frame_overhead(width)
        framing = [
            (h, peer, overhead) for h, pairs in flushed for peer, _ in pairs
        ]
        if framing:
            records.append((f"framing:{phase}", framing, 0.0, 0.0))
    return changed


def _broadcast_dirty(part, field, reduce_changed, outcome) -> np.ndarray:
    """Master-side apply: which masters broadcast after the reduce.

    A field's master hook picks the mask; with no hook, or a hook that
    returns ``None``, the masters the reduce changed or the compute
    updated broadcast.
    """
    dirty = None
    if field.on_master_after_reduce is not None:
        dirty = field.on_master_after_reduce(reduce_changed)
    if dirty is None:
        dirty = reduce_changed | outcome.updated
        dirty[part.num_masters :] = False
    return dirty


def apply_hooks_locally(hosts: Sequence[int], fields, next_frontiers) -> None:
    """Run master-side apply hooks when sync is disabled (1 host)."""
    for h in hosts:
        for field in fields[h]:
            if field.on_master_after_reduce is not None:
                no_changes = np.zeros(len(field.values), dtype=bool)
                dirty = field.on_master_after_reduce(no_changes)
                if dirty is not None:
                    next_frontiers[h] |= dirty


def host_compute_time(engine, outcome, part, num_fields: int) -> float:
    """Simulated compute seconds of one host's round.

    Counted work plus the substrate's dirty-bit scan of every
    synchronized field (``num_fields=0`` when sync is disabled).
    """
    return (
        engine.compute_time(outcome.work)
        + part.num_nodes * num_fields * SYNC_SCAN_PER_NODE_S
    )


def round_comm_time(
    traffic, engines: Sequence, cost_model, translation_deltas: Mapping[int, int]
) -> float:
    """Alpha-beta time of a closed round plus its per-host extras.

    The extras are address-translation work (``translation_deltas`` maps
    each syncing host to the translations it performed this round) and,
    for GPU engines, the host<->device copy of the bytes the host moved.
    """
    num_hosts = len(engines)
    extras = [0.0] * num_hosts
    for h, delta in translation_deltas.items():
        extras[h] += delta * engines[h].cost.translation_s
    sent, received = traffic.bytes_by_host(num_hosts)
    for h, engine in enumerate(engines):
        cost = engine.cost
        if not (engine.is_gpu and cost.device_bandwidth_bytes_per_s):
            continue
        moved = sent[h] + received[h]
        if moved:
            extras[h] += (
                moved / cost.device_bandwidth_bytes_per_s
                + 2 * cost.device_latency_s
            )
    return round_communication_time(traffic, num_hosts, cost_model, extras)
