"""Feature workloads: SpMM-style aggregation over matrix-valued fields.

Three GNN-shaped vertex programs built on one shared kernel
(:func:`repro.features.kernels.aggregate_neighbor_rows`):

* ``featprop`` / ``featprop-mean`` — iterated feature propagation
  ``X <- A^T X`` (optionally normalized by the power-of-two degree so
  the division stays exact, see :func:`pow2_normalizer`);
* ``labelprop`` — majority-vote label propagation, where the wide field
  is the one-hot label matrix and the reduce carries vote *counts*;
* ``sage`` — a single GraphSAGE forward layer with fixed integer
  weights: one aggregation round, then a per-master dense transform.

All three synchronize one wide ``(n, d)`` float64 field: the reduce
carries per-host partial row sums (ADD), the broadcast carries the
updated feature rows — the paper's derived-broadcast pattern
(:mod:`repro.apps.pagerank`) lifted to matrix-valued labels.  Every
intermediate value is integer-valued or dyadic-rational, so results are
bitwise identical across host counts and partition policies (see
:mod:`repro.features.kernels` for why).

The per-field wire ``compression`` mode ("none"/"delta"/"fp16") rides in
from :class:`AppContext` so runs can ablate payload encodings without
touching the programs.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.apps.base import AppContext, StepOutcome, VertexProgram
from repro.compiler.spec import PhaseSpec, derive_phase_access
from repro.core.sync_structures import ADD, FieldSpec
from repro.features.kernels import (
    aggregate_neighbor_rows,
    feature_rows,
    label_rows,
    one_hot_rows,
    pow2_normalizer,
    sage_weights,
)
from repro.partition.base import LocalPartition
from repro.partition.strategy import OperatorClass
from repro.runtime.timing import WorkStats


#: Declarative description of the one compute phase all three programs
#: share: a dense pull aggregating ``feat`` rows into the ``acc``
#: accumulator over every local edge.  The FieldSpec endpoints below are
#: *derived* from it (:func:`derive_phase_access`) — the same rule the
#: compiled apps go through — not hand-declared.
_AGGREGATE = PhaseSpec(
    name="aggregate",
    kind="dense_pull",
    target="acc",
    source_rows="feat",
)

AGG_WRITES, AGG_READS = derive_phase_access(
    _AGGREGATE, "acc", read_surface="feat"
)


class _FeatureAggregation(VertexProgram):
    """Shared skeleton: pull-style wide-row scatter-add each round."""

    needs_weights = False
    operator_class = OperatorClass.PULL
    iterate_locally = False
    uses_frontier = False
    supports_pull = True
    #: Wire name of the single synchronized wide field.
    field_name = "feat_acc"

    def _base_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        n = part.num_nodes
        dim = ctx.feature_dim
        feat = feature_rows(part.local_to_global, dim)
        src, dst = part.graph.edges()
        return {
            "feat": feat,
            "acc": np.zeros((n, dim), dtype=np.float64),
            "edge_src": src.astype(np.int64),
            "edge_dst": dst.astype(np.int64),
            "residual": 0.0,
            "compression": ctx.compression,
        }

    def make_fields(self, part: LocalPartition, state: Dict) -> List[FieldSpec]:
        def after_reduce(changed_mask: np.ndarray) -> np.ndarray:
            return self._apply_at_masters(part, state)

        return [
            FieldSpec(
                name=self.field_name,
                values=state["acc"],
                reduce_op=ADD,
                broadcast_values=state["feat"],
                on_master_after_reduce=after_reduce,
                compression=state["compression"],
                writes=AGG_WRITES,
                reads=AGG_READS,
            )
        ]

    def initial_frontier(
        self, part: LocalPartition, state: Dict, ctx: AppContext
    ) -> np.ndarray:
        return np.ones(part.num_nodes, dtype=bool)

    def step(
        self,
        part: LocalPartition,
        state: Dict,
        frontier: np.ndarray,
        direction: str = "pull",
    ) -> StepOutcome:
        dst = state["edge_dst"]
        aggregate_neighbor_rows(
            state["acc"], state["feat"], state["edge_src"], dst
        )
        work = WorkStats(
            edges_processed=len(dst), nodes_processed=part.num_nodes
        )
        return StepOutcome(updated=part.graph.has_in_edges(), work=work)

    def _apply_at_masters(
        self, part: LocalPartition, state: Dict
    ) -> np.ndarray:
        raise NotImplementedError

    def local_residual(self, state: Dict) -> float:
        return float(state["residual"])


class FeaturePropagation(_FeatureAggregation):
    """``ctx.feature_rounds`` iterations of ``X <- A^T X`` (sum variant)."""

    name = "featprop"
    #: The mean variant divides the aggregated row by the power-of-two
    #: degree; the base class uses the raw sum.
    mean_normalize = False

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        state = self._base_state(part, ctx)
        if self.mean_normalize:
            if ctx.global_in_degree is None:
                raise ValueError(
                    f"{self.name} requires ctx.global_in_degree"
                )
            in_degree = ctx.global_in_degree[part.local_to_global]
            state["inv_norm"] = (1.0 / pow2_normalizer(in_degree))[:, None]
        return state

    def _apply_at_masters(
        self, part: LocalPartition, state: Dict
    ) -> np.ndarray:
        m = part.num_masters
        feat = state["feat"]
        acc = state["acc"]
        new = acc[:m]
        if self.mean_normalize:
            new = new * state["inv_norm"][:m]
        changed = (new != feat[:m]).any(axis=1)
        state["residual"] = float(changed.sum())
        feat[:m] = new
        acc[:m] = 0.0
        broadcast_dirty = np.zeros(part.num_nodes, dtype=bool)
        broadcast_dirty[:m] = changed
        return broadcast_dirty

    def is_globally_converged(
        self, residual_sum: float, round_index: int, ctx: AppContext
    ) -> bool:
        return round_index >= ctx.feature_rounds


class FeaturePropagationMean(FeaturePropagation):
    """Mean-style variant: rows divided by the pow2 in-degree (exact)."""

    name = "featprop-mean"
    mean_normalize = True
    needs_global_in_degrees = True


class LabelPropagation(_FeatureAggregation):
    """Majority-vote label propagation over in-neighbors.

    The synchronized wide field is the one-hot label matrix; the
    reduce's row sums are per-class vote counts.  Masters with no votes
    keep their label; ties break toward the lowest class index.  Stops
    at a fixpoint (no label changed anywhere) or after
    ``ctx.feature_rounds`` rounds — matching
    :func:`repro.features.oracles.labelprop_labels`.
    """

    name = "labelprop"
    field_name = "count_acc"

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        state = self._base_state(part, ctx)
        num_classes = ctx.feature_dim
        label = label_rows(part.local_to_global, num_classes)
        state["label"] = label
        # The wide field holds one-hot labels, not raw features.
        state["feat"][...] = one_hot_rows(label, num_classes)
        return state

    def _apply_at_masters(
        self, part: LocalPartition, state: Dict
    ) -> np.ndarray:
        m = part.num_masters
        label = state["label"]
        feat = state["feat"]
        acc = state["acc"]
        counts = acc[:m]
        has_votes = counts.sum(axis=1) > 0
        new_label = np.where(has_votes, counts.argmax(axis=1), label[:m])
        state["residual"] = float((new_label != label[:m]).sum())
        label[:m] = new_label
        new_rows = one_hot_rows(new_label, feat.shape[1])
        changed = (new_rows != feat[:m]).any(axis=1)
        feat[:m] = new_rows
        acc[:m] = 0.0
        broadcast_dirty = np.zeros(part.num_nodes, dtype=bool)
        broadcast_dirty[:m] = changed
        return broadcast_dirty

    def is_globally_converged(
        self, residual_sum: float, round_index: int, ctx: AppContext
    ) -> bool:
        return residual_sum == 0 or round_index >= ctx.feature_rounds


class GraphSage(_FeatureAggregation):
    """One GraphSAGE forward layer with fixed integer weights.

    ``H = relu(X W_self + (A^T X) W_neigh)`` — a single aggregation
    round, then a dense per-master transform.  The input features never
    change, so the broadcast dirty mask is empty and the run stops after
    round one.
    """

    name = "sage"

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        state = self._base_state(part, ctx)
        dim = ctx.feature_dim
        state["hidden"] = np.zeros((part.num_nodes, dim), dtype=np.float64)
        state["w_self"] = sage_weights(dim, dim, salt=1)
        state["w_neigh"] = sage_weights(dim, dim, salt=2)
        return state

    def _apply_at_masters(
        self, part: LocalPartition, state: Dict
    ) -> np.ndarray:
        m = part.num_masters
        feat = state["feat"]
        acc = state["acc"]
        hidden = feat[:m] @ state["w_self"] + acc[:m] @ state["w_neigh"]
        state["hidden"][:m] = np.maximum(hidden, 0.0)
        state["residual"] = 0.0
        acc[:m] = 0.0
        return np.zeros(part.num_nodes, dtype=bool)

    def is_globally_converged(
        self, residual_sum: float, round_index: int, ctx: AppContext
    ) -> bool:
        return round_index >= 1
