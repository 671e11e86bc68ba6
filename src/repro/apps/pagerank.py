"""Pull-style topology-driven pagerank (the paper's pr, §5.1).

Each round, every node accumulates the contributions ``rank[u] /
out_degree(u)`` of its in-neighbors.  In distributed form each proxy of a
node accumulates a *partial* sum from its local in-edges; the partial sums
are an add-reduction at the master; the master then recomputes its rank and
its new contribution, which is broadcast to the mirrors that are read
(out-edge mirrors).  This is the paper's example of a derived broadcast:
the reduced array (partial sums) and the broadcast array (contributions)
are different fields tied together by the master-side hook.

Convergence: stop when the mean |rank delta| per node drops below the
tolerance, or after ``max_iterations`` rounds (the paper caps at 100).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.apps.base import AppContext, StepOutcome, VertexProgram
from repro.core.sync_structures import ADD, FieldSpec
from repro.partition.base import LocalPartition
from repro.partition.strategy import OperatorClass
from repro.runtime.timing import WorkStats


class PageRank(VertexProgram):
    """Pull-style pagerank with residual-based convergence."""

    name = "pr"
    needs_weights = False
    operator_class = OperatorClass.PULL
    iterate_locally = False
    uses_frontier = False
    supports_pull = True
    needs_global_degrees = True

    def make_state(self, part: LocalPartition, ctx: AppContext) -> Dict:
        if ctx.global_out_degree is None:
            raise ValueError("pagerank requires ctx.global_out_degree")
        n = part.num_nodes
        out_degree = ctx.global_out_degree[part.local_to_global].astype(
            np.float64
        )
        base = 1.0 - ctx.damping
        rank = np.full(n, base, dtype=np.float64)
        contrib = np.where(out_degree > 0, rank / np.maximum(out_degree, 1), 0.0)
        # Pre-gather the local edge arrays once: the pull step is a fixed
        # scatter-add over all local edges every round.
        src, dst = part.graph.edges()
        state = {
            "rank": rank,
            "contrib": contrib,
            "acc": np.zeros(n, dtype=np.float64),
            "out_degree": out_degree,
            "edge_src": src.astype(np.int64),
            "edge_dst": dst.astype(np.int64),
            "residual": 0.0,
            "damping": ctx.damping,
        }
        return state

    def make_fields(self, part: LocalPartition, state: Dict) -> List[FieldSpec]:
        def after_reduce(changed_mask: np.ndarray) -> np.ndarray:
            return self._apply_at_masters(part, state)

        return [
            FieldSpec(
                name="rank_acc",
                values=state["acc"],
                reduce_op=ADD,
                broadcast_values=state["contrib"],
                on_master_after_reduce=after_reduce,
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
        acc = state["acc"]
        contrib = state["contrib"]
        src = state["edge_src"]
        dst = state["edge_dst"]
        np.add.at(acc, dst, contrib[src])
        work = WorkStats(
            edges_processed=len(dst), nodes_processed=part.num_nodes
        )
        return StepOutcome(updated=part.graph.has_in_edges(), work=work)

    def _apply_at_masters(
        self, part: LocalPartition, state: Dict
    ) -> np.ndarray:
        """The master-side apply: new rank, new contribution, residual.

        Runs after the reduce phase; returns the broadcast dirty mask
        (masters whose contribution changed).
        """
        m = part.num_masters
        damping = state["damping"]
        acc = state["acc"]
        rank = state["rank"]
        contrib = state["contrib"]
        out_degree = state["out_degree"]
        new_rank = (1.0 - damping) + damping * acc[:m]
        state["residual"] = float(np.abs(new_rank - rank[:m]).sum())
        rank[:m] = new_rank
        new_contrib = np.zeros(m, dtype=np.float64)
        np.divide(
            new_rank, out_degree[:m], out=new_contrib,
            where=out_degree[:m] > 0,
        )
        broadcast_dirty = np.zeros(part.num_nodes, dtype=bool)
        np.not_equal(new_contrib, contrib[:m], out=broadcast_dirty[:m])
        contrib[:m] = new_contrib
        acc[:m] = 0.0
        return broadcast_dirty

    def local_residual(self, state: Dict) -> float:
        return state["residual"]

    def is_globally_converged(
        self, residual_sum: float, round_index: int, ctx: AppContext
    ) -> bool:
        if round_index >= ctx.max_iterations:
            return True
        mean_residual = residual_sum / max(ctx.num_global_nodes, 1)
        return round_index > 1 and mean_residual < ctx.tolerance
