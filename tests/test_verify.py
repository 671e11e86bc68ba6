"""Tests for the public oracles and the verify_run API."""

import numpy as np
import pytest

from repro import oracles
from repro.systems import prepare_input, run_app
from repro.verify import Verification, VerificationError, verify_run
from tests.conftest import (
    reference_bfs,
    reference_cc,
    reference_kcore,
    reference_pagerank,
    reference_sssp,
)


class TestOraclesAgreeWithTestReferences:
    """The library oracles and the (independently written) test-suite
    references must agree — a cross-validation of both."""

    def test_bfs(self, small_rmat):
        prep = prepare_input("bfs", small_rmat)
        assert np.array_equal(
            oracles.bfs_distances(prep.edges, prep.ctx.source),
            reference_bfs(prep.edges, prep.ctx.source),
        )

    def test_sssp(self, small_rmat):
        prep = prepare_input("sssp", small_rmat)
        assert np.array_equal(
            oracles.sssp_distances(prep.edges, prep.ctx.source),
            reference_sssp(prep.edges, prep.ctx.source),
        )

    def test_cc(self, small_rmat):
        prep = prepare_input("cc", small_rmat)
        assert np.array_equal(
            oracles.component_labels(prep.edges), reference_cc(prep.edges)
        )

    def test_pagerank(self, small_rmat):
        np.testing.assert_allclose(
            oracles.pagerank_values(small_rmat),
            reference_pagerank(small_rmat),
            rtol=1e-12,
        )

    def test_kcore(self, small_rmat):
        prep = prepare_input("kcore", small_rmat, k=3)
        assert np.array_equal(
            oracles.kcore_membership(prep.edges, 3),
            reference_kcore(prep.edges, 3),
        )


class TestVerifyRun:
    @pytest.mark.parametrize(
        "app", ["bfs", "sssp", "cc", "pr", "pr-push", "kcore", "bc"]
    )
    def test_every_app_verifies(self, small_rmat, app):
        result = run_app("d-galois", app, small_rmat, num_hosts=4, policy="cvc")
        outcome = verify_run(result, small_rmat)
        assert isinstance(outcome, Verification)
        assert outcome.matched, outcome

    def test_weighted_run_verifies_under_its_weight_seed(self, small_rmat):
        """The verifier re-weights the input with the run's own seed, not
        the default one."""
        result = run_app(
            "d-galois", "sssp", small_rmat, num_hosts=2, policy="cvc",
            weight_seed=7,
        )
        outcome = verify_run(result, small_rmat, raise_on_mismatch=False)
        assert outcome.matched, outcome
        assert result.executor.ctx.weight_seed == 7

    @pytest.mark.parametrize("system", ["gemini", "gunrock", "d-hybrid"])
    def test_baselines_verify(self, small_rmat, system):
        result = run_app(system, "bfs", small_rmat, num_hosts=4)
        assert verify_run(result, small_rmat).matched

    def test_detects_corruption(self, small_rmat):
        result = run_app("d-galois", "bfs", small_rmat, num_hosts=4)
        # Corrupt one master value post-hoc.
        state = result.executor.states[0]
        state["dist"][0] += 1
        with pytest.raises(VerificationError, match="diverged"):
            verify_run(result, small_rmat)
        outcome = verify_run(result, small_rmat, raise_on_mismatch=False)
        assert not outcome.matched
        assert outcome.max_abs_error >= 1

    def test_requires_executor(self, small_rmat):
        from repro.runtime.stats import RunResult

        bare = RunResult(system="s", app="bfs", policy="p", num_hosts=1)
        with pytest.raises(VerificationError, match="executor"):
            verify_run(bare, small_rmat)

    def test_unknown_app_rejected(self, small_rmat):
        result = run_app("d-galois", "bfs", small_rmat, num_hosts=2)
        result.app = "mystery"
        with pytest.raises(VerificationError, match="no oracle"):
            verify_run(result, small_rmat)
