"""The compiled-program contract: every migrated spec's generated code
is *bitwise identical* to the handwritten application it replaces —
across partition policies, host counts, and runtimes — its sync
endpoints are derived (never declared), and the GL lint pass verifies
the generated source like any handwritten program.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.linter import run_lint
from repro.apps import bc, features, make_app
from repro.apps.specs import (
    BFS_SPEC,
    PROGRAM_SPECS,
    base_app_name,
    compiled_app_names,
    is_compiled_name,
    make_compiled_app,
    spec_for,
)
from repro.compiler import (
    FieldDecl,
    PhaseSpec,
    ProgramSpec,
    SyncDecl,
    compile_program,
    derive_endpoints,
    describe_program,
    render_program,
    required_patterns,
    verify_compiled,
)
from repro.compiler.spec import CompileError
from repro.engines import make_engine
from repro.graph.generators import rmat
from repro.partition import make_partitioner
from repro.partition.strategy import PartitionStrategy
from repro.runtime.executor import DistributedExecutor
from repro.systems import prepare_input, run_app
from tests.conftest import reference_bfs

#: Output field per migrated app (the key the oracle checks, too).
RESULT_KEY = {
    "bfs": "dist",
    "sssp": "dist",
    "cc": "label",
    "kcore": "alive",
    "pr": "rank",
    "pr-push": "rank",
    "featprop": "feat",
    "labelprop": "label",
}

MIGRATED = sorted(PROGRAM_SPECS)
POLICIES = ("oec", "iec", "cvc", "hvc", "jagged", "random")
HOSTS = (1, 2, 4, 8)

#: Module-level so Hypothesis examples share one graph (fixtures are
#: function-scoped from @given's point of view).
GRAPH = rmat(scale=8, edge_factor=8, seed=7)


def _pair(app, hosts, policy, runtime="simulated"):
    handwritten = run_app(
        "d-galois", app, GRAPH, num_hosts=hosts, policy=policy,
        runtime=runtime,
    )
    compiled = run_app(
        "d-galois", app + "@compiled", GRAPH, num_hosts=hosts,
        policy=policy, runtime=runtime,
    )
    return handwritten, compiled


def _assert_bitwise(app, handwritten, compiled):
    key = RESULT_KEY[app]
    expected = handwritten.executor.gather_result(key)
    got = compiled.executor.gather_result(key)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected), f"{app}: generated code diverged"
    assert len(compiled.rounds) == len(handwritten.rounds)


class TestBitwiseIdentity:
    """Generated code must equal the handwritten app bit for bit."""

    @pytest.mark.parametrize("app", MIGRATED)
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        policy=st.sampled_from(POLICIES),
        hosts=st.sampled_from(HOSTS),
    )
    def test_identical_across_policies_and_hosts(self, app, policy, hosts):
        handwritten, compiled = _pair(app, hosts, policy)
        _assert_bitwise(app, handwritten, compiled)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("hosts", HOSTS)
    def test_bfs_full_matrix(self, policy, hosts):
        """One app exhaustively over the whole policy × host grid."""
        handwritten, compiled = _pair("bfs", hosts, policy)
        _assert_bitwise("bfs", handwritten, compiled)

    @pytest.mark.parametrize("app", MIGRATED)
    def test_identical_comm_volume(self, app):
        """Same answer *and* same wire traffic: the derived endpoints
        produce the same sync plan the handwritten declarations did."""
        handwritten, compiled = _pair(app, 4, "cvc")
        _assert_bitwise(app, handwritten, compiled)
        assert (
            compiled.communication_volume
            == handwritten.communication_volume
        )
        assert (
            compiled.communication_messages
            == handwritten.communication_messages
        )

    @pytest.mark.parametrize("app", ["bfs", "pr"])
    def test_identical_under_process_runtime(self, app):
        handwritten, compiled = _pair("bfs" if app == "bfs" else app, 2,
                                      "cvc", runtime="process")
        _assert_bitwise(app, handwritten, compiled)


class TestDerivedEndpoints:
    """Sync endpoints come from the phases' access sets, never by hand."""

    @pytest.mark.parametrize("app", MIGRATED)
    def test_migrated_specs_derive_forward_flow(self, app):
        spec = spec_for(app)
        endpoints = derive_endpoints(spec)
        assert endpoints, f"{app}: no sync wires derived"
        for wire, (writes, reads) in endpoints.items():
            assert writes == frozenset({"destination"}), (app, wire)
            assert reads == frozenset({"source"}), (app, wire)

    def test_bc_backward_derives_reversed_flow(self):
        """BC's transposed dependency phase derives the §3.2-reversed
        endpoints the module used to hand-declare."""
        assert bc.DELTA_WRITES == frozenset({"source"})
        assert bc.DELTA_READS == frozenset({"destination"})

    def test_bc_forward_derives_both_end_reads(self):
        assert bc.DIST_WRITES == frozenset({"destination"})
        assert bc.DIST_READS == frozenset({"source", "destination"})
        assert bc.SIGMA_WRITES == frozenset({"destination"})
        assert bc.SIGMA_READS == frozenset({"source", "destination"})

    def test_feature_apps_derive_default_flow(self):
        assert features.AGG_WRITES == frozenset({"destination"})
        assert features.AGG_READS == frozenset({"source"})

    def test_unwritten_sync_field_is_rejected(self):
        """A sync wire nothing writes derives an empty reduce side —
        the spec validation must refuse it."""
        with pytest.raises(CompileError, match="no phase writes"):
            ProgramSpec(
                name="broken",
                fields=(
                    FieldDecl("a", np.uint32, reduce="min",
                              init="np.zeros(n, dtype=np.uint32)"),
                    FieldDecl("b", np.uint32, reduce="min",
                              init="np.zeros(n, dtype=np.uint32)"),
                ),
                phases=(
                    PhaseSpec(name="p", kind="frontier_push",
                              target="a", kernel="{src.a}"),
                ),
                sync=(SyncDecl(field="b"),),
            )


class TestVerificationLoop:
    """compile → lint: tampered access sets must trip GL001."""

    def _tampered_bfs(self):
        return dataclasses.replace(
            BFS_SPEC,
            endpoint_overrides=(
                ("dist", (frozenset({"source"}),
                          frozenset({"source", "destination"}))),
            ),
        )

    def test_lint_clean_on_every_migrated_spec(self):
        names, findings = run_lint(compiled=True)
        assert sorted(names) == sorted(compiled_app_names())
        errors = [f for f in findings if f.severity == "error"]
        assert not errors, [f.message for f in errors]

    def test_tampered_endpoints_fire_gl001(self):
        program = compile_program(self._tampered_bfs())
        findings = verify_compiled(type(program))
        gl001 = [f for f in findings if f.rule.rule_id == "GL001"]
        assert gl001, "tampered writes set must trip GL001"
        assert all(f.severity == "error" for f in gl001)

    def test_compile_verify_gate_rejects_tampered_spec(self):
        with pytest.raises(CompileError, match="GL001"):
            compile_program(self._tampered_bfs(), verify=True)

    def test_render_is_deterministic(self):
        assert render_program(BFS_SPEC) == render_program(BFS_SPEC)

    def test_generated_source_attached(self):
        program = make_compiled_app("bfs")
        cls = type(program)
        assert cls.spec.name == "bfs"
        assert "class CompiledBfs" in cls.generated_source


class TestRegistry:
    """One source of truth: the spec registry resolves names everywhere."""

    def test_compiled_names_cover_every_migrated_spec(self):
        names = compiled_app_names()
        assert all(n.endswith("@compiled") for n in names)
        assert sorted(base_app_name(n) for n in names) == MIGRATED

    def test_base_app_name_round_trip(self):
        assert base_app_name("bfs@compiled") == "bfs"
        assert base_app_name("bfs") == "bfs"
        assert is_compiled_name("pr@compiled")
        assert not is_compiled_name("pr")

    def test_spec_for_unknown_app(self):
        with pytest.raises(ValueError, match="known"):
            spec_for("nonesuch")

    def test_make_app_resolves_compiled_suffix(self):
        program = make_app("cc@compiled")
        assert program.name == "cc@compiled"
        assert program.symmetrize_input

    def test_compiled_class_cached_instances_fresh(self):
        a, b = make_compiled_app("bfs"), make_compiled_app("bfs")
        assert type(a) is type(b)
        assert a is not b

    def test_pagerank_alias(self):
        assert type(make_compiled_app("pagerank")) is type(
            make_compiled_app("pr")
        )


class TestPullTargetRestriction:
    """A sparse_pull phase must honor its pull-target predicate (gather
    only destinations that can still improve)."""

    def _bfs_spec(self, with_targets):
        push, pull = BFS_SPEC.phases
        return dataclasses.replace(
            BFS_SPEC,
            name="bfs-targets" if with_targets else "bfs-all-targets",
            phases=(
                push,
                pull if with_targets
                else dataclasses.replace(pull, pull_targets=None),
            ),
        )

    def _second_pull(self, with_targets):
        prep = prepare_input("bfs", GRAPH)
        program = compile_program(self._bfs_spec(with_targets))
        part = make_partitioner("oec").partition(prep.edges, 1).partitions[0]
        state = program.make_state(part, prep.ctx)
        frontier = program.initial_frontier(part, state, prep.ctx)
        # The first pull settles level 1; the second is where the
        # target restriction pays (most nodes are still unreached).
        program.step(part, state, frontier, direction="pull")
        frontier = state["dist"] != np.iinfo(np.uint32).max
        return program.step(part, state, frontier, direction="pull")

    def test_pull_targets_shrink_the_gather(self):
        restricted = self._second_pull(with_targets=True)
        unrestricted = self._second_pull(with_targets=False)
        assert (
            restricted.work.edges_processed
            < unrestricted.work.edges_processed
        )
        assert (
            restricted.work.nodes_processed
            < unrestricted.work.nodes_processed
        )
        # Same frontier, same values: the restriction must not change
        # which nodes improve.
        assert np.array_equal(
            restricted.updated, unrestricted.updated
        )


class TestCompiledPrograms:
    """Engine coverage, overflow-safe kernels, compile-time rejection and
    the strategy plan on the spec path."""

    @pytest.mark.parametrize("engine", ["galois", "ligra", "irgl"])
    def test_compiled_bfs_runs_on_every_engine(self, small_rmat, engine):
        prep = prepare_input("bfs", small_rmat)
        partitioned = make_partitioner("cvc").partition(prep.edges, 4)
        executor = DistributedExecutor(
            partitioned, make_engine(engine), make_compiled_app("bfs"),
            prep.ctx,
        )
        executor.run()
        got = executor.gather_result("dist").astype(np.uint64)
        assert np.array_equal(got, reference_bfs(prep.edges, prep.ctx.source))

    def test_compiled_sssp_clips_instead_of_wrapping(self, small_path):
        """INF + weight must clip to INF, never wrap around."""
        result = run_app(
            "d-galois", "sssp@compiled", small_path, num_hosts=2, policy="oec"
        )
        dist = result.executor.gather_result("dist")
        inf = np.iinfo(np.uint32).max
        assert np.all((dist <= 40 * 100) | (dist == inf))

    def test_assign_reduction_rejected(self):
        spec = dataclasses.replace(
            BFS_SPEC,
            name="bfs-assign",
            fields=(dataclasses.replace(BFS_SPEC.fields[0], reduce="assign"),),
        )
        with pytest.raises(CompileError, match="scatter-combine"):
            compile_program(spec)

    def test_required_patterns_match_section32(self):
        assert required_patterns(PartitionStrategy.OEC) == (True, False)
        assert required_patterns(PartitionStrategy.IEC) == (False, True)
        for strategy in (PartitionStrategy.UVC, PartitionStrategy.CVC):
            assert required_patterns(strategy) == (True, True)

    def test_describe_program_renders_the_plan(self):
        text = describe_program(spec_for("sssp"))
        assert text.startswith("program sssp: push-style")
        assert "derived writes=['destination'] reads=['source']" in text
        assert "oec: reduce" in text and "iec: broadcast" in text
        assert "ILLEGAL" not in text
