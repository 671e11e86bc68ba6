"""Unit tests for the spec language's field declarations and initializers."""

import numpy as np
import pytest

from repro.compiler.spec import CompileError, FieldDecl, Init


def min_field():
    return FieldDecl(
        "dist", np.uint32, reduce="min", init=Init.infinity_except_source()
    )


class TestFieldDecl:
    def test_valid(self):
        decl = min_field()
        assert decl.reduction.name == "min"

    def test_unknown_reduction(self):
        with pytest.raises(CompileError, match="unknown reduction"):
            FieldDecl("x", np.uint32, reduce="xor", init=Init.constant(0))

    def test_non_callable_init(self):
        with pytest.raises(CompileError, match="init must be callable"):
            FieldDecl("x", np.uint32, reduce="min", init=0)


class TestInit:
    def make_part(self, tiny_edges):
        from repro.partition import make_partitioner

        return make_partitioner("oec").partition(tiny_edges, 2).partitions[0]

    def test_constant(self, tiny_edges):
        from repro.apps.base import AppContext

        part = self.make_part(tiny_edges)
        ctx = AppContext(num_global_nodes=10)
        values = Init.constant(7)(part, ctx, np.uint32)
        assert np.all(values == 7)

    def test_global_id(self, tiny_edges):
        from repro.apps.base import AppContext

        part = self.make_part(tiny_edges)
        ctx = AppContext(num_global_nodes=10)
        values = Init.global_id()(part, ctx, np.uint32)
        assert np.array_equal(values, part.local_to_global)

    def test_infinity_except_source(self, tiny_edges):
        from repro.apps.base import AppContext

        part = self.make_part(tiny_edges)
        source = int(part.local_to_global[0])
        ctx = AppContext(num_global_nodes=10, source=source)
        values = Init.infinity_except_source()(part, ctx, np.uint32)
        assert values[0] == 0
        assert np.all(values[1:] == np.iinfo(np.uint32).max)

    def test_zero_except_source(self, tiny_edges):
        from repro.apps.base import AppContext

        part = self.make_part(tiny_edges)
        source = int(part.local_to_global[0])
        ctx = AppContext(num_global_nodes=10, source=source)
        values = Init.zero_except_source(99)(part, ctx, np.uint32)
        assert values[0] == 99
        assert np.all(values[1:] == 0)
