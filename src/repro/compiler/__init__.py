"""The Gluon sync compiler (§3.3).

The paper's applications do not write communication code: a compiler
statically analyzes the operator — which fields it reads and writes, in
which direction data flows, what reduction combines concurrent writes —
and generates the synchronization structures plus the sync call placement
("we have implemented this in a compiler for Galois").

This subpackage is the Python rendering of that compiler.  An application
is written as a *declarative program specification*
(:class:`~repro.compiler.spec.ProgramSpec`): field declarations, compute
phases with vectorized kernels, and sync pairings.
:func:`compile_program` renders a complete
:class:`~repro.apps.base.VertexProgram` — state allocation, the local
super-step, the Gluon field specs, and the strategy-legality analysis —
as real Python source from application-agnostic templates.

Example (bfs as one push phase)::

    spec = ProgramSpec(
        name="bfs",
        fields=(FieldDecl("dist", np.uint32, reduce="min",
                          init="np.full(n, INFINITY, dtype=np.uint32)",
                          source_value="0"),),
        phases=(PhaseSpec(name="relax", kind="frontier_push",
                          target="dist", kernel="{src.dist} + 1",
                          guard="{dist} != INFINITY"),),
        sync=(SyncDecl(field="dist"),),
        constants=(("INFINITY", np.uint32(np.iinfo(np.uint32).max)),),
        frontier="source",
    )
    bfs = compile_program(spec)   # a ready-to-run VertexProgram

The sync endpoints of every generated ``FieldSpec`` are *derived* from
the phases' declared access sets (:func:`derive_endpoints`), and the
GL001–GL011 lint rules verify the generated code (``repro lint
--compiled``).  All migrated benchmark apps live as specs in
:mod:`repro.apps.specs`, registered as ``<app>@compiled``.
"""

from repro.compiler.analysis import describe_program, required_patterns
from repro.compiler.program_codegen import (
    compile_program,
    render_program,
    verify_compiled,
)
from repro.compiler.spec import (
    FieldDecl,
    Init,
    PhaseSpec,
    ProgramSpec,
    SyncDecl,
    derive_endpoints,
    derive_phase_access,
)

__all__ = [
    "FieldDecl",
    "Init",
    "required_patterns",
    "ProgramSpec",
    "PhaseSpec",
    "SyncDecl",
    "derive_endpoints",
    "derive_phase_access",
    "compile_program",
    "render_program",
    "verify_compiled",
    "describe_program",
]
