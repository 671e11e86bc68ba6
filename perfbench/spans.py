"""Layer spans recorded from outside the program.

:class:`SpanRecorder` keeps a tree of timed spans in memory and sums each
layer's *self time* (its span's duration minus the part its child spans
cover).  :class:`LayerProbes` installs the recorder around the public
functions of each ``repro`` layer by rebinding them — in their defining
module, in every ``repro`` module that imported them by name, and on
their classes — and restores the originals on :meth:`LayerProbes.remove`.
Nothing under ``src/`` knows it is being traced, and with the probes
removed the program runs its own, unwrapped code.

Spans only record in the process that owns the recorder: forked workers
of the process runtime inherit the wrappers but run them as plain calls.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import time
import weakref
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, module, function)``: module-level functions to time.
FUNCTION_PROBES = (
    ("graph.prepare", "repro.systems", "prepare_input"),
    ("partition.build", "repro.partition.build", "build_partition"),
    ("partition.local", "repro.partition.base", "build_local_partition"),
    ("core.memoization.exchange", "repro.core.substrate", "setup_substrates"),
    ("comm.codec.encode", "repro.comm.codec", "encode_memoized_field"),
    ("comm.codec.encode", "repro.comm.codec", "encode_global_ids_field"),
    ("comm.codec.decode", "repro.comm.codec", "decode_field_payload"),
    ("comm.frame.encode", "repro.comm.frame", "encode_frame"),
    ("comm.frame.decode", "repro.comm.frame", "decode_frame"),
)

#: ``(layer, module, class, method)``: methods to time on one class.
METHOD_PROBES = (
    ("core.sync.apply", "repro.core.sync_structures", "FieldSpec", "reduce"),
    ("core.sync.apply", "repro.core.sync_structures", "FieldSpec", "set"),
    ("core.substrate.stage", "repro.core.substrate", "GluonSubstrate", "stage_reduce"),
    ("core.substrate.stage", "repro.core.substrate", "GluonSubstrate", "stage_broadcast"),
    ("core.substrate.receive", "repro.core.substrate", "GluonSubstrate", "receive_reduce_all"),
    ("core.substrate.receive", "repro.core.substrate", "GluonSubstrate",
     "receive_broadcast_all"),
    ("comm.channel", "repro.comm.channel", "CommPlane", "flush"),
    ("comm.channel", "repro.comm.channel", "CommPlane", "receive_frames"),
    ("network.transport.send", "repro.network.transport", "InProcessTransport", "send"),
    ("network.transport.receive", "repro.network.transport", "InProcessTransport",
     "receive_all"),
    ("runtime.executor.round", "repro.parallel.runner", "InProcessRunner", "run_round"),
    ("parallel.start", "repro.parallel.coordinator", "ProcessRunner", "start"),
    ("parallel.round", "repro.parallel.coordinator", "ProcessRunner", "run_round"),
    ("parallel.finish", "repro.parallel.coordinator", "ProcessRunner", "finish"),
)

#: Spans kept as events for the Chrome trace; past this only the sums grow.
MAX_EVENTS = 60_000

#: Layer of the engines' ``compute_round`` (every subclass that defines it).
COMPUTE_LAYER = "engines.compute"
#: Layer of ``FieldSpec.reduce``/``set`` and the apps' master-side hooks.
APPLY_LAYER = "core.sync.apply"


class Totals:
    """Per-layer ``[self_s, total_s, calls]`` plus free-form counts."""

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}

    def self_s(self, layer: str) -> float:
        return self.layers.get(layer, (0.0, 0.0, 0))[0]

    def total_s(self, layer: str) -> float:
        return self.layers.get(layer, (0.0, 0.0, 0))[1]

    def calls(self, layer: str) -> int:
        return int(self.layers.get(layer, (0.0, 0.0, 0))[2])


def _deactivate_in_child(ref) -> None:
    recorder = ref()
    if recorder is not None:
        recorder.active = False


class SpanRecorder:
    """An in-memory span tree with per-layer self-time sums.

    Spans are grouped under *roots* (:meth:`root`): each root collects
    its own :class:`Totals`, so a job's layer split never mixes with the
    verification that follows it.  Individual spans are kept as events,
    with their parent's id, up to :data:`MAX_EVENTS`; past that only the sums
    grow, and :attr:`dropped` counts the spans not kept.
    """

    def __init__(self) -> None:
        self.active = False
        self.events: List[Tuple[int, int, str, str, float, float]] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self.totals = Totals()
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        os.register_at_fork(
            after_in_child=functools.partial(
                _deactivate_in_child, weakref.ref(self)
            )
        )

    # -- span bookkeeping ---------------------------------------------------

    def _open(self) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        frame = [next(self._ids), parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str, name: str) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, child_s, start = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        acc = self.totals.layers.get(layer)
        if acc is None:
            acc = self.totals.layers[layer] = [0.0, 0.0, 0]
        acc[0] += duration - child_s
        acc[1] += duration
        acc[2] += 1
        if len(self.events) < MAX_EVENTS:
            self.events.append((span_id, parent, layer, name, start, duration))
        else:
            self.dropped += 1
        return duration

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to a count of the current root."""
        self.totals.counts[name] = self.totals.counts.get(name, 0) + amount

    @contextmanager
    def root(self, layer: str, name: str):
        """Open a root span; yields the :class:`Totals` it collects.

        The root's own self time — its wall not covered by any probed
        layer — lands in ``totals.layers[layer]``.
        """
        outer = self.totals
        totals = self.totals = Totals()
        was_active = self.active
        self.active = True
        frame = self._open()
        try:
            yield totals
        finally:
            self._close(frame, layer, name)
            self.active = was_active
            self.totals = outer

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        post: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` timed as a span of ``layer`` whenever the recorder is active.

        ``post(recorder, result)`` runs after a traced call returns.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            frame = recorder._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(frame, layer, name)
            if post is not None:
                post(recorder, result)
            return result

        return traced

    # -- export -------------------------------------------------------------

    def chrome_trace(self, metadata: Dict) -> Dict:
        """The kept spans as a Chrome trace (``chrome://tracing``, Perfetto).

        Each complete (``"X"``) event carries its span id and its parent's
        id (0 for a root) in ``args``.
        """
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, layer, name, start, duration in self.events
        ]
        other = dict(metadata)
        other["kept_spans"] = len(events)
        other["dropped_spans"] = self.dropped
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _count_edges(recorder: SpanRecorder, outcome) -> None:
    recorder.count("engines.edges_processed", outcome.work.edges_processed)


class LayerProbes:
    """Wrap every probed ``repro`` function around one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> "LayerProbes":
        if self._restore:
            raise RuntimeError("layer probes are already installed")
        # Modules the executor imports lazily must be loaded first, so
        # their by-name imports are rebound too.
        for module in ("repro", "repro.parallel.runner", "repro.parallel.coordinator"):
            importlib.import_module(module)
        rec = self.recorder
        for layer, module, name in FUNCTION_PROBES:
            original = getattr(importlib.import_module(module), name)
            self._rebind_everywhere(original, rec.wrap(layer, name, original))
        for layer, module, cls_name, method in METHOD_PROBES:
            cls = getattr(importlib.import_module(module), cls_name)
            self._set(cls, method, rec.wrap(
                layer, f"{cls_name}.{method}", cls.__dict__[method]
            ))
        from repro.apps.base import VertexProgram
        from repro.engines.base import Engine

        for cls in _subclasses(Engine):
            if "compute_round" in cls.__dict__:
                self._set(cls, "compute_round", rec.wrap(
                    COMPUTE_LAYER,
                    f"{cls.__name__}.compute_round",
                    cls.__dict__["compute_round"],
                    post=_count_edges,
                ))
        for cls in _subclasses(VertexProgram):
            if "make_fields" in cls.__dict__:
                self._set(cls, "make_fields", self._hooking_make_fields(
                    cls.__dict__["make_fields"]
                ))
        return self

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerProbes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _hooking_make_fields(self, make_fields: Callable) -> Callable:
        """Time the master-side hooks of the fields ``make_fields`` builds."""
        rec = self.recorder

        @functools.wraps(make_fields)
        def hooked(*args, **kwargs):
            fields = make_fields(*args, **kwargs)
            if rec.active:
                for field in fields:
                    hook = field.on_master_after_reduce
                    if hook is not None:
                        field.on_master_after_reduce = rec.wrap(
                            APPLY_LAYER, f"{field.name}.master_hook", hook
                        )
            return fields

        return hooked
