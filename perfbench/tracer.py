"""Span tracing from outside the program: wrap each layer's public calls.

A :class:`Tracer` replaces a function at the module attribute (or class
attribute) its caller resolves it through, records one span per call
(name, start, end, parent span, session, bytes) in memory, and puts every
original back on :meth:`Tracer.restore`.  Names a caller imported with
``from ... import`` are wrapped in the importing module, which is where
the caller looks them up.

Spans cross threads: the serving engine runs a session on a driver
thread and its shard tasks on pool threads.  The wrapper around
``repro.serve.engine.execute_spec`` binds the session id (registered by
the benchmark per submitted spec object) to the driver thread, and the
wrapper around ``MeteredBackend.submit_map``/``map`` hands the caller's
(session, parent span) to each task, so pool-thread spans nest under the
span that dispatched them.  Only the serial and thread backends are
traceable: a wrapper does not survive pickling into a process pool, and
replica processes never see the parent's wrappers.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# (module, class or None, attribute, span name, size extractor or None).
# The size extractor receives (args, result) and returns bytes moved.
WRAPPED: Tuple[Tuple[str, Optional[str], str, str, Optional[str]], ...] = (
    ("repro.simnet.crypto", None, "encrypt", "simnet.crypto", "arg1"),
    ("repro.simnet.crypto", None, "decrypt", "simnet.crypto", None),
    ("repro.simnet.channel", None, "serialize_payload", "simnet.codec", "result"),
    ("repro.simnet.channel", None, "deserialize_payload", "simnet.codec", None),
    ("repro.core.optimizer", "PerturbationOptimizer", "optimize", "core.optimizer", None),
    ("repro.attacks.resilience", "AttackSuite", "evaluate", "attacks", None),
    ("repro.mining.knn", "KNNClassifier", "predict", "mining.predict", None),
    ("repro.streaming.ingest", "IngestPlane", "push", "streaming.ingest.push", None),
    ("repro.streaming.ingest", "IngestPlane", "finish", "streaming.ingest.finish", None),
    ("repro.streaming.stream_session", None, "transform_window", "sharding.transform", None),
    ("repro.streaming.stream_session", None, "predict_window", "sharding.predict", None),
    ("repro.checkpoint.checkpoint", "Checkpointer", "save", "checkpoint.save", "file"),
    ("repro.cluster.transport", None, "loads_checkpoint", "checkpoint.loads", None),
    ("repro.cluster.controller", None, "loads_checkpoint", "checkpoint.loads", None),
    ("repro.cluster.transport", "ProcessReplica", "__init__", "cluster.spawn", None),
    # The stats round trip a process replica makes after every submit and evict.
    ("repro.cluster.transport", "ProcessReplica", "_refresh_stats", "cluster.rpc", None),
    ("repro.cluster.controller", "ClusterController", "migrate", "cluster.migrate", None),
)

# Span tuple fields.
SPAN_ID, NAME, START, END, PARENT, SESSION, NBYTES = range(7)


def _size(kind: Optional[str], args: tuple, result: Any) -> int:
    if kind == "arg1":
        return len(args[1])
    if kind == "result":
        return len(result)
    if kind == "file":
        return os.path.getsize(result) if result else 0
    return 0


class Tracer:
    """Install wrappers, collect spans, and restore the originals."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        # (session, seconds from dispatch to the task starting)
        self.pool_waits: List[Tuple[Optional[int], float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._sessions: Dict[int, int] = {}
        # (owner, attribute, original, owner had its own attribute)
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- per-thread context --------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.session = None
        return local

    def register(self, spec: Any, session: int) -> None:
        """Bind a submitted spec object to the benchmark's session index."""
        self._sessions[id(spec)] = session

    def bind(self, session: Optional[int]) -> None:
        """Attribute the calling thread's spans to ``session`` (or none)."""
        self._state().session = session

    def _record(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                size: Optional[str]) -> Any:
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else 0
        state.stack.append(span_id)
        nbytes = 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if size is not None:
                nbytes = _size(size, args, result)
            return result
        finally:
            end = time.perf_counter()
            state.stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, state.session, nbytes)
            )

    # -- installing ----------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, replacement)

    def _wrapper(self, fn: Callable, name: str, size: Optional[str]) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self._record(name, fn, args, kwargs, size)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> "Tracer":
        """Wrap every layer boundary; returns self."""
        for module_name, cls_name, attr, name, size in WRAPPED:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, self._wrapper(getattr(owner, attr), name, size))
        self._install_session_root()
        self._install_source()
        self._install_pool()
        return self

    def _install_session_root(self) -> None:
        engine = importlib.import_module("repro.serve.engine")
        original = engine.execute_spec

        def execute_spec(spec: Any, *args: Any, **kwargs: Any) -> Any:
            state = self._state()
            saved = (state.session, state.stack)
            state.session = self._sessions.get(id(spec))
            state.stack = []
            try:
                return self._record("session", original, (spec,) + args, kwargs, None)
            finally:
                state.session, state.stack = saved

        self._patch(engine, "execute_spec", execute_spec)

    def _install_source(self) -> None:
        sources = importlib.import_module("repro.streaming.sources")
        cls = sources.StreamSource
        original = cls.__iter__
        tracer = self

        def __iter__(source: Any) -> Iterable[Any]:
            records = original(source)
            while True:
                try:
                    record = tracer._record(
                        "streaming.source", next, (records,), {}, None
                    )
                except StopIteration:
                    return
                yield record

        self._patch(cls, "__iter__", __iter__)

    def _install_pool(self) -> None:
        backends = importlib.import_module("repro.sharding.backends")
        cls = backends.MeteredBackend
        tracer = self

        def carry(fn: Callable) -> Callable:
            """Run ``fn`` under the dispatching caller's session and span."""
            state = tracer._state()
            session = state.session
            parent = state.stack[-1] if state.stack else 0
            submitted = time.perf_counter()

            def task(item: Any) -> Any:
                tracer.pool_waits.append((session, time.perf_counter() - submitted))
                local = tracer._state()
                saved = (local.session, local.stack)
                local.session, local.stack = session, [parent]
                try:
                    return fn(item)
                finally:
                    local.session, local.stack = saved

            return task

        for attr in ("submit_map", "map"):
            original = getattr(cls, attr)

            def dispatch(backend: Any, fn: Callable, tasks: Any,
                         _original: Callable = original) -> Any:
                return _original(backend, carry(fn), tasks)

            self._patch(cls, attr, dispatch)

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span with its self time appended."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(
                ["id", "name", "start", "end", "parent", "session", "bytes", "self_s"]
            ) + "\n")
            for span in self.spans:
                out.write(json.dumps(list(span) + [selfs[span[SPAN_ID]]]) + "\n")


def self_times(spans: Iterable[tuple]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may run on other threads and overlap each other, so the
    covered part is the length of the union of their intervals, clipped
    to the parent's.
    """
    spans = list(spans)
    by_id = {span[SPAN_ID]: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is not None:
            start = max(span[START], parent[START])
            end = min(span[END], parent[END])
            if end > start:
                children.setdefault(parent[SPAN_ID], []).append((start, end))
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(children.get(span[SPAN_ID], ())):
            if end <= reach:
                continue
            covered += end - max(start, reach)
            reach = end
        result[span[SPAN_ID]] = (span[END] - span[START]) - covered
    return result
