"""Layer spans recorded from outside the program.

The traced run replaces each layer's entry points with a wrapper that
records a span: name, start, end, parent span and (for served requests)
a request id.  Nothing under ``src/`` knows about it; ``install``
patches the functions where their callers look them up and returns the
undo.  Spans stay in memory and are exported when the run ends.

A span's *self time* is its duration minus the union of its children's
intervals.  Layer self times, the benchmark's own share and the
unattributed rest add up to the timed region.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable

#: LabBase operations timed individually (the query and update surface,
#: plus ``begin`` so its flush is not billed to the benchmark's loop).
LABBASE_OPS = (
    "create_material", "record_step", "set_state", "state_of", "in_state",
    "lookup", "most_recent", "material_history", "report",
    "count_materials", "count_steps", "commit", "begin",
)

#: Served operations that are units of work (each one reaches
#: ``LabFlowService.submit`` exactly once per client call).
UNIT_OPS = frozenset({
    "create_material", "record_step", "set_state",
    "lookup", "most_recent", "state_of", "in_state", "history_len",
})

#: (module, class or None for a module-level function, attribute, span).
#: ``codec.validate`` patches the name where ``repro.storage.codec``
#: looks it up, so only the outermost ``validate_plain_data`` call of a
#: record is spanned, not its recursion.  ``storage.checkpoint`` wraps
#: the checkpoint step every commit path goes through; the public
#: ``checkpoint()`` reaches it too.
PROGRAM_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.workflow.engine", "WorkflowEngine", "advance", "workflow.advance"),
    *(("repro.labbase.database", "LabBase", op, f"labbase.{op}") for op in LABBASE_OPS),
    ("repro.storage.objcache", "ObjectCache", "flush", "objcache.flush"),
    ("repro.storage.codec", "RecordCodec", "encode", "codec.encode"),
    ("repro.storage.codec", "RecordCodec", "decode", "codec.decode"),
    ("repro.storage.codec", None, "validate_plain_data", "codec.validate"),
    ("repro.storage.buffer", "BufferPool", "fetch", "buffer.fetch"),
    ("repro.storage.buffer", "BufferPool", "flush_dirty", "buffer.flush"),
    ("repro.storage.disk", "PageFile", "read_page", "disk.read"),
    ("repro.storage.disk", "PageFile", "read_pages", "disk.read"),
    ("repro.storage.disk", "PageFile", "write_page", "disk.write"),
    ("repro.storage.disk", "PageFile", "write_pages", "disk.write"),
    ("repro.storage.disk", "PageFile", "write_meta", "disk.meta"),
    ("repro.storage.disk", "PageFile", "sync", "disk.sync"),
    ("repro.storage.base", "PagedStorageManager", "commit", "storage.commit"),
    ("repro.storage.base", "PagedStorageManager", "_write_checkpoint", "storage.checkpoint"),
    ("repro.storage.locks", "LockManager", "acquire", "locks.acquire"),
    ("repro.server.commit", "CommitCoordinator", "close", "server.group_close"),
    ("repro.server.communicator", None, "encode_request", "communicator.encode"),
    ("repro.server.communicator", None, "encode_response", "communicator.encode"),
    ("repro.server.communicator", None, "decode_request", "communicator.decode"),
    ("repro.server.communicator", None, "decode_response", "communicator.decode"),
)

#: An exported span: (name, start, end, parent index or -1, request id,
#: error type or "").
Span = tuple


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lists: list[list[list]] = []
        self._lock = threading.Lock()

    def _thread_state(self) -> tuple[list, list]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._lists.append(local.spans)
        return local.stack, local.spans

    def wrap(
        self, name: str, fn: Callable, req_of: Callable | None = None
    ) -> Callable:
        perf = time.perf_counter
        state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans = state()
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    req_of(args) if req_of is not None else None, ""]
            spans.append(span)
            stack.append(span)
            span[1] = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf()
                stack.pop()

        return wrapper

    def export(self) -> list[Span]:
        """All spans, parents as indices into the returned list."""
        with self._lock:
            lists = [list(spans) for spans in self._lists]
        flat = [span for spans in lists for span in spans]
        index = {id(span): i for i, span in enumerate(flat)}
        return [
            (name, start, end, -1 if parent is None else index[id(parent)], req, err)
            for name, start, end, parent, req, err in flat
        ]


def install(
    recorder: Recorder,
    targets: Iterable[tuple[str, str | None, str, str]] = PROGRAM_TARGETS,
    req_of: dict[str, Callable] | None = None,
) -> Callable[[], None]:
    """Patch every target with a span wrapper; returns the undo."""
    undo = []
    for module_name, class_name, attr, span_name in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
        extra = (req_of or {}).get(span_name)
        setattr(owner, attr, recorder.wrap(span_name, original, extra))
        undo.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def session_sequencer() -> Callable:
    """Request ids ``(session, n)``: the n-th unit of that session.

    Each connection carries one request at a time, so the client and
    the server count a session's units in the same order.
    """
    counters: dict[str, int] = defaultdict(int)

    def req_of(session: str) -> tuple[str, int]:
        counters[session] += 1
        return (session, counters[session])

    return req_of


# -- analysis -------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the children's intervals, per span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _req, _err in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (_name, start, end, _parent, _req, _err) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def in_window(spans: list[Span], start: float, end: float) -> list[bool]:
    return [s[1] >= start and s[2] <= end for s in spans]


def totals(
    spans: list[Span], keep: list[bool] | None = None
) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, summed self seconds) over the kept spans."""
    selfs = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for i, span in enumerate(spans):
        if keep is None or keep[i]:
            entry = out[span[0]]
            entry[0] += 1
            entry[1] += selfs[i]
    return {name: (calls, seconds) for name, (calls, seconds) in out.items()}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
