"""Span recorder for the benchmark's traced runs.

The benchmark measures the program from outside: :func:`install` replaces
a fixed set of public methods (one or more per layer, see ``LAYER_TARGETS``)
with wrappers that record a span around each call (the server's buffered
receive, ``TcpConnection.read_ready``, gets one span per complete message
instead).  A span is ``(name, start, end, parent, step)``; ``parent`` is
the index of the enclosing span in the same process and thread (or -1) and
``step`` counts the spans of that name in the process.  Timestamps come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and therefore
comparable across the processes of one run.

The runtimes fork their server and worker processes, so the children
inherit the wrappers.  After a fork each child starts an empty span list
and registers a multiprocessing finalizer that writes the list to
``<trace_dir>/spans-<pid>.json`` when the child exits normally.  Under a
``spawn`` start method the children would start without the wrappers; the
benchmark then sees zero calls for layers that ran there and fails the
traced run instead of reporting a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import threading
import time
import weakref
from pathlib import Path

#: Span name -> the public calls it times, as ``(module, owner, attribute)``;
#: an empty owner names a module-level function.
LAYER_TARGETS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "workload.build": (
        ("repro.experiments.workloads", "", "build_workload"),
        ("repro.api.backends", "", "build_workload"),
    ),
    "worker.compute": (("repro.ps.worker", "Worker", "compute_gradients"),),
    "codec.encode": (("repro.ps.worker", "Worker", "prepare_push"),),
    "transport.send": (("repro.ps.transport", "TcpConnection", "send"),),
    "transport.recv": (
        ("repro.ps.transport", "TcpConnection", "recv"),
        ("repro.ps.transport", "TcpConnection", "read_ready"),
    ),
    "server.apply": (("repro.ps.server", "ParameterServer", "apply_push"),),
    "server.pull": (
        ("repro.ps.server", "ParameterServer", "handle_pull"),
        ("repro.ps.kvstore", "KeyValueStore", "pull"),
        ("repro.ps.sharding", "ShardedKeyValueStore", "pull"),
        ("repro.ps.shm", "SharedFlatStore", "pull"),
        ("repro.ps.shm", "ShmStoreClient", "pull_reply"),
    ),
    "policy.on_push": (("repro.core.policy", "SynchronizationPolicy", "on_push"),),
    "sim.run": (("repro.api.backends", "SimulatedBackend", "run"),),
}


def _encodes(args) -> bool:
    # ``prepare_push`` only reaches the codec layer when a codec is attached;
    # without one it passes the packed buffers through untouched.
    return args[0].codec is not None


#: Spans recorded only when the predicate over the call's positional
#: arguments holds.
_CONDITIONS = {"codec.encode": _encodes}

#: Calls that may return before a whole message has arrived; they are timed
#: per complete message (see :func:`_traced_per_message`).
_PER_MESSAGE = {("repro.ps.transport", "TcpConnection", "read_ready")}


class SpanRecorder:
    """In-memory span list of one process, written out at process exit."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._steps: dict[str, int] = {}
        self._local = threading.local()

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        step = self._steps.get(name, 0)
        self._steps[name] = step + 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, step])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a closed span whose timing the caller measured itself."""
        stack = getattr(self._local, "stack", None)
        step = self._steps.get(name, 0)
        self._steps[name] = step + 1
        self.spans.append([name, start, end, stack[-1] if stack else -1, step])

    def flush(self) -> None:
        """Write this process's spans; a span still open has end ``None``."""
        path = self.trace_dir / f"spans-{self.pid}.json"
        path.write_text(json.dumps(self.spans))


def _traced(original, name: str, recorder: SpanRecorder):
    condition = _CONDITIONS.get(name)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if condition is not None and not condition(args):
            return original(*args, **kwargs)
        index = recorder.begin(name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.end(index)

    return traced


def _traced_per_message(original, name: str, recorder: SpanRecorder):
    """One span per complete message received, not per socket read.

    ``TcpConnection.read_ready`` does one bounded socket read and returns
    ``[]`` while a frame is still partial, so a large push takes several
    calls.  The wrapper sums a connection's read time until messages
    complete and records one span per message, ending when the last read
    did and lasting the summed read time (split evenly when one read
    completes several messages).  Time spent waiting in ``select`` between
    the reads is not part of it.
    """
    pending: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(original)
    def traced(connection):
        start = time.perf_counter()
        messages = original(connection)
        end = time.perf_counter()
        busy = pending.pop(connection, 0.0) + end - start
        if not messages:
            pending[connection] = busy
        for _ in messages:
            recorder.record(name, end - busy / len(messages), end)
        return messages

    return traced


class Tracing:
    """The installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, recorder: SpanRecorder, patched: list) -> None:
        self.recorder = recorder
        self._patched = patched

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()


def install(trace_dir: Path) -> Tracing:
    """Wrap every call in :data:`LAYER_TARGETS`; children inherit on fork."""
    recorder = SpanRecorder(trace_dir)
    multiprocessing.util.register_after_fork(recorder, SpanRecorder._after_fork)
    patched = []
    wrappers: dict[int, object] = {}
    for name, targets in LAYER_TARGETS.items():
        for module_name, owner_name, attribute in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner)[attribute]
            # One function bound under two names (build_workload) gets one
            # wrapper, so a call is never recorded twice.
            factory = (
                _traced_per_message
                if (module_name, owner_name, attribute) in _PER_MESSAGE
                else _traced
            )
            wrapper = wrappers.setdefault(id(original), factory(original, name, recorder))
            patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
    return Tracing(recorder, patched)


def load_spans(trace_dir: Path) -> dict[int, list]:
    """Every flushed span file of one run, keyed by process id."""
    return {
        int(path.stem.split("-", 1)[1]): json.loads(path.read_text())
        for path in sorted(Path(trace_dir).glob("spans-*.json"))
    }
