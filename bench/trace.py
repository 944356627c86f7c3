"""Span tracer for the traced repetition: wraps layer entry points from outside.

Nothing in ``src/`` knows about this file.  For one repetition,
:meth:`Tracer.install` replaces the entry points of each layer (this
repo's packages) with wrappers that record a span -- name, start, end and
parent -- and :meth:`Tracer.uninstall` puts the originals back.  The whole
fleet runs on one thread and one event loop, so "the span that caused
this one" is simply the top of a stack.

A layer's **self time** is its spans' duration minus the part covered by
their child spans.  Roots are the event loop's callbacks
(``asyncio.Handle._run``), so the self times of all layers add up to the
Python work the loop ran; what is left of process CPU time is the loop's
own selector/bookkeeping work and the run call's wiring.

Spans stay in memory (a list of tuples) and are only written out by
:meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import asyncio
import json
import selectors
import sys
from time import perf_counter_ns

#: Layer of an event-loop callback, from the module that owns it.
_LOOP_OWNER_LAYERS = (
    ("repro.runtime.tcp", "runtime.tcp"),
    ("repro.runtime.transport", "runtime.transport"),
    ("repro.runtime.kernel", "simulation"),
    ("asyncio.selector_events", "runtime.tcp"),
    ("asyncio.streams", "runtime.tcp"),
)
LOOP_LAYER = "runtime.loop"
#: Selector waits: wall time, mostly not CPU time; left out of layer sums.
IDLE_LAYER = "idle"


def _process_layer(name: str) -> str:
    """Protocol processes are told apart by the names the program gives
    them: ``wh-*`` at the warehouse, ``*-ProcessQuery`` at a source; the
    rest (``updater-*``) is the simulated-process machinery itself."""
    if name.startswith("wh-"):
        return "warehouse"
    if name.endswith("ProcessQuery"):
        return "sources"
    return "simulation"


def _targets():
    """(owner, attribute, layer, span name, rows-out measure) per wrapper.

    Imported lazily so that importing this module does not import the
    program.
    """
    from repro.consistency.history import SourceHistory
    from repro.consistency.oracle import RunRecorder
    from repro.durability.checkpoint import ViewCheckpoint
    from repro.durability.manager import DurabilityManager
    from repro.durability.wal import UpdateLog
    from repro.relational import algebra, delta
    from repro.relational.incremental import PartialView
    from repro.runtime import binwire, tcp
    from repro.runtime.codec import WireCodec
    from repro.runtime.shard import ShardedSourceFront
    from repro.runtime.tcp import TcpChannel
    from repro.runtime.transport import LocalChannel
    from repro.sources.memory import MemoryBackend
    from repro.sources.server import DataSourceServer
    from repro.warehouse.locality.planner import QueryLocality
    from repro.warehouse.view_store import MaterializedView

    def methods(cls, layer, *names):
        return [
            (cls, n, layer, f"{layer}.{cls.__name__}.{n}", None) for n in names
        ]

    return [
        (algebra, "join", "relational", "relational.join", len),
        (delta, "merge_deltas", "relational", "relational.merge_deltas", None),
        *methods(
            PartialView, "relational",
            "extend", "compensate", "compensate_in_place", "add_in_place",
        ),
        *methods(MemoryBackend, "sources", "compute_join", "apply"),
        *methods(DataSourceServer, "sources", "local_update"),
        *methods(ShardedSourceFront, "runtime.shard", "local_update"),
        *methods(MaterializedView, "warehouse", "apply", "install_wide"),
        *methods(
            QueryLocality, "warehouse.locality",
            "aux_answer", "on_delivered", "on_installed",
        ),
        *methods(WireCodec, "runtime.codec", "encode_message", "decode_message"),
        (binwire, "dumps", "runtime.codec", "runtime.codec.binwire.dumps", None),
        (binwire, "loads", "runtime.codec", "runtime.codec.binwire.loads", None),
        *methods(LocalChannel, "runtime.transport", "send"),
        *methods(TcpChannel, "runtime.tcp", "send", "_write_pending"),
        (tcp, "write_frame", "runtime.tcp", "runtime.tcp.write_frame", None),
        *methods(UpdateLog, "durability", "append", "sync"),
        *methods(ViewCheckpoint, "durability", "write"),
        *methods(
            DurabilityManager, "durability", "log_delivery", "maybe_checkpoint"
        ),
        *methods(RunRecorder, "consistency", "on_delivery", "on_install"),
        *methods(SourceHistory, "consistency", "on_source_update"),
    ]


class Tracer:
    """Records spans while installed; summarises them afterwards."""

    def __init__(self, clock=perf_counter_ns):
        self._clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        #: (name id, start ns, end ns, parent span index or -1)
        self.spans: list[tuple[int, int, int, int]] = []
        self._stack: list[int] = []
        #: name id -> summed ``measure(result)`` (e.g. join rows out)
        self.measured: dict[int, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._loop_layer_cache: dict[object, int] = {}
        self._process_ids: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return found

    def wrap(self, fn, name_id=None, resolve=None, measure=None):
        """``fn`` with a span around every call.

        The span's name is fixed (``name_id``) or chosen per call by
        ``resolve(*args)``; ``measure(result)`` is summed per name.
        """
        spans, stack, clock = self.spans, self._stack, self._clock
        measured = self.measured

        def traced(*args, **kwargs):
            nid = name_id if resolve is None else resolve(*args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    measured[nid] = measured.get(nid, 0) + measure(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr: str, replacement) -> None:
        """Module-level functions are imported by name elsewhere: patch
        every ``repro.*`` namespace that holds a reference."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, replacement)

    def install(self) -> None:
        """Wrap every target (idempotence is the caller's business)."""
        from repro.simulation.process import Process

        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, name, measure in _targets():
            wrapper = self.wrap(
                getattr(owner, attr), self.span_id(layer, name), measure=measure
            )
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._patch_function(owner, attr, wrapper)
        # One root span per protocol resumption.  ``_advance`` is what
        # ``start``, ``resume`` and a finished ``Delay`` all funnel into.
        self._patch(
            Process,
            "_advance",
            self.wrap(Process._advance, resolve=self._process_span_id),
        )
        self._patch(
            asyncio.Handle,
            "_run",
            self.wrap(asyncio.Handle._run, resolve=self._loop_span_id),
        )
        # The loop's own turn (timer heap, ready queue) is the root of
        # everything; blocking in the selector is set apart as idle time.
        self._patch(
            asyncio.BaseEventLoop,
            "_run_once",
            self.wrap(
                asyncio.BaseEventLoop._run_once,
                self.span_id(LOOP_LAYER, "loop._run_once"),
            ),
        )
        poll = self.span_id(LOOP_LAYER, "loop.select.poll")
        wait = self.span_id(IDLE_LAYER, "loop.select.wait")
        self._patch(
            selectors.DefaultSelector,
            "select",
            self.wrap(
                selectors.DefaultSelector.select,
                # The loop polls with timeout 0 while callbacks are ready.
                resolve=lambda selector, timeout=None: (
                    poll if timeout is not None and timeout <= 0 else wait
                ),
            ),
        )

    def uninstall(self) -> None:
        """Put every original back (safe to call twice)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _process_span_id(self, process, value) -> int:
        found = self._process_ids.get(process.name)
        if found is None:
            found = self._process_ids[process.name] = self.span_id(
                _process_layer(process.name), f"process.{process.name}"
            )
        return found

    def _loop_span_id(self, handle) -> int:
        """Name an event-loop callback after whoever owns it: a task's
        coroutine, a bound method's class, or the function itself."""
        callback = handle._callback
        owner = getattr(callback, "__self__", None)
        code = None
        if isinstance(owner, asyncio.Task):
            code = getattr(owner.get_coro(), "cr_code", None)
        if code is not None:
            key = code
        else:
            key = type(owner) if owner is not None else callback
        found = self._loop_layer_cache.get(key)
        if found is None:
            if code is not None:
                module = _module_of_file(code.co_filename)
                label = code.co_qualname
            elif owner is not None:
                module = type(owner).__module__
                label = f"{type(owner).__name__}.{getattr(callback, '__name__', '?')}"
            else:
                module = getattr(callback, "__module__", "") or ""
                label = getattr(callback, "__qualname__", repr(callback))
            layer = next(
                (l for prefix, l in _LOOP_OWNER_LAYERS if module.startswith(prefix)),
                LOOP_LAYER,
            )
            found = self.span_id(layer, f"loop.{label}")
            self._loop_layer_cache[key] = found
        return found

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per span name: layer, calls, inclusive ns, self ns, measured."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for index, (nid, start, end, _) in enumerate(self.spans):
            row = out.get(self.names[nid])
            if row is None:
                row = out[self.names[nid]] = {
                    "layer": self.layers[nid],
                    "calls": 0,
                    "total_ns": 0,
                    "self_ns": 0,
                    "measured": self.measured.get(nid, 0),
                }
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[index]
        return out

    def layer_self_ns(self) -> dict[str, int]:
        """Self time summed per layer (selector waits excluded)."""
        out: dict[str, int] = {}
        for row in self.summary().values():
            if row["layer"] != IDLE_LAYER:
                out[row["layer"]] = out.get(row["layer"], 0) + row["self_ns"]
        return out

    def durations_ns(self, name: str) -> list[int]:
        """Inclusive duration of every span called ``name``."""
        wanted = {i for i, n in enumerate(self.names) if n == name}
        return [end - start for nid, start, end, _ in self.spans if nid in wanted]

    def dump(self, path: str) -> None:
        """Write ``{"names", "layers", "spans"}``; each span is
        ``[name id, start ns, end ns, parent span index or -1]``."""
        with open(path, "w") as handle:
            json.dump(
                {"names": self.names, "layers": self.layers, "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


def _module_of_file(filename: str) -> str:
    """Dotted module guess for a code object's file (``.../repro/runtime/
    tcp.py`` -> ``repro.runtime.tcp``; stdlib asyncio likewise)."""
    parts = filename.replace("\\", "/").rsplit(".", 1)[0].split("/")
    for anchor in ("repro", "asyncio"):
        if anchor in parts:
            return ".".join(parts[len(parts) - 1 - parts[::-1].index(anchor):])
    return parts[-1]


__all__ = ["IDLE_LAYER", "LOOP_LAYER", "Tracer"]
