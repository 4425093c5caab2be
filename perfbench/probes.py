"""Run-time instrumentation installed from outside the ``repro`` package.

Nothing under ``src/`` knows about the benchmark.  Everything here wraps
``repro`` classes and functions at run time and restores them afterwards:

* :class:`Marks` is the cheap hook of an end-to-end run.  It notes when
  the first ``Simulator.run_until`` starts, which is where ``run_s``
  starts, and when ``DtpNetwork.start`` returns, which is where
  ``setup_s`` ends.
* :class:`Ledger` is the traced run.  It attributes every engine dispatch
  to the layer owning the callback, through the public
  ``Simulator.profile`` hook, and wraps the public entry points of every
  layer so that time spent in a callee layer is taken out of its caller.
  Spans are kept as in-memory aggregates (calls, total time, self time).

A layer is a ``repro`` package.  Code in packages outside :data:`LAYERS`
(``experiments``, ``network``, ``phy``, ...) and time inside no span at
all make up the residual, so the named layers' self times plus the
residual equal the traced wall time exactly.
"""

from __future__ import annotations

import functools
import heapq
import os
import sys
import time
import types
from typing import Callable, Dict, List, Optional

#: Ledger layers: the ``repro`` packages a span or dispatch can belong to,
#: plus ``setup`` (topology and network construction).
LAYERS = (
    "sim", "clocks", "dtp", "ethernet", "faultlab", "linkhealth",
    "telemetry", "observe", "insight", "ioutil", "setup",
)

_now = time.perf_counter_ns

#: Calls per calibration loop, and loops whose median is each cost.
CALIBRATION_CALLS = 20_000
CALIBRATION_BATCHES = 7


class Patcher:
    """Sets attributes and puts every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def replace_function(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it.

        ``from x import f`` copies the binding into the importing module,
        so a wrapper must replace each copy, not only the defining one.
        """
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.set(module, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, value, had = self._undo.pop()
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)


class Marks:
    """Notes the start of the first dispatch and the end of network start."""

    def __init__(self) -> None:
        self.first_run_ns: Optional[int] = None
        self.started_ns: Optional[int] = None

    def install(self, patcher: Patcher, on_started: Optional[Callable] = None,
                on_first_run: Optional[Callable] = None) -> None:
        from repro.dtp.network import DtpNetwork
        from repro.sim import engine

        for cls in (engine.Simulator, engine.MacroTickSimulator):
            original = vars(cls)["run_until"]

            def run_until(sim, time_fs, _original=original):
                if self.first_run_ns is None:
                    if on_first_run is not None:
                        on_first_run()
                    self.first_run_ns = _now()
                return _original(sim, time_fs)

            patcher.set(cls, "run_until", run_until)

        start = DtpNetwork.start

        def wrapped_start(net, *args, **kwargs):
            result = start(net, *args, **kwargs)
            if self.started_ns is None:
                self.started_ns = _now()
                if on_started is not None:
                    on_started(net)
            return result

        patcher.set(DtpNetwork, "start", wrapped_start)


class Span:
    """Aggregate of one wrapped entry point over the whole run."""

    __slots__ = ("layer", "calls", "total_ns", "self_ns")

    def __init__(self, layer: str, agg: list) -> None:
        self.layer = layer
        self.calls, self.total_ns, self.self_ns = agg[0], agg[1], agg[2]


class Ledger:
    """Per-layer self time of one traced workload run.

    A frame is ``[layer, start_ns, child_ns, span_name]``.  The root frame
    opens when the first ``run_until`` starts (the same instant ``run_s``
    starts) and closes in :meth:`finish`; the layer totals hold only work
    inside it.  A dispatch frame (span name ``None``) opens in
    :meth:`count` and closes at the next dispatch or when ``run_until``
    returns, so it also holds the engine's loop overhead between two
    callbacks; the heap pop itself is a ``sim`` span of its own.

    The wrappers are the hot path of a traced run, so each keeps its
    aggregate in a list it closes over (timed calls, total ns, self ns,
    untimed same-layer calls) and the layer totals are derived in
    :meth:`finish`.

    Instrumentation costs about a microsecond per timed call, which would
    inflate the callers of hot entry points unevenly.  A
    :class:`Calibration` measures the cost inside and outside a span, of
    an untimed pass-through and of a dispatch count; each is taken out of
    the frame that paid it and booked as ``overhead_ns``.  The identity
    ``wall = sum(layer self) + root self + overhead`` holds exactly in
    integer nanoseconds.
    """

    def __init__(self, calibration: Optional["Calibration"] = None) -> None:
        #: [inner, outer, pass-through, dispatch] overhead per call, in ns.
        self._cost = list(calibration.costs) if calibration else [0, 0, 0, 0]
        self.stack: List[list] = [["<outside>", 0, 0, "<outside>"]]
        self._aggs: Dict[str, list] = {}
        self._span_layer: Dict[str, str] = {}
        self._at_root: Dict[str, list] = {}
        self._dispatch_self: Dict[str, int] = {}
        self._dispatch_entries: Dict[str, int] = {}
        self._callback_layer: Dict[str, str] = {}
        self.dispatches: Dict[str, int] = {}
        self.spans: Dict[str, Span] = {}
        self.layer_self_ns: Dict[str, int] = {}
        self.layer_calls: Dict[str, int] = {}
        self.bytes_by_span: Dict[str, int] = {}
        self.networks: List[object] = []
        self.records_indexed = 0
        self.root_open = False
        self.root_start_ns = 0
        self.wall_ns = 0
        self.root_self_ns = 0
        self.overhead_ns = 0

    # -- frames -----------------------------------------------------------
    def _agg(self, name: str, layer: str) -> list:
        agg = self._aggs.get(name)
        if agg is None:
            agg = self._aggs[name] = [0, 0, 0, 0]
            self._span_layer[name] = layer
        return agg

    def _close_dispatch(self, t: int) -> None:
        stack = self.stack
        top = stack[-1]
        if top[3] is None:
            stack.pop()
            duration = t - top[1]
            stack[-1][2] += duration
            layer = top[0]
            own = duration - top[2] - self._cost[3]
            self._dispatch_self[layer] = self._dispatch_self.get(layer, 0) + own

    def _open_root(self, t: int) -> None:
        if len(self.stack) != 1 or self.root_open:
            raise RuntimeError("the ledger root must open outside every span")
        self.root_open = True
        self.root_start_ns = t
        self._at_root = {name: list(agg) for name, agg in self._aggs.items()}
        self.stack.append(["<root>", t, 0, "<root>"])

    def finish(self) -> None:
        """Close the root frame at the end of the workload; derive totals."""
        t = _now()
        if not self.root_open:
            raise RuntimeError("the workload never dispatched an event")
        stack = self.stack
        if len(stack) != 2:
            raise RuntimeError(f"unbalanced ledger frames: {[f[3] for f in stack]}")
        root = stack.pop()
        self.wall_ns = t - root[1]
        self.root_self_ns = self.wall_ns - root[2]
        self.root_open = False
        inner, outer, passing, dispatch = self._cost
        layer_self = dict(self._dispatch_self)
        layer_calls = dict(self._dispatch_entries)
        overhead = sum(self.dispatches.values()) * dispatch
        for name, agg in self._aggs.items():
            base = self._at_root.get(name, (0, 0, 0, 0))
            layer = self._span_layer[name]
            calls, passes = agg[0] - base[0], agg[3] - base[3]
            layer_self[layer] = (
                layer_self.get(layer, 0) + agg[2] - base[2] - passes * passing
            )
            layer_calls[layer] = layer_calls.get(layer, 0) + calls
            overhead += calls * (inner + outer) + passes * passing
            self.spans[name] = Span(layer, agg)
        self.layer_self_ns = layer_self
        self.layer_calls = layer_calls
        self.overhead_ns = overhead

    # -- the Simulator.profile hook -------------------------------------
    def _layer_of(self, fn, name: str) -> str:
        module = getattr(fn, "__module__", None) or type(fn).__module__
        parts = module.split(".")
        layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
        layer = layer if layer in LAYERS else "other"
        self._callback_layer[name] = layer
        return layer

    def count(self, fn) -> None:
        """Called by the engine before every dispatch."""
        t = _now()
        self._close_dispatch(t)
        stack = self.stack
        name = getattr(fn, "__qualname__", None) or type(fn).__name__
        dispatches = self.dispatches
        dispatches[name] = dispatches.get(name, 0) + 1
        layer = self._callback_layer.get(name) or self._layer_of(fn, name)
        if stack[-1][0] != layer:
            self._dispatch_entries[layer] = self._dispatch_entries.get(layer, 0) + 1
        stack.append([layer, t, 0, None])

    # -- wrappers -------------------------------------------------------
    def wrap(self, fn: Callable, layer: str, name: str, nested: bool = False) -> Callable:
        """Time ``fn`` as a span of ``layer``.

        A call from code of the same layer adds nothing to the split
        between layers, so it runs untimed unless ``nested`` is set (for
        spans a metric reads by name, which must count every call).
        """
        agg = self._agg(name, layer)
        stack = self.stack
        push, pop = stack.append, stack.pop
        inner, outer = self._cost[0], self._cost[1]
        now = _now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer and not nested:
                agg[3] += 1
                return fn(*args, **kwargs)
            t0 = now()
            frame = [layer, t0, 0, name]
            push(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = now() - t0
                pop()
                parent[2] += duration + outer
                agg[0] += 1
                agg[1] += duration - inner
                agg[2] += duration - frame[2] - inner

        return wrapper

    def wrap_methods(
        self, patcher: Patcher, cls, layer: str, names=None, nested: bool = False
    ) -> None:
        """Wrap ``names`` (default: every public method ``cls`` defines)."""
        for key, value in list(vars(cls).items()):
            if names is not None:
                if key not in names:
                    continue
            elif key.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            label = f"{cls.__name__}.{key}"
            if isinstance(value, classmethod):
                wrapped = self.wrap(value.__func__, layer, label, nested)
                patcher.set(cls, key, classmethod(wrapped))
            else:
                patcher.set(cls, key, self.wrap(value, layer, label, nested))

    def wrap_function(
        self, patcher: Patcher, fn: Callable, layer: str, nested: bool = False
    ) -> None:
        patcher.replace_function(fn, self.wrap(fn, layer, fn.__qualname__, nested))

    def _sim_run_until(self, original: Callable, name: str) -> Callable:
        agg = self._agg(name, "sim")
        stack = self.stack
        cost = self._cost

        def run_until(sim, time_fs):
            t0 = _now()
            if not self.root_open:
                self._open_root(t0)
            if sim.profile is None:
                sim.profile = self
            parent = stack[-1]
            frame = ["sim", t0, 0, name]
            stack.append(frame)
            try:
                return original(sim, time_fs)
            finally:
                t1 = _now()
                self._close_dispatch(t1)
                duration = t1 - t0
                stack.pop()
                parent[2] += duration + cost[1]
                agg[0] += 1
                agg[1] += duration - cost[0]
                agg[2] += duration - frame[2] - cost[0]

        return run_until

    def _writer_bytes(self, path: str) -> None:
        """Credit a finished artifact to the nearest non-ioutil span."""
        try:
            size = os.path.getsize(path)
        except OSError:
            return
        for frame in reversed(self.stack):
            if frame[0] != "ioutil" and frame[3] is not None:
                key = frame[3]
                break
        else:
            key = "<root>"
        self.bytes_by_span[key] = self.bytes_by_span.get(key, 0) + size

    def install(self, patcher: Patcher) -> None:
        """Wrap every layer's entry points; :meth:`Patcher.restore` undoes it."""
        import repro.ioutil as ioutil
        from repro.clocks import clock, oscillator
        from repro.dtp.device import DtpDevice
        from repro.dtp.network import DtpNetwork
        from repro.dtp.port import DtpPort
        from repro.ethernet import traffic
        from repro.faultlab import campaign, faults, invariants
        from repro.insight import report
        from repro.linkhealth import fsm, gate
        from repro.network import topology
        from repro.observe import cli as observe_cli
        from repro.observe import slo, snapshots
        from repro.sim import engine
        from repro.telemetry import Telemetry, export, flight, index, trace

        # sim: the loop itself, scheduling, cancellation and heap pops.
        for cls in (engine.Simulator, engine.MacroTickSimulator):
            patcher.set(
                cls, "run_until",
                self._sim_run_until(vars(cls)["run_until"], f"{cls.__name__}.run_until"),
            )
        self.wrap_methods(
            patcher, engine.Simulator, "sim",
            names=("schedule", "schedule_at", "post_at", "cancel"),
        )
        shim = types.SimpleNamespace(
            heappush=heapq.heappush,
            heapify=heapq.heapify,
            heappop=self.wrap(heapq.heappop, "sim", "heapq.heappop"),
        )
        patcher.set(engine, "heapq", shim)

        # clocks: oscillator and counter arithmetic.
        for module in (oscillator, clock):
            for value in list(vars(module).values()):
                if (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                    and not value.__name__.startswith("_")
                ):
                    self.wrap_methods(patcher, value, "clocks")

        # ethernet: the idle-slot queries of the traffic models.
        for value in list(vars(traffic).values()):
            if isinstance(value, type) and issubclass(value, traffic.TrafficModel):
                self.wrap_methods(patcher, value, "ethernet", names=("next_idle_tick",))

        # dtp: device and network queries other layers make, and the
        # public port controls faults and link supervision use.
        self.wrap_methods(patcher, DtpDevice, "dtp")
        self.wrap_methods(patcher, DtpPort, "dtp")
        self.wrap_methods(
            patcher, DtpNetwork, "dtp",
            names=[k for k in vars(DtpNetwork) if not k.startswith("_") and k != "start"],
        )

        # setup: topology and network construction.
        self.wrap_methods(patcher, DtpNetwork, "setup", names=("__init__", "start"), nested=True)
        for fn in (campaign.build_topology, topology.paper_testbed):
            self.wrap_function(patcher, fn, "setup", nested=True)
        original_start = vars(DtpNetwork)["start"]

        def start(net, *args, **kwargs):
            self.networks.append(net)
            return original_start(net, *args, **kwargs)

        patcher.set(DtpNetwork, "start", functools.wraps(original_start)(start))

        # faultlab: the invariant checker and the fault models.
        self.wrap_methods(patcher, invariants.InvariantChecker, "faultlab")
        self.wrap_methods(patcher, invariants.InvariantChecker, "faultlab", names=("__init__",))
        for value in list(vars(faults).values()):
            if isinstance(value, type) and issubclass(value, faults.FaultModel):
                self.wrap_methods(patcher, value, "faultlab", names=("arm",))
        self.wrap_function(patcher, campaign.build_fault, "faultlab")

        # linkhealth: supervisors, the manager and the link gate.
        self.wrap_methods(patcher, fsm.LinkSupervisor, "linkhealth")
        self.wrap_methods(
            patcher, fsm.LinkSupervisor, "linkhealth", names=("_set_state",), nested=True
        )
        self.wrap_methods(patcher, fsm.LinkHealthManager, "linkhealth")
        self.wrap_methods(patcher, gate.LinkGate, "linkhealth")

        # telemetry: recording, digests and the artifact writers.
        self.wrap_methods(patcher, trace.TraceRecorder, "telemetry", names=("record",), nested=True)
        self.wrap_methods(patcher, Telemetry, "telemetry", nested=True)
        for fn in (export.write_trace_jsonl, export.write_metrics_json, flight.dump_flight):
            self.wrap_function(patcher, fn, "telemetry", nested=True)
        load = vars(index.TraceIndex)["load"].__func__

        def load_index(cls, path):
            loaded = load(cls, path)
            self.records_indexed += len(loaded)
            return loaded

        patcher.set(
            index.TraceIndex, "load",
            classmethod(self.wrap(load_index, "telemetry", "TraceIndex.load", nested=True)),
        )

        # observe: the probe, the snapshot tap and SLO evaluation.
        self.wrap_methods(patcher, snapshots.ObserveProbe, "observe")
        self.wrap_methods(patcher, snapshots.SnapshotTap, "observe", nested=True)
        for fn in (
            snapshots.make_tap, slo.load_slo, slo.evaluate_slo,
            observe_cli.evaluate_results, observe_cli.write_verdicts,
        ):
            self.wrap_function(patcher, fn, "observe")

        # insight: the run report and the flight summaries.
        for fn in (report.write_insight_report, report.flight_summary_markdown):
            self.wrap_function(patcher, fn, "insight", nested=True)

        # ioutil: the OS calls behind every crash-safe artifact write.
        proxy = types.ModuleType("os")
        proxy.__dict__.update(vars(os))
        for name in ("fsync", "fdopen", "unlink", "makedirs"):
            setattr(proxy, name, self.wrap(getattr(os, name), "ioutil", f"os.{name}", nested=True))
        replace = self.wrap(os.replace, "ioutil", "os.replace", nested=True)

        def replace_and_count(src, dst):
            self._writer_bytes(src)
            return replace(src, dst)

        proxy.replace = replace_and_count
        patcher.set(ioutil, "os", proxy)
        patcher.set(ioutil, "_mkstemp_for", self.wrap(ioutil._mkstemp_for, "ioutil", "mkstemp"))

    # -- results --------------------------------------------------------
    def span(self, name: str) -> Span:
        return self.spans.get(name) or Span("", [0, 0, 0])

    def self_s(self, layer: str) -> float:
        return self.layer_self_ns.get(layer, 0) / 1e9

    def residual_ns(self) -> int:
        """Traced wall time outside the named layers' self time.

        Root self time, packages outside :data:`LAYERS`, and the
        instrumentation overhead taken out of the layers.
        """
        return self.root_self_ns + self.layer_self_ns.get("other", 0) + self.overhead_ns


def _noop() -> None:
    return None


class Calibration:
    """Instrumentation cost per call on this host, measured once per process.

    ``costs`` is ``[inner, outer, pass_through, dispatch]`` in integer ns:
    the part of a timed call inside its own span, the part its caller
    pays, an untimed same-layer call, and one ``Ledger.count``.  Each is
    the median over :data:`CALIBRATION_BATCHES` loops of
    :data:`CALIBRATION_CALLS` calls.
    """

    def __init__(self) -> None:
        ledger = Ledger()
        stack = ledger.stack
        timed = ledger.wrap(_noop, "<timed>", "<timed>", nested=True)
        passing = ledger.wrap(_noop, "<caller>", "<pass>")
        agg = ledger._aggs["<timed>"]
        loop = range(CALIBRATION_CALLS)
        samples: List[tuple] = []
        stack.append(["<caller>", 0, 0, "<caller>"])
        for _ in range(CALIBRATION_BATCHES):
            t = _now()
            for _ in loop:
                _noop()
            plain = _now() - t
            agg[1] = 0
            t = _now()
            for _ in loop:
                timed()
            wrapped = _now() - t
            recorded = agg[1]
            t = _now()
            for _ in loop:
                passing()
            passed = _now() - t
            t = _now()
            for _ in loop:
                ledger.count(_noop)
            counted = _now() - t
            del stack[2:]
            samples.append((plain, wrapped, recorded, passed, counted))

        def per_call(fn) -> int:
            values = sorted(fn(*sample) / CALIBRATION_CALLS for sample in samples)
            return max(0, round(values[len(values) // 2]))

        inner = per_call(lambda plain, w, recorded, p, c: recorded - plain)
        self.costs = [
            inner,
            max(0, per_call(lambda plain, wrapped, r, p, c: wrapped - plain) - inner),
            per_call(lambda plain, w, r, passed, c: passed - plain),
            per_call(lambda plain, w, r, p, counted: counted),
        ]
