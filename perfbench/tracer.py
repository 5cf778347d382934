"""Span tracing of the admission path, applied from outside the program.

The benchmark never edits ``src/``.  Instead :func:`install` replaces the
public methods of each layer's classes (and two module-level functions)
with thin wrappers that open and close a span around the original call.
Wrapping happens at class level and *before* the stack is built: the
kernel binds its callbacks and the event queue stores bound methods at
construction time, so only objects created after :func:`install` see
the wrappers consistently.  :func:`uninstall` restores every original.

A span records its name, start, end, parent span and the request it
belongs to.  Self time (duration minus the time covered by child spans)
is accumulated online per span name and per request, so the per-layer
breakdown costs O(1) memory; the raw span records are kept in compact
arrays (capped) and written out by :meth:`Tracer.dump` at the end.

Garbage-collector pauses are attributed through ``gc.callbacks`` as
child spans named ``gc.collect`` of whatever span was open.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from pathlib import Path

import numpy as np

#: Raw span records kept for :meth:`Tracer.dump`; counts and self times
#: keep accumulating past the cap.
MAX_RECORDED_SPANS = 1_500_000


class _Frame:
    """One open span on the tracer's stack."""

    __slots__ = ("name", "start", "child", "index", "request")

    def __init__(self, name: int, start: float, index: int,
                 request: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.index = index
        self.request = request


class Tracer:
    """An in-memory span recorder with online self-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[_Frame] = []
        #: per span name: call count, total duration, self time.
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        #: request id -> {span name id: self seconds}, for tail attribution.
        self.by_request: dict[int, dict[int, float]] = {}
        #: the request id new spans belong to (0 = no request).
        self.request = 0
        #: free-form counters the layer hooks bump (refusals, sim seconds).
        self.counters: dict[str, float] = {}
        #: the simulated clock of the kernel that is charging a port, so
        #: the port hook can measure how long a job waited for the port.
        self.sim_clock = None
        self._rec_name = array("i")
        self._rec_parent = array("i")
        self._rec_request = array("i")
        self._rec_start = array("d")
        self._rec_end = array("d")
        self._gc_started = 0.0
        self.gen2_collections = 0

    # -- span stack ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        """The interned id of a span name."""
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._name_ids[name] = ident
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return ident

    def push(self, name: int) -> None:
        """Open a span (``name`` from :meth:`name_id`)."""
        index = len(self._rec_name)
        if index < MAX_RECORDED_SPANS:
            stack = self._stack
            self._rec_name.append(name)
            self._rec_parent.append(stack[-1].index if stack else -1)
            self._rec_request.append(self.request)
            self._rec_start.append(0.0)
            self._rec_end.append(0.0)
        else:
            index = -1
        frame = _Frame(name, time.perf_counter(), index, self.request)
        self._stack.append(frame)
        if index >= 0:
            self._rec_start[index] = frame.start

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - frame.start
        self._close(frame, end, duration)
        return duration

    def _close(self, frame: _Frame, end: float, duration: float) -> None:
        name = frame.name
        own = duration - frame.child
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += own
        if frame.request:
            per = self.by_request.get(frame.request)
            if per is None:
                per = self.by_request[frame.request] = {}
            per[name] = per.get(name, 0.0) + own
        if frame.index >= 0:
            self._rec_end[frame.index] = end
        if self._stack:
            self._stack[-1].child += duration

    def add_child(self, name: int, start: float, end: float) -> None:
        """Record an already finished span as a child of the open one."""
        index = len(self._rec_name)
        if index < MAX_RECORDED_SPANS:
            self._rec_name.append(name)
            self._rec_parent.append(
                self._stack[-1].index if self._stack else -1)
            self._rec_request.append(self.request)
            self._rec_start.append(start)
            self._rec_end.append(end)
        else:
            index = -1
        frame = _Frame(name, start, index, self.request)
        self._close(frame, end, end - start)

    def bump(self, counter: str, amount: float = 1) -> None:
        """Add to a named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- garbage collector ---------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            if info.get("generation") == 2:
                self.gen2_collections += 1
        else:
            self.add_child(self.name_id("gc.collect"), self._gc_started,
                           time.perf_counter())

    # -- queries -------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        """Self seconds of every span whose name starts with ``layer.``."""
        prefix = layer + "."
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.startswith(prefix))

    def span_self(self, name: str) -> float:
        """Self seconds of one span name (0 when it never ran)."""
        ident = self._name_ids.get(name)
        return 0.0 if ident is None else self.self_s[ident]

    def span_total(self, name: str) -> float:
        """Summed duration of one span name (0 when it never ran)."""
        ident = self._name_ids.get(name)
        return 0.0 if ident is None else self.total_s[ident]

    def span_calls(self, name: str) -> int:
        """Number of closed spans of one name."""
        ident = self._name_ids.get(name)
        return 0 if ident is None else self.calls[ident]

    def layer_calls(self, layer: str) -> int:
        """Number of closed spans in one layer."""
        prefix = layer + "."
        return sum(c for name, c in zip(self.names, self.calls)
                   if name.startswith(prefix))

    def request_layers(self, request: int) -> dict[str, float]:
        """Self seconds per layer of one request's spans."""
        out: dict[str, float] = {}
        for name, seconds in self.by_request.get(request, {}).items():
            layer = self.names[name].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def dump(self, path: Path, extra: dict) -> None:
        """Write the span records (``.npz``) and a JSON summary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            name=np.frombuffer(self._rec_name, dtype=np.int32),
            parent=np.frombuffer(self._rec_parent, dtype=np.int32),
            request=np.frombuffer(self._rec_request, dtype=np.int32),
            start=np.frombuffer(self._rec_start, dtype=np.float64),
            end=np.frombuffer(self._rec_end, dtype=np.float64),
        )
        summary = {
            "span_names": self.names,
            "recorded_spans": len(self._rec_name),
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, calls, total, own in zip(
                    self.names, self.calls, self.total_s, self.self_s)
            },
            **extra,
        }
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1))


# -- wrapping -----------------------------------------------------------------

def _wrap(tracer: Tracer, owner, attr: str, span: str, after=None,
          before=None):
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``before(args)`` runs ahead of the call and its result is handed to
    ``after(args, result, token)``, which runs once the span is closed.
    Returns the original attribute for :func:`uninstall`.
    """
    original = owner.__dict__[attr]
    name = tracer.name_id(span)
    push, pop = tracer.push, tracer.pop

    if before is None and after is None:
        def wrapper(*args, **kwargs):
            push(name)
            try:
                return original(*args, **kwargs)
            finally:
                pop()
    else:
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            push(name)
            try:
                result = original(*args, **kwargs)
            finally:
                pop()
            if after is not None:
                after(args, result, token)
            return result

    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)
    return original


def _hooks(tracer: Tracer) -> list[tuple]:
    """(owner, attribute, span name, after, before) for every layer."""
    from repro.campaign import runner
    from repro.core.defrag import DefragPlanner
    from repro.core.manager import LogicSpaceManager
    from repro.device.fabric import Fabric
    from repro.fleet.manager import FleetManager
    from repro.placement.fit import CachedFitter
    from repro.sched import ports
    from repro.sched.events import EventQueue
    from repro.sched.kernel import SchedulingKernel
    from repro.service import checkpoint
    from repro.service.admission import AdmissionController
    from repro.service.app import ReproService, ServiceEngine

    bump = tracer.bump

    def refused(args, decision, token):
        if not decision.admitted:
            bump("admission.refused_" + (
                "depth" if decision.reason == "queue-full" else "rate"))

    def placed(args, outcome, token):
        if outcome.success:
            bump("manager.request.successes")

    def planned(args, plan, token):
        if plan is not None:
            bump("defrag.plan.successes")

    def events_before(args):
        return args[0].processed

    def events_after(args, result, before):
        bump("events.processed", args[0].processed - before)

    def kernel_clock(args):
        tracer.sim_clock = args[0].events

    def port_before(args):
        return args[0].busy_seconds

    def port_after(args, granted, busy_before):
        port = args[0]
        bump("ports.busy_sim_s", port.busy_seconds - busy_before)
        if tracer.sim_clock is not None:
            bump("ports.wait_sim_s", granted[0] - tracer.sim_clock.now)

    hooks = [
        (AdmissionController, "admit", "admission.admit", refused, None),
        (ReproService, "submit", "app.submit", None, None),
        (ReproService, "status", "app.status", None, None),
        (ReproService, "cancel", "app.cancel", None, None),
        (ReproService, "stats", "app.stats", None, None),
        (ReproService, "settle", "app.settle", None, None),
        (ServiceEngine, "submit", "app.engine_submit", None, None),
        (checkpoint, "snapshot", "checkpoint.snapshot", None, None),
        (runner, "build_manager", "campaign.build_manager", None, None),
        (runner, "make_workload", "campaign.make_workload", None, None),
        (EventQueue, "run", "events.run", events_after, events_before),
        (SchedulingKernel, "drain", "kernel.drain", None, None),
        (SchedulingKernel, "sample", "kernel.sample", None, None),
        (SchedulingKernel, "charge_placement", "kernel.charge_placement",
         None, kernel_clock),
        (FleetManager, "request", "fleet.request", None, None),
        (FleetManager, "prefetch_admission", "fleet.prefetch_admission",
         None, None),
        (LogicSpaceManager, "request", "manager.request", placed, None),
        (LogicSpaceManager, "prefetch_admission", "manager.prefetch",
         None, None),
        (LogicSpaceManager, "release", "manager.release", None, None),
        (DefragPlanner, "plan", "defrag.plan", planned, None),
        (DefragPlanner, "plan_prefetch", "defrag.plan_prefetch",
         None, None),
        (CachedFitter, "__call__", "fit.call", None, None),
        (CachedFitter, "prefetch", "fit.prefetch", None, None),
        (Fabric, "allocate_region", "free_space.allocate_region",
         None, None),
        (Fabric, "free_region", "free_space.free_region", None, None),
        (Fabric, "move_region", "free_space.move_region", None, None),
    ]
    for model in (ports.SerialPortModel, ports.MultiPortModel,
                  ports.IcapPortModel):
        hooks.append((model, "acquire", "ports.acquire", port_after,
                      port_before))
    return hooks


class Installed:
    """The wrappers one :func:`install` put in place."""

    def __init__(self, tracer: Tracer, originals: list[tuple]) -> None:
        self.tracer = tracer
        self._originals = originals

    def uninstall(self) -> None:
        """Restore every wrapped attribute and detach the gc hook."""
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []
        if self.tracer._on_gc in gc.callbacks:
            gc.callbacks.remove(self.tracer._on_gc)


def install(tracer: Tracer) -> Installed:
    """Wrap every layer's public methods; returns the undo handle.

    Raises :class:`AttributeError`, wrapping nothing, when a hooked
    attribute is missing: a renamed method would otherwise read as a
    layer that does no work.
    """
    hooks = _hooks(tracer)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in hooks if attr not in owner.__dict__]
    if missing:
        raise AttributeError(f"cannot trace missing attributes: "
                             f"{', '.join(missing)}")
    originals = []
    for owner, attr, span, after, before in hooks:
        original = _wrap(tracer, owner, attr, span, after=after,
                         before=before)
        originals.append((owner, attr, original))
    gc.callbacks.append(tracer._on_gc)
    return Installed(tracer, originals)
