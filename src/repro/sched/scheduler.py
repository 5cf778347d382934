"""On-line schedulers over the logic-space manager.

Two experiment drivers, both thin strategy layers over the shared
:class:`~repro.sched.kernel.SchedulingKernel`:

* :class:`OnlineTaskScheduler` — independent task stream (the
  defragmentation study): tasks arrive, are placed (possibly after a
  rearrangement), configured through the reconfiguration port, run, and
  release their region; unplaceable tasks wait in the order the queue
  discipline dictates.
* :class:`ApplicationFlowScheduler` — the Fig. 1 scenario: applications
  execute function chains; the successor of a running function is
  configured *in advance* during the reconfiguration interval ``rt``
  whenever space and the port allow, hiding reconfiguration time; when
  prefetching fails (parallelism took the space), the application
  stalls, which is exactly the effect Fig. 1 illustrates.

The kernel owns the event queue, the reconfiguration-port model, the
HALT-extension arithmetic, the proactive-defrag hook and the
fragmentation/utilization sampling; the schedulers translate their
workload shape into kernel calls.  Both take the same two policy knobs:

* ``queue`` — a :mod:`~repro.sched.queues` discipline name (``fifo``,
  ``priority``, ``sjf``, ``backfill``) ordering waiting tasks (or, for
  the application scheduler, stalled applications);
* ``ports`` — a :mod:`~repro.sched.ports` model (``serial``,
  ``multi-N``, ``icap``) serving configuration and relocation traffic.

With the defaults (``fifo`` + ``serial``) both schedulers reproduce the
historical hand-rolled behaviour event for event; the golden campaign
snapshots pin it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.manager import PlacementOutcome

from .kernel import ScheduleMetrics, SchedulingKernel
from .ports import PortModel
from .queues import QueueDiscipline, make_queue
from .tasks import (
    ApplicationRun,
    ApplicationSpec,
    FunctionRun,
    Task,
    TaskState,
)

__all__ = [
    "ApplicationFlowScheduler",
    "OnlineTaskScheduler",
    "ScheduleMetrics",
    "summarize_application_runs",
]


def _function_key(spec) -> str:
    """Bitstream identity of an application function.

    Keyed by function name *and* shape: a function reused across chain
    repeats (or across applications built from the same library) maps
    to the same bitstream and can hit the resident cache, while two
    different functions that merely share a name cannot collide.
    """
    return f"fn:{spec.name}:{spec.height}x{spec.width}"


def _exposed_config_seconds(record: ApplicationRun) -> float:
    """Configuration time the chain could not hide behind execution.

    Function ``i`` becomes *ready* when function ``i-1`` finishes (the
    first function at t = 0).  Its configuration occupies the interval
    ``[configured_at - config_seconds, configured_at]``; only the part
    of that interval after the ready instant was exposed — a prefetch
    that completed early contributes nothing, a configuration that ran
    entirely after the predecessor finished contributes all of itself.
    Time spent *waiting for space* before the configuration began is
    deliberately not counted here: that is genuine stall.
    """
    exposed = 0.0
    ready = 0.0
    for run in record.runs:
        if run.configured_at is not None:
            exposed += min(
                run.config_seconds, max(0.0, run.configured_at - ready)
            )
        if run.finished_at is None:
            break
        ready = run.finished_at
    return exposed


def summarize_application_runs(
    runs: list[ApplicationRun],
    makespan: float = 0.0,
    port_busy_seconds: float = 0.0,
) -> ScheduleMetrics:
    """Fold :class:`ApplicationRun` records into :class:`ScheduleMetrics`.

    This gives the application-flow experiment the same result shape as
    the independent-task experiment, so the campaign engine
    (:mod:`repro.campaign`) can aggregate both uniformly: ``finished``
    counts completed applications, ``turnaround_total`` sums per-app
    completion times.  :meth:`ApplicationFlowScheduler.run` launches
    every application at t = 0, so an application's absolute finish
    time *is* its turnaround — measured from launch, not from its first
    function's start, so time spent stalled waiting for the first
    placement counts too (``ApplicationRun.makespan`` would exclude it).

    ``stall_seconds`` is the time an application lost to *contention*:
    elapsed time minus pure execution minus the configuration time that
    was genuinely un-hidden (see :func:`_exposed_config_seconds`).
    Subtracting the exposed configuration keeps the metric true to its
    meaning — a solo application that simply pays its own configuration
    up front reports zero stall, while waiting for space or for the
    port behind other applications' traffic is counted in full.
    """
    out = ScheduleMetrics(
        makespan=makespan, port_busy_seconds=port_busy_seconds
    )
    for record in runs:
        if record.finished_at is not None:
            out.finished += 1
            out.turnaround_total += record.finished_at
            out.stall_seconds += max(
                0.0,
                record.finished_at
                - record.spec.total_exec_seconds
                - _exposed_config_seconds(record),
            )
        else:
            out.rejected += 1
        out.total_functions += len(record.runs)
        out.prefetched_functions += sum(
            1 for r in record.runs if r.prefetched
        )
    return out


class OnlineTaskScheduler:
    """On-line scheduler for independent tasks (pluggable policies).

    ``manager`` is a :class:`~repro.core.manager.LogicSpaceManager` or a
    :class:`~repro.fleet.manager.FleetManager`.  The kernel wraps a bare
    manager as a 1-member fleet and derives the device axis (one port
    per fabric) from the fleet; :attr:`manager` is that fleet.
    """

    def __init__(self, manager,
                 queue: str | QueueDiscipline = "fifo",
                 ports: str | PortModel = "serial",
                 prefetch_mode: str = "never") -> None:
        self.kernel = SchedulingKernel(
            manager,
            queue=queue,
            ports=ports,
            prefetch=prefetch_mode,
            on_admitted=self._on_admitted,
            on_recovered=self._on_recovered,
        )
        self.manager = self.kernel.manager

    @property
    def events(self):
        """The kernel's event queue (shared simulation timeline)."""
        return self.kernel.events

    @property
    def port(self):
        """The kernel's reconfiguration-port model."""
        return self.kernel.port

    @property
    def metrics(self) -> ScheduleMetrics:
        """The kernel's aggregated run metrics."""
        return self.kernel.metrics

    def run(self, tasks: list[Task]) -> ScheduleMetrics:
        """Simulate the whole stream; returns the aggregated metrics."""
        for task in tasks:
            self.events.at(task.arrival,
                           lambda t=task: self._enqueue_task(t))
        self.kernel.run()
        return self.metrics

    # -- event handlers -----------------------------------------------------

    def _enqueue_task(self, task: Task) -> None:
        """Put ``task`` in the waiting queue with a fresh patience
        window (on arrival, and again on a fault-recovery restart)."""
        task.state = TaskState.QUEUED
        task.queue_round += 1
        if task.max_wait is not None:
            task.deadline = self.events.now + task.max_wait
            self.arm_timeout(task)
        self.kernel.enqueue(task, priority=task.priority, area=task.area)

    def arm_timeout(self, task: Task) -> None:
        """Schedule ``task``'s patience timeout at its ``deadline`` for
        its current queueing round."""
        queue_round = task.queue_round
        self.events.at(task.deadline,
                       lambda: self._on_timeout(task, queue_round))

    def _on_timeout(self, task: Task, queue_round: int) -> None:
        """The task's patience ran out while still queued: reject it.

        State change and counter are atomic: the task is marked
        ``REJECTED`` and counted in the same step, and the queue entry
        is lazily tombstoned (an already-absent entry is a no-op), so
        no path exists on which a task ends rejected but uncounted.
        ``queue_round`` guards against a stale timeout outliving the
        queueing round it was armed for: fault recovery re-queues
        tasks, and the original event is left to fire as a no-op
        (cancelling it would perturb the event stream — and therefore
        the makespan the goldens pin).
        """
        if task.state is not TaskState.QUEUED:
            return
        if queue_round != task.queue_round:
            return
        task.state = TaskState.REJECTED
        self.metrics.rejected += 1
        self.kernel.cancel(task)

    def _on_admitted(self, task: Task, outcome: PlacementOutcome) -> None:
        """A waiting task was placed: configure it and start it."""
        config_done = self.kernel.charge_placement(
            outcome, key=task.prefetch_key
        )
        task.rect = outcome.rect
        task.device = outcome.device
        task.state = TaskState.CONFIGURING
        task.configured_at = config_done
        task.started_at = config_done
        self.kernel.start_running(
            task.task_id, config_done + task.exec_seconds,
            lambda: self._on_finish(task), task,
        )
        self.kernel.sample()

    def _on_finish(self, task: Task) -> None:
        task.state = TaskState.FINISHED
        task.finished_at = self.events.now
        self.kernel.finish_running(task.task_id)
        self.manager.release(task.task_id)
        self.metrics.finished += 1
        if task.tenant:
            counts = self.metrics.tenant_finished
            counts[task.tenant] = counts.get(task.tenant, 0) + 1
        self.metrics.waiting_total += task.waiting_seconds
        self.metrics.turnaround_total += task.turnaround_seconds
        self.kernel.sample()
        self.kernel.drain()
        self.kernel.maybe_defrag()

    def _on_recovered(self, task: Task, fate: str,
                      outcome: PlacementOutcome) -> None:
        """Fault recovery (:mod:`repro.faults.recovery`) settled a
        displaced task's fate.  A ``relocated`` task is hosted by the
        member that accepted it; a ``restarted`` one re-enters the
        waiting queue with a fresh patience window and a ``dropped`` one
        becomes terminal, both hosted nowhere.  ``outcome`` is the
        recovery's placement attempt (successful only for a
        relocation)."""
        task.device = outcome.device if fate == "relocated" else None
        if fate == "restarted":
            self._enqueue_task(task)
        elif fate == "dropped":
            task.state = TaskState.DROPPED


class ApplicationFlowScheduler:
    """Fig. 1: applications sharing the device in space and time.

    ``manager`` is a :class:`~repro.core.manager.LogicSpaceManager` or a
    :class:`~repro.fleet.manager.FleetManager`; like the task scheduler,
    :attr:`manager` is the kernel's fleet (function chains spread over
    it, each function configured on the member its device-selection
    policy picked).
    """

    def __init__(self, manager,
                 prefetch: bool = True,
                 queue: str | QueueDiscipline = "fifo",
                 ports: str | PortModel = "serial",
                 prefetch_mode: str = "never") -> None:
        self.prefetch = prefetch
        self.kernel = SchedulingKernel(
            manager,
            ports=ports,
            prefetch=prefetch_mode,
            on_space_reclaimed=self._retry_stalled,
        )
        self.manager = self.kernel.manager
        self._owner_seq = 1000
        #: stalled (application, function-index) records, woken in the
        #: queue discipline's order whenever space is released.
        self._stalled: QueueDiscipline = make_queue(queue)

    @property
    def events(self):
        """The kernel's event queue (shared simulation timeline)."""
        return self.kernel.events

    @property
    def port(self):
        """The kernel's reconfiguration-port model."""
        return self.kernel.port

    @property
    def metrics(self) -> ScheduleMetrics:
        """Aggregated run metrics (uniform summary after :meth:`run`)."""
        return self.kernel.metrics

    def run(self, apps: list[ApplicationSpec]) -> list[ApplicationRun]:
        """Run every application to completion; returns their records.

        The uniform summary of the run is left in :attr:`metrics`
        (finished applications, per-app makespans as turnaround, stall
        and prefetch counts) for the campaign engine.
        """
        states = [_AppState(ApplicationRun(app)) for app in apps]
        for state in states:
            self.events.at(0.0, lambda s=state: self._start_function(s, 0))
        self.kernel.run()
        runs = [s.record for s in states]
        summary = summarize_application_runs(
            runs,
            makespan=self.events.now,
            port_busy_seconds=self.kernel.port_busy_seconds,
        )
        summary.rearrangements = self.metrics.rearrangements
        summary.moves = self.metrics.moves
        summary.halted_seconds = self.metrics.halted_seconds
        summary.proactive_defrags = self.metrics.proactive_defrags
        summary.defrag_moves = self.metrics.defrag_moves
        summary.defrag_port_seconds = self.metrics.defrag_port_seconds
        summary.config_stall_seconds = self.metrics.config_stall_seconds
        summary.prefetch_hits = self.metrics.prefetch_hits
        summary.prefetch_loads = self.metrics.prefetch_loads
        summary.cache_evictions = self.metrics.cache_evictions
        self.kernel.metrics = summary
        return runs

    # -- internals ----------------------------------------------------------

    def _next_owner(self) -> int:
        self._owner_seq += 1
        return self._owner_seq

    def _start_function(self, state: "_AppState", index: int) -> None:
        """Begin function ``index``: it must be placed and configured."""
        run = state.ensure_run(index)
        if run.rect is None and not self._place_function(state, index):
            # No space: stall until some function releases its region.
            spec = state.record.spec
            fn = spec.functions[index]
            # The demand is *now*; preloading the bitstream while the
            # application waits for space makes the eventual placement
            # a resident hit.
            self.kernel.offer_prefetch(
                _function_key(fn), fn.height, fn.width,
                next_use=self.events.now,
            )
            self.kernel.maybe_prefetch()
            self._stalled.push(
                _Stall(state, index),
                priority=spec.priority,
                area=fn.area,
                now=self.events.now,
            )
            return
        start = max(self.events.now, run.configured_at or 0.0)
        if start > self.events.now:
            self.events.at(start, lambda: self._begin_execution(state, index))
        else:
            self._begin_execution(state, index)

    def _begin_execution(self, state: "_AppState", index: int) -> None:
        run = state.record.runs[index]
        run.started_at = self.events.now
        spec = state.record.spec.functions[index]
        # Register as running *before* prefetching: the successor's
        # placement may trigger a rearrangement that moves this very
        # function, and under HALT that move must find it executing.
        self.kernel.start_running(
            state.owners[index],
            self.events.now + spec.exec_seconds,
            lambda: self._finish_function(state, index),
            run,
        )
        # Prefetch the successor during the reconfiguration interval rt.
        if self.prefetch and index + 1 < len(state.record.spec.functions):
            if not self._place_function(state, index + 1):
                # Space prefetch failed (parallelism took the region);
                # the *bitstream* can still be preloaded so the config
                # is off the critical path once space frees up.
                nxt = state.record.spec.functions[index + 1]
                self.kernel.offer_prefetch(
                    _function_key(nxt), nxt.height, nxt.width,
                    next_use=self.events.now + spec.exec_seconds,
                )
                self.kernel.maybe_prefetch()

    def _place_function(self, state: "_AppState", index: int) -> bool:
        """Try to place + configure function ``index`` right now."""
        run = state.ensure_run(index)
        if run.rect is not None:
            return True
        spec = state.record.spec.functions[index]
        owner = self._next_owner()
        outcome = self.manager.request(spec.height, spec.width, owner)
        if not outcome.success:
            return False
        config_done = self.kernel.charge_placement(
            outcome, key=_function_key(spec)
        )
        run.rect = outcome.rect
        run.configured_at = config_done
        # What the port was actually charged — zero on a resident-cache
        # hit, so a hit's "configuration" is never counted as exposed.
        run.config_seconds = self.kernel.last_config_seconds
        state.owners[index] = owner
        return True

    def _finish_function(self, state: "_AppState", index: int) -> None:
        run = state.record.runs[index]
        run.finished_at = self.events.now
        owner = state.owners.pop(index)
        self.kernel.finish_running(owner)
        self.manager.release(owner)
        self._retry_stalled()
        if index + 1 < len(state.record.spec.functions):
            self._start_function(state, index + 1)
        else:
            state.record.finished_at = self.events.now
        self.kernel.maybe_defrag()

    def _retry_stalled(self) -> None:
        """Space was released: wake stalled applications.

        Every stalled record is attempted in the queue discipline's
        order (FIFO by default); failures simply stay queued.  Because
        *every* record is always attempted — one application's failed
        placement never blocks the rest, the historical behaviour —
        disciplines contribute only the retry order here: ``backfill``
        has no blocked head to jump and therefore coincides with
        ``fifo`` for application workloads.  The kernel invokes this
        after a proactive defrag too — a background consolidation
        frees contiguous space exactly like a finish event does, and a
        stalled application must not stay stranded until the next
        finish to benefit from it.
        """
        for stall in self._stalled.ordered(self.events.now):
            state, index = stall.state, stall.index
            if self._place_function(state, index):
                self._stalled.take(stall)
                run = state.record.runs[index]
                start = max(self.events.now, run.configured_at or 0.0)
                self.events.at(
                    start,
                    lambda s=state, i=index: self._begin_execution(s, i),
                )


@dataclass
class _Stall:
    """One stalled (application, function-index) admission request."""

    state: "_AppState"
    index: int


@dataclass
class _AppState:
    """Book-keeping for one running application."""

    record: ApplicationRun
    owners: dict[int, int] = field(default_factory=dict)

    def ensure_run(self, index: int) -> FunctionRun:
        while len(self.record.runs) <= index:
            next_index = len(self.record.runs)
            self.record.runs.append(
                FunctionRun(
                    self.record.spec.name,
                    self.record.spec.functions[next_index],
                )
            )
        return self.record.runs[index]
