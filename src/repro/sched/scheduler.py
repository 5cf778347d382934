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
admission path, the HALT-extension arithmetic, the proactive-defrag
hook and the fragmentation/utilization sampling; the schedulers
translate their workload shape into kernel calls and keep their
results as running totals on the kernel's metrics.  Both take the same
two policy knobs:

* ``queue`` — a :mod:`~repro.sched.queues` discipline name (``fifo``,
  ``priority``, ``sjf``, ``backfill``) ordering waiting tasks (or, for
  the application scheduler, waiting functions);
* ``ports`` — a :mod:`~repro.sched.ports` model (``serial``,
  ``multi-N``, ``icap``) serving configuration and relocation traffic.

The golden campaign snapshots pin both event streams.
"""

from __future__ import annotations

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

    Every function of a chain is placed on the kernel's admission path.
    A ready function, and a successor configured ahead of its start,
    get one probe (:meth:`SchedulingKernel.admit`); a ready function
    that cannot be placed waits in the kernel's queue, which this
    scheduler builds over its ``queue`` discipline so that a pass tries
    every waiting function in the discipline's order.  A placed
    function is held in ``kernel.running`` until it executes, so
    rearrangements move its ``rect`` like any other resident's.
    """

    def __init__(self, manager,
                 prefetch: bool = True,
                 queue: str | QueueDiscipline = "fifo",
                 ports: str | PortModel = "serial",
                 prefetch_mode: str = "never") -> None:
        self.prefetch = prefetch
        self.kernel = SchedulingKernel(
            manager,
            queue=_EveryWaiting(queue),
            ports=ports,
            prefetch=prefetch_mode,
            on_admitted=self._on_admitted,
        )
        self.manager = self.kernel.manager
        #: the owner id the next placement takes.  A function probes
        #: with it and takes it only when placed, so residents' ids
        #: ascend in placement order, the order the rearrangement
        #: planners break ties by.
        self.next_owner = 1001

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
        """The kernel's run metrics: finished applications, their
        completion times as turnaround, stall and prefetch counts."""
        return self.kernel.metrics

    def run(self, apps: list[ApplicationSpec]) -> list[ApplicationRun]:
        """Run every application to completion; returns their records.

        Every application launches at t = 0, so an application's finish
        time is its turnaround, and time spent waiting for the first
        placement counts too.  An application whose function still waits
        for space when the timeline runs dry is counted as rejected.
        """
        records = [ApplicationRun(app) for app in apps]
        for record in records:
            self.events.at(
                0.0, lambda r=record: self._ready(self._function(r, 0))
            )
        self.kernel.run()
        self.metrics.rejected += len(self.kernel.queue)
        return records

    # -- internals ----------------------------------------------------------

    def _function(self, record: ApplicationRun, index: int) -> "_Function":
        """Function ``index`` of ``record``'s chain, with a fresh
        execution record."""
        fn = _Function(self, record, index)
        record.runs.append(fn.run)
        self.metrics.total_functions += 1
        return fn

    def _ready(self, fn: "_Function") -> None:
        """``fn``'s predecessor finished (or its chain launched).

        A function configured ahead starts once its configuration
        completes.  Any other gets one probe; if that fails its
        bitstream is offered to the prefetch planner (the demand is
        *now*: preloading it while the function waits for space makes
        the eventual placement a resident hit) and it waits in the
        kernel's queue.
        """
        now = self.events.now
        if fn.owner is None and not self.kernel.admit(fn):
            self.kernel.offer_prefetch(
                _function_key(fn.spec), fn.height, fn.width, next_use=now,
            )
            self.kernel.maybe_prefetch()
            fn.parked = True
            self.kernel.queue.push(fn, priority=fn.record.spec.priority,
                                   area=fn.spec.area, now=now)
            return
        if fn.run.configured_at > now:
            self.events.at(fn.run.configured_at, lambda: self._begin(fn))
        else:
            self._begin(fn)

    def _on_admitted(self, fn: "_Function",
                     outcome: PlacementOutcome) -> None:
        """A function was placed: it takes the next owner id, its
        configuration is charged and its region held until it starts.
        One placed from the queue starts through an event when its
        configuration completes."""
        fn.owner = self.next_owner
        self.next_owner += 1
        config_done = self.kernel.charge_placement(
            outcome, key=_function_key(fn.spec)
        )
        run = fn.run
        run.rect = outcome.rect
        run.configured_at = config_done
        # What the port was actually charged — zero on a resident-cache
        # hit, so a hit's "configuration" is never counted as exposed.
        run.config_seconds = self.kernel.last_config_seconds
        self.kernel.hold(fn.owner, run)
        if fn.parked:
            self.events.at(max(self.events.now, config_done),
                           lambda: self._begin(fn))
        self.kernel.sample()

    def _begin(self, fn: "_Function") -> None:
        """Start executing ``fn`` and configure its successor ahead."""
        now = self.events.now
        run = fn.run
        run.started_at = now
        if run.prefetched:
            self.metrics.prefetched_functions += 1
        exec_seconds = fn.spec.exec_seconds
        # Register as running *before* prefetching: the successor's
        # placement may trigger a rearrangement that moves this very
        # function, and under HALT that move must find it executing.
        self.kernel.start_running(fn.owner, now + exec_seconds,
                                  lambda: self._finish(fn), run)
        # Prefetch the successor during the reconfiguration interval rt.
        if self.prefetch and fn.index + 1 < len(fn.record.spec.functions):
            fn.next = nxt = self._function(fn.record, fn.index + 1)
            if not self.kernel.admit(nxt):
                # Space prefetch failed (parallelism took the region);
                # the *bitstream* can still be preloaded so the config
                # is off the critical path once space frees up.
                self.kernel.offer_prefetch(
                    _function_key(nxt.spec), nxt.height, nxt.width,
                    next_use=now + exec_seconds,
                )
                self.kernel.maybe_prefetch()

    def _finish(self, fn: "_Function") -> None:
        """``fn`` finished: release its region, let waiting functions
        place, then start the chain's successor or close the chain."""
        now = self.events.now
        fn.run.finished_at = now
        self.kernel.finish_running(fn.owner)
        self.manager.release(fn.owner)
        self.kernel.sample()
        # Waiting functions get the released space first: one admission
        # pass, without the prefetch planner.
        self.kernel.admit_waiting()
        record = fn.record
        if fn.index + 1 < len(record.spec.functions):
            self._ready(fn.next or self._function(record, fn.index + 1))
        else:
            record.finished_at = now
            metrics = self.metrics
            metrics.finished += 1
            metrics.turnaround_total += now
            # Stall is the time lost to contention: elapsed time minus
            # pure execution minus the configuration left un-hidden.
            metrics.stall_seconds += max(
                0.0,
                now - record.spec.total_exec_seconds
                - _exposed_config_seconds(record),
            )
        self.kernel.maybe_defrag()


class _Function:
    """Function ``index`` of an application's chain as the kernel's
    admission item."""

    __slots__ = ("scheduler", "record", "index", "spec", "height",
                 "width", "run", "owner", "parked", "next")

    def __init__(self, scheduler: ApplicationFlowScheduler,
                 record: ApplicationRun, index: int) -> None:
        self.scheduler = scheduler
        self.record = record
        self.index = index
        self.spec = record.spec.functions[index]
        self.height = self.spec.height
        self.width = self.spec.width
        self.run = FunctionRun(record.spec.name, self.spec)
        #: owner id once placed.
        self.owner: int | None = None
        #: whether it waited in the kernel's queue.
        self.parked = False
        #: the successor, once created to be configured ahead.
        self.next: _Function | None = None

    @property
    def task_id(self) -> int:
        """The owner id to probe with: the scheduler's next one."""
        return self.scheduler.next_owner


class _EveryWaiting:
    """A queue discipline whose admission pass tries every waiting
    function in the discipline's full order (``ordered``), so one that
    cannot be placed never blocks the rest: the discipline contributes
    only the order."""

    def __init__(self, queue: str | QueueDiscipline) -> None:
        self.discipline = make_queue(queue)

    def __getattr__(self, name: str):
        return getattr(self.discipline, name)

    def __len__(self) -> int:
        return len(self.discipline)

    def scan(self, now: float):
        return iter(self.discipline.ordered(now))
