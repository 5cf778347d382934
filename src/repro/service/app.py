"""The always-on admission service core: an online front over the kernel.

The paper's run-time manager is inherently *online* — functions arrive,
are admitted or refused, execute and leave while the system keeps
running — but the batch campaigns (:mod:`repro.campaign`) always drain
a pre-generated stream to completion.  :class:`ReproService` closes
that gap: it keeps a :class:`~repro.sched.kernel.SchedulingKernel`
(over a :class:`~repro.fleet.manager.FleetManager` of one or more
devices) alive indefinitely and feeds it submissions one at a time,
advancing the simulated clock with the external-clock hooks the kernel
grew for exactly this
(:meth:`~repro.sched.kernel.SchedulingKernel.advance`).

Division of labour:

* :class:`ServiceEngine` — the *strategy layer*: an incremental
  :class:`~repro.sched.scheduler.OnlineTaskScheduler` that accepts
  tasks one by one, journals every life-cycle event (submitted /
  admitted / finished / rejected / cancelled) with a monotonic
  sequence, records telemetry samples, and supports cancelling queued
  *and* running work;
* :class:`ReproService` — the service: the admission door
  (:mod:`repro.service.admission`) in front of the engine, the task
  status views, and the checkpoint hooks
  (:mod:`repro.service.checkpoint`).

Everything here is synchronous and deterministic; the asyncio HTTP
layer (:mod:`repro.service.api`) calls into it from a single event
loop, so no locking is needed and a service run replays bit-identically
from its inputs — the property the checkpoint round-trip test pins.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Callable

from repro.core.manager import PlacementOutcome
from repro.faults import FaultEvent
from repro.perf import PERF
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.tasks import Task, TaskState
from repro.sched.trace import qos_of_priority
from repro.stack import AXES, build_fleet, check_fleet, check_int

from .admission import DEFAULT_MAX_QUEUE_DEPTH, AdmissionController
from .qos import get_qos


#: The stack axes a service config names (see :data:`repro.stack.AXES`).
_SERVICE_AXES = tuple(axis for axis in AXES if axis.service)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to (re)build a service's scheduling stack.

    The config is serialized into every checkpoint, so a snapshot is
    self-describing: :func:`repro.service.checkpoint.restore` rebuilds
    the identical manager/kernel stack before loading the state into it.

    Every field is checked on construction, before any stack is built:
    each axis is resolved through :data:`repro.stack.AXES` (a name the
    registry does not know, or a value of the wrong type, raises
    :class:`KeyError` or :class:`ValueError`), ``fleet_size`` and
    ``max_queue_depth`` are integers >= 1 (a boolean is not), and
    ``fleet_devices`` is a list of device names that leaves
    ``fleet_size`` at 1.
    """

    device: str = "XC2S15"
    fleet_size: int = 1
    #: explicit member device names *appended after* ``device`` (the
    #: same convention as the campaign's ``fleet_devices`` axis);
    #: empty = ``fleet_size`` copies of ``device``.
    fleet_devices: tuple[str, ...] = ()
    device_policy: str = "first-fit"
    queue: str = "priority"
    ports: str = "serial"
    rearrange: str = "concurrent"
    fit: str = "first"
    defrag: str = "on-failure"
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    #: prefetch mode for the kernel's resident-bitstream cache and
    #: planner (:data:`repro.sched.prefetch.PREFETCH_MODES`).
    prefetch: str = "never"

    def __post_init__(self) -> None:
        for axis in _SERVICE_AXES:
            object.__setattr__(self, axis.service,
                               axis.resolve(getattr(self, axis.service)))
        check_fleet(self.fleet_size, self.fleet_devices)
        check_int("max_queue_depth", self.max_queue_depth, 1)

    def to_dict(self) -> dict:
        """JSON-ready config (checkpoint header)."""
        return dict(asdict(self), fleet_devices=list(self.fleet_devices))

    @classmethod
    def from_dict(cls, data) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_dict` output; a document that
        is not an object or names an unknown field raises
        :class:`ValueError`."""
        if not isinstance(data, dict):
            raise ValueError("config must be an object, "
                             f"got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config fields {unknown}")
        return cls(**data)


def _finite(value) -> bool:
    """Whether ``value`` is a finite real number (a boolean is not)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_submission(height, width, exec_seconds, max_wait, at) -> None:
    """Raise :class:`ValueError` unless a submission's numeric fields
    are well formed (the rules :meth:`ReproService.submit` documents)."""
    for name, value in (("height", height), ("width", width)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < 1:
            raise ValueError(f"{name} must be an integer >= 1, "
                             f"got {value!r}")
    if not _finite(exec_seconds) or exec_seconds < 0:
        raise ValueError("exec_seconds must be a finite number >= 0, "
                         f"got {exec_seconds!r}")
    if max_wait is not None and (not _finite(max_wait) or max_wait < 0):
        raise ValueError("max_wait must be null or a finite number >= 0, "
                         f"got {max_wait!r}")
    if at is not None and not _finite(at):
        raise ValueError(f"at must be null or a finite number, got {at!r}")


class ServiceEngine(OnlineTaskScheduler):
    """Incremental task scheduler with a journal and cancellation.

    Extends the batch :class:`~repro.sched.scheduler.OnlineTaskScheduler`
    with what a long-running front door needs: tasks are submitted one
    at a time at the current simulated instant, every life-cycle
    transition is appended to :attr:`journal` (the stream the
    checkpoint round-trip test compares bit-for-bit), telemetry samples
    accumulate in :attr:`telemetry`, and both queued and running tasks
    can be cancelled through the API.
    """

    def __init__(self, manager, queue: str = "priority",
                 ports: str = "serial", prefetch: str = "never") -> None:
        super().__init__(manager, queue=queue, ports=ports,
                         prefetch_mode=prefetch)
        #: every task ever submitted, by id (the service's registry).
        self.tasks: dict[int, Task] = {}
        #: ordered life-cycle event stream (see :meth:`_journal`).
        self.journal: list[dict] = []
        #: telemetry sample stream (see :meth:`_record_telemetry`).
        self.telemetry: list[dict] = []
        #: listeners notified with every new telemetry entry (the API
        #: layer's NDJSON subscribers).
        self.telemetry_listeners: list[Callable[[dict], None]] = []
        self._next_task_id = 1
        self._journal_seq = 0
        self.kernel.on_sample = self._record_telemetry

    # -- submission + clock --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.events.now

    def submit(self, height: int, width: int, exec_seconds: float, *,
               max_wait: float | None = None, priority: int = 0,
               tenant: str = "default") -> Task:
        """Accept one task of ``tenant`` at the current instant and try
        to admit it.

        The task arrives *now* (an always-on service has no future
        arrival table); admission, and possibly configuration, happen
        synchronously through the kernel's usual drain.  Returns the
        registered :class:`~repro.sched.tasks.Task`, whose state tells
        the caller whether it was placed immediately or queued.
        """
        task = Task(
            task_id=self._next_task_id,
            height=height,
            width=width,
            exec_seconds=exec_seconds,
            arrival=self.now,
            max_wait=max_wait,
            priority=priority,
            tenant=tenant,
        )
        self._next_task_id += 1
        self.tasks[task.task_id] = task
        self._journal("submitted", task)
        self._enqueue_task(task)
        return task

    def advance(self, until: float) -> None:
        """Advance the simulated clock, processing due events."""
        self.kernel.advance(until)

    def settle(self) -> None:
        """Drain every pending event (all running work completes, every
        queued task is admitted or times out) and stamp the metrics —
        the batch-mode escape hatch used by replays and benchmarks."""
        self.kernel.run()

    # -- cancellation --------------------------------------------------------

    def cancel(self, task_id: int) -> Task:
        """Cancel a task by id, wherever it is in its life-cycle.

        Queued tasks are tombstoned out of the admission queue; a
        configuring/running task has its finish event cancelled and its
        region released (freeing space wakes waiting work, exactly like
        a natural finish).  Cancelling an already-terminal task raises
        :class:`ValueError`; an unknown id raises :class:`KeyError`.
        """
        task = self.tasks.get(task_id)
        if task is None:
            raise KeyError(f"unknown task {task_id}")
        if task.state is TaskState.QUEUED:
            task.state = TaskState.CANCELLED
            self._journal("cancelled", task)
            self.kernel.cancel(task)
            return task
        if self.kernel.stop_running(task_id) is not None:
            task.state = TaskState.CANCELLED
            self._journal("cancelled", task)
            self.kernel.sample()
            self.kernel.drain()
            return task
        raise ValueError(
            f"task {task_id} is {task.state.value}; nothing to cancel"
        )

    # -- journal + telemetry -------------------------------------------------

    def _journal(self, event: str, task: Task) -> None:
        """Append one life-cycle event to the journal."""
        self.journal.append({
            "seq": self._journal_seq,
            "t": self.now,
            "event": event,
            "task": task.task_id,
        })
        self._journal_seq += 1

    def _record_telemetry(self) -> None:
        """Append one telemetry entry for the kernel sample just taken
        (the kernel's ``on_sample`` callback, so every sample writes
        exactly one entry) and fan it out to the registered
        listeners."""
        fragmentation, utilization, members = self.metrics.latest_sample
        entry = {
            "t": self.now,
            "waiting": len(self.kernel.queue),
            "running": len(self.kernel.running),
            "fragmentation": fragmentation,
            "utilization": utilization,
            "members": [list(pair) for pair in members],
        }
        self.telemetry.append(entry)
        for listener in list(self.telemetry_listeners):
            listener(entry)

    # -- scheduler hook overrides -------------------------------------------

    def _on_admitted(self, task: Task, outcome: PlacementOutcome) -> None:
        """Journal the admission on top of the batch scheduler's
        configuration/execution bookkeeping."""
        super()._on_admitted(task, outcome)
        self._journal("admitted", task)

    def _on_finish(self, task: Task) -> None:
        """Journal the completion on top of the batch bookkeeping."""
        super()._on_finish(task)
        self._journal("finished", task)

    def _on_timeout(self, task: Task, queue_round: int) -> None:
        """Journal a patience rejection (no-op if no longer queued)."""
        was_queued = task.state is TaskState.QUEUED
        super()._on_timeout(task, queue_round)
        if was_queued and task.state is TaskState.REJECTED:
            self._journal("rejected", task)

    def _on_recovered(self, task: Task, fate: str,
                      outcome: PlacementOutcome) -> None:
        """Journal a fault recovery under its fate (``relocated``,
        ``restarted`` or ``dropped``) on top of the batch bookkeeping."""
        super()._on_recovered(task, fate, outcome)
        self._journal(fate, task)


class ReproService:
    """The always-on admission service: the door in front of the engine.

    Construct with a :class:`ServiceConfig` (or keyword overrides for
    one), then drive it with :meth:`submit` / :meth:`advance` /
    :meth:`cancel` / :meth:`status`.  All time is *simulated* seconds:
    the clock only moves when the caller advances it (each submission
    may carry an ``at`` instant, and the HTTP layer exposes an explicit
    advance endpoint plus an optional wall-clock ticker), which is what
    keeps an always-on service exactly as deterministic — and therefore
    checkpointable — as a batch campaign.
    """

    def __init__(self, config: ServiceConfig | None = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise ValueError("pass a config or overrides, not both")
        self.config = config
        self.manager = build_fleet(
            config.device, config.fleet_size, config.fleet_devices,
            rearrange=config.rearrange, fit=config.fit,
            defrag=config.defrag, device_policy=config.device_policy,
        )
        self.engine = ServiceEngine(self.manager, queue=config.queue,
                                    ports=config.ports,
                                    prefetch=config.prefetch)
        self.door = AdmissionController(
            max_queue_depth=config.max_queue_depth
        )

    # -- the front door ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.engine.now

    def submit(self, height: int, width: int, exec_seconds: float, *,
               tenant: str = "default", qos: str = "best-effort",
               max_wait: float | None = None,
               at: float | None = None) -> dict:
        """Submit one task through the admission door.

        ``at`` (>= now) advances the clock to the arrival instant first
        — replay drivers use it to feed seeded workloads with their
        original timing.  The door may refuse with a rate-limit or
        queue-depth throttle; the returned view then carries
        ``admitted: False`` plus ``retry_after``/``reason`` (the HTTP
        layer turns it into a 429).  Admitted submissions return the
        task's status view (``admitted: True``).

        A malformed submission — a shape that is not a pair of integers
        >= 1, a negative or non-finite ``exec_seconds`` or ``max_wait``,
        a non-finite ``at``, an unknown ``qos`` — raises
        :class:`ValueError` (the HTTP layer's 400) before the clock
        moves or the door counts it, so it leaves no trace.
        """
        _check_submission(height, width, exec_seconds, max_wait, at)
        get_qos(qos)
        if at is not None:
            self.advance(at)
        decision = self.door.admit(tenant, qos, self.now,
                                   len(self.engine.kernel.queue))
        if not decision.admitted:
            return {
                "admitted": False,
                "tenant": tenant,
                "qos": decision.qos.name,
                "reason": decision.reason,
                "retry_after": decision.retry_after,
            }
        patience = (float(max_wait) if max_wait is not None
                    else decision.qos.patience)
        task = self.engine.submit(
            int(height), int(width), float(exec_seconds),
            max_wait=patience,
            priority=decision.qos.priority,
            tenant=tenant,
        )
        view = self.status(task.task_id)
        view["admitted"] = True
        return view

    def advance(self, until: float | None = None,
                seconds: float | None = None) -> float:
        """Advance the simulated clock (absolute or relative); returns
        the new instant."""
        if (until is None) == (seconds is None):
            raise ValueError("pass exactly one of until/seconds")
        target = until if until is not None else self.now + seconds
        self.engine.advance(target)
        return self.now

    def settle(self) -> float:
        """Drain all pending events; returns the final instant."""
        self.engine.settle()
        return self.now

    def cancel(self, task_id: int) -> dict:
        """Cancel a task by id; returns its refreshed status view."""
        self.engine.cancel(task_id)
        return self.status(task_id)

    def inject_fault(self, kind: str, **fields) -> dict:
        """Inject one fault into the live service (chaos endpoint).

        ``kind`` and ``fields`` (``member``, ``row``, ``col``,
        ``height``, ``width``, ``duration``, ``retries``, ``backoff``)
        build a :class:`~repro.faults.plan.FaultEvent` at the current
        instant, which the kernel's fault recovery carries out exactly
        as it does a batch fault plan's: ``member-death`` fails
        ``member`` over onto the survivors, ``region-stuck`` blocks a
        fabric region (healing after ``duration`` if given),
        ``port-flaky`` costs ``retries * backoff`` seconds of
        configuration-port retries.  Returns a summary of what the
        fault displaced.  An unknown kind, a malformed field (a
        ``duration`` of 0 or below included), a target outside the
        fleet or its fabric, or a member-death without a fleet raises
        :class:`ValueError` before any state moves.
        """
        event = FaultEvent(at=self.now, kind=kind, **fields)
        summary = self.engine.kernel.faults.apply(event)
        return {"kind": kind, "now": self.now, **summary}

    # -- introspection -------------------------------------------------------

    def _state(self, task: Task) -> TaskState:
        """A task's state as its view reports it: a placed task is
        ``configuring`` until its configuration completes at
        ``started_at`` and ``running`` from then until it finishes; the
        engine records only the placement, so the second state is
        derived from the clock."""
        if task.state is TaskState.CONFIGURING \
                and self.now >= task.started_at:
            return TaskState.RUNNING
        return task.state

    def status(self, task_id: int) -> dict:
        """Status view of one task (:class:`KeyError` on unknown ids).

        ``rect`` is the task's current region: a rearrangement that
        moves a running task moves its record too.  ``qos`` is the
        class of the task's priority.
        """
        task = self.engine.tasks.get(task_id)
        if task is None:
            raise KeyError(f"unknown task {task_id}")
        rect = task.rect
        return {
            "task": task.task_id,
            "state": self._state(task).value,
            "tenant": task.tenant,
            "qos": qos_of_priority(task.priority),
            "height": task.height,
            "width": task.width,
            "exec_seconds": task.exec_seconds,
            "arrival": task.arrival,
            "max_wait": task.max_wait,
            "priority": task.priority,
            "device": task.device,
            "rect": ([rect.row, rect.col, rect.height, rect.width]
                     if rect is not None else None),
            "configured_at": task.configured_at,
            "started_at": task.started_at,
            "finished_at": task.finished_at,
        }

    def tasks(self, state: str | None = None,
              limit: int | None = None) -> list[dict]:
        """Status views of registered tasks, newest first.

        Task ids enter the registry in ascending order (a restore
        included), so walking it backwards lists newest first; a view
        is built only for a task in ``state``, and the walk stops once
        ``limit`` views are built.
        """
        views: list[dict] = []
        for task in reversed(self.engine.tasks.values()):
            if len(views) == limit:
                break
            if state is None or self._state(task).value == state:
                views.append(self.status(task.task_id))
        return views

    def telemetry(self) -> dict:
        """Current telemetry snapshot (latest sample + live queue/run
        counts), regardless of when the kernel last sampled."""
        latest = (self.engine.telemetry[-1]
                  if self.engine.telemetry else None)
        return {
            "now": self.now,
            "waiting": len(self.engine.kernel.queue),
            "running": len(self.engine.kernel.running),
            "last_sample": latest,
        }

    def stats(self) -> dict:
        """Door + run statistics (the ``/stats`` endpoint payload)."""
        metrics = self.engine.metrics
        return {
            "now": self.now,
            "tasks": len(self.engine.tasks),
            "waiting": len(self.engine.kernel.queue),
            "running": len(self.engine.kernel.running),
            "finished": metrics.finished,
            "rejected": metrics.rejected,
            "mean_waiting": metrics.mean_waiting,
            "mean_turnaround": metrics.mean_turnaround,
            "port_busy_seconds": self.engine.kernel.port_busy_seconds,
            # Fault/failover counters (all zero until a fault is
            # injected; see :meth:`inject_fault`).
            "faults_injected": metrics.faults_injected,
            "members_lost": metrics.members_lost,
            "relocated": metrics.relocated_tasks,
            "restarted": metrics.restarted_tasks,
            "dropped": metrics.dropped_tasks,
            "tenants": {
                tenant: stats.to_dict()
                for tenant, stats in sorted(self.door.stats.items())
            },
            # Hot-path cache/memo counters (process-wide, monotonic
            # since start or the last ``PERF.reset()``) — the live
            # counterpart of the per-cell budgets the test suite pins;
            # see ``repro.perf``.
            "perf": PERF.snapshot(),
        }
