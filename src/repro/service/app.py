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
  (:mod:`repro.service.admission`) in front of the engine, per-task
  tenant/QoS metadata, and the checkpoint hooks
  (:mod:`repro.service.checkpoint`).

Everything here is synchronous and deterministic; the asyncio HTTP
layer (:mod:`repro.service.api`) calls into it from a single event
loop, so no locking is needed and a service run replays bit-identically
from its inputs — the property the checkpoint round-trip test pins.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

from repro.core.cost import CostModel
from repro.core.manager import (
    LogicSpaceManager,
    PlacementOutcome,
    RearrangePolicy,
)
from repro.device.devices import device as device_by_name
from repro.device.fabric import Fabric
from repro.fleet.manager import FleetManager
from repro.perf import PERF
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.tasks import Task, TaskState

from .admission import DEFAULT_MAX_QUEUE_DEPTH, AdmissionController
from .qos import get_qos


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to (re)build a service's scheduling stack.

    The config is serialized into every checkpoint, so a snapshot is
    self-describing: :func:`repro.service.checkpoint.restore` rebuilds
    the identical manager/kernel stack before loading the state into it.
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

    def member_names(self) -> tuple[str, ...]:
        """The fleet's member device names, primary first."""
        if self.fleet_devices:
            return (self.device, *self.fleet_devices)
        return (self.device,) * self.fleet_size

    def to_dict(self) -> dict:
        """JSON-ready config (checkpoint header)."""
        return {
            "device": self.device,
            "fleet_size": self.fleet_size,
            "fleet_devices": list(self.fleet_devices),
            "device_policy": self.device_policy,
            "queue": self.queue,
            "ports": self.ports,
            "rearrange": self.rearrange,
            "fit": self.fit,
            "defrag": self.defrag,
            "max_queue_depth": self.max_queue_depth,
            "prefetch": self.prefetch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        data = dict(data)
        data["fleet_devices"] = tuple(data.get("fleet_devices", ()))
        return cls(**data)


def build_manager(config: ServiceConfig) -> FleetManager:
    """Construct the fleet of managers a service config describes.

    Mirrors the campaign runner's construction rules: always a
    :class:`FleetManager`, one member per device, so a single-device
    service is event-for-event comparable to the equivalent batch
    scenario.
    """
    def member(name: str) -> LogicSpaceManager:
        dev = device_by_name(name)
        return LogicSpaceManager(
            Fabric(dev),
            cost_model=CostModel(dev),
            policy=RearrangePolicy(config.rearrange),
            fit=config.fit,
            defrag_policy=config.defrag,
        )

    return FleetManager([member(name) for name in config.member_names()],
                        policy=config.device_policy)


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
        #: task id -> fleet member that hosts/hosted it (admitted only).
        self.devices: dict[int, int] = {}
        #: ordered life-cycle event stream (see :meth:`_journal`).
        self.journal: list[dict] = []
        #: telemetry sample stream (see :meth:`_record_telemetry`).
        self.telemetry: list[dict] = []
        #: listeners notified with every new telemetry entry (the API
        #: layer's NDJSON subscribers).
        self.telemetry_listeners: list[Callable[[dict], None]] = []
        self._next_task_id = 1
        self._journal_seq = 0

    # -- submission + clock --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.events.now

    def submit(self, height: int, width: int, exec_seconds: float, *,
               max_wait: float | None = None, priority: int = 0) -> Task:
        """Accept one task at the current instant and try to admit it.

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
        )
        self._next_task_id += 1
        self.tasks[task.task_id] = task
        self._journal("submitted", task)
        self._on_arrival(task)
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
        # Cancelling ends the task's patience: its pending timeout finds
        # the task terminal and returns before it could drop these.
        self._queue_epochs.pop(task_id, None)
        self._queue_deadlines.pop(task_id, None)
        if task.state is TaskState.QUEUED:
            task.state = TaskState.CANCELLED
            self._journal("cancelled", task)
            self.kernel.cancel(task)
            return task
        if task_id in self._running_tasks:
            entry = self.kernel.running.get(task_id)
            if entry is not None:
                entry[1].cancel()
            self.kernel.finish_running(task_id)
            self._running_tasks.pop(task_id, None)
            self.manager.release(task_id)
            task.state = TaskState.CANCELLED
            self._journal("cancelled", task)
            self.kernel.sample()
            self._record_telemetry()
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
        """Append one telemetry sample (after a kernel sample) and fan
        it out to the registered listeners."""
        metrics = self.metrics
        entry = {
            "t": self.now,
            "waiting": len(self.kernel.queue),
            "running": len(self._running_tasks),
            "fragmentation": (metrics.fragmentation_samples[-1]
                              if metrics.fragmentation_samples else 0.0),
            "utilization": (metrics.utilization_samples[-1]
                            if metrics.utilization_samples else 0.0),
            "members": [list(pair) for pair in self.kernel.member_samples],
        }
        self.telemetry.append(entry)
        for listener in list(self.telemetry_listeners):
            listener(entry)

    # -- scheduler hook overrides -------------------------------------------

    def _on_admitted(self, task: Task, outcome: PlacementOutcome) -> None:
        """Journal the admission (and its hosting device) on top of the
        batch scheduler's configuration/execution bookkeeping."""
        super()._on_admitted(task, outcome)
        self.devices[task.task_id] = outcome.device
        self._journal("admitted", task)
        self._record_telemetry()

    def _on_finish(self, task: Task) -> None:
        """Journal the completion on top of the batch bookkeeping."""
        super()._on_finish(task)
        self._journal("finished", task)
        self._record_telemetry()

    def _on_timeout(self, task: Task, epoch: int | None = None) -> None:
        """Journal a patience rejection (no-op if no longer queued)."""
        was_queued = task.state is TaskState.QUEUED
        super()._on_timeout(task, epoch)
        if was_queued and task.state is TaskState.REJECTED:
            self._journal("rejected", task)

    def _on_relocated(self, task: Task,
                      outcome: PlacementOutcome) -> None:
        """Journal a fault-driven relocation and re-point the task's
        hosting device at the surviving member."""
        self.devices[task.task_id] = outcome.device
        self._journal("relocated", task)
        self._record_telemetry()

    def _on_restarted(self, task: Task) -> None:
        """Journal a fault-driven restart (the task re-queued from
        scratch; its old hosting device is gone)."""
        self.devices.pop(task.task_id, None)
        self._journal("restarted", task)
        self._record_telemetry()

    def _on_dropped(self, task: Task) -> None:
        """Journal a fault drop (no surviving fabric fits the task)."""
        self.devices.pop(task.task_id, None)
        self._journal("dropped", task)
        self._record_telemetry()


class ReproService:
    """The always-on admission service: door + engine + metadata.

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
        self.manager = build_manager(config)
        self.engine = ServiceEngine(self.manager, queue=config.queue,
                                    ports=config.ports,
                                    prefetch=config.prefetch)
        self.door = AdmissionController(
            max_queue_depth=config.max_queue_depth
        )
        #: task id -> (tenant, qos class name) submission metadata.
        self.task_meta: dict[int, tuple[str, str]] = {}

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
        )
        self.task_meta[task.task_id] = (tenant, decision.qos.name)
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

    def inject_fault(self, kind: str, *, member: int = 0, row: int = 0,
                     col: int = 0, height: int = 0, width: int = 0,
                     duration: float | None = None, retries: int = 3,
                     backoff: float = 0.2) -> dict:
        """Inject one fault into the live service (chaos endpoint).

        ``kind`` selects the fault machinery the batch fault plans use
        (:mod:`repro.faults`): ``member-death`` fails ``member`` over
        onto the survivors, ``region-stuck`` blocks a fabric region
        (healing after ``duration`` if given), ``port-flaky`` costs
        ``retries * backoff`` seconds of configuration-port retries.
        Returns a summary of what the fault displaced; raises
        :class:`ValueError` on unknown kinds, bad targets, or a
        member-death without a fleet.
        """
        if kind == "member-death":
            summary = self.engine.kill_member(member)
        elif kind == "region-stuck":
            summary = self.engine.inject_region_fault(
                member, row, col, height, width, duration=duration
            )
        elif kind == "port-flaky":
            summary = {
                "member": member,
                "retry_seconds": self.engine.flake_port(
                    member, retries=retries, backoff=backoff
                ),
            }
        else:
            raise ValueError(
                f"unknown fault kind {kind!r} (choose from "
                "member-death, region-stuck, port-flaky)"
            )
        return {"kind": kind, "now": self.now, **summary}

    # -- introspection -------------------------------------------------------

    def status(self, task_id: int) -> dict:
        """Status view of one task (:class:`KeyError` on unknown ids).

        A placed task is ``configuring`` until its configuration
        completes at ``started_at`` and ``running`` from then until it
        finishes; the engine records only the placement, so the view
        derives the second state from the clock.
        """
        task = self.engine.tasks.get(task_id)
        if task is None:
            raise KeyError(f"unknown task {task_id}")
        tenant, qos = self.task_meta.get(task_id, ("default",
                                                   "best-effort"))
        rect = task.rect
        state = task.state
        if state is TaskState.CONFIGURING and self.now >= task.started_at:
            state = TaskState.RUNNING
        return {
            "task": task.task_id,
            "state": state.value,
            "tenant": tenant,
            "qos": qos,
            "height": task.height,
            "width": task.width,
            "exec_seconds": task.exec_seconds,
            "arrival": task.arrival,
            "max_wait": task.max_wait,
            "priority": task.priority,
            "device": self.engine.devices.get(task.task_id),
            "rect": ([rect.row, rect.col, rect.height, rect.width]
                     if rect is not None else None),
            "configured_at": task.configured_at,
            "started_at": task.started_at,
            "finished_at": task.finished_at,
        }

    def tasks(self, state: str | None = None,
              limit: int | None = None) -> list[dict]:
        """Status views of registered tasks, newest first."""
        views = [
            self.status(task_id)
            for task_id in sorted(self.engine.tasks, reverse=True)
        ]
        if state is not None:
            views = [v for v in views if v["state"] == state]
        if limit is not None:
            views = views[:limit]
        return views

    def telemetry(self) -> dict:
        """Current telemetry snapshot (latest sample + live queue/run
        counts), regardless of when the kernel last sampled."""
        latest = (self.engine.telemetry[-1]
                  if self.engine.telemetry else None)
        return {
            "now": self.now,
            "waiting": len(self.engine.kernel.queue),
            "running": len(self.engine._running_tasks),
            "last_sample": latest,
        }

    def stats(self) -> dict:
        """Door + run statistics (the ``/stats`` endpoint payload)."""
        metrics = self.engine.metrics
        return {
            "now": self.now,
            "tasks": len(self.engine.tasks),
            "waiting": len(self.engine.kernel.queue),
            "running": len(self.engine._running_tasks),
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
