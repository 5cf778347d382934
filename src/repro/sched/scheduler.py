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
from repro.device.geometry import Rect

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
    "FAULT_OWNER_BASE",
    "OnlineTaskScheduler",
    "ScheduleMetrics",
    "summarize_application_runs",
]

#: owner ids claimed by stuck-at fault blockers (see
#: :meth:`OnlineTaskScheduler.inject_region_fault`).  Far above any
#: task id or application owner sequence, still comfortably inside the
#: fabric's int32 occupancy range.
FAULT_OWNER_BASE = 1_000_000_000


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
    counts completed applications, ``turnaround_seconds`` holds per-app
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
            out.turnaround_seconds.append(record.finished_at)
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
            halt_listener=self._on_halt,
        )
        self.manager = self.kernel.manager
        #: task_id -> running Task, for HALT-stop attribution.
        self._running_tasks: dict[int, Task] = {}
        #: task_id -> queueing epoch, bumped every time the task enters
        #: the waiting queue.  A task's patience timeout captures the
        #: epoch it was armed for; fault recovery can re-queue a task
        #: that already ran once, and without the epoch guard the
        #: *original* timeout (scheduled at arrival + max_wait, never
        #: cancelled — cancelling would perturb the event stream the
        #: goldens pin) would see state == QUEUED again and reject the
        #: restarted task early.
        self._queue_epochs: dict[int, int] = {}
        #: task_id -> absolute patience deadline of the *current*
        #: queueing round.  A restarted task's patience re-arms at the
        #: fault instant, not at arrival, so checkpoints must carry the
        #: true deadline to restore it bit-identically.
        self._queue_deadlines: dict[int, float] = {}
        #: active stuck-at regions: fault id -> blocker record (device,
        #: injected rect, the (owner, rect) blockers actually allocated,
        #: heal instant).  Checkpoints carry it (see
        #: :meth:`export_fault_state`).
        self._fault_regions: dict[int, dict] = {}
        self._fault_seq = 0
        self._fault_owner_seq = 0

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
            self.events.at(task.arrival, lambda t=task: self._on_arrival(t))
        self.kernel.run()
        return self.metrics

    # -- event handlers -----------------------------------------------------

    def _enqueue_task(self, task: Task) -> None:
        """Put ``task`` in the waiting queue with a fresh patience
        window (shared by first arrival and fault-recovery restart)."""
        task.state = TaskState.QUEUED
        epoch = self._queue_epochs.get(task.task_id, 0) + 1
        self._queue_epochs[task.task_id] = epoch
        if task.max_wait is not None:
            self._queue_deadlines[task.task_id] = \
                self.events.now + task.max_wait
            self.events.after(
                task.max_wait, lambda: self._on_timeout(task, epoch)
            )
        self.kernel.enqueue(task, priority=task.priority, area=task.area)

    def _on_arrival(self, task: Task) -> None:
        self._enqueue_task(task)

    def _on_timeout(self, task: Task, epoch: int | None = None) -> None:
        """The task's patience ran out while still queued: reject it.

        State change and counter are atomic: the task is marked
        ``REJECTED`` and counted in the same step, and the queue entry
        is lazily tombstoned (an already-absent entry is a no-op), so
        no path exists on which a task ends rejected but uncounted.
        ``epoch`` guards against a stale timeout outliving the queueing
        round it was armed for (fault recovery re-queues tasks; the
        original event is left to fire as a no-op so the event stream —
        and therefore the makespan the goldens pin — is unchanged).
        """
        if task.state is not TaskState.QUEUED:
            return
        if epoch is not None \
                and epoch != self._queue_epochs.get(task.task_id):
            return
        task.state = TaskState.REJECTED
        self.metrics.rejected += 1
        self._queue_epochs.pop(task.task_id, None)
        self._queue_deadlines.pop(task.task_id, None)
        self.kernel.cancel(task)

    def _on_admitted(self, task: Task, outcome: PlacementOutcome) -> None:
        """A waiting task was placed: configure it and start it."""
        # The patience deadline only means anything while queued (the
        # epoch stays: it guards the still-pending timeout event).
        self._queue_deadlines.pop(task.task_id, None)
        config_done = self.kernel.charge_placement(
            outcome, key=task.prefetch_key
        )
        task.rect = outcome.rect
        task.state = TaskState.CONFIGURING
        task.configured_at = config_done
        task.started_at = config_done
        finish_time = config_done + task.exec_seconds
        self._running_tasks[task.task_id] = task
        self.kernel.start_running(
            task.task_id, finish_time, lambda t=task: self._on_finish(t)
        )
        self.kernel.sample()

    def _on_halt(self, owner: int, seconds: float) -> None:
        """Attribute a HALT-policy stop to the moved task's record."""
        task = self._running_tasks.get(owner)
        if task is not None:
            task.halted_seconds += seconds

    def _on_finish(self, task: Task) -> None:
        task.state = TaskState.FINISHED
        task.finished_at = self.events.now
        self.kernel.finish_running(task.task_id)
        self._running_tasks.pop(task.task_id, None)
        self._queue_epochs.pop(task.task_id, None)
        self._queue_deadlines.pop(task.task_id, None)
        self.manager.release(task.task_id)
        self.metrics.finished += 1
        if task.tenant:
            counts = self.metrics.tenant_finished
            counts[task.tenant] = counts.get(task.tenant, 0) + 1
        self.metrics.waiting_seconds.append(task.waiting_seconds)
        self.metrics.turnaround_seconds.append(task.turnaround_seconds)
        self.kernel.sample()
        self.kernel.drain()
        self.kernel.maybe_defrag()

    # -- fault injection + failover (see repro.faults) ----------------------

    def _on_relocated(self, task: Task, outcome: PlacementOutcome) -> None:
        """Hook: ``task`` survived a fault by moving to a new region
        (subclasses journal it; the base scheduler needs no extra
        bookkeeping — the metrics were already counted)."""

    def _on_restarted(self, task: Task) -> None:
        """Hook: ``task`` lost its progress to a fault and was
        re-queued from scratch."""

    def _on_dropped(self, task: Task) -> None:
        """Hook: ``task`` was lost to a fault and no surviving member
        could ever host its footprint."""

    def _fits_any_survivor(self, height: int, width: int) -> bool:
        """Whether some surviving fabric could *ever* host the shape
        (pure bounds check — current occupancy is irrelevant: space
        frees up, dead silicon does not)."""
        for index, manager in enumerate(self.manager.members):
            if index in self.manager.lost:
                continue
            device = manager.fabric.device
            if height <= device.clb_rows and width <= device.clb_cols:
                return True
        return False

    def _displace(self, owner: int) -> tuple[Task, object, float] | None:
        """Tear a running task off its (failed) region.

        Cancels the pending finish event, frees the region through the
        normal release path (keeping fleet owner-routing and load
        counters consistent — on a dead member the fabric state is
        moot, the bookkeeping is not) and returns the material the
        recovery step needs: the task, its finish action and the
        seconds of work it had not yet delivered.
        """
        entry = self.kernel.running.pop(owner, None)
        if entry is None:
            return None
        task = self._running_tasks[owner]
        on_finish, handle = entry
        remaining = max(0.0, handle.time - self.events.now)
        handle.cancel()
        self.manager.release(owner)
        return task, on_finish, remaining

    def _recover(self, task: Task, on_finish, remaining: float,
                 fault_now: float, summary: dict) -> None:
        """Decide a displaced task's fate: relocate, restart or drop.

        The relocation path is the paper's own mechanism — the same
        ``manager.request`` that admits new work finds the task a new
        region (on a fleet, only surviving members are consulted), and
        the configuration is re-charged to the accepting device's port:
        the bitstream must be rewritten there, so the time the old port
        already sank is not refunded.  If no region is available right
        now but some surviving fabric is large enough, the task is
        *restarted*: re-queued from scratch with a fresh patience
        window (its progress is lost — partial results died with the
        region).  Only a footprint no surviving member could ever host
        is *dropped*.
        """
        kernel = self.kernel
        outcome = self.manager.request(task.height, task.width,
                                       task.task_id)
        if outcome.success:
            config_done = kernel.charge_placement(
                outcome, key=task.prefetch_key
            )
            task.rect = outcome.rect
            task.configured_at = config_done
            kernel.metrics.relocated_tasks += 1
            kernel.metrics.recovery_seconds += max(
                0.0, config_done - fault_now
            )
            kernel.start_running(task.task_id, config_done + remaining,
                                 on_finish)
            summary["relocated"].append(task.task_id)
            self._on_relocated(task, outcome)
            return
        self._running_tasks.pop(task.task_id, None)
        if self._fits_any_survivor(task.height, task.width):
            task.rect = None
            task.configured_at = None
            task.started_at = None
            kernel.metrics.restarted_tasks += 1
            summary["restarted"].append(task.task_id)
            self._enqueue_task(task)
            self._on_restarted(task)
            return
        task.state = TaskState.DROPPED
        self._queue_epochs.pop(task.task_id, None)
        self._queue_deadlines.pop(task.task_id, None)
        kernel.metrics.dropped_tasks += 1
        summary["dropped"].append(task.task_id)
        self._on_dropped(task)

    def kill_member(self, index: int) -> dict:
        """Declare fleet member ``index`` dead and fail its work over.

        The member is marked lost once, in the fleet's ``lost`` set
        (fleet routing and the kernel's telemetry, defrag and prefetch
        all read it), its resident-bitstream cache is dropped, and
        every task it was running is displaced and recovered through
        :meth:`_recover` in task-id order.  Returns a summary dict with
        the ``relocated`` / ``restarted`` / ``dropped`` task ids.
        Idempotent: killing a dead member is a no-op.  A single device
        has no survivor to fail over to, so a 1-member fleet refuses.
        """
        kernel = self.kernel
        fleet = self.manager
        if len(fleet) == 1:
            raise ValueError("member death requires a fleet manager")
        if not 0 <= index < len(fleet):
            raise ValueError(f"no fleet member {index}")
        summary = {"member": index, "relocated": [], "restarted": [],
                   "dropped": []}
        if index in fleet.lost:
            return summary
        now = self.events.now
        kernel.metrics.faults_injected += 1
        kernel.metrics.members_lost += 1
        fleet.mark_lost(index)
        kernel.forget_member(index)
        displaced = []
        for owner in fleet.residents_of(index):
            if owner not in kernel.running:
                continue  # stuck-at blockers die with the fabric
            material = self._displace(owner)
            if material is not None:
                displaced.append(material)
        for task, on_finish, remaining in displaced:
            self._recover(task, on_finish, remaining, now, summary)
        kernel.sample()
        kernel.drain()
        return summary

    def _next_fault_owner(self) -> int:
        self._fault_owner_seq += 1
        return FAULT_OWNER_BASE + self._fault_owner_seq

    def _block_region(self, device: int, rect: Rect) -> list[tuple]:
        """Claim every currently-free site of ``rect`` for fault
        blockers (one owner per maximal free run per row, so each
        blocker's footprint stays rectangular).  Returns the
        ``(owner, rect)`` blockers allocated."""
        fabric = self.manager.members[device].fabric
        blockers: list[tuple] = []
        if fabric.region_is_free(rect):
            runs = [rect]
        else:
            runs = []
            occupancy = fabric.occupancy
            for row in range(rect.row, rect.row_end):
                col = rect.col
                while col < rect.col_end:
                    if occupancy[row, col] == 0:
                        end = col
                        while end < rect.col_end \
                                and occupancy[row, end] == 0:
                            end += 1
                        runs.append(Rect(row, col, 1, end - col))
                        col = end
                    else:
                        col += 1
        for run in runs:
            owner = self._next_fault_owner()
            self.manager.adopt(owner, device, run)
            blockers.append((owner, run))
        return blockers

    def inject_region_fault(self, device: int, row: int, col: int,
                            height: int, width: int,
                            duration: float | None = None) -> dict:
        """Stuck-at outbreak: ``height`` x ``width`` sites at
        (``row``, ``col``) on member ``device`` go bad.

        Running tasks overlapping the region are displaced and
        recovered exactly like member-death victims (they may relocate
        onto the *same* member, just away from the bad silicon); the
        region's free sites are then claimed by blocker owners so no
        future placement lands there.  With a ``duration`` the region
        heals after it (transient outbreak); ``None`` is permanent.
        Returns the recovery summary dict (plus the ``fault`` id).
        """
        kernel = self.kernel
        if not 0 <= device < len(self.manager):
            raise ValueError(f"no device {device}")
        fabric = self.manager.members[device].fabric
        rect = Rect(row, col, height, width)
        if not fabric.in_bounds(rect):
            raise ValueError(f"region {rect} out of bounds on "
                             f"device {device}")
        now = self.events.now
        kernel.metrics.faults_injected += 1
        summary: dict = {"device": device, "relocated": [],
                         "restarted": [], "dropped": []}
        if device in self.manager.lost:
            summary["fault"] = None
            return summary  # the whole fabric is already gone
        displaced = []
        for owner in sorted(kernel.running):
            task = self._running_tasks.get(owner)
            if task is None or task.rect is None:
                continue
            if self.manager.device_of(owner) != device:
                continue
            if not task.rect.overlaps(rect):
                continue
            material = self._displace(owner)
            if material is not None:
                displaced.append(material)
        blockers = self._block_region(device, rect)
        self._fault_seq += 1
        fault_id = self._fault_seq
        record = {
            "device": device,
            "rect": (row, col, height, width),
            "owners": blockers,
            "heal_at": (now + duration) if duration is not None else None,
        }
        self._fault_regions[fault_id] = record
        if record["heal_at"] is not None:
            self.events.at(record["heal_at"],
                           lambda: self._heal_region(fault_id))
        for task, on_finish, remaining in displaced:
            self._recover(task, on_finish, remaining, now, summary)
        kernel.sample()
        kernel.drain()
        summary["fault"] = fault_id
        return summary

    def _heal_region(self, fault_id: int) -> None:
        """A transient outbreak's duration elapsed: free its blockers
        and wake waiting work (the healed sites may fit it)."""
        record = self._fault_regions.pop(fault_id, None)
        if record is None:
            return
        for owner, _rect in record["owners"]:
            self.manager.release(owner)
        self.kernel.sample()
        self.kernel.drain()

    def flake_port(self, device: int, retries: int = 3,
                   backoff: float = 0.2) -> float:
        """Transient configuration-port failure on member ``device``.

        Models a config-channel brown-out recovered by retrying: the
        port is occupied for ``retries`` x ``backoff`` seconds, so
        configuration traffic already queued (and any placement that
        follows) is pushed out by exactly that much.  Returns the
        seconds charged.
        """
        kernel = self.kernel
        if not 0 <= device < len(kernel.ports):
            raise ValueError(f"no device {device}")
        if retries < 0 or backoff < 0:
            raise ValueError("retries and backoff cannot be negative")
        kernel.metrics.faults_injected += 1
        if device in self.manager.lost:
            return 0.0
        seconds = retries * backoff
        kernel.ports[device].acquire(move_seconds=seconds)
        kernel.metrics.port_retry_seconds += seconds
        return seconds

    def export_fault_state(self) -> dict | None:
        """Serializable fault state for service checkpoints: lost
        members, active stuck-at regions (with their blocker owners and
        heal instants) and the blocker-owner sequence.  ``None`` when
        no fault was ever injected, so fault-free snapshots keep their
        historical shape."""
        if not (self.manager.lost or self._fault_regions
                or self._fault_owner_seq or self._fault_seq):
            return None
        return {
            "lost_members": sorted(self.manager.lost),
            "owner_seq": self._fault_owner_seq,
            "fault_seq": self._fault_seq,
            "regions": [
                {
                    "id": fault_id,
                    "device": record["device"],
                    "rect": list(record["rect"]),
                    "owners": [
                        [owner, [r.row, r.col, r.height, r.width]]
                        for owner, r in record["owners"]
                    ],
                    "heal_at": record["heal_at"],
                }
                for fault_id, record in sorted(self._fault_regions.items())
            ],
        }

    def restore_fault_state(self, state: dict | None) -> None:
        """Re-apply exported fault state on a freshly built scheduler
        (checkpoint restore): lost members are re-marked, blocker
        regions re-allocated and pending heal events re-scheduled.
        No-op for ``None``."""
        if state is None:
            return
        for index in state["lost_members"]:
            self.manager.mark_lost(int(index))
        self._fault_owner_seq = int(state["owner_seq"])
        self._fault_seq = int(state.get("fault_seq", 0))
        for row in state["regions"]:
            device = int(row["device"])
            blockers = []
            for owner, (r, c, h, w) in row["owners"]:
                rect = Rect(int(r), int(c), int(h), int(w))
                self.manager.adopt(int(owner), device, rect)
                blockers.append((int(owner), rect))
            heal_at = (float(row["heal_at"])
                       if row["heal_at"] is not None else None)
            fault_id = int(row["id"])
            self._fault_regions[fault_id] = {
                "device": device,
                "rect": tuple(int(v) for v in row["rect"]),
                "owners": blockers,
                "heal_at": heal_at,
            }
            if heal_at is not None:
                self.events.at(heal_at,
                               lambda f=fault_id: self._heal_region(f))


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
            sample_on_defrag=False,
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
