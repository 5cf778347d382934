"""The scheduling kernel: shared machinery under both schedulers.

:class:`SchedulingKernel` owns, once for
:class:`~repro.sched.scheduler.OnlineTaskScheduler` and
:class:`~repro.sched.scheduler.ApplicationFlowScheduler`, the event
queue, the reconfiguration ports, the admission path (the waiting
queue, the failure record, ``manager.request`` and the ``on_admitted``
callback), the record of placed work that rearrangements move, the
HALT-extension arithmetic for moved-while-running functions, the
proactive-defrag hook and fragmentation/utilization sampling, behind
two policy axes supplied at construction:

* a :class:`~repro.sched.queues.QueueDiscipline` deciding *admission
  order* of waiting work (``fifo`` / ``priority`` / ``sjf`` /
  ``backfill``), and
* a :class:`~repro.sched.ports.PortModel` deciding how port seconds are
  served (``serial`` / ``multi-N`` / ``icap``).

The schedulers are thin strategy layers: they translate their workload
shape (independent tasks, application chains) into kernel calls and
keep only the bookkeeping unique to that shape.  The golden campaign
snapshots pin the event stream of both.

The kernel also carries the *device axis*: it drives a
:class:`~repro.fleet.manager.FleetManager` (a bare manager is wrapped as
a 1-member fleet), instantiates one port model **per member device**,
charges each placement to the port of the device that accepted it
(``PlacementOutcome.device``), and runs the proactive-defrag trigger per
fabric against that fabric's own port-idle signal.  Admission itself is
the fleet's — it consults its device-selection policy inside
``request`` — and a 1-member fleet delegates every call to its manager,
so single-device runs reproduce the golden snapshots unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from repro.core.manager import (
    DefragOutcome,
    LogicSpaceManager,
    PlacementOutcome,
)
from repro.device.geometry import Rect
from repro.faults.recovery import FaultRecovery
from repro.fleet.manager import FleetManager
from repro.perf import PERF

from .events import EventHandle, EventQueue
from .ports import PortModel, make_port_model
from .prefetch import (
    PLAN_CANDIDATE_BOUND,
    WISHLIST_BOUND,
    BitstreamCache,
    PrefetchRequest,
    normalize_prefetch_mode,
)
from .queues import QueueDiscipline, make_queue


@dataclass
class ScheduleMetrics:
    """Aggregated outcome of one scheduling run."""

    finished: int = 0
    rejected: int = 0
    #: summed waiting and turnaround seconds of the finished work (the
    #: means divide them by ``finished``).
    waiting_total: float = 0.0
    turnaround_total: float = 0.0
    halted_seconds: float = 0.0
    port_busy_seconds: float = 0.0
    makespan: float = 0.0
    rearrangements: int = 0
    moves: int = 0
    #: proactive-defrag counters: background consolidations executed,
    #: the moves they issued, and the port time they consumed (reactive
    #: rearrangements are counted separately above).
    proactive_defrags: int = 0
    defrag_moves: int = 0
    defrag_port_seconds: float = 0.0
    #: telemetry (see :meth:`SchedulingKernel.sample`): the summed
    #: fleet-wide fragmentation and utilization samples, their count,
    #: and the latest sample as (fragmentation, utilization, each
    #: member's (fragmentation, utilization) reading).
    fragmentation_total: float = 0.0
    utilization_total: float = 0.0
    sample_count: int = 0
    latest_sample: tuple = (0.0, 0.0, ())
    #: application-flow extras (zero for independent-task runs), kept
    #: as running totals by the chain scheduler: reconfiguration-induced
    #: stall, functions configured strictly before they started, and
    #: functions that became ready or were configured ahead.
    stall_seconds: float = 0.0
    prefetched_functions: int = 0
    total_functions: int = 0
    #: configuration-prefetch extras (see :mod:`repro.sched.prefetch`):
    #: port seconds charged for *demand* configuration loads (the
    #: config time on the admission critical path — planned loads and
    #: cache hits never add here), cache hits, planned idle-window
    #: loads, and resident-set evictions.
    config_stall_seconds: float = 0.0
    prefetch_hits: int = 0
    prefetch_loads: int = 0
    cache_evictions: int = 0
    #: fault-injection extras (see :mod:`repro.faults`; all zero for
    #: fault-free runs so the sparse campaign columns never appear in
    #: the committed goldens): events injected, members declared dead,
    #: and the fate of the work those events displaced — relocated
    #: (kept its progress on a surviving fabric), restarted (lost its
    #: progress, re-queued from scratch) or dropped (no surviving
    #: member could ever host the footprint).
    faults_injected: int = 0
    members_lost: int = 0
    relocated_tasks: int = 0
    restarted_tasks: int = 0
    dropped_tasks: int = 0
    #: seconds of extra latency fault recovery put on displaced work:
    #: for each relocation, the interval from the fault instant to the
    #: re-configuration completing on the new member.
    recovery_seconds: float = 0.0
    #: port seconds burnt by transient configuration-channel brown-outs
    #: (the retry x backoff cost of ``port-flaky`` fault events).
    port_retry_seconds: float = 0.0
    #: per-tenant finished-task counts (multi-tenant traces only; empty
    #: otherwise).  :attr:`tenant_fairness` folds it into one number.
    tenant_finished: dict[str, int] = field(default_factory=dict)

    @property
    def mean_waiting(self) -> float:
        """Mean task waiting time (0 when nothing finished)."""
        return self.waiting_total / self.finished if self.finished else 0.0

    @property
    def mean_fragmentation(self) -> float:
        """Mean sampled fragmentation index."""
        return (self.fragmentation_total / self.sample_count
                if self.sample_count else 0.0)

    @property
    def mean_turnaround(self) -> float:
        """Mean task turnaround time (0 when nothing finished)."""
        return (self.turnaround_total / self.finished
                if self.finished else 0.0)

    @property
    def mean_utilization(self) -> float:
        """Mean sampled site occupancy."""
        return (self.utilization_total / self.sample_count
                if self.sample_count else 0.0)

    @property
    def tenant_fairness(self) -> float:
        """Jain's fairness index over per-tenant finished-task counts.

        1.0 when every tenant completed the same amount of work (and,
        degenerately, for runs with at most one tenant); approaches
        ``1/n`` when a single tenant of ``n`` starved the rest.  Fault
        scenarios read it to show recovery did not sacrifice one
        tenant's work for another's.
        """
        counts = list(self.tenant_finished.values())
        if len(counts) <= 1:
            return 1.0
        square_sum = sum(c * c for c in counts)
        if square_sum == 0:
            return 1.0
        total = sum(counts)
        return (total * total) / (len(counts) * square_sum)

    @property
    def prefetched_fraction(self) -> float:
        """Fraction of functions whose configuration was fully hidden
        (0.0 for runs with no function chains at all, i.e. the
        independent-task experiments, which never prefetch)."""
        if self.total_functions == 0:
            return 0.0
        return self.prefetched_functions / self.total_functions


class Admissible(Protocol):
    """Work item the kernel's admission loop can try to place: a
    ``height`` x ``width`` footprint requested on behalf of an owner."""

    height: int
    width: int
    task_id: int


@dataclass(slots=True)
class Running:
    """One placed owner: its work item (kept at its current ``rect``
    and, while executing, charged its ``halted_seconds``), the finish
    action and the pending finish event — both ``None`` while the owner
    is held, placed ahead of its start (see
    :meth:`SchedulingKernel.hold`)."""

    item: Any
    on_finish: Callable[[], None] | None
    handle: EventHandle | None


class SchedulingKernel:
    """Event queue + port + HALT arithmetic + defrag hook + sampling.

    Every placement goes through one probe: the failure record, then
    ``manager.request``, then the strategy layer's
    ``on_admitted(item, outcome)``, which charges the item's port time,
    registers it in :attr:`running` and records its telemetry.  The
    probe runs for each candidate of an admission pass over the waiting
    queue (:meth:`admit_waiting`, :meth:`drain`) and for a single item
    outside the queue (:meth:`admit`).

    The optional ``on_recovered(item, fate, outcome)`` takes the
    work-specific step after fault recovery (:attr:`faults`) settled a
    displaced item's fate: ``relocated``, ``restarted`` or ``dropped``.
    The :attr:`on_sample` attribute, when set, is called at the end of
    every :meth:`sample`, whoever took it (an admission, a finish, a
    proactive defrag, a fault recovery or a heal): the service records
    one telemetry entry per sample there.
    """

    def __init__(
        self,
        manager: LogicSpaceManager | FleetManager,
        queue: str | QueueDiscipline = "fifo",
        ports: str | PortModel = "serial",
        on_admitted: Callable[[Admissible, PlacementOutcome], None]
        | None = None,
        prefetch: str = "never",
        on_recovered: Callable[[Any, str, PlacementOutcome], None]
        | None = None,
    ) -> None:
        if not isinstance(manager, FleetManager):
            manager = FleetManager([manager])
        #: the fleet the kernel drives (a bare manager arrives wrapped as
        #: a 1-member fleet).  Member i's port is ``ports[i]``.
        self.manager: FleetManager = manager
        self.events = EventQueue()
        self.queue = make_queue(queue)
        if not isinstance(ports, (str, int)) and len(manager) > 1:
            raise ValueError(
                "a pre-built port-model instance cannot be shared across "
                "a fleet; pass a model name so each device gets its own"
            )
        #: one reconfiguration-port model per device, so configuration
        #: bandwidth is a per-fabric resource.
        self.ports = [
            make_port_model(ports, self.events) for _ in manager.members
        ]
        #: configuration-prefetch mode (see :mod:`repro.sched.prefetch`).
        #: ``never`` builds neither cache nor planner, so every code
        #: path below stays bit-identical to the historical behaviour.
        self.prefetch_mode = normalize_prefetch_mode(prefetch)
        #: one resident-bitstream cache per fleet member (``None`` in
        #: ``never`` mode); configuration memory is a per-fabric
        #: resource exactly like the port serving it.
        self.caches: list[BitstreamCache] | None = (
            [BitstreamCache() for _ in manager.members]
            if self.prefetch_mode != "never" else None
        )
        #: outstanding application-successor offers, by bitstream key
        #: (``plan`` mode's explicit look-ahead; bounded FIFO).
        self.wishlist: dict[str, PrefetchRequest] = {}
        #: config seconds actually charged by the most recent
        #: :meth:`charge_placement` (0.0 on a cache hit; equal to the
        #: outcome's ``config_seconds`` otherwise) — the strategy
        #: layers read it for their per-function stall accounting.
        self.last_config_seconds = 0.0
        self.metrics = ScheduleMetrics()
        self.on_admitted = on_admitted
        self.on_recovered = on_recovered
        #: called at the end of every :meth:`sample` (see the class
        #: docstring); the service sets it, batch runs leave it unset.
        self.on_sample: Callable[[], None] | None = None
        #: the fault machinery (see :mod:`repro.faults.recovery`).
        self.faults = FaultRecovery(self)
        #: owner -> placed work, executing or held until it starts, so
        #: moves can follow its item and HALT-policy stops can push an
        #: executing item's finish event out.
        self.running: dict[int, Running] = {}
        #: the admission failure record: each shape that failed to place
        #: against the current occupancy, mapped to its dominance
        #: certificate (``PlacementOutcome.dominant``).
        #: ``manager.request``'s verdict is a pure function of
        #: (occupancy, shape) — the owner never affects success — so a
        #: recorded shape is not re-probed, whichever item carries it,
        #: and a certified failure of (h, w) also settles every
        #: (h' >= h, w' >= w).  Without it the multi-candidate
        #: disciplines (backfill above all) would re-run the expensive
        #: rearrangement planner for the whole queue on every arrival.
        self._failed_shapes: dict[tuple[int, int], bool] = {}
        #: the occupancy the record speaks about: every member's
        #: free-space generation when it was last emptied.  Every
        #: allocation, release, move or adoption bumps some member's
        #: generation, so :meth:`_sync_record` empties the record the
        #: moment the stamp moves — no caller has to report a change.
        self._failed_stamp: tuple[int, ...] | None = None
        #: external-clock pause flag: while paused, admission passes are
        #: deferred and the clock may not advance (checkpoint windows).
        self._paused = False

    # -- event plumbing -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.events.now

    @property
    def port(self) -> PortModel:
        """The primary device's port model (the only one on a
        single-device kernel; fleet-wide accounting should read
        :attr:`port_busy_seconds` instead)."""
        return self.ports[0]

    @property
    def port_busy_seconds(self) -> float:
        """Total reconfiguration-port time consumed across all devices."""
        return sum(port.busy_seconds for port in self.ports)

    def run(self) -> None:
        """Drain the event queue, then stamp the run-wide metrics."""
        self.events.run()
        self.stamp()

    def stamp(self) -> None:
        """Refresh the run-wide metrics (makespan, port totals) to the
        current instant — :meth:`run` does it once at the end of a batch
        run; incremental drivers call it after each :meth:`advance`."""
        self.metrics.makespan = self.events.now
        self.metrics.port_busy_seconds = self.port_busy_seconds

    # -- external clock (always-on service mode) ----------------------------

    def advance(self, until: float) -> None:
        """Process events up to ``until`` and move the clock there.

        The external-clock hook for incremental drivers (the always-on
        service): instead of draining the whole event queue to
        completion, the caller advances simulated time in steps — to
        each arrival instant, or along a wall-clock ticker.  Metrics are
        re-stamped after every step so they are always current.
        """
        if self._paused:
            raise RuntimeError("kernel is paused; resume() before advancing")
        if until < self.events.now:
            raise ValueError(
                f"cannot advance backwards ({until} < {self.events.now})"
            )
        self.events.run(until=until)
        self.stamp()

    @property
    def paused(self) -> bool:
        """True while the kernel is paused (admission + clock frozen)."""
        return self._paused

    def pause(self) -> None:
        """Freeze admission and the clock (checkpoint window): while
        paused, :meth:`drain` defers and :meth:`advance` refuses, so a
        snapshot observes a quiescent kernel."""
        self._paused = True

    def resume(self) -> None:
        """Lift a :meth:`pause` and run the admission pass that was
        deferred while frozen."""
        if not self._paused:
            return
        self._paused = False
        self.drain()

    # -- admission ----------------------------------------------------------

    def enqueue(self, item: Admissible, *, priority: int = 0,
                area: int = 0) -> None:
        """Add a work item to the waiting queue and try to place it.

        The pass runs under every discipline: the newcomer may be a
        better — or the first feasible — candidate even though the
        occupancy did not change, and candidates whose shape already
        failed against it are skipped without a probe.
        """
        self.queue.push(item, priority=priority, area=area,
                        now=self.events.now)
        self.drain()

    def cancel(self, item: Admissible) -> None:
        """Drop a waiting item (timeout/abandon): tombstoned in O(1).

        The admission order changed, so a pass runs even if the space
        did not move: the item may have been blocking the ones behind.
        """
        self.queue.discard(item)
        self.drain()

    def _sync_record(self) -> None:
        """Empty the failure record if the occupancy it speaks about
        moved (some member's free-space generation changed)."""
        stamp = tuple(m.free_space.generation for m in self.manager.members)
        if stamp != self._failed_stamp:
            self._failed_shapes.clear()
            self._failed_stamp = stamp

    def _shape_blocked(self, height: int, width: int,
                       count: bool = True) -> bool:
        """Whether the failure record proves this footprint cannot place.

        True when the exact shape already failed against the current
        occupancy, or when some *certified* failure of an
        equal-or-smaller footprint dominates it.  ``count=False`` keeps
        advisory checks (the prefetch scan) out of the skip counters,
        which tally skipped *probes* only.
        """
        failed = self._failed_shapes
        if (height, width) in failed:
            if count:
                PERF.shape_memo_skips += 1
            return True
        for (failed_height, failed_width), dominant in failed.items():
            if dominant and failed_height <= height \
                    and failed_width <= width:
                if count:
                    PERF.dominance_skips += 1
                return True
        return False

    def _prefetch(self) -> None:
        """Warm the manager's fit/plan caches for the coming pass.

        Purely an optimisation: the per-item ``manager.request`` calls
        in :meth:`drain` return bit-identical outcomes with or without
        it.  The shapes handed over are exactly this pass's candidate
        set — the discipline's ``scan`` order, which the loop below is
        about to probe one ``request`` at a time — so the manager can
        resolve the whole batch against one read of the free-space
        state instead of one probe per item (the multi-candidate
        disciplines, backfill above all, put many items through one
        pass).  ``scan`` only purges tombstones, so iterating it here
        and again below yields the same items.  Shapes the failure
        record already settles are left out: the loop below never
        probes them, so warming their caches (and running their
        eviction screens) would be pure waste.  The fleet forwards the
        batch to every live member (see
        :meth:`repro.fleet.manager.FleetManager.prefetch_admission`),
        so multi-device runs keep the batched-probe fast path.
        """
        failed = self._failed_shapes
        shapes: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for item in self.queue.scan(self.events.now):
            shape = (item.height, item.width)
            # Most candidates of a blocked queue carry a recorded shape:
            # settle those with one lookup before the dedup set.
            if shape in failed or shape in seen:
                continue
            seen.add(shape)
            if not self._shape_blocked(*shape, count=False):
                shapes.append(shape)
        if shapes:
            self.manager.prefetch_admission(shapes)

    def drain(self) -> None:
        """Place waiting items (:meth:`admit_waiting`), then give the
        prefetch planner one look at the port-idle windows the pass
        left behind (:meth:`maybe_prefetch`; a no-op outside ``plan``
        mode).  While the kernel is paused (checkpoint window), both
        are deferred to :meth:`resume`."""
        if self._paused:
            return
        self.admit_waiting()
        self.maybe_prefetch()

    def admit_waiting(self) -> None:
        """Place waiting items in discipline order until blocked.

        One *pass* asks the discipline for its candidate order
        (``scan``) and probes each; a successful placement restarts the
        pass (the order may have changed), a failed one enters its shape
        in the failure record so no request of that shape (or, with a
        dominance certificate, of any larger one) is re-planned until
        the occupancy actually changes: every pass first compares the
        members' free-space generations with the record's stamp and
        empties the record when they moved.
        """
        while len(self.queue):
            self._sync_record()
            self._prefetch()
            for item in self.queue.scan(self.events.now):
                if self._shape_blocked(item.height, item.width):
                    continue  # same occupancy, same answer: skip replan
                outcome = self._probe(item)
                if outcome is not None:
                    self.queue.take(item)
                    if self.on_admitted is not None:
                        self.on_admitted(item, outcome)
                    break
            else:
                return

    def admit(self, item: Admissible) -> bool:
        """Probe ``item`` once, outside the waiting queue, and report
        whether it was placed (``on_admitted`` has then run).  A failure
        enters the failure record like a failed candidate of a pass."""
        self._sync_record()
        outcome = (None if self._shape_blocked(item.height, item.width)
                   else self._probe(item))
        if outcome is None:
            return False
        if self.on_admitted is not None:
            self.on_admitted(item, outcome)
        return True

    def _probe(self, item: Admissible) -> PlacementOutcome | None:
        """``manager.request`` for an item the failure record does not
        settle: the successful outcome, or ``None`` after recording the
        failed shape."""
        PERF.admission_probes += 1
        outcome = self.manager.request(item.height, item.width, item.task_id)
        if outcome.success:
            return outcome
        self._failed_shapes[item.height, item.width] = outcome.dominant
        return None

    # -- port + HALT accounting ---------------------------------------------

    def charge_placement(self, outcome: PlacementOutcome,
                         key: str | None = None) -> float:
        """Count a placement's moves, apply HALT stops, charge the port.

        The port charged is the one of the device that accepted the
        request (``outcome.device``; always 0 on a 1-member fleet).
        Returns the instant the item's own configuration completes (the
        end of its contiguous port job).

        ``key`` names the bitstream being configured (see
        :mod:`repro.sched.prefetch`); with caching enabled, a resident
        key skips the configuration charge entirely — a pure hit
        without rearrangement moves never even touches the port, so a
        zero-length job cannot queue behind busy channel time — and a
        miss leaves the bitstream resident for repeats.  The config
        seconds actually charged land in :attr:`last_config_seconds`
        and accumulate into ``metrics.config_stall_seconds`` (demand
        loads only: hits and planned loads are off the critical path).
        """
        if outcome.moves:
            self.metrics.rearrangements += 1
            self.metrics.moves += len(outcome.moves)
            self.apply_moves(outcome)
        config = outcome.config_seconds
        cache = (self.caches[outcome.device]
                 if self.caches is not None and key is not None else None)
        entry = None
        if cache is not None:
            self.wishlist.pop(key, None)
            entry = cache.hit(key, self.events.now)
            if entry is not None:
                self.metrics.prefetch_hits += 1
                config = 0.0
        if entry is not None and not outcome.moves:
            config_done = max(self.events.now, entry.ready_at)
        else:
            __, config_done = self.ports[outcome.device].acquire(
                config_seconds=config,
                move_seconds=outcome.rearrange_seconds,
            )
            if entry is not None:
                config_done = max(config_done, entry.ready_at)
        self.last_config_seconds = config
        self.metrics.config_stall_seconds += config
        if cache is not None and entry is None and outcome.rect is not None:
            if cache.insert(
                key, outcome.rect.height, outcome.rect.width,
                ready_at=config_done, now=self.events.now,
            ) is not None:
                self.metrics.cache_evictions += 1
        return config_done

    # -- configuration prefetch ---------------------------------------------

    def offer_prefetch(self, key: str, height: int, width: int, *,
                       next_use: float | None = None,
                       device: int | None = None) -> None:
        """Tell the planner a bitstream will be demanded soon.

        The application scheduler offers a chain's successor the moment
        its predecessor starts executing (``next_use`` = the predicted
        demand instant); queued tasks need no offer — the planner reads
        them straight off the queue discipline.  In ``cache`` mode the
        offer only annotates an already-resident entry's next use (so
        eviction protects it); in ``plan`` mode it also joins the
        wishlist :meth:`maybe_prefetch` serves.  No-op in ``never``
        mode.
        """
        if self.caches is None:
            return
        target = (device if device is not None
                  else self._predict_member(height, width))
        self.caches[target].note_next_use(key, next_use)
        if self.prefetch_mode != "plan":
            return
        if key in self.wishlist:
            request = self.wishlist[key]
            if next_use is not None and (
                request.next_use is None or next_use < request.next_use
            ):
                request.next_use = next_use
            return
        if len(self.wishlist) >= WISHLIST_BOUND:
            oldest = next(iter(self.wishlist))
            del self.wishlist[oldest]
        self.wishlist[key] = PrefetchRequest(
            key, height, width, next_use=next_use, device=device
        )

    def _predict_member(self, height: int, width: int) -> int:
        """The fleet member a future request would most likely land on
        (always member 0 of a 1-member fleet): the device-selection
        policy's first live preference.  Only a prediction — a wrong
        guess costs a cache miss, never correctness."""
        fleet = self.manager
        if len(fleet) == 1:
            return 0
        for index in fleet.policy.order(fleet, height, width):
            if index not in fleet.lost:
                return index
        return 0

    def maybe_prefetch(self) -> None:
        """Serve planned loads into the port-idle windows of *now*.

        ``plan`` mode only.  Candidates are the wishlist (explicit
        application-successor offers) followed by the queue
        discipline's live order (queued tasks want their bitstream "as
        soon as possible"), bounded by
        :data:`~repro.sched.prefetch.PLAN_CANDIDATE_BOUND`.  A load is
        issued only when the predicted member's port is idle at this
        very instant, so planned traffic can never delay demand
        traffic already queued — and issuing one load occupies that
        port, so at most one planned load per member starts per
        invocation.  Loads are charged through the normal
        ``PortModel.acquire`` machinery and priced with the member
        manager's own ``config_seconds``, which is exactly what the
        demand load would have cost.
        """
        if self.prefetch_mode != "plan" or self._paused:
            return
        assert self.caches is not None
        now = self.events.now
        candidates: list[PrefetchRequest] = list(self.wishlist.values())
        if len(candidates) < PLAN_CANDIDATE_BOUND:
            for item in self.queue.ordered(now):
                queue_key = getattr(item, "prefetch_key", None)
                if queue_key is None:
                    continue
                candidates.append(PrefetchRequest(
                    queue_key, item.height, item.width, next_use=now
                ))
                if len(candidates) >= PLAN_CANDIDATE_BOUND:
                    break
        for request in candidates[:PLAN_CANDIDATE_BOUND]:
            device = (request.device if request.device is not None
                      else self._predict_member(request.height,
                                                request.width))
            if device in self.manager.lost:
                continue
            cache = self.caches[device]
            if request.key in cache:
                cache.note_next_use(request.key, request.next_use)
                continue
            port = self.ports[device]
            if port.free_at > now:
                continue
            if not cache.admits(request.next_use):
                continue
            seconds = self.manager.members[device].config_seconds(
                Rect(0, 0, request.height, request.width)
            )
            __, ready = port.acquire(config_seconds=seconds)
            if cache.insert(
                request.key, request.height, request.width,
                ready_at=ready, now=now, next_use=request.next_use,
            ) is not None:
                self.metrics.cache_evictions += 1
            self.metrics.prefetch_loads += 1

    def forget_member(self, index: int) -> None:
        """Drop a dead member's configuration memory (fault path).

        A member's resident-bitstream cache lives in its configuration
        memory — when the device dies the residents die with it, so the
        cache is emptied and every wishlist offer pinned to that device
        is withdrawn.  Called by fault recovery right after the
        member joins the fleet's ``lost`` set; a no-op in ``never``
        mode.
        """
        if self.caches is not None:
            self.caches[index] = BitstreamCache()
        self.wishlist = {
            key: request for key, request in self.wishlist.items()
            if request.device != index
        }

    def hold(self, owner: int, item: Any) -> None:
        """Register ``owner`` as placed ahead of its start: moves keep
        ``item.rect`` current, but charge it no HALT seconds, until
        :meth:`start_running` gives it a finish event."""
        self.running[owner] = Running(item, None, None)

    def start_running(self, owner: int, finish_time: float,
                      on_finish: Callable[[], None], item: Any) -> None:
        """Register ``owner`` as executing ``item`` (anything with a
        ``rect`` and ``halted_seconds``) until ``finish_time``."""
        handle = self.events.at(finish_time, on_finish)
        self.running[owner] = Running(item, on_finish, handle)

    def finish_running(self, owner: int) -> None:
        """Drop ``owner`` from the running set (finish event fired)."""
        self.running.pop(owner, None)

    def stop_running(self, owner: int) -> Running | None:
        """Stop ``owner`` before its finish (a cancel, or a fault
        displacing it): its finish event, if any, is cancelled and its
        region released.  Returns its entry, or ``None`` when it was not
        placed."""
        entry = self.running.pop(owner, None)
        if entry is not None:
            if entry.handle is not None:
                entry.handle.cancel()
            self.manager.release(owner)
        return entry

    def apply_moves(self, outcome: PlacementOutcome | DefragOutcome) -> None:
        """Follow each executed move on the placed item it moved: the
        item's ``rect`` becomes the move's target, and under the HALT
        policy an executing item is charged its stopped interval and its
        finish time extended by it — the cost the paper's concurrent
        relocation eliminates (a held item loses no execution)."""
        for execution in outcome.moves:
            entry = self.running.get(execution.move.owner)
            if entry is None:
                continue
            entry.item.rect = execution.move.dst
            if not execution.halted or entry.handle is None:
                continue
            self.metrics.halted_seconds += execution.seconds
            entry.item.halted_seconds += execution.seconds
            handle = entry.handle
            entry.handle = self.events.at(
                handle.time + execution.seconds, entry.on_finish
            )
            handle.cancel()

    # -- proactive defrag + telemetry ---------------------------------------

    def maybe_defrag(self) -> DefragOutcome | None:
        """Proactive-defrag hook, checked on finish events.

        The trigger fires **per fabric**: every device's manager is
        consulted against that device's own port-idle signal, and an
        executed consolidation is charged to that device's port
        (background compaction competes with arrivals for that fabric's
        configuration bandwidth, never a sibling's).  HALT-policy stops
        are applied to the moved items; if any device consolidated,
        waiting work gets one :meth:`drain` — the reclaimed space may
        now host something that failed before.  Returns the
        last executed outcome (the single device's outcome on a 1-member
        fleet), or ``None`` when no trigger fired.
        """
        fired: DefragOutcome | None = None
        lost = self.manager.lost
        for index, (manager, port) in enumerate(
                zip(self.manager.members, self.ports)):
            if index in lost:
                continue
            outcome = manager.maybe_defrag(
                now=self.events.now,
                port_idle=port.free_at <= self.events.now,
            )
            if outcome is None:
                continue
            self.metrics.proactive_defrags += 1
            self.metrics.defrag_moves += len(outcome.moves)
            self.metrics.defrag_port_seconds += outcome.port_seconds
            self.apply_moves(outcome)
            port.acquire(move_seconds=outcome.port_seconds)
            fired = outcome
        if fired is None:
            return None
        # One telemetry sample per hook invocation, not per member:
        # the sample is fleet-wide, so several members consolidating at
        # the same instant must not weight it several times (a single
        # device fires at most one outcome here — unchanged).
        self.sample()
        self.drain()
        return fired

    def sample(self) -> None:
        """Record one fragmentation + utilization telemetry sample.

        Index-backed: the fragmentation sample reads the free-space
        engine's MER set instead of re-sweeping the grid per event.
        The kernel samples **per member** and aggregates site-weighted
        itself — never through a fleet facade's primary-member view —
        so heterogeneous fleets are reported by every fabric they own.
        A 1-member kernel records its single manager's values verbatim
        (no float round-trip may perturb the bit-identical proxy).  The
        sample is added to the metrics' running totals and kept, with
        the per-member readings, as ``metrics.latest_sample``, which
        ``on_sample`` reads.
        """
        members = self.manager.members
        lost = self.manager.lost
        samples = [
            (m.fragmentation(), m.utilization())
            if i not in lost else (0.0, 0.0)
            for i, m in enumerate(members)
        ]
        live = [
            (members[i], pair)
            for i, pair in enumerate(samples)
            if i not in lost
        ]
        if not live:
            frag = util = 0.0
        elif len(live) == 1:
            frag, util = live[0][1]
        else:
            weighted_frag = weighted_util = 0.0
            sites = 0
            for manager, (frag_i, util_i) in live:
                count = manager.fabric.device.clb_count
                weighted_frag += frag_i * count
                weighted_util += util_i * count
                sites += count
            frag = weighted_frag / sites
            util = weighted_util / sites
        metrics = self.metrics
        metrics.fragmentation_total += frag
        metrics.utilization_total += util
        metrics.sample_count += 1
        metrics.latest_sample = (frag, util, samples)
        if self.on_sample is not None:
            self.on_sample()
