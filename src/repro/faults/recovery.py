"""Fault recovery: carry out fault events and fail displaced work over.

One :class:`FaultRecovery` belongs to each
:class:`~repro.sched.kernel.SchedulingKernel` (``kernel.faults``), and
every fault enters through its :meth:`~FaultRecovery.apply`, whether a
:class:`~repro.faults.plan.FaultPlan` scheduled it on the run's
timeline or the always-on service received it over ``POST /faults``.
It talks to the fleet only through its membership primitives
(``mark_lost``, ``lost``, ``residents_of``, ``adopt``, ``release``) and
to the kernel through its running set.  A displaced task walks the
relocate → restart → drop ladder; the scheduler's one hook,
``kernel.on_recovered(item, fate, outcome)``, then takes the
task-specific step for its fate.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from repro.device.geometry import Rect

from .plan import FaultEvent

#: owner ids claimed by stuck-at fault blockers.  Far above any task id
#: or application owner sequence, still comfortably inside the fabric's
#: int32 occupancy range.
FAULT_OWNER_BASE = 1_000_000_000


class FaultRecovery:
    """The kernel's fault machinery and the state it leaves behind:
    active stuck-at regions and the fault and blocker-owner sequences
    (lost members live in the fleet's ``lost`` set)."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        #: active stuck-at regions: fault id -> the record a checkpoint
        #: carries (``id``, ``device``, injected ``rect``, the
        #: ``[owner, rect]`` blockers actually allocated, ``heal_at``).
        self.regions: dict[int, dict] = {}
        #: the last stuck-at fault id and blocker owner handed out (a
        #: blocker owns ``FAULT_OWNER_BASE + owner_seq``).
        self.fault_seq = 0
        self.owner_seq = 0

    def apply(self, event: FaultEvent) -> dict:
        """Carry ``event`` out at the kernel's current instant.

        Returns the summary of what the fault did: the ``relocated`` /
        ``restarted`` / ``dropped`` task ids (plus ``member``, or
        ``device`` and the stuck-at ``fault`` id), or a port flake's
        ``member`` and ``retry_seconds``.  A target outside the fleet
        or the fabric, or a member death on a 1-member fleet, raises
        :class:`ValueError` before any state moves.
        """
        if self.kernel.on_recovered is None:
            raise ValueError("this scheduler has no fault recovery hook")
        if event.kind == "member-death":
            return self._kill_member(event.member)
        if event.kind == "region-stuck":
            return self._stick_region(event)
        return self._flake_port(event)

    # -- the three fault kinds ------------------------------------------------

    def _kill_member(self, index: int) -> dict:
        """Declare fleet member ``index`` dead and fail its work over.

        The member is marked lost once, in the fleet's ``lost`` set
        (fleet routing and the kernel's telemetry, defrag and prefetch
        all read it), its resident-bitstream cache is dropped, and every
        task it was running is recovered in task-id order.  Killing a
        dead member is a no-op.  A single device has no survivor to
        fail over to, so a 1-member fleet refuses.
        """
        kernel = self.kernel
        fleet = kernel.manager
        if len(fleet) == 1:
            raise ValueError("member death requires a fleet manager")
        if not 0 <= index < len(fleet):
            raise ValueError(f"no fleet member {index}")
        summary = {"member": index, "relocated": [], "restarted": [],
                   "dropped": []}
        if index in fleet.lost:
            return summary
        kernel.metrics.faults_injected += 1
        kernel.metrics.members_lost += 1
        fleet.mark_lost(index)
        kernel.forget_member(index)
        # Stuck-at blockers are residents too; they die with the fabric.
        displaced = self._displace(
            owner for owner in fleet.residents_of(index)
            if owner in kernel.running
        )
        self._recover(displaced, summary)
        return summary

    def _stick_region(self, event: FaultEvent) -> dict:
        """Stuck-at outbreak: the event's ``height`` x ``width`` sites at
        (``row``, ``col``) on member ``event.member`` go bad.

        The running owners found on those sites are displaced and
        recovered exactly like member-death victims (they may relocate
        onto the same member, away from the bad silicon); the region's
        free sites are then claimed by blocker owners so no later
        placement lands there.  With a ``duration`` the region heals
        after it; without one it is permanent.
        """
        kernel = self.kernel
        fleet = kernel.manager
        device = event.member
        if not 0 <= device < len(fleet):
            raise ValueError(f"no device {device}")
        fabric = fleet.members[device].fabric
        rect = Rect(event.row, event.col, event.height, event.width)
        if not fabric.in_bounds(rect):
            raise ValueError(f"region {rect} out of bounds on "
                             f"device {device}")
        kernel.metrics.faults_injected += 1
        summary: dict = {"device": device, "relocated": [],
                         "restarted": [], "dropped": []}
        if device in fleet.lost:
            summary["fault"] = None
            return summary  # the whole fabric is already gone
        sites = fabric.occupancy[rect.row:rect.row_end,
                                 rect.col:rect.col_end]
        displaced = self._displace(sorted(
            owner for owner in map(int, np.unique(sites))
            if owner in kernel.running
        ))
        self.fault_seq += 1
        fault_id = self.fault_seq
        self.regions[fault_id] = {
            "id": fault_id,
            "device": device,
            "rect": [rect.row, rect.col, rect.height, rect.width],
            "owners": self._block_region(device, rect),
            "heal_at": None if event.duration is None
            else kernel.events.now + event.duration,
        }
        self._schedule_heal(fault_id)
        self._recover(displaced, summary)
        summary["fault"] = fault_id
        return summary

    def _flake_port(self, event: FaultEvent) -> dict:
        """Transient configuration-port failure on member ``event.member``.

        Models a config-channel brown-out recovered by retrying: the
        port is occupied for ``retries`` x ``backoff`` seconds, so
        configuration traffic already queued (and any placement that
        follows) is pushed out by exactly that much.  A dead member's
        port is gone and charges nothing.
        """
        kernel = self.kernel
        device = event.member
        if not 0 <= device < len(kernel.ports):
            raise ValueError(f"no device {device}")
        kernel.metrics.faults_injected += 1
        seconds = 0.0
        if device not in kernel.manager.lost:
            seconds = event.retries * event.backoff
            kernel.ports[device].acquire(move_seconds=seconds)
            kernel.metrics.port_retry_seconds += seconds
        return {"member": device, "retry_seconds": seconds}

    # -- displacement and the recovery ladder ---------------------------------

    def _displace(self, owners) -> list:
        """Stop each running owner (its finish is cancelled and its
        region released); returns their running entries in order."""
        return [self.kernel.stop_running(owner) for owner in owners]

    def _recover(self, displaced: list, summary: dict) -> None:
        """Decide each displaced task's fate: relocate, restart or drop.

        *Relocation* is the paper's own mechanism: the same
        ``manager.request`` that admits new work finds the task a region
        on a surviving member and the bitstream is re-charged to that
        member's port (the old port's time is not refunded); the task
        keeps the work it had done.  If nothing fits right now but some
        surviving fabric is large enough, the task *restarts*: its
        progress died with the region.  Only a footprint no surviving
        member could ever host is *dropped*.
        """
        kernel = self.kernel
        now = kernel.events.now
        metrics = kernel.metrics
        for entry in displaced:
            task = entry.item
            remaining = max(0.0, entry.handle.time - now)
            outcome = kernel.manager.request(task.height, task.width,
                                             task.task_id)
            if outcome.success:
                config_done = kernel.charge_placement(
                    outcome, key=task.prefetch_key
                )
                task.rect = outcome.rect
                task.configured_at = config_done
                metrics.relocated_tasks += 1
                metrics.recovery_seconds += max(0.0, config_done - now)
                kernel.start_running(task.task_id, config_done + remaining,
                                     entry.on_finish, task)
                fate = "relocated"
            elif self._fits_any_survivor(task.height, task.width):
                task.rect = None
                task.configured_at = None
                task.started_at = None
                metrics.restarted_tasks += 1
                fate = "restarted"
            else:
                metrics.dropped_tasks += 1
                fate = "dropped"
            summary[fate].append(task.task_id)
            kernel.on_recovered(task, fate, outcome)
        kernel.sample()
        kernel.drain()

    def _fits_any_survivor(self, height: int, width: int) -> bool:
        """Whether some surviving fabric could *ever* host the shape
        (pure bounds check: space frees up, dead silicon does not)."""
        fleet = self.kernel.manager
        return any(
            height <= member.fabric.device.clb_rows
            and width <= member.fabric.device.clb_cols
            for index, member in enumerate(fleet.members)
            if index not in fleet.lost
        )

    # -- stuck-at blockers ----------------------------------------------------

    def _block_region(self, device: int, rect: Rect) -> list[list]:
        """Claim every currently-free site of ``rect`` for fault
        blockers (one owner per maximal free run per row, so each
        blocker's footprint stays rectangular).  Returns the
        ``[owner, [row, col, height, width]]`` blockers allocated."""
        fleet = self.kernel.manager
        fabric = fleet.members[device].fabric
        if fabric.region_is_free(rect):
            runs = [rect]
        else:
            runs = []
            for row in range(rect.row, rect.row_end):
                col = rect.col
                sites = fabric.occupancy[row, rect.col:rect.col_end] == 0
                for free, group in groupby(sites.tolist()):
                    width = len(list(group))
                    if free:
                        runs.append(Rect(row, col, 1, width))
                    col += width
        blockers = []
        for run in runs:
            self.owner_seq += 1
            owner = FAULT_OWNER_BASE + self.owner_seq
            fleet.adopt(owner, device, run)
            blockers.append([owner, [run.row, run.col, run.height,
                                     run.width]])
        return blockers

    def _schedule_heal(self, fault_id: int) -> None:
        """Arm a transient region's heal event (none for a permanent
        one)."""
        heal_at = self.regions[fault_id]["heal_at"]
        if heal_at is not None:
            self.kernel.events.at(heal_at, lambda: self._heal(fault_id))

    def _heal(self, fault_id: int) -> None:
        """A transient outbreak's duration elapsed: free its blockers
        and wake waiting work (the healed sites may fit it)."""
        record = self.regions.pop(fault_id, None)
        if record is None:
            return
        for owner, _rect in record["owners"]:
            self.kernel.manager.release(owner)
        self.kernel.sample()
        self.kernel.drain()

    def adopt_region(self, record: dict) -> None:
        """Re-register a checkpointed stuck-at region (restore): its
        blockers are re-allocated where the record says and its heal,
        if any, is re-armed.  Blockers that do not fit the fabric raise
        :class:`~repro.device.fabric.FabricError`."""
        for owner, rect in record["owners"]:
            self.kernel.manager.adopt(owner, record["device"], Rect(*rect))
        self.regions[record["id"]] = record
        self._schedule_heal(record["id"])
