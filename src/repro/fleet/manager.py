"""The fleet manager: one placement stream sharded across N fabrics.

The paper manages the logic space of a *single* reconfigurable device;
:class:`FleetManager` is the scaling axis on top: it presents the same
request/release surface as one
:class:`~repro.core.manager.LogicSpaceManager`, but multiplexes every
placement over a fleet of independent member managers — possibly
heterogeneous device models, each with its own fabric, free-space
engine, defrag trigger policy and (at the scheduling layer) its own
reconfiguration port.

Division of labour:

* a :class:`~repro.fleet.policies.DeviceSelectionPolicy` turns each
  request into a preference order over members; the fleet tries members
  in that order until one accepts (rearrangement-capable members are
  ordered last by the fit-aware policies, so planners only run when no
  device fits directly);
* every accepted owner is recorded in an owner → (device, area) map, so
  :meth:`release` routes to the right fabric in O(1) and the per-device
  allocated-area counters behind the ``least-loaded`` policy never
  rescan residents;
* relocation and defragmentation stay *intra-fabric*: a member's
  rearrangements never cross devices (there is no inter-device
  relocation path in the paper's mechanism, and the scheduling kernel
  charges each member's moves to that member's own port).

The fleet is the only manager shape the scheduling layer sees: the
:class:`~repro.sched.kernel.SchedulingKernel` wraps a bare manager as a
1-member fleet, and the campaign and service builders always return
one.  A 1-member fleet delegates every call to its single manager, so
single-device runs reproduce the golden snapshots bit for bit.
"""

from __future__ import annotations

from repro.core.manager import LogicSpaceManager, PlacementOutcome
from repro.device.fabric import Fabric

from .policies import DeviceSelectionPolicy, make_device_policy


class FleetManager:
    """Shard placements across member :class:`LogicSpaceManager` s."""

    def __init__(
        self,
        members: list[LogicSpaceManager],
        policy: str | DeviceSelectionPolicy = "first-fit",
    ) -> None:
        if not members:
            raise ValueError("a fleet needs at least one member manager")
        self.members = list(members)
        self.policy = make_device_policy(policy)
        #: owner id -> (member index, allocated area): release routing
        #: and the O(1) load counters in one map.
        self._owners: dict[int, tuple[int, int]] = {}
        self._areas = [0] * len(self.members)
        #: members declared dead by fault injection (see
        #: :mod:`repro.faults`): :meth:`request` and
        #: :meth:`prefetch_admission` never touch them, the kernel
        #: neither samples, defragments nor prefetches onto them, and
        #: the dominance certificate of a failed request covers
        #: survivors only.  Empty outside fault runs.
        self.lost: set[int] = set()

    # -- fleet introspection -------------------------------------------------

    def __len__(self) -> int:
        """Number of member devices."""
        return len(self.members)

    @property
    def fabric(self) -> Fabric:
        """The primary member's fabric.

        Workload generators size their rectangles against one device;
        by convention that is member 0 (campaign specs put the
        scenario's ``device`` there).  Oversized requests simply never
        fit smaller secondary members.  This is a *sizing* convention
        only — telemetry must never read it (the scheduling kernel
        samples every member and aggregates site-weighted, so a
        heterogeneous fleet is reported by all the fabrics it owns).
        """
        return self.members[0].fabric

    @property
    def device_names(self) -> tuple[str, ...]:
        """Member device names, in fleet order."""
        return tuple(m.fabric.device.name for m in self.members)

    def load(self, index: int) -> float:
        """Allocated-site fraction of member ``index`` (O(1))."""
        return self._areas[index] / self.members[index].fabric.device.clb_count

    def largest_free_area(self, index: int) -> int:
        """Area of member ``index``'s largest free rectangle."""
        return max(
            (r.area for r in self.members[index].free_space.mers), default=0
        )

    def device_of(self, owner: int) -> int:
        """Member index currently hosting ``owner``."""
        return self._owners[owner][0]

    def mark_lost(self, index: int) -> None:
        """Declare member ``index`` dead (fleet failover, see
        :mod:`repro.faults`).

        From this instant the member receives no placements, warms no
        caches and contributes nothing to fleet telemetry.  The caller
        (the scheduler's failover path) is responsible for displacing
        the residents it was hosting — their owner-routing entries stay
        valid until each is individually released.  Idempotent.
        """
        if not 0 <= index < len(self.members):
            raise ValueError(f"no fleet member {index}")
        self.lost.add(index)

    def residents_of(self, index: int) -> list[int]:
        """Owner ids currently hosted on member ``index`` (sorted, so
        failover displaces them in a deterministic order)."""
        return sorted(
            owner for owner, (device, _area) in self._owners.items()
            if device == index
        )

    # -- the manager-protocol surface ---------------------------------------

    def request(self, height: int, width: int,
                owner: int) -> PlacementOutcome:
        """Place a ``height`` x ``width`` function on the fleet.

        Every live member is attempted in the selection policy's
        preference order; the first accepting member tags the outcome
        with its device index (the scheduling kernel charges that
        device's port).  A member whose free-space generation has not
        moved since it last rejected the shape answers again from its
        fit cache and its planner's plan memo.  When every member
        declines, the last rejection is returned, its ``dominant``
        certificate holding only if every rejection was itself
        dominant; a 1-member fleet returns exactly what its single
        manager would.
        """
        outcome: PlacementOutcome | None = None
        dominant = True
        for index in self.policy.order(self, height, width):
            if index in self.lost:
                continue
            outcome = self.members[index].request(height, width, owner)
            if outcome.success:
                outcome.device = index
                assert outcome.rect is not None
                self._owners[owner] = (index, outcome.rect.area)
                self._areas[index] += outcome.rect.area
                self.policy.note_placed(index)
                return outcome
            dominant = dominant and outcome.dominant
        if outcome is None:
            # Every member is lost: nothing was probed, so the failure
            # is trivially dominant — no smaller footprint could
            # succeed either.
            return PlacementOutcome(False, owner, dominant=True)
        outcome.dominant = dominant
        return outcome

    def prefetch_admission(self, shapes: list[tuple[int, int]]) -> None:
        """Warm every live member's fit/plan caches for one admission pass.

        Forwards the pass's candidate shapes to each member's
        batched-probe hook
        (:meth:`~repro.core.manager.LogicSpaceManager.prefetch_admission`),
        so every member gets the same batched fast path.  Purely a
        cache warmer: the per-member ``request`` calls that follow
        return bit-identical outcomes with or without it — the
        selection policy still probes members in its own preference
        order.
        """
        for index, member in enumerate(self.members):
            if index not in self.lost:
                member.prefetch_admission(shapes)

    def adopt(self, owner: int, device: int, rect) -> None:
        """Re-register a resident placement on member ``device``.

        The checkpoint-restore path (:mod:`repro.service.checkpoint`)
        rebuilds a fleet from serialized state: each running function's
        footprint is re-allocated on the member that hosted it, and the
        owner-routing map and O(1) load counters are made consistent —
        exactly the bookkeeping :meth:`request` performs on a live
        placement, minus the policy consultation.  Stuck-at fault
        blockers enter the same way, so :meth:`release` frees them too.
        """
        self.members[device].fabric.allocate_region(rect, owner)
        self._owners[owner] = (device, rect.area)
        self._areas[device] += rect.area

    def release(self, owner: int) -> None:
        """Free a finished function's footprint on its host member."""
        try:
            index, area = self._owners.pop(owner)
        except KeyError:
            raise KeyError(f"owner {owner} holds no region") from None
        self._areas[index] -= area
        self.members[index].release(owner)
