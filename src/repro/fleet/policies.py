"""Device-selection policies: which fabric receives the next function.

A fleet shards one placement stream across N fabrics, so every
admission needs one extra decision before the single-device machinery
takes over: *which device should this request try first?*  A
:class:`DeviceSelectionPolicy` answers with a full preference order —
the fleet manager attempts member devices in that order until one
accepts — and is notified of every accepted placement so stateful
policies (round-robin) can advance.

Four policies ship, mirroring the classic on-line bin-assignment
heuristics the multi-FPGA scheduling literature evaluates (the
Erlangen run-time reconfiguration line; Al-Wattar et al.'s
floor-plan-prediction framework treats region selection the same way):

* ``first-fit`` — lowest-indexed device whose free-space index admits a
  direct fit; devices needing a rearrangement come last.  The default:
  on a 1-device fleet it degenerates to exactly the single-device
  behaviour (the golden snapshots pin that bit-identically).
* ``round-robin`` — rotate a cursor over the members, spreading load
  without reading any occupancy state at all.
* ``least-loaded`` — ascending allocated-site fraction, read from the
  fleet's O(1) per-device area counters (never from a resident scan).
* ``best-fit`` — among devices admitting a direct fit, the one whose
  *largest free rectangle* is smallest while still adequate: big
  contiguous blocks are preserved on other members for future large
  requests (the 2-D analogue of best-fit bin packing).

Every policy is O(devices) arithmetic per decision on top of the
free-space engine's O(#MERs) fit probes — never O(residents) — which is
what keeps fleet admission cheap (``tests/test_work_budget.py`` pins
the probes of a 4-member fleet).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .manager import FleetManager

#: The selection policy used when none is named (single-device
#: degenerate behaviour, pinned by the golden snapshots).
DEFAULT_DEVICE_POLICY = "first-fit"


class DeviceSelectionPolicy(Protocol):
    """Preference order over fleet members for one placement request."""

    name: str

    def order(self, fleet: "FleetManager", height: int,
              width: int) -> list[int]:
        """Member indices in the order placement should be attempted."""
        ...

    def note_placed(self, index: int) -> None:
        """Observe that member ``index`` accepted the last request."""
        ...


class _StatelessPolicy:
    """Shared no-op plumbing for policies that keep no cursor."""

    name = "stateless"

    def note_placed(self, index: int) -> None:
        """Stateless policies ignore placement feedback."""


def _split_by_fit(fleet: "FleetManager", height: int,
                  width: int) -> tuple[list[int], list[int]]:
    """Partition member indices into (direct-fit capable, the rest).

    The probe reads each member's maximal-empty-rectangle index
    (``fits`` is a scan of the MER set, not of residents).  Devices in
    the second list can only accept the request through a rearrangement,
    so the fit-aware policies (``first-fit``, ``best-fit``) order them
    last — a planner run on a fabric that might fit directly elsewhere
    would waste port bandwidth.  The occupancy-blind policies
    (``round-robin``) and the load-ordered one (``least-loaded``)
    deliberately do not consult fit at all: their orderings are their
    contract, even when that sends a rearrangement-only member first.
    """
    fitting: list[int] = []
    rest: list[int] = []
    for index, manager in enumerate(fleet.members):
        if manager.free_space.fits(height, width):
            fitting.append(index)
        else:
            rest.append(index)
    return fitting, rest


class FirstFitPolicy(_StatelessPolicy):
    """Lowest-indexed device with a direct fit; rearrangers last."""

    name = "first-fit"

    def order(self, fleet: "FleetManager", height: int,
              width: int) -> list[int]:
        """Direct-fit members in index order, then the rest."""
        fitting, rest = _split_by_fit(fleet, height, width)
        return fitting + rest


class RoundRobinPolicy:
    """Rotate over the members, blind to occupancy."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def order(self, fleet: "FleetManager", height: int,
              width: int) -> list[int]:
        """The member ring, starting at the cursor."""
        n = len(fleet.members)
        return [(self._cursor + i) % n for i in range(n)]

    def note_placed(self, index: int) -> None:
        """Advance the cursor past the member that accepted."""
        self._cursor = index + 1

    @property
    def cursor(self) -> int:
        """Next member the rotation starts from (for tests)."""
        return self._cursor


class LeastLoadedPolicy(_StatelessPolicy):
    """Ascending utilisation, from the fleet's O(1) area counters."""

    name = "least-loaded"

    def order(self, fleet: "FleetManager", height: int,
              width: int) -> list[int]:
        """Members by allocated-site fraction, ties by index."""
        return sorted(range(len(fleet.members)),
                      key=lambda i: (fleet.load(i), i))


class BestFitPolicy(_StatelessPolicy):
    """Smallest adequate largest-free-rectangle first."""

    name = "best-fit"

    def order(self, fleet: "FleetManager", height: int,
              width: int) -> list[int]:
        """Adequate members by ascending largest-free-rectangle area
        (the tightest device that still hosts the request directly),
        then the rearrangement-only rest in index order."""
        fitting, rest = _split_by_fit(fleet, height, width)
        fitting.sort(
            key=lambda i: (fleet.largest_free_area(i), i)
        )
        return fitting + rest


#: Device-selection policy registry: name -> zero-argument factory.
DEVICE_POLICIES = {
    "first-fit": FirstFitPolicy,
    "round-robin": RoundRobinPolicy,
    "least-loaded": LeastLoadedPolicy,
    "best-fit": BestFitPolicy,
}

#: Valid device-selection policy names, in registry order.
DEVICE_POLICY_NAMES = tuple(DEVICE_POLICIES)


def make_device_policy(
    policy: str | DeviceSelectionPolicy,
) -> DeviceSelectionPolicy:
    """Resolve a policy name (or pass a configured instance through)."""
    if not isinstance(policy, str):
        return policy
    try:
        return DEVICE_POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown device policy {policy!r}; "
            f"choose from {DEVICE_POLICY_NAMES}"
        ) from None
