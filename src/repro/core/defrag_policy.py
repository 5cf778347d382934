"""When to defragment: trigger policies for proactive consolidation.

The planner in :mod:`repro.core.defrag` answers *how* to rearrange; this
module answers *when*.  The paper's contribution — moves execute
"concurrently with all applications currently running, without any time
overheads" — makes rearrangement cheap enough that a runtime system can
afford to defragment *before* an allocation fails, not only after.  The
floor-plan-prediction line of work (Angermeier & Teich, PAPERS.md) makes
the same point from the other side: anticipating fragmentation ahead of
demand is what separates an allocator from a runtime manager.

Four policies, selectable per scenario (and swept as a campaign axis):

* ``never`` — no rearrangement at all, not even on a failed request:
  the fragmentation-suffering baseline of the paper's section 1;
* ``on-failure`` — reactive only (the historical behaviour): the
  manager plans a rearrangement the moment a request cannot be placed;
* ``threshold`` — reactive, plus a proactive consolidation whenever the
  sampled fragmentation index crosses a threshold;
* ``idle`` — reactive, plus a proactive consolidation whenever the
  reconfiguration port is idle and any fragmentation has accumulated —
  spare port bandwidth is spent keeping the free space contiguous.

Proactive policies rate-limit themselves with a ``cooldown`` (simulated
seconds between consolidation attempts) so trigger checks on busy event
streams cannot thrash the planner.  All state is per-instance and
deterministic: the same event history produces the same trigger
decisions, which the scheduler determinism suite pins.
"""

from __future__ import annotations

#: Names accepted by :func:`make_defrag_policy` (and the campaign's
#: ``defrag`` axis).
DEFRAG_POLICY_NAMES = ("never", "on-failure", "threshold", "idle")


class DefragPolicy:
    """Base trigger policy: reactive rearrangement, never proactive.

    Subclasses override :meth:`_trigger` (and the ``proactive`` /
    ``reactive`` class flags) to implement the registry entries above.
    :meth:`should_trigger` wraps ``_trigger`` with the shared guards:
    proactive policies only fire when free space exists at all and the
    cooldown since the last attempt has elapsed.
    """

    #: registry name of the policy.
    name = "on-failure"
    #: may the manager plan a rearrangement for a *failed request*?
    reactive = True
    #: does the policy ever ask for a *proactive* consolidation?
    proactive = False

    def __init__(self, cooldown: float = 0.25) -> None:
        if cooldown < 0:
            raise ValueError("cooldown cannot be negative")
        self.cooldown = cooldown
        #: the last consolidation attempt's instant (None before any).
        self.last_attempt: float | None = None

    def should_trigger(self, *, fragmentation: float, free_area: int,
                       now: float, port_idle: bool) -> bool:
        """True when a proactive consolidation should be attempted now."""
        if not self.proactive:
            return False
        if free_area <= 0:
            return False
        if (self.last_attempt is not None
                and now - self.last_attempt < self.cooldown):
            return False
        return self._trigger(fragmentation=fragmentation,
                             port_idle=port_idle)

    def _trigger(self, *, fragmentation: float, port_idle: bool) -> bool:
        """Policy-specific trigger condition (guards already applied)."""
        return False

    def note_attempt(self, now: float) -> None:
        """Start the cooldown window: a consolidation was attempted at
        ``now`` (whether or not the planner found profitable moves)."""
        self.last_attempt = now

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class NeverDefrag(DefragPolicy):
    """No rearrangement, reactive or proactive: the pure-fragmentation
    baseline (requests that do not fit simply fail)."""

    name = "never"
    reactive = False
    proactive = False


class OnFailureDefrag(DefragPolicy):
    """Reactive-only rearrangement — the historical manager behaviour."""

    name = "on-failure"
    reactive = True
    proactive = False


class ThresholdDefrag(DefragPolicy):
    """Consolidate whenever fragmentation crosses ``threshold``.

    The fragmentation index is 1 minus the largest-free-rectangle share
    of the free area (see :mod:`repro.placement.metrics`), so a
    threshold of 0.3 reads: act once less than 70 % of the free space is
    usable as one rectangle.
    """

    name = "threshold"
    proactive = True

    def __init__(self, threshold: float = 0.3,
                 cooldown: float = 0.25) -> None:
        super().__init__(cooldown=cooldown)
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold

    def _trigger(self, *, fragmentation: float, port_idle: bool) -> bool:
        """Fire on the fragmentation threshold, port state ignored."""
        return fragmentation >= self.threshold


class IdleDefrag(DefragPolicy):
    """Consolidate whenever the reconfiguration port is idle.

    ``min_fragmentation`` keeps the policy from planning pointless moves
    on an already-contiguous free space; beyond that, any idle port
    cycle is fair game — the paper's argument that concurrent relocation
    makes background rearrangement effectively free for the moved
    functions (only the port is busy, and it was idle anyway).
    """

    name = "idle"
    proactive = True

    def __init__(self, min_fragmentation: float = 0.1,
                 cooldown: float = 0.25) -> None:
        super().__init__(cooldown=cooldown)
        if not 0.0 <= min_fragmentation <= 1.0:
            raise ValueError("min_fragmentation must be in [0, 1]")
        self.min_fragmentation = min_fragmentation

    def _trigger(self, *, fragmentation: float, port_idle: bool) -> bool:
        """Fire only when the port is idle and fragmentation is real."""
        return port_idle and fragmentation >= self.min_fragmentation


#: Policy registry behind :func:`make_defrag_policy`.
_POLICIES: dict[str, type[DefragPolicy]] = {
    "never": NeverDefrag,
    "on-failure": OnFailureDefrag,
    "threshold": ThresholdDefrag,
    "idle": IdleDefrag,
}


def make_defrag_policy(name: str, **params) -> DefragPolicy:
    """Construct a defrag trigger policy by registry name.

    ``params`` are forwarded to the policy constructor (``threshold``,
    ``min_fragmentation``, ``cooldown``, ...).
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        known = ", ".join(DEFRAG_POLICY_NAMES)
        raise KeyError(
            f"unknown defrag policy {name!r}; known: {known}"
        ) from None
    return cls(**params)
