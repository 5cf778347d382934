"""Seeded fault plans: reproducible timed fault-event sequences.

A :class:`FaultPlan` is data, not behaviour: each
:class:`FaultEvent` names a kind (``member-death``, ``region-stuck``,
``port-flaky``), an injection instant and the kind's parameters, and
refuses a malformed field when it is built.  :meth:`FaultPlan.install`
schedules the events on a scheduler's own event queue, where the
kernel's :class:`~repro.faults.recovery.FaultRecovery` carries each
one out through its single
:meth:`~repro.faults.recovery.FaultRecovery.apply`.  Everything is
derived from ``(name, device shape, fleet size, seed)`` through a
dedicated :class:`random.Random`, so the same spec always injects the
same faults — the property every determinism test in the battery
leans on.

This module deliberately imports nothing from the rest of the tree, so
fault plans can be built (and unit-tested) in complete isolation.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from typing import Callable

#: default mid-surge kill instant for the ``kill-member`` plan: the
#: fleet-surge generator's arrivals land in roughly the first three
#: simulated seconds, so t = 2.0 hits the fleet at peak residency.
KILL_AT = 2.0

#: the fault kinds a :class:`FaultEvent` may name.
FAULT_KINDS = ("member-death", "region-stuck", "port-flaky")


def _require(name: str, value, minimum, integral: bool = False) -> None:
    """Raise :class:`ValueError` unless ``value`` is a finite number
    (an integer when ``integral``; never a boolean) >= ``minimum``."""
    kind = numbers.Integral if integral else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not math.isfinite(value) or value < minimum:
        wanted = "an integer" if integral else "a finite number"
        raise ValueError(f"fault {name} must be {wanted} >= {minimum}, "
                         f"got {value!r}")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One timed fault: what breaks, where, when, for how long."""

    #: injection instant on the simulation timeline (seconds).
    at: float
    #: ``member-death`` | ``region-stuck`` | ``port-flaky``.
    kind: str
    #: target fleet member (device index).
    member: int = 0
    #: stuck-at region anchor + shape (``region-stuck`` only).
    row: int = 0
    col: int = 0
    height: int = 0
    width: int = 0
    #: seconds until a stuck-at region heals (``None`` = permanent).
    duration: float | None = None
    #: retry count and per-retry backoff of a ``port-flaky`` brown-out
    #: (the port is occupied for ``retries * backoff`` seconds).
    retries: int = 3
    backoff: float = 0.2

    def __post_init__(self) -> None:
        """Validate every field, so a malformed event is refused before
        the recovery moves any state: a known kind, a finite instant
        >= 0, integer targets >= 0 (a stuck-at shape >= 1), a finite
        ``duration`` > 0 or ``None``, and a finite retry cost >= 0."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(choose from {', '.join(FAULT_KINDS)})")
        _require("instant", self.at, 0)
        for name in ("member", "row", "col", "retries"):
            _require(name, getattr(self, name), 0, integral=True)
        shape_min = 1 if self.kind == "region-stuck" else 0
        _require("height", self.height, shape_min, integral=True)
        _require("width", self.width, shape_min, integral=True)
        _require("backoff", self.backoff, 0)
        if self.duration is not None:
            _require("duration", self.duration, 0)
            if self.duration == 0:
                raise ValueError("fault duration must be positive")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered fault-event sequence."""

    name: str
    events: tuple[FaultEvent, ...] = ()

    def __len__(self) -> int:
        """Number of fault events in the plan."""
        return len(self.events)

    def install(self, scheduler) -> None:
        """Schedule every event on ``scheduler``'s event queue, each to
        be carried out by its kernel's fault recovery.

        ``scheduler`` is an
        :class:`~repro.sched.scheduler.OnlineTaskScheduler` (duck
        typed: anything exposing ``events`` and a ``kernel`` with
        ``faults`` works).  Events strictly in the past are refused by
        the queue itself; install before the run (t = 0) or at the
        current instant of a live service.
        """
        recovery = scheduler.kernel.faults
        for event in self.events:
            scheduler.events.at(event.at, lambda e=event: recovery.apply(e))


def _none_plan(device, fleet_size: int, seed: int) -> FaultPlan:
    """The empty plan: inject nothing (the campaign default)."""
    return FaultPlan("none")


def _kill_member_plan(device, fleet_size: int, seed: int) -> FaultPlan:
    """Kill one member mid-surge.

    The victim is seeded over the *non-primary* members (workloads are
    sized against member 0, so killing it would conflate "member died"
    with "largest device vanished"); a 2-member fleet always loses
    member 1.  Requires ``fleet_size >= 2``.
    """
    if fleet_size < 2:
        raise ValueError(
            "the kill-member plan needs a fleet of at least 2 members"
        )
    # Seed with a string: Random(str) is deterministic across
    # processes, Random(tuple) would fall back to randomized hash().
    rng = random.Random(f"kill-member:{seed}")
    victim = rng.randrange(1, fleet_size)
    return FaultPlan(
        "kill-member",
        (FaultEvent(at=KILL_AT, kind="member-death", member=victim),),
    )


def _outbreak_plan(device, fleet_size: int, seed: int) -> FaultPlan:
    """Two seeded stuck-at outbreaks on member 0, each transient.

    Region anchors and shapes are drawn from the device's CLB grid
    (``device`` is any object with ``clb_rows`` / ``clb_cols``); both
    regions heal, so the run also exercises the space-reclaim path.
    """
    rng = random.Random(f"outbreak:{seed}")
    events = []
    for at in (1.0, 2.5):
        height = min(device.clb_rows, rng.randint(2, 3))
        width = min(device.clb_cols, rng.randint(2, 3))
        row = rng.randrange(device.clb_rows - height + 1)
        col = rng.randrange(device.clb_cols - width + 1)
        events.append(FaultEvent(
            at=at, kind="region-stuck", member=0,
            row=row, col=col, height=height, width=width,
            duration=1.5,
        ))
    return FaultPlan("outbreak", tuple(events))


def _flaky_port_plan(device, fleet_size: int, seed: int) -> FaultPlan:
    """Periodic configuration-port brown-outs on member 0.

    Four flakes across the surge window, each costing
    ``retries * backoff`` = 0.6 port seconds — enough to push queued
    configuration traffic around without starving it.
    """
    return FaultPlan(
        "flaky-port",
        tuple(
            FaultEvent(at=at, kind="port-flaky", member=0,
                       retries=3, backoff=0.2)
            for at in (0.5, 1.5, 2.5, 3.5)
        ),
    )


#: named plan factories: ``(device, fleet_size, seed) -> FaultPlan``.
FAULT_PLANS: dict[str, Callable] = {
    "none": _none_plan,
    "kill-member": _kill_member_plan,
    "outbreak": _outbreak_plan,
    "flaky-port": _flaky_port_plan,
}

#: the campaign ``--faults`` axis vocabulary, in display order.
FAULT_PLAN_NAMES = tuple(FAULT_PLANS)


def make_fault_plan(name: str, device, fleet_size: int,
                    seed: int) -> FaultPlan:
    """Build the named plan for one scenario's device/fleet/seed."""
    try:
        factory = FAULT_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault plan {name!r} "
            f"(choose from {', '.join(FAULT_PLANS)})"
        ) from None
    return factory(device, fleet_size, seed)
