"""Deterministic fault injection and recovery for the scheduling experiments.

The paper's premise is that run-time relocation keeps applications
alive while the logic space changes under them; its reference [8]
lineage (active replication, reproduced in
:mod:`repro.core.active_replication`) extends that to fabrics that are
being *tested and repaired* concurrently with operation.  This package
supplies the missing stressor and owns everything failover does:

* :mod:`~repro.faults.plan` — seeded, reproducible fault scenarios
  (fleet-member death, stuck-at region outbreaks, transient
  configuration-port failures).  A :class:`FaultPlan` is an immutable
  list of timed, validated :class:`FaultEvent` records; named plan
  factories live in :data:`FAULT_PLANS`, and the campaign layer sweeps
  them via the ``--faults`` axis.
* :mod:`~repro.faults.recovery` — :class:`FaultRecovery`, one per
  scheduling kernel (``kernel.faults``): it carries every event out
  through one ``apply``, displaces the work a fault hits and walks it
  down the relocate → restart → drop ladder, and exports and restores
  the fault state a service checkpoint carries.

Plans run on the scheduler's own event timeline and the always-on
service injects ad-hoc events over HTTP (``POST /faults``); both enter
through the same ``apply``, so the recovery path exercised is exactly
the paper's relocation mechanism either way.
"""

from .plan import (
    FAULT_PLAN_NAMES,
    FAULT_PLANS,
    FaultEvent,
    FaultPlan,
    make_fault_plan,
)
from .recovery import FAULT_OWNER_BASE, FaultRecovery

__all__ = [
    "FAULT_OWNER_BASE",
    "FAULT_PLAN_NAMES",
    "FAULT_PLANS",
    "FaultEvent",
    "FaultPlan",
    "FaultRecovery",
    "make_fault_plan",
]
