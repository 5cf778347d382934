"""QoS classes: the service's tenant-facing tiers over the kernel.

Ullmann et al. (*Hardware Support for QoS-based Function Allocation in
Reconfigurable Systems*, PAPERS.md) argue that an on-demand
reconfigurable platform needs explicit quality-of-service classes at
the allocation door, not just a best-effort queue.  The always-on
service maps three such classes straight onto machinery the scheduling
layer already has:

* the class **priority** feeds the ``priority`` queue discipline
  (:mod:`repro.sched.queues`), so a queued gold request is attempted
  before silver and best-effort work whenever space frees up.  The
  class-to-priority table is the trace format's
  (:data:`repro.sched.trace.QOS_PRIORITY`, inverted by
  :func:`~repro.sched.trace.qos_of_priority`), so a replayed trace keeps
  its admission order;
* the class **rate/burst** parameterise the per-tenant token buckets of
  the admission door (:mod:`repro.service.admission`), so a tenant's
  gold budget is narrower but firmer than its best-effort firehose;
* the class **patience** becomes the task's ``max_wait``: gold work is
  queued longest before the service gives up on it.

Nothing below the service knows about classes — by the time a request
reaches the kernel it is an ordinary prioritised
:class:`~repro.sched.tasks.Task`, which is exactly what keeps the
batch campaigns and the service bit-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sched.trace import QOS_PRIORITY


@dataclass(frozen=True)
class QosClass:
    """One service tier and its admission parameters."""

    #: registry name (``gold`` / ``silver`` / ``best-effort``).
    name: str
    #: queue-discipline priority (higher = attempted first).
    priority: int
    #: token-bucket refill rate, requests per simulated second.
    rate: float
    #: token-bucket capacity (burst tolerance).
    burst: float
    #: default queueing patience in simulated seconds before the
    #: service abandons the request (``None`` = wait forever).
    patience: float | None


#: The service's QoS registry, ordered best to worst.  Rates are
#: deliberately tighter for the better classes: a gold tenant buys
#: *admission order*, not unmetered volume.
QOS_CLASSES: dict[str, QosClass] = {
    "gold": QosClass("gold", priority=QOS_PRIORITY["gold"], rate=20.0,
                     burst=10.0, patience=8.0),
    "silver": QosClass("silver", priority=QOS_PRIORITY["silver"],
                       rate=40.0, burst=20.0, patience=4.0),
    "best-effort": QosClass("best-effort",
                            priority=QOS_PRIORITY["best-effort"],
                            rate=80.0, burst=40.0, patience=2.0),
}

#: Valid QoS class names, best first.
QOS_NAMES = tuple(QOS_CLASSES)


def get_qos(name: str) -> QosClass:
    """Look up a QoS class by name (:class:`ValueError` on unknowns)."""
    try:
        return QOS_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown QoS class {name!r}; choose from {QOS_NAMES}"
        ) from None
