"""The always-on admission service over the scheduling stack.

The batch campaigns answer *"what would this policy have done to this
trace?"*; :mod:`repro.service` answers the paper's actual operating
question — a run-time manager that is simply **on**, admitting,
refusing and cancelling work while the system runs.  The package wraps
a :class:`~repro.fleet.manager.FleetManager` +
:class:`~repro.sched.kernel.SchedulingKernel` stack behind a small
asyncio REST/JSON API with a QoS-aware admission door, explicit
backpressure and JSON checkpoint/restore.

Layers (each its own module):

* :mod:`~repro.service.qos` — the gold/silver/best-effort class
  registry mapped onto the priority queue discipline;
* :mod:`~repro.service.admission` — per-tenant token buckets and the
  queue-depth bound (the 429 + Retry-After door);
* :mod:`~repro.service.app` — :class:`ServiceEngine` (incremental
  scheduler with a journal) and :class:`ReproService` (door + engine);
* :mod:`~repro.service.checkpoint` — freeze/thaw to JSON with a
  bit-identical-continuation guarantee;
* :mod:`~repro.service.api` — the asyncio HTTP layer (NDJSON
  telemetry streaming included);
* ``python -m repro.service`` — the runnable daemon
  (:mod:`~repro.service.__main__`).

Everything is stdlib-only and driven by *simulated* time, so a live
service run is exactly as deterministic as a batch campaign — the
property the checkpoint round-trip tests pin.
"""

from .admission import AdmissionController, AdmissionDecision, TokenBucket
from .api import ServiceAPI
from .app import ReproService, ServiceConfig, ServiceEngine
from .checkpoint import load, restore, save, snapshot
from .qos import QOS_CLASSES, QOS_NAMES, QosClass, get_qos

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "QOS_CLASSES",
    "QOS_NAMES",
    "QosClass",
    "ReproService",
    "ServiceAPI",
    "ServiceConfig",
    "ServiceEngine",
    "TokenBucket",
    "get_qos",
    "load",
    "restore",
    "save",
    "snapshot",
]
