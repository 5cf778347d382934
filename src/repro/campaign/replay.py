"""Replay seeded campaign workloads as always-on service traffic.

The campaign layer owns a registry of deterministic workload
generators (:mod:`repro.sched.workload`); the always-on service
(:mod:`repro.service`) accepts submissions one at a time through an
admission door.  This module is the bridge — the *replay-to-service*
driver: it turns any registered ``tasks``-kind workload into a
**service trace** (a list of submission dicts with arrival stamps,
tenants and QoS classes) and feeds such traces through a live
:class:`~repro.service.app.ReproService`, advancing the simulated
clock to each arrival instant.

That makes every seeded batch scenario double as service traffic: the
flash-crowd tests replay the campaign's ``fleet-surge`` workload
through the door, and the benchmark's service workload a ``diurnal``
one, instead of inventing a second traffic model.

Task priorities map onto QoS classes via
:func:`repro.sched.trace.qos_of_priority` (0 best-effort, 1 silver,
2+ gold), and tenants are assigned round-robin over a caller-supplied
list — deterministic, like everything else in a trace.
"""

from __future__ import annotations

from repro.device.devices import device as device_by_name
from repro.sched.trace import qos_of_priority
from repro.sched.workload import get_workload

__all__ = ["replay_trace", "replay_workload", "service_trace"]


def service_trace(workload: str, device: str = "XC2S15", seed: int = 0,
                  tenants: tuple[str, ...] = ("default",),
                  **params) -> list[dict]:
    """Render a registered task workload as a service submission trace.

    Each entry is a keyword dict for
    :meth:`repro.service.app.ReproService.submit` — including the
    ``at`` arrival stamp, the tenant (round-robin over ``tenants``)
    and the QoS class derived from the generated priority.  Extra
    ``params`` go to the workload factory (``n=...`` scales most
    families).  Application-chain workloads are refused: the service
    admits independent tasks.
    """
    spec = get_workload(workload)
    if spec.kind != "tasks":
        raise ValueError(
            f"workload {workload!r} generates application chains; "
            "the service replays independent-task workloads"
        )
    dev = device_by_name(device)
    trace = []
    for index, task in enumerate(spec.factory(dev, seed, **params)):
        trace.append({
            "at": task.arrival,
            "height": task.height,
            "width": task.width,
            "exec_seconds": task.exec_seconds,
            "max_wait": task.max_wait,
            "tenant": tenants[index % len(tenants)],
            "qos": qos_of_priority(task.priority),
        })
    return trace


def replay_trace(service, trace: list[dict], settle: bool = True) -> dict:
    """Feed a :func:`service_trace` through a live service.

    Submissions are replayed in order, advancing the simulated clock to
    each ``at`` stamp (the door's token buckets refill along the way,
    so throttling behaves exactly as it would under live traffic).
    With ``settle`` the service then drains every pending event, so the
    summary reflects a completed run.  Returns the replay summary:
    submission/throttle counts plus the service's own ``stats()``.
    """
    admitted = throttled = 0
    for submission in trace:
        view = service.submit(**submission)
        if view["admitted"]:
            admitted += 1
        else:
            throttled += 1
    if settle:
        service.settle()
    return {
        "submitted": len(trace),
        "admitted": admitted,
        "throttled": throttled,
        "stats": service.stats(),
    }


def replay_workload(service, workload: str, seed: int = 0,
                    tenants: tuple[str, ...] = ("default",),
                    settle: bool = True, **params) -> dict:
    """Convenience: :func:`service_trace` + :func:`replay_trace`.

    The trace is rendered against the service's own primary device so
    generated footprints fit its fabric.
    """
    trace = service_trace(workload, device=service.config.device,
                          seed=seed, tenants=tenants, **params)
    return replay_trace(service, trace, settle=settle)
