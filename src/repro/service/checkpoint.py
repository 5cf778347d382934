"""Checkpoint/restore: freeze an always-on service, thaw it elsewhere.

A service run is deterministic — every state transition is a function
of the submissions and the simulated clock — so its full state fits in
a plain JSON document: the :class:`~repro.service.app.ServiceConfig`
(which rebuilds the manager/kernel stack), every registered task, the
waiting queue in discipline order, the in-flight executions with their
finish instants, the per-device port horizons, the metrics, the
admission door's buckets and counters, and the journal/telemetry
streams recorded so far.

:func:`snapshot` reads all of that at a quiescent instant (the service
is synchronous, so *between API calls* is always quiescent);
:func:`restore` rebuilds an identical service from it.  The pinned
guarantee — asserted by the round-trip tests and re-proved by the
service benchmark — is that a restored service produces the **same
journal and telemetry streams, bit for bit**, as the original had it
never been interrupted.

Two deliberate non-goals, documented so nobody chases "missing" state:

* the fit and plan caches are not serialized — they are memoisation,
  and future behaviour depends only on occupancy, queue and events;
* the kernel's admission failure record starts empty — the snapshot
  was taken with every waiting candidate blocked on the current
  occupancy (a drain always completes before control returns), so the
  restored kernel's ``resume()`` re-probes those candidates once and
  records the same verdicts, which are a pure function of occupancy
  and shape.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core.manager import LogicSpaceManager
from repro.device.geometry import Rect
from repro.sched.kernel import ScheduleMetrics
from repro.sched.tasks import Task, TaskState

from .admission import AdmissionController
from .app import ReproService, ServiceConfig

#: Snapshot document version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1


def _task_row(service: ReproService, task: Task) -> dict:
    """One task's serialized registry row."""
    tenant, qos = service.task_meta.get(
        task.task_id, ("default", "best-effort")
    )
    rect = task.rect
    return {
        "task": task.task_id,
        "height": task.height,
        "width": task.width,
        "exec_seconds": task.exec_seconds,
        "arrival": task.arrival,
        "max_wait": task.max_wait,
        "priority": task.priority,
        "state": task.state.value,
        "rect": ([rect.row, rect.col, rect.height, rect.width]
                 if rect is not None else None),
        "configured_at": task.configured_at,
        "started_at": task.started_at,
        "finished_at": task.finished_at,
        "halted_seconds": task.halted_seconds,
        "device": service.engine.devices.get(task.task_id),
        "tenant": tenant,
        "qos": qos,
    }


def snapshot(service: ReproService) -> dict:
    """Serialize the whole service to a JSON-ready document.

    Read-only: the service keeps running afterwards.  Call between API
    operations (the service is single-threaded, so any moment the
    caller holds control is quiescent).
    """
    engine = service.engine
    kernel = engine.kernel
    running = []
    for owner, (_, handle) in sorted(kernel.running.items()):
        # The *current* region, read from the hosting fabric — a
        # rearrangement may have relocated the task since placement, so
        # the task record's placement-time rect cannot be trusted here.
        device = engine.devices[owner]
        rect = kernel._managers[device].fabric.footprint(owner)
        running.append({
            "task": owner,
            "finish_at": handle.time,
            "rect": [rect.row, rect.col, rect.height, rect.width],
        })
    return {
        "version": SNAPSHOT_VERSION,
        "config": service.config.to_dict(),
        "clock": kernel.events.now,
        "next_task_id": engine._next_task_id,
        "journal_seq": engine._journal_seq,
        "tasks": [
            _task_row(service, engine.tasks[task_id])
            for task_id in sorted(engine.tasks)
        ],
        "queued": [
            item.task_id
            for item in kernel.queue.ordered(kernel.events.now)
        ],
        "running": running,
        "ports": [port.export_state() for port in kernel.ports],
        "defrag_last_attempt": [
            member.defrag_policy._last_attempt
            for member in kernel._managers
        ],
        "metrics": asdict(kernel.metrics),
        # Resident-bitstream caches + planner wishlist (None when the
        # service runs with prefetch="never"); the stall/prefetch
        # counters themselves travel inside "metrics" above.
        "prefetch": kernel.export_prefetch_state(),
        # Fault-injection state (None until a fault is injected): lost
        # members, active stuck-at blockers and their heal instants.
        "faults": engine.export_fault_state(),
        # True patience deadlines of the queued tasks: a fault-restarted
        # task's patience re-armed at the restart instant, so
        # arrival + max_wait would restore the wrong deadline.
        "queue_deadlines": {
            str(task_id): deadline
            for task_id, deadline in sorted(
                engine._queue_deadlines.items()
            )
        },
        "door": service.door.export_state(),
        "journal": list(engine.journal),
        "telemetry": list(engine.telemetry),
    }


def _load_task(row: dict) -> Task:
    """Rebuild one task from its registry row."""
    task = Task(
        task_id=row["task"],
        height=row["height"],
        width=row["width"],
        exec_seconds=row["exec_seconds"],
        arrival=row["arrival"],
        max_wait=row["max_wait"],
        priority=row["priority"],
    )
    task.state = TaskState(row["state"])
    if row["rect"] is not None:
        task.rect = Rect(*row["rect"])
    task.configured_at = row["configured_at"]
    task.started_at = row["started_at"]
    task.finished_at = row["finished_at"]
    task.halted_seconds = row["halted_seconds"]
    return task


def _adopt(service: ReproService, task: Task, rect: Rect) -> None:
    """Re-establish a running task's placement on its hosting fabric.

    ``rect`` is the snapshot's *current* region for the task, which may
    differ from ``task.rect`` (the placement-time record) when a
    rearrangement relocated the task while it ran.
    """
    device = service.engine.devices[task.task_id]
    manager = service.manager
    if isinstance(manager, LogicSpaceManager):
        manager.fabric.allocate_region(rect, task.task_id)
    else:
        manager.adopt(task.task_id, device, rect)


def restore(state: dict) -> ReproService:
    """Rebuild a service from a :func:`snapshot` document.

    The restored service resumes exactly where the original stood: the
    clock is at the snapshot instant, running work finishes at its
    original instants, queued work keeps its discipline order and its
    original patience deadlines, and the journal/telemetry streams
    continue with the next sequence numbers — the round-trip identity
    the tests pin.
    """
    if state.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {state.get('version')!r}"
        )
    service = ReproService(ServiceConfig.from_dict(state["config"]))
    engine = service.engine
    kernel = engine.kernel
    kernel.pause()
    kernel.events.now = float(state["clock"])
    engine._next_task_id = int(state["next_task_id"])
    engine._journal_seq = int(state["journal_seq"])
    engine.journal = [dict(entry) for entry in state["journal"]]
    engine.telemetry = [dict(entry) for entry in state["telemetry"]]

    for row in state["tasks"]:
        task = _load_task(row)
        engine.tasks[task.task_id] = task
        if row["device"] is not None:
            engine.devices[task.task_id] = row["device"]
        service.task_meta[task.task_id] = (row["tenant"], row["qos"])

    # In-flight executions: re-allocate their regions and re-schedule
    # their finish events, ordered by (finish, id) — distinct instants
    # in practice, so event order matches the uninterrupted run (and a
    # tie would be harmless anyway: timeout/finish collisions on the
    # same task are no-ops in whichever order they fire).
    for row in sorted(state["running"],
                      key=lambda r: (r["finish_at"], r["task"])):
        task = engine.tasks[row["task"]]
        _adopt(service, task, Rect(*row["rect"]))
        engine._running_tasks[task.task_id] = task
        kernel.start_running(
            task.task_id, float(row["finish_at"]),
            lambda t=task: engine._on_finish(t),
        )

    # Waiting queue: re-push in the discipline's own order (monotonic
    # sequence numbers preserve relative order under every discipline),
    # stamped with the original arrival so age-sensitive disciplines
    # (backfill's max_age) see the true queueing times.
    queued = [engine.tasks[task_id] for task_id in state["queued"]]
    for task in queued:
        kernel.queue.push(task, priority=task.priority, area=task.area,
                          now=task.arrival)
    # ... and their patience deadlines (strictly in the future: a due
    # timeout would have fired before the snapshot's quiescent point).
    # The snapshot's recorded deadline wins over arrival + max_wait — a
    # fault-restarted task re-armed its patience at the restart instant
    # (older snapshots without the key never restarted anything).
    recorded = state.get("queue_deadlines", {})
    for deadline, _task_id, task in sorted(
        (float(recorded.get(str(task.task_id),
                            task.arrival + task.max_wait)),
         task.task_id, task)
        for task in queued
        if task.max_wait is not None
    ):
        epoch = engine._queue_epochs.setdefault(task.task_id, 1)
        engine._queue_deadlines[task.task_id] = deadline
        kernel.events.at(
            deadline, lambda t=task, e=epoch: engine._on_timeout(t, e)
        )

    for port, port_state in zip(kernel.ports, state["ports"]):
        port.restore_state(port_state)
    for member, last in zip(kernel._managers,
                            state["defrag_last_attempt"]):
        member.defrag_policy._last_attempt = last
    kernel.metrics = ScheduleMetrics(**state["metrics"])
    kernel.restore_prefetch_state(state.get("prefetch"))
    engine.restore_fault_state(state.get("faults"))
    service.door = AdmissionController.from_state(state["door"])

    kernel.resume()
    return service


def save(service: ReproService, path: str | Path) -> Path:
    """Snapshot the service to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(snapshot(service)))
    return path


def load(path: str | Path) -> ReproService:
    """Restore a service from a JSON file written by :func:`save`."""
    return restore(json.loads(Path(path).read_text()))
