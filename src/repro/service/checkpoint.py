"""Checkpoint/restore: freeze an always-on service, thaw it elsewhere.

A service run is deterministic — every state transition is a function
of the submissions and the simulated clock — so its full state fits in
a plain JSON document: the :class:`~repro.service.app.ServiceConfig`
(which rebuilds the manager/kernel stack), every registered task
(with its region, host member and tenant), the waiting queue in
discipline order with each entry's patience deadline, the in-flight
executions with their finish instants, the per-device port horizons,
the metrics (running totals and the latest telemetry sample), the
admission door's buckets and counters, and the journal/telemetry
streams recorded so far.

:func:`snapshot` reads all of that at a quiescent instant (the service
is synchronous, so *between API calls* is always quiescent);
:func:`restore` rebuilds an identical service from it.  The pinned
guarantee — asserted by the round-trip tests and re-proved by the
service benchmark — is that a restored service produces the **same
journal and telemetry streams, bit for bit**, as the original had it
never been interrupted.  The kernel always drives a fleet (one member
on a single-device service), so every running task and every stuck-at
fault blocker is re-registered through
:meth:`~repro.fleet.manager.FleetManager.adopt`, whatever the fleet
size.

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
from dataclasses import asdict, fields
from pathlib import Path

from repro.device.fabric import FabricError
from repro.device.geometry import Rect
from repro.sched.kernel import ScheduleMetrics
from repro.sched.tasks import Task, TaskState

from .admission import AdmissionController
from .app import ReproService, ServiceConfig

#: Snapshot document version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 2

#: The document's container entries and the JSON type each must have.
_CONTAINERS = {
    "config": dict, "tasks": list, "queued": list, "running": list,
    "ports": list, "defrag_last_attempt": list, "metrics": dict,
    "door": dict, "journal": list, "telemetry": list,
}

#: The names a document's ``metrics`` entry may carry.
_METRICS = frozenset(f.name for f in fields(ScheduleMetrics))


def _task_row(task: Task) -> dict:
    """One task's serialized registry row (its QoS class is the one
    its ``priority`` maps to)."""
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
        "device": task.device,
        "tenant": task.tenant,
    }


def snapshot(service: ReproService) -> dict:
    """Serialize the whole service to a JSON-ready document.

    Read-only: the service keeps running afterwards.  Call between API
    operations (the service is single-threaded, so any moment the
    caller holds control is quiescent).
    """
    engine = service.engine
    kernel = engine.kernel
    return {
        "version": SNAPSHOT_VERSION,
        "config": service.config.to_dict(),
        "clock": kernel.events.now,
        "next_task_id": engine._next_task_id,
        "journal_seq": engine._journal_seq,
        "tasks": [
            _task_row(engine.tasks[task_id])
            for task_id in sorted(engine.tasks)
        ],
        "queued": [
            {"task": task.task_id, "deadline": task.deadline}
            for task in kernel.queue.ordered(kernel.events.now)
        ],
        # The kernel moves a running task's rect with every
        # rearrangement, so its task row holds the current region.
        "running": [
            {"task": owner, "finish_at": kernel.running[owner].handle.time}
            for owner in sorted(kernel.running)
        ],
        "ports": [port.export_state() for port in kernel.ports],
        "defrag_last_attempt": [
            member.defrag_policy._last_attempt
            for member in kernel.manager.members
        ],
        "metrics": asdict(kernel.metrics),
        # Resident-bitstream caches + planner wishlist (None when the
        # service runs with prefetch="never"); the stall/prefetch
        # counters themselves travel inside "metrics" above.
        "prefetch": kernel.export_prefetch_state(),
        # Fault-injection state (None until a fault is injected): lost
        # members, active stuck-at blockers and their heal instants.
        "faults": kernel.faults.export_state(),
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
        tenant=row["tenant"],
    )
    task.state = TaskState(row["state"])
    if row["rect"] is not None:
        task.rect = Rect(*row["rect"])
    task.configured_at = row["configured_at"]
    task.started_at = row["started_at"]
    task.finished_at = row["finished_at"]
    task.halted_seconds = row["halted_seconds"]
    task.device = row["device"]
    return task


def _task_id(row) -> int | None:
    """The integer ``task`` id a document row names, if any."""
    if isinstance(row, dict) and type(row.get("task")) is int:
        return row["task"]
    return None


def _check(state: dict) -> None:
    """Refuse a malformed document with :class:`ValueError` before
    anything is built: its version, the type of each container entry,
    the metric names, and that every queued and running entry names a
    registered task."""
    if not isinstance(state, dict):
        raise ValueError("a snapshot is a JSON object")
    if state.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {state.get('version')!r}"
        )
    for key, kind in _CONTAINERS.items():
        if not isinstance(state.get(key), kind):
            raise ValueError(f"snapshot entry {key!r} must be a JSON "
                             f"{'object' if kind is dict else 'array'}")
    unknown = state["metrics"].keys() - _METRICS
    if unknown:
        raise ValueError(f"unknown metrics {sorted(unknown)}")
    ids = {_task_id(row) for row in state["tasks"]}
    if None in ids:
        raise ValueError("every task row needs an integer 'task' id")
    for key in ("queued", "running"):
        for row in state[key]:
            if _task_id(row) not in ids:
                raise ValueError(
                    f"{key} entry {row!r} names no registered task"
                )


def restore(state: dict) -> ReproService:
    """Rebuild a service from a :func:`snapshot` document.

    The restored service resumes exactly where the original stood: the
    clock is at the snapshot instant, running work finishes at its
    original instants, queued work keeps its discipline order and its
    original patience deadlines, and the journal/telemetry streams
    continue with the next sequence numbers — the round-trip identity
    the tests pin.  A malformed document (see :func:`_check`), or one
    whose regions do not fit the fabric, raises :class:`ValueError`.
    """
    _check(state)
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

    # In-flight executions: re-allocate their regions and re-schedule
    # their finish events, ordered by (finish, id) — distinct instants
    # in practice, so event order matches the uninterrupted run (and a
    # tie would be harmless anyway: timeout/finish collisions on the
    # same task are no-ops in whichever order they fire).
    for row in sorted(state["running"],
                      key=lambda r: (r["finish_at"], r["task"])):
        task = engine.tasks[row["task"]]
        try:
            kernel.manager.adopt(task.task_id, task.device, task.rect)
        except FabricError as exc:
            raise ValueError(f"task {task.task_id}: {exc}") from None
        kernel.start_running(
            task.task_id, float(row["finish_at"]),
            lambda t=task: engine._on_finish(t), task,
        )

    # Waiting queue: re-push in the discipline's own order (monotonic
    # sequence numbers preserve relative order under every discipline),
    # stamped with the original arrival so age-sensitive disciplines
    # (backfill's max_age) see the true queueing times.
    patient = []
    for row in state["queued"]:
        task = engine.tasks[row["task"]]
        kernel.queue.push(task, priority=task.priority, area=task.area,
                          now=task.arrival)
        task.deadline = row["deadline"]
        if task.deadline is not None:
            patient.append(task)
    # ... and their patience timeouts, in deadline order (each strictly
    # in the future: a due timeout would have fired before the
    # snapshot's quiescent point).  The recorded deadline is not always
    # arrival + max_wait: a fault-restarted task re-armed its patience
    # at the restart instant.  A restored service holds no stale
    # timeout of an earlier queueing round, so each is armed for the
    # task's round as it stands.
    for task in sorted(patient, key=lambda t: (t.deadline, t.task_id)):
        engine.arm_timeout(task)

    for port, port_state in zip(kernel.ports, state["ports"]):
        port.restore_state(port_state)
    for member, last in zip(kernel.manager.members,
                            state["defrag_last_attempt"]):
        member.defrag_policy._last_attempt = last
    kernel.metrics = ScheduleMetrics(**state["metrics"])
    kernel.restore_prefetch_state(state["prefetch"])
    try:
        kernel.faults.restore_state(state["faults"])
    except FabricError as exc:
        raise ValueError(f"fault blockers: {exc}") from None
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
