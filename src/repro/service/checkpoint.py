"""Checkpoint/restore: freeze an always-on service, thaw it elsewhere.

A service run is deterministic — every state transition is a function
of the submissions and the simulated clock — so its full state fits in
a plain JSON document, which :data:`LAYOUT` declares row by row: the
:class:`~repro.service.app.ServiceConfig` (which rebuilds the stack),
the tasks, queued and running work, ports, metrics, caches, faults,
door, journal and telemetry.  The state a row carries is plain
attributes of the object that owns it.

:func:`snapshot` writes it at a quiescent instant (the service is
synchronous, so *between API calls* is always quiescent);
:func:`restore` reads all of it through the layout and
:func:`_check_entries`, refusing a bad value with :class:`ValueError`
naming its path, and only then rebuilds an identical service.  The
pinned guarantee — asserted by the round-trip tests and re-proved by
the service benchmark — is that a restored service produces the **same
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

import copy
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable

from repro.device.fabric import FabricError
from repro.device.geometry import Rect
from repro.faults import FAULT_OWNER_BASE
from repro.sched.kernel import ScheduleMetrics
from repro.sched.prefetch import CacheEntry, PrefetchRequest
from repro.sched.tasks import Task, TaskState

from .admission import AdmissionController, TenantStats, TokenBucket
from .app import ReproService, ServiceConfig, _check_submission
from .qos import QOS_NAMES

#: Snapshot document version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 2


# -- kinds --------------------------------------------------------------------
#
# A row is a dict of its keys' kinds, in order; {str: kind} is an object of
# values of that kind under any keys, [kind] an array of them and (kind,
# ...) an array of one value of each.  Any other kind is a function of a
# value and its path that raises ValueError for a value not of the kind.


def _refuse(wanted: str, path: tuple) -> ValueError:
    """The error for the document value at ``path`` (keys and indices)."""
    steps = "".join(f".{s}" if isinstance(s, str) else f"[{s}]" for s in path)
    return ValueError(f"snapshot document{steps} must be {wanted}")


def _check(kind, value, path: tuple = ()) -> None:
    """Refuse ``value``, found at ``path``, unless it is of ``kind``."""
    if type(kind) is dict:
        if type(value) is not dict:
            raise _refuse("an object", path)
        if str not in kind and list(value) != list(kind):
            raise _refuse(f"an object with keys {', '.join(kind)}", path)
        for key, item in value.items():
            _check(kind.get(str) or kind[key], item, (*path, key))
    elif type(kind) in (list, tuple):
        fixed = type(kind) is tuple
        if type(value) not in (list, tuple) \
                or fixed and len(value) != len(kind):
            raise _refuse(f"an array of {len(kind)} values" if fixed
                          else "an array", path)
        for index, item in enumerate(value):
            _check(kind[index if fixed else 0], item, (*path, index))
    else:
        kind(value, path)


def _scalar(wanted: str, test: Callable) -> Callable:
    """The kind of the values that pass ``test``."""
    def kind(value, path: tuple) -> None:
        if not test(value):
            raise _refuse(wanted, path)
    return kind


def _int(low: int | None = None, high: int | None = None) -> Callable:
    """An integer (a boolean is not) from ``low`` to ``high``."""
    return _scalar(
        "an integer" + ("" if low is None else f" >= {low}" if high is None
                        else f" from {low} to {high}"),
        lambda v: type(v) is int and (low is None or v >= low)
        and (high is None or v <= high))


def _num(above: float | None = None) -> Callable:
    """A finite number (a boolean is not) above ``above``."""
    top = sys.float_info.max  # a larger integer does not convert to float
    return _scalar(
        "a finite number" + ("" if above is None else f" > {above}"),
        lambda v: type(v) in (int, float) and -top <= v <= top
        and (above is None or v > above))


def _name(*names: str) -> Callable:
    """A string, one of ``names`` when any are given."""
    return _scalar(
        f"one of {', '.join(map(repr, names))}" if names else "a string",
        lambda v: type(v) is str and (not names or v in names))


def _opt(kind) -> Callable:
    """``null``, or a value of ``kind``."""
    def check(value, path: tuple) -> None:
        if value is not None:
            _check(kind, value, path)
    return check


def _write(row: dict, obj=None, **values) -> dict:
    """``row`` written for ``obj``: each key's value in ``values``, else
    ``obj``'s attribute of that name."""
    return {key: values[key] if key in values else getattr(obj, key)
            for key in row}


# -- the layout ---------------------------------------------------------------

_INT, _COUNT, _ID, _NUM, _STR = _int(), _int(0), _int(1), _num(), _name()
_OPT_NUM, _ANY = _opt(_NUM), lambda value, path: None
_RECT = (_COUNT, _COUNT, _ID, _ID)  # row, col, height, width
_SAMPLE = (_NUM, _NUM)  # fragmentation, utilization

#: A registered :class:`~repro.sched.tasks.Task`, by id (its QoS class
#: is the one its ``priority`` maps to).
_TASK = {
    "task": _ID, "height": _INT, "width": _INT, "exec_seconds": _NUM,
    "arrival": _NUM, "max_wait": _OPT_NUM, "priority": _INT,
    "state": _name(*(state.value for state in TaskState)),
    "rect": _opt(_RECT), "configured_at": _OPT_NUM, "started_at": _OPT_NUM,
    "finished_at": _OPT_NUM, "halted_seconds": _NUM,
    "device": _opt(_COUNT), "tenant": _STR,
}
#: A waiting task (in discipline order) and its patience deadline.
_QUEUED = {"task": _ID, "deadline": _OPT_NUM}
#: An executing task and its finish instant (its row holds its region).
_RUNNING = {"task": _ID, "finish_at": _NUM}
#: One member's configuration port, by the port model's name.
_PORTS = {
    "serial": {"free_at": _NUM, "busy_seconds": _NUM},
    "multi": {"lane_free": [_NUM], "busy_seconds": _NUM},
    "icap": {"write_free": _NUM, "readback_free": _NUM, "busy_seconds": _NUM},
}
#: Each :class:`~repro.sched.kernel.ScheduleMetrics` field, of the kind
#: its annotation names (the latest sample carries each member's too).
_METRICS = {field.name: {
    "int": _COUNT, "float": _NUM, "tuple": (_NUM, _NUM, [_SAMPLE]),
    "dict[str, int]": {str: _COUNT},
}[field.type] for field in fields(ScheduleMetrics)}
#: Each member's cache of :class:`~repro.sched.prefetch.CacheEntry` and
#: the planner's wishlist of :class:`~repro.sched.prefetch.PrefetchRequest`.
_ENTRY = {"key": _STR, "height": _ID, "width": _ID, "ready_at": _NUM,
          "last_used": _NUM, "next_use": _OPT_NUM, "seq": _COUNT}
_CACHE = {"capacity": _ID, "seq": _COUNT, "entries": [_ENTRY]}
_REQUEST = {"key": _STR, "height": _ID, "width": _ID,
            "next_use": _OPT_NUM, "device": _opt(_COUNT)}
_PREFETCH = {"mode": _name("cache", "plan"), "caches": [_CACHE],
             "wishlist": [_REQUEST]}
#: Lost members, the last blocker owner and fault id handed out, and
#: each active stuck-at region (its injected rect, the ``[owner, rect]``
#: blockers on its free sites and its heal instant).
_FAULTS = {
    "lost_members": [_COUNT], "owner_seq": _int(0, FAULT_OWNER_BASE - 1),
    "fault_seq": _COUNT, "regions": [{
        "id": _ID, "device": _COUNT, "rect": _RECT,
        "owners": [(_int(FAULT_OWNER_BASE + 1), _RECT)],
        "heal_at": _OPT_NUM}],
}
#: The door's depth bound, each tenant's token bucket per QoS class, and
#: each tenant's counters.
_BUCKET = {"tenant": _STR, "qos": _name(*QOS_NAMES), "rate": _num(above=0),
           "burst": _NUM, "tokens": _NUM, "updated_at": _NUM}
_STATS = {"submitted": _COUNT, "admitted": _COUNT, "throttled_rate": _COUNT,
          "throttled_depth": _COUNT}
_DOOR = {"max_queue_depth": _ID, "buckets": [_BUCKET],
         "stats": {str: _STATS}}

#: The whole document.  Each ``config`` value is checked by
#: :class:`~repro.service.app.ServiceConfig`; :func:`_check_entries`
#: ties the entries together.
LAYOUT = {
    "version": _int(SNAPSHOT_VERSION, SNAPSHOT_VERSION),
    "config": {field.name: _ANY for field in fields(ServiceConfig)},
    "clock": _NUM,
    # Task ids share the fabric's int32 owner space with fault blockers.
    "next_task_id": _int(1, FAULT_OWNER_BASE),
    "journal_seq": _COUNT,
    "tasks": [_TASK],
    "queued": [_QUEUED],
    "running": [_RUNNING],
    "ports": [{str: _ANY}],  # each a _PORTS row, see _check_entries
    "defrag_last_attempt": [_OPT_NUM],
    "metrics": _METRICS,
    "prefetch": _opt(_PREFETCH),  # null when the service runs without
    "faults": _opt(_FAULTS),  # null until a fault is injected
    "door": _DOOR,
    "journal": [{"seq": _COUNT, "t": _NUM, "event": _STR, "task": _ID}],
    "telemetry": [{"t": _NUM, "waiting": _COUNT, "running": _COUNT,
                   "fragmentation": _NUM, "utilization": _NUM,
                   "members": [_SAMPLE]}],
}


# -- snapshot -----------------------------------------------------------------


def snapshot(service: ReproService) -> dict:
    """Serialize the whole service to a JSON-ready document, read-only.
    Call between API operations (the service is single-threaded, so any
    moment the caller holds control is quiescent)."""
    engine = service.engine
    kernel = engine.kernel
    now = kernel.events.now
    config, door, faults = service.config, service.door, kernel.faults
    lost = kernel.manager.lost
    return _write(
        LAYOUT, engine,
        version=SNAPSHOT_VERSION,
        config=_write(LAYOUT["config"], config,
                      fleet_devices=list(config.fleet_devices)),
        clock=now,
        tasks=[_write(_TASK, task, task=task.task_id, state=task.state.value,
                      rect=task.rect and [task.rect.row, task.rect.col,
                                          task.rect.height, task.rect.width])
               for task in map(engine.tasks.get, sorted(engine.tasks))],
        queued=[_write(_QUEUED, task, task=task.task_id)
                for task in kernel.queue.ordered(now)],
        running=[_write(_RUNNING, task=owner,
                        finish_at=kernel.running[owner].handle.time)
                 for owner in sorted(kernel.running)],
        ports=copy.deepcopy([_write(_PORTS[port.name], port)
                             for port in kernel.ports]),
        defrag_last_attempt=[member.defrag_policy.last_attempt
                             for member in kernel.manager.members],
        metrics=_write(_METRICS, kernel.metrics, tenant_finished=dict(
            kernel.metrics.tenant_finished)),
        prefetch=None if kernel.caches is None else _write(
            _PREFETCH, mode=kernel.prefetch_mode, caches=[_write(
                _CACHE, cache, entries=[_write(_ENTRY, entry)
                                        for entry in cache.entries.values()])
                for cache in kernel.caches],
            wishlist=[_write(_REQUEST, offer)
                      for offer in kernel.wishlist.values()]),
        faults=_write(
            _FAULTS, faults, lost_members=sorted(lost),
            regions=[faults.regions[i] for i in sorted(faults.regions)],
        ) if lost or faults.regions or faults.owner_seq or faults.fault_seq
        else None,
        door=_write(_DOOR, door, buckets=[
            _write(_BUCKET, bucket, tenant=tenant, qos=qos)
            for (tenant, qos), bucket in sorted(door.buckets.items())
        ], stats={tenant: _write(_STATS, counts)
                  for tenant, counts in sorted(door.stats.items())}),
        journal=list(engine.journal),
        telemetry=list(engine.telemetry),
    )


# -- restore ------------------------------------------------------------------


def _check_entries(doc: dict, config: ServiceConfig) -> None:
    """Refuse what :data:`LAYOUT` cannot say about one entry alone: task
    rows by ascending id below ``next_task_id``, each passing the
    submission rules, placed on a member of the fleet when they say
    ``configuring``; queued and running entries each naming a task of
    their own whose row says ``queued`` or ``configuring``; one row per
    member, of the config's port model and prefetch mode; and blocker
    owners handed out once."""
    members = config.fleet_size + len(config.fleet_devices)
    member = _int(0, members - 1)

    def need(ok: bool, wanted: str, *path: str | int) -> None:
        if not ok:
            raise _refuse(wanted, path)

    tasks = doc["tasks"]
    for index, row in enumerate(tasks):
        need(not index or row["task"] > tasks[index - 1]["task"],
             "above the id of the row before", "tasks", index, "task")
        try:
            _check_submission(row["height"], row["width"],
                              row["exec_seconds"], row["max_wait"],
                              row["arrival"])
        except ValueError as exc:
            raise ValueError(f"snapshot document.tasks[{index}]: {exc}") \
                from None
        if row["state"] == "configuring":
            for key in ("rect", "configured_at", "started_at", "device"):
                need(row[key] is not None, "set on a placed task", "tasks",
                     index, key)
        _check(_opt(member), row["device"], ("tasks", index, "device"))
    need(not tasks or tasks[-1]["task"] < doc["next_task_id"],
         "above every task id", "next_task_id")
    states, named = {row["task"]: row["state"] for row in tasks}, set()
    for key, state in (("queued", "queued"), ("running", "configuring")):
        for index, entry in enumerate(doc[key]):
            need(states.get(entry["task"]) == state
                 and entry["task"] not in named, f"a task whose row says "
                 f"{state!r}, named once", key, index, "task")
            named.add(entry["task"])
    model, _, lanes = config.ports.partition("-")
    port = dict(_PORTS[model], lane_free=(_NUM,) * int(lanes)) if lanes \
        else _PORTS[model]
    _check((port,) * members, doc["ports"], ("ports",))
    _check((_OPT_NUM,) * members, doc["defrag_last_attempt"],
           ("defrag_last_attempt",))
    prefetch = doc["prefetch"]
    need((prefetch is None) == (config.prefetch == "never"), "null exactly "
         "when the config's prefetch mode is 'never'", "prefetch")
    if prefetch is not None:
        need(prefetch["mode"] == config.prefetch,
             f"the config's mode {config.prefetch!r}", "prefetch", "mode")
        _check((_CACHE,) * members, prefetch["caches"], ("prefetch", "caches"))
        for index, offer in enumerate(prefetch["wishlist"]):
            _check(_opt(member), offer["device"],
                   ("prefetch", "wishlist", index, "device"))
    owners: set[int] = set()
    faults = doc["faults"] or {"regions": ()}
    for index, region in enumerate(faults["regions"]):
        _check(member, region["device"],
               ("faults", "regions", index, "device"))
        for slot, (owner, _) in enumerate(region["owners"]):
            need(owner not in owners
                 and owner <= FAULT_OWNER_BASE + faults["owner_seq"],
                 "a blocker owner handed out once by owner_seq", "faults",
                 "regions", index, "owners", slot, 0)
            owners.add(owner)


def restore(state: dict) -> ReproService:
    """Rebuild a service from a :func:`snapshot` document: it resumes
    exactly where the original stood, down to the next journal and
    telemetry sequence numbers.  A malformed document (see
    :data:`LAYOUT` and :func:`_check_entries`), or one whose regions do
    not fit the fabric or whose instants lie before its clock, raises
    :class:`ValueError`; a config naming an unknown device or policy
    raises :class:`KeyError`."""
    if type(state) is not dict:
        raise ValueError("a snapshot is a JSON object")
    if state.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {state.get('version')!r}")
    _check(LAYOUT, state)
    config = ServiceConfig(**state["config"])
    _check_entries(state, config)
    service = ReproService(config)
    engine = service.engine
    kernel = engine.kernel
    kernel.pause()
    kernel.events.now = state["clock"]
    engine.next_task_id = state["next_task_id"]
    engine.journal_seq = state["journal_seq"]
    engine.journal = [dict(entry) for entry in state["journal"]]
    engine.telemetry = [dict(entry) for entry in state["telemetry"]]
    for row in state["tasks"]:
        attrs = dict(row, state=TaskState(row["state"]),
                     rect=row["rect"] and Rect(*row["rect"]))
        task = Task(task_id=attrs.pop("task"), **attrs)
        engine.tasks[task.task_id] = task

    # In-flight executions re-allocate their regions and re-schedule
    # their finish events by (finish, id), so event order matches the
    # uninterrupted run (a tie is a no-op collision either way).
    for row in sorted(state["running"],
                      key=lambda r: (r["finish_at"], r["task"])):
        task = engine.tasks[row["task"]]
        try:
            kernel.manager.adopt(task.task_id, task.device, task.rect)
        except FabricError as exc:
            raise ValueError(f"task {task.task_id}: {exc}") from None
        kernel.start_running(
            task.task_id, row["finish_at"],
            lambda t=task: engine._on_finish(t), task,
        )

    # Waiting work re-enters in the discipline's order, stamped with its
    # arrival so age-sensitive disciplines see the true queueing times.
    patient = []
    for row in state["queued"]:
        task = engine.tasks[row["task"]]
        kernel.queue.push(task, priority=task.priority, area=task.area,
                          now=task.arrival)
        task.deadline = row["deadline"]
        if task.deadline is not None:
            patient.append(task)
    # ... and its patience timeouts, in deadline order, each armed for
    # the task's queueing round as it stands (a fault-restarted task
    # re-armed its patience at the restart, not at arrival + max_wait).
    for task in sorted(patient, key=lambda t: (t.deadline, t.task_id)):
        engine.arm_timeout(task)

    for port, row in zip(kernel.ports, copy.deepcopy(state["ports"])):
        for key, value in row.items():
            setattr(port, key, value)
    for member, last in zip(kernel.manager.members,
                            state["defrag_last_attempt"]):
        member.defrag_policy.last_attempt = last
    kernel.metrics = ScheduleMetrics(**copy.deepcopy(state["metrics"]))
    if state["prefetch"] is not None:
        for cache, row in zip(kernel.caches, state["prefetch"]["caches"]):
            cache.capacity, cache.seq = row["capacity"], row["seq"]
            cache.entries = {entry["key"]: CacheEntry(**entry)
                             for entry in row["entries"]}
        kernel.wishlist = {offer["key"]: PrefetchRequest(**offer)
                           for offer in state["prefetch"]["wishlist"]}
    faults = state["faults"]
    if faults is not None:
        for index in faults["lost_members"]:
            kernel.manager.mark_lost(index)
        kernel.faults.owner_seq = faults["owner_seq"]
        kernel.faults.fault_seq = faults["fault_seq"]
        try:
            for region in copy.deepcopy(faults["regions"]):
                kernel.faults.adopt_region(region)
        except FabricError as exc:
            raise ValueError(f"fault blockers: {exc}") from None
    door = state["door"]
    service.door = AdmissionController(door["max_queue_depth"], buckets={
        (row["tenant"], row["qos"]): TokenBucket(*list(row.values())[2:])
        for row in door["buckets"]}, stats={
        tenant: TenantStats(**row) for tenant, row in door["stats"].items()})

    kernel.resume()
    return service


def _file(path, action: Callable):
    """``action(Path(path))``; a path that is not a string, or a file
    the action cannot use, raises :class:`ValueError` naming it."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"a checkpoint path must be a string, got {path!r}")
    try:
        return action(Path(path))
    except OSError as exc:
        raise ValueError(f"checkpoint {str(path)!r}: "
                         f"{exc.strerror or exc}") from None


def save(service: ReproService, path: str | Path) -> Path:
    """Snapshot the service to a JSON file; returns the path (a path it
    cannot write raises :class:`ValueError`)."""
    text = json.dumps(snapshot(service))
    _file(path, lambda file: file.write_text(text))
    return Path(path)


def load(path: str | Path) -> ReproService:
    """Restore a service from a JSON file written by :func:`save` (a
    path or a document it cannot use raises :class:`ValueError`)."""
    return restore(json.loads(_file(path, Path.read_text)))
