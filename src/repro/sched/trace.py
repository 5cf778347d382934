"""Arrival traces: an NDJSON file format + replayer + trace generators.

Synthetic generators (:mod:`repro.sched.workload`) answer "what does
policy X do under distribution Y"; a *trace* pins the exact arrival
sequence — recorded from a real system, exported from another
simulator, or synthesized once and committed — so experiments replay
identical offered load across policies, devices and code versions (and
the future floor-plan predictor trains on the same substrate it will
serve, per Al-Wattar et al.).

One line per arrival, JSON object, in arrival order::

    {"at": 0.41, "tenant": "video", "qos": "gold",
     "height": 4, "width": 6, "duration": 1.2, "max_wait": 1.5}

``at`` is the arrival instant (seconds), ``duration`` the execution
time, ``max_wait`` the queueing patience (``null`` = infinite), and
``qos`` one of ``gold`` / ``silver`` / ``best-effort``, mapped onto
the priority classes the ``priority`` queue discipline reads.  The
mapping is the one table both layers use: the service's QoS classes
(:mod:`repro.service.qos`) take their priorities from
:data:`QOS_PRIORITY`.

The generators in this module produce *shaped* arrival processes the
memoryless synthetic streams cannot express: a diurnal rate curve, a
flash crowd, and a multi-tenant mix with per-tenant QoS — all
deterministic per seed via thinning of a homogeneous Poisson process.
"""

from __future__ import annotations

import json
import math
import random
from typing import Iterable

from .tasks import Task

#: QoS class -> priority (the service's QoS classes read it too).
QOS_PRIORITY = {"best-effort": 0, "silver": 1, "gold": 2}


def qos_of_priority(priority: int) -> str:
    """QoS class name for a priority (inverse of :data:`QOS_PRIORITY`,
    saturating: any priority >= 2 is ``gold``, <= 0 ``best-effort``)."""
    if priority <= 0:
        return "best-effort"
    if priority == 1:
        return "silver"
    return "gold"


def format_trace(tasks: Iterable[Task]) -> str:
    """Serialize tasks to NDJSON trace text (arrival order preserved)."""
    lines = []
    for task in tasks:
        lines.append(json.dumps({
            "at": task.arrival,
            "tenant": task.tenant,
            "qos": qos_of_priority(task.priority),
            "height": task.height,
            "width": task.width,
            "duration": task.exec_seconds,
            "max_wait": task.max_wait,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> list[Task]:
    """Parse NDJSON trace text into tasks (ids assigned in file order).

    Unknown QoS names and malformed shapes raise ``ValueError`` with
    the offending line number, so a bad trace fails loudly before the
    simulation starts.
    """
    tasks: list[Task] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: invalid JSON "
                             f"({exc})") from None
        qos = row.get("qos", "best-effort")
        if qos not in QOS_PRIORITY:
            raise ValueError(
                f"trace line {lineno}: unknown qos {qos!r} "
                f"(choose from {', '.join(QOS_PRIORITY)})"
            )
        height, width = int(row["height"]), int(row["width"])
        if height < 1 or width < 1:
            raise ValueError(f"trace line {lineno}: non-positive shape")
        at = float(row["at"])
        duration = float(row["duration"])
        if at < 0 or duration < 0:
            raise ValueError(f"trace line {lineno}: negative time")
        max_wait = row.get("max_wait")
        tasks.append(Task(
            task_id=len(tasks) + 1,
            height=height,
            width=width,
            exec_seconds=duration,
            arrival=at,
            max_wait=float(max_wait) if max_wait is not None else None,
            priority=QOS_PRIORITY[qos],
            tenant=str(row.get("tenant", "")),
        ))
    return tasks


def write_trace(path, tasks: Iterable[Task]) -> None:
    """Write tasks to an NDJSON trace file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_trace(tasks))


def read_trace(path) -> list[Task]:
    """Load an NDJSON trace file into tasks."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_trace(handle.read())


def _thinned_arrivals(rng: random.Random, n: int, rate_max: float,
                      rate_at) -> list[float]:
    """``n`` arrival instants of a nonhomogeneous Poisson process.

    Classic thinning: candidate arrivals are drawn at the envelope
    rate ``rate_max`` and each kept with probability
    ``rate_at(t) / rate_max`` — exact for any bounded rate curve, and
    deterministic per ``rng``.
    """
    arrivals: list[float] = []
    now = 0.0
    while len(arrivals) < n:
        now += rng.expovariate(rate_max)
        if rng.random() * rate_max <= rate_at(now):
            arrivals.append(now)
    return arrivals


def diurnal_tasks(
    n: int,
    seed: int = 0,
    period: float = 8.0,
    base_rate: float = 4.0,
    peak_rate: float = 20.0,
    size_range: tuple[int, int] = (3, 10),
    exec_range: tuple[float, float] = (0.2, 1.2),
    max_wait: float | None = 1.5,
    priority_levels: int = 1,
) -> list[Task]:
    """A day/night arrival curve: rate swings ``base_rate`` ->
    ``peak_rate`` -> ``base_rate`` sinusoidally with ``period``.

    The defrag and admission policies see alternating quiet windows
    (consolidation is cheap) and rush hours (space is contended) in
    one run — neither the uniform nor the bursty generator produces
    that regime.  Deterministic per seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if base_rate <= 0 or peak_rate < base_rate:
        raise ValueError("need 0 < base_rate <= peak_rate")
    rng = random.Random(seed)

    def rate_at(t: float) -> float:
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / period))
        return base_rate + (peak_rate - base_rate) * swing

    lo, hi = size_range
    tasks = []
    for i, at in enumerate(_thinned_arrivals(rng, n, peak_rate, rate_at)):
        tasks.append(Task(
            task_id=i + 1,
            height=rng.randint(lo, hi),
            width=rng.randint(lo, hi),
            exec_seconds=rng.uniform(*exec_range),
            arrival=at,
            max_wait=max_wait,
            priority=(rng.randrange(priority_levels)
                      if priority_levels > 1 else 0),
        ))
    return tasks


def flash_crowd_tasks(
    n: int,
    seed: int = 0,
    base_rate: float = 4.0,
    flash_at: float = 2.0,
    flash_duration: float = 1.0,
    flash_factor: float = 8.0,
    size_range: tuple[int, int] = (3, 10),
    exec_range: tuple[float, float] = (0.2, 1.2),
    max_wait: float | None = 1.5,
    priority_levels: int = 1,
) -> list[Task]:
    """A steady stream with one flash crowd: for ``flash_duration``
    seconds starting at ``flash_at`` the arrival rate multiplies by
    ``flash_factor``.

    The sharpest admission stress short of simultaneous arrivals —
    and the natural backdrop for fault injection (kill a member *inside*
    the flash window and watch the failover absorb both).
    Deterministic per seed.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if base_rate <= 0 or flash_factor < 1 or flash_duration < 0:
        raise ValueError("invalid flash-crowd parameters")
    rng = random.Random(seed)

    def rate_at(t: float) -> float:
        if flash_at <= t < flash_at + flash_duration:
            return base_rate * flash_factor
        return base_rate

    lo, hi = size_range
    tasks = []
    for i, at in enumerate(_thinned_arrivals(
            rng, n, base_rate * flash_factor, rate_at)):
        tasks.append(Task(
            task_id=i + 1,
            height=rng.randint(lo, hi),
            width=rng.randint(lo, hi),
            exec_seconds=rng.uniform(*exec_range),
            arrival=at,
            max_wait=max_wait,
            priority=(rng.randrange(priority_levels)
                      if priority_levels > 1 else 0),
        ))
    return tasks


def multi_tenant_tasks(
    n: int,
    seed: int = 0,
    tenants: int = 3,
    mean_interarrival: float = 0.1,
    size_range: tuple[int, int] = (3, 10),
    exec_range: tuple[float, float] = (0.4, 1.4),
    max_wait: float | None = 1.5,
    priority_levels: int = 1,
) -> list[Task]:
    """A shared-fabric mix of ``tenants`` tenants with skewed demand.

    Tenant ``t-0`` submits the most (Zipf-like weights 1/1, 1/2, 1/3,
    ...) and holds the highest QoS class; later tenants submit less and
    queue at lower priority — so the per-tenant fairness index
    (:attr:`~repro.sched.kernel.ScheduleMetrics.tenant_fairness`)
    actually has something to measure, under faults and without.
    ``priority_levels`` is accepted for registry-adapter uniformity but
    unused: each tenant's QoS class is derived from its rank.
    Deterministic per seed.
    """
    del priority_levels
    if n < 0:
        raise ValueError("n must be non-negative")
    if tenants < 1:
        raise ValueError("tenants must be positive")
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(tenants)]
    lo, hi = size_range
    tasks = []
    now = 0.0
    for i in range(n):
        now += rng.expovariate(1.0 / mean_interarrival)
        rank = rng.choices(range(tenants), weights=weights)[0]
        tasks.append(Task(
            task_id=i + 1,
            height=rng.randint(lo, hi),
            width=rng.randint(lo, hi),
            exec_seconds=rng.uniform(*exec_range),
            arrival=now,
            max_wait=max_wait,
            priority=max(0, 2 - rank),
            tenant=f"t-{rank}",
        ))
    return tasks
