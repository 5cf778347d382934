"""Scenario execution: one uniform entry point, serial or parallel.

:func:`run_scenario` is the single API behind which both schedulers
(:class:`~repro.sched.scheduler.OnlineTaskScheduler` and
:class:`~repro.sched.scheduler.ApplicationFlowScheduler`) sit: it builds
the device, fabric, cost model and manager from a
:class:`~repro.campaign.spec.ScenarioSpec`, generates the seeded
workload, runs the simulation and folds the outcome into a flat,
picklable :class:`ScenarioResult`.

:func:`run_campaign` maps that function over a grid — in-process when
``jobs <= 1``, over a ``multiprocessing`` pool otherwise.  Scenario
execution is a pure function of the spec (all randomness flows from the
per-run seed), so the parallel result list is identical, entry by entry,
to the serial one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro.fleet.manager import FleetManager
from repro.sched.scheduler import (
    ApplicationFlowScheduler,
    OnlineTaskScheduler,
    ScheduleMetrics,
)
from repro.faults import make_fault_plan
from repro.sched.workload import get_workload, make_workload
from repro.stack import build_fleet

from .spec import ScenarioSpec


@dataclass
class ScenarioResult:
    """Flat, typed record of one scenario run.

    Everything :mod:`repro.analysis` and the aggregator consume is a
    scalar here; ``wall_seconds`` is measurement noise and is excluded
    from equality so determinism checks compare science, not clocks.
    """

    spec: ScenarioSpec
    finished: int = 0
    rejected: int = 0
    mean_waiting: float = 0.0
    mean_turnaround: float = 0.0
    halted_seconds: float = 0.0
    port_busy_seconds: float = 0.0
    makespan: float = 0.0
    rearrangements: int = 0
    moves: int = 0
    proactive_defrags: int = 0
    defrag_moves: int = 0
    defrag_port_seconds: float = 0.0
    mean_fragmentation: float = 0.0
    mean_utilization: float = 0.0
    stall_seconds: float = 0.0
    prefetched_fraction: float = 0.0
    config_stall_seconds: float = 0.0
    prefetch_hits: int = 0
    prefetch_loads: int = 0
    cache_evictions: int = 0
    faults_injected: int = 0
    members_lost: int = 0
    relocated: int = 0
    restarted: int = 0
    dropped: int = 0
    recovery_seconds: float = 0.0
    port_retry_seconds: float = 0.0
    tenant_fairness: float = 1.0
    wall_seconds: float = field(default=0.0, compare=False)

    #: result columns exported to CSV/JSON (order fixed for stability).
    METRIC_FIELDS = (
        "finished", "rejected", "mean_waiting", "mean_turnaround",
        "halted_seconds", "port_busy_seconds", "makespan",
        "rearrangements", "moves", "proactive_defrags", "defrag_moves",
        "defrag_port_seconds", "mean_fragmentation",
        "mean_utilization", "stall_seconds", "prefetched_fraction",
        "wall_seconds",
    )

    #: extra columns exported only when the scenario sweeps the
    #: prefetch axis (``spec.prefetch != "never"``); keeping them out
    #: of never-mode rows keeps the committed golden snapshots
    #: bit-identical.
    PREFETCH_METRIC_FIELDS = (
        "config_stall_seconds", "prefetch_hits", "prefetch_loads",
        "cache_evictions",
    )

    #: extra columns exported only when the scenario injects faults
    #: (``spec.faults != "none"``); same sparse-emission contract as
    #: the prefetch columns, for the same golden-stability reason.
    FAULT_METRIC_FIELDS = (
        "faults_injected", "members_lost", "relocated", "restarted",
        "dropped", "recovery_seconds", "port_retry_seconds",
    )

    #: extra columns exported only for tenant-labelled workload
    #: families (``WorkloadSpec.tenanted``): per-tenant fairness.
    TRACE_METRIC_FIELDS = ("tenant_fairness",)

    #: every metric column, in export order.
    ALL_METRIC_FIELDS = (METRIC_FIELDS + PREFETCH_METRIC_FIELDS
                         + FAULT_METRIC_FIELDS + TRACE_METRIC_FIELDS)

    def metric_columns(self) -> tuple[str, ...]:
        """The metric columns this run exports, in export order: every
        :attr:`METRIC_FIELDS` column, the prefetch columns for a
        non-``never`` scenario, the fault columns for a fault-injecting
        one and fairness for a tenant-labelled workload."""
        spec = self.spec
        columns = self.METRIC_FIELDS
        if spec.prefetch != "never":
            columns += self.PREFETCH_METRIC_FIELDS
        if spec.faults != "none":
            columns += self.FAULT_METRIC_FIELDS
        if get_workload(spec.workload).tenanted:
            columns += self.TRACE_METRIC_FIELDS
        return columns

    def to_row(self) -> dict:
        """One flat dict: spec axes first (see
        :meth:`~repro.campaign.spec.ScenarioSpec.to_dict`), then the
        :meth:`metric_columns`."""
        row = self.spec.to_dict()
        row.pop("workload_params")
        for name in self.metric_columns():
            row[name] = getattr(self, name)
        return row


#: ScenarioResult metrics whose ScheduleMetrics field has another name.
_METRIC_SOURCES = {"relocated": "relocated_tasks",
                   "restarted": "restarted_tasks",
                   "dropped": "dropped_tasks"}


def _from_metrics(spec: ScenarioSpec, metrics: ScheduleMetrics,
                  wall_seconds: float) -> ScenarioResult:
    """Fold a scheduler's ScheduleMetrics into a ScenarioResult, field
    by field."""
    return ScenarioResult(spec=spec, wall_seconds=wall_seconds, **{
        name: getattr(metrics, _METRIC_SOURCES.get(name, name))
        for name in ScenarioResult.ALL_METRIC_FIELDS
        if name != "wall_seconds"
    })


def build_manager(spec: ScenarioSpec) -> FleetManager:
    """The fleet of logic-space managers a spec describes (see
    :func:`repro.stack.build_fleet`)."""
    return build_fleet(
        spec.device, spec.fleet_size, spec.fleet_devices,
        rearrange=spec.policy, fit=spec.fit, defrag=spec.defrag,
        device_policy=spec.device_policy, free_space=spec.free_space,
        port_kind=spec.port_kind,
    )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one scenario end to end; pure in the spec.

    Dispatches on the workload family's kind: independent-task streams
    run under :class:`OnlineTaskScheduler`, application chains under
    the prefetching :class:`ApplicationFlowScheduler`; both receive the
    spec's queue discipline and reconfiguration-port model (one port
    per fleet member).
    """
    started = time.perf_counter()
    manager = build_manager(spec)
    dev = manager.fabric.device
    payload = make_workload(spec.workload, dev, spec.seed, **spec.params())
    if spec.scheduler_kind == "tasks":
        scheduler = OnlineTaskScheduler(
            manager, queue=spec.queue, ports=spec.ports,
            prefetch_mode=spec.prefetch,
        )
        if spec.faults != "none":
            make_fault_plan(
                spec.faults, dev, spec.fleet_size, spec.seed
            ).install(scheduler)
        metrics = scheduler.run(payload)
    else:
        scheduler = ApplicationFlowScheduler(
            manager, queue=spec.queue, ports=spec.ports,
            prefetch_mode=spec.prefetch,
        )
        scheduler.run(payload)
        metrics = scheduler.metrics
    return _from_metrics(spec, metrics, time.perf_counter() - started)


def default_jobs() -> int:
    """Worker count used when the caller does not pin one."""
    return max(1, min(8, os.cpu_count() or 1))


def run_campaign(
    specs: list[ScenarioSpec],
    jobs: int | None = None,
) -> list[ScenarioResult]:
    """Run every scenario; results align index-for-index with ``specs``.

    ``jobs`` <= 1 runs in-process; otherwise a ``multiprocessing`` pool
    of that many workers executes scenarios concurrently.  Because
    :func:`run_scenario` is deterministic per spec, the two modes return
    equal results (up to the compare-excluded wall clock).
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(specs) <= 1:
        return [run_scenario(spec) for spec in specs]
    with multiprocessing.Pool(processes=min(jobs, len(specs))) as pool:
        return pool.map(run_scenario, specs)
