"""Fault injection never costs determinism — the battery's hard core.

Two claims:

* the fault-axis campaign grid is **execution-mode invariant**: the
  same 32 scenarios produce equal :class:`ScenarioResult` rows run
  serially, run through the multiprocessing pool, and run a second
  time (fault plans are seeded and the kernel's fault recovery runs
  on the simulation timeline, so nothing leaks from the host);
* **task conservation survives a kill at every event instant**: for
  every moment anything happens in a baseline fleet run, re-running
  the stream with a member death injected exactly then still leaves
  every task in exactly one terminal state — finished, rejected or
  dropped — with the counters agreeing.  This sweep is what surfaced
  the stale-patience-timeout bug pinned in ``tests/test_faults.py``.
"""

from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.faults import FaultEvent
from repro.fleet.manager import FleetManager
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.tasks import TaskState
from repro.sched.workload import fleet_surge_tasks

TERMINAL = (TaskState.FINISHED, TaskState.REJECTED, TaskState.DROPPED)

#: 2 devices x 2 policies x 2 seeds x 4 fault plans = 32 scenarios,
#: every one on a 2-member fleet so ``kill-member`` is legal.
FAULT_GRID = dict(
    devices=["XC2S15", "XC2S30"],
    policies=["none", "concurrent"],
    workloads=["fleet-surge"],
    seeds=[0, 1],
    fleet_sizes=[2],
    faults=["none", "kill-member", "outbreak", "flaky-port"],
    workload_params={"fleet-surge": {"n": 16}},
)


def test_fault_grid_is_execution_mode_invariant():
    specs = CampaignSpec(**FAULT_GRID).expand()
    assert len(specs) == 32
    serial = run_campaign(specs, jobs=1)
    parallel = run_campaign(specs, jobs=4)
    rerun = run_campaign(specs, jobs=1)
    # ScenarioResult equality excludes the wall clock by design.
    assert serial == parallel
    assert serial == rerun
    # The axis is a genuine knob: at least one fault plan moves the
    # numbers relative to the fault-free baseline on some cell.
    by_plan = {}
    for result in serial:
        by_plan.setdefault(result.spec.faults, []).append(
            (result.finished, result.rejected, result.makespan)
        )
    assert any(by_plan["none"] != by_plan[name]
               for name in ("kill-member", "outbreak", "flaky-port"))
    # Fault metrics stay zero on the fault-free plan (the sparse-column
    # guarantee the committed goldens rely on).
    for result in serial:
        if result.spec.faults == "none":
            assert result.faults_injected == 0
            assert (result.relocated, result.restarted,
                    result.dropped) == (0, 0, 0)
        else:
            assert result.faults_injected >= 1


def surge_fleet(members: int = 4):
    return FleetManager(
        [LogicSpaceManager(Fabric(device("XC2S15")))
         for _ in range(members)],
        policy="first-fit",
    )


def fault_at(scheduler, at: float, kind: str, **fields) -> list[dict]:
    """Schedule one fault on the run's timeline; returns the list its
    summary lands in."""
    out: list[dict] = []
    event = FaultEvent(at=at, kind=kind, **fields)
    scheduler.events.at(
        at, lambda: out.append(scheduler.kernel.faults.apply(event)))
    return out


def baseline_event_instants(tasks) -> list[float]:
    """Every instant at which the fault-free run does anything: task
    arrivals plus each task's configuration and completion times."""
    scheduler = OnlineTaskScheduler(surge_fleet(), queue="fifo")
    scheduler.run(tasks)
    instants = set()
    for task in tasks:
        instants.add(task.arrival)
        if task.configured_at is not None:
            instants.add(task.configured_at)
        if task.finished_at is not None:
            instants.add(task.finished_at)
    return sorted(instants)


def test_kill_at_every_event_instant_conserves_tasks():
    kill_times = baseline_event_instants(fleet_surge_tasks(24, seed=3))
    assert len(kill_times) >= 40  # the sweep is genuinely dense
    for at in kill_times:
        tasks = fleet_surge_tasks(24, seed=3)  # fresh mutable stream
        scheduler = OnlineTaskScheduler(surge_fleet(), queue="fifo")
        fault_at(scheduler, at, "member-death", member=1)
        metrics = scheduler.run(tasks)
        context = f"kill at t={at}"
        assert metrics.members_lost == 1, context
        assert all(task.state in TERMINAL for task in tasks), context
        assert (metrics.finished + metrics.rejected
                + metrics.dropped_tasks) == len(tasks), context
        # Displacement bookkeeping is internally consistent too.
        assert metrics.relocated_tasks >= 0
        assert metrics.dropped_tasks == 0  # homogeneous fleet: never


def test_kill_sweep_is_victim_independent_for_conservation():
    """The same sweep, coarser, over every legal victim: conservation
    does not depend on which member dies."""
    tasks_proto = fleet_surge_tasks(18, seed=7)
    horizon = max(t.arrival for t in tasks_proto) + 2.0
    sample = [i * horizon / 12 for i in range(13)]
    for victim in (1, 2, 3):
        for at in sample:
            tasks = fleet_surge_tasks(18, seed=7)
            scheduler = OnlineTaskScheduler(surge_fleet(), queue="fifo")
            fault_at(scheduler, at, "member-death", member=victim)
            metrics = scheduler.run(tasks)
            assert (metrics.finished + metrics.rejected
                    + metrics.dropped_tasks) == len(tasks), \
                f"victim {victim}, kill at t={at}"
            assert all(task.state in TERMINAL for task in tasks)


def test_repeated_fault_runs_are_bit_identical():
    """One in-process double-run of the heaviest plan: identical
    summaries, metrics and final task states."""
    def run_once():
        tasks = fleet_surge_tasks(20, seed=5)
        scheduler = OnlineTaskScheduler(surge_fleet(), queue="fifo")
        summaries = fault_at(scheduler, 2.0, "member-death", member=2)
        fault_at(scheduler, 2.5, "region-stuck", member=0, height=3,
                 width=3, duration=1.0)
        fault_at(scheduler, 1.0, "port-flaky", member=3)
        metrics = scheduler.run(tasks)
        return (
            summaries,
            [task.state for task in tasks],
            (metrics.finished, metrics.rejected, metrics.dropped_tasks,
             metrics.relocated_tasks, metrics.restarted_tasks,
             metrics.recovery_seconds, metrics.port_retry_seconds,
             metrics.makespan),
        )

    assert run_once() == run_once()
