"""Integration tests for the on-line schedulers."""

import pytest

from repro.device.fabric import Fabric
from repro.device.devices import device
from repro.core.cost import CostModel
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.sched.scheduler import (
    ApplicationFlowScheduler,
    OnlineTaskScheduler,
)
from repro.sched.tasks import ApplicationSpec, FunctionSpec, Task, TaskState
from repro.sched.workload import (
    fig1_applications,
    make_workload,
    random_tasks,
)
from repro.stack import build_fleet


def make_manager(policy=RearrangePolicy.CONCURRENT, port="selectmap"):
    dev = device("XCV200")
    return LogicSpaceManager(
        Fabric(dev), cost_model=CostModel(dev, port_kind=port), policy=policy
    )


class TestOnlineTaskScheduler:
    def test_all_tasks_finish_under_light_load(self):
        sched = OnlineTaskScheduler(make_manager())
        tasks = random_tasks(20, seed=1, mean_interarrival=5.0,
                             size_range=(2, 5), exec_range=(0.5, 1.0))
        metrics = sched.run(tasks)
        assert metrics.finished == 20
        assert all(t.state is TaskState.FINISHED for t in tasks)

    def test_fifo_order_preserved_for_queued(self):
        mgr = make_manager(policy=RearrangePolicy.NONE)
        sched = OnlineTaskScheduler(mgr)
        # Two device-filling tasks arriving together: strict FIFO.
        tasks = [
            Task(1, 28, 42, 1.0, arrival=0.0),
            Task(2, 28, 42, 1.0, arrival=0.0),
        ]
        sched.run(tasks)
        assert tasks[0].started_at < tasks[1].started_at

    def test_waiting_time_measured(self):
        mgr = make_manager(policy=RearrangePolicy.NONE)
        sched = OnlineTaskScheduler(mgr)
        tasks = [
            Task(1, 28, 42, 2.0, arrival=0.0),
            Task(2, 4, 4, 1.0, arrival=0.5),
        ]
        metrics = sched.run(tasks)
        assert metrics.finished == 2
        # Task 2 had to wait for the device-filling task 1.
        assert tasks[2 - 1].waiting_seconds > 1.0

    def test_port_serialisation(self):
        sched = OnlineTaskScheduler(make_manager())
        tasks = [Task(i, 4, 4, 1.0, arrival=0.0) for i in range(1, 5)]
        metrics = sched.run(tasks)
        starts = sorted(t.started_at for t in tasks)
        # Configuration is serial: no two tasks start at the same instant.
        assert len(set(starts)) == len(starts)
        assert metrics.port_busy_seconds > 0

    def test_halt_policy_extends_moved_tasks(self):
        mgr = make_manager(policy=RearrangePolicy.HALT, port="boundary-scan")
        sched = OnlineTaskScheduler(mgr)
        tasks = [
            Task(1, 28, 14, 30.0, arrival=0.0),
            Task(2, 28, 14, 30.0, arrival=0.0),
            Task(3, 28, 14, 30.0, arrival=0.0),
            # Arrives when three pillars may be fragmented after one exits.
            Task(4, 28, 20, 5.0, arrival=31.0),
        ]
        metrics = sched.run(tasks)
        assert metrics.finished == 4
        if metrics.rearrangements:
            assert metrics.halted_seconds > 0

    def test_concurrent_policy_never_halts(self):
        mgr = make_manager(policy=RearrangePolicy.CONCURRENT)
        sched = OnlineTaskScheduler(mgr)
        metrics = sched.run(
            random_tasks(30, seed=5, mean_interarrival=1.0,
                         size_range=(4, 12), exec_range=(10, 30))
        )
        assert metrics.halted_seconds == 0.0

    def test_fragmentation_sampled(self):
        sched = OnlineTaskScheduler(make_manager())
        metrics = sched.run(random_tasks(10, seed=2))
        assert metrics.sample_count > 0
        assert 0.0 <= metrics.latest_sample[0] <= 1.0
        assert 0.0 <= metrics.mean_fragmentation <= 1.0


class TestApplicationFlowScheduler:
    def test_single_app_runs_to_completion(self):
        app = ApplicationSpec(
            "A", [FunctionSpec("A1", 4, 4, 0.5), FunctionSpec("A2", 4, 4, 0.5)]
        )
        runs = ApplicationFlowScheduler(make_manager()).run([app])
        assert runs[0].finished_at is not None
        assert len(runs[0].runs) == 2

    def test_prefetch_hides_reconfiguration(self):
        # With prefetch and free space, the successor is configured while
        # the current function runs: stall ~ 0 beyond the first config.
        app = ApplicationSpec(
            "A",
            [FunctionSpec(f"A{i}", 4, 4, 0.5) for i in range(1, 4)],
        )
        runs = ApplicationFlowScheduler(make_manager(), prefetch=True).run([app])
        record = runs[0]
        assert record.stall_seconds < 0.01
        assert all(r.prefetched for r in record.runs[1:])

    def test_no_prefetch_pays_reconfiguration(self):
        app = ApplicationSpec(
            "A",
            [FunctionSpec(f"A{i}", 10, 10, 0.5) for i in range(1, 4)],
        )
        fast = ApplicationFlowScheduler(make_manager(), prefetch=True).run(
            [app]
        )[0]
        slow = ApplicationFlowScheduler(make_manager(), prefetch=False).run(
            [app]
        )[0]
        assert slow.makespan > fast.makespan

    def test_fig1_scenario_all_apps_finish(self):
        apps = fig1_applications(device("XCV200"))
        runs = ApplicationFlowScheduler(make_manager()).run(apps)
        assert all(r.finished_at is not None for r in runs)

    def test_parallelism_induces_stalls(self):
        # Fig. 1's point: more applications sharing the device retard the
        # advance reconfiguration of incoming functions.
        dev = device("XCV200")
        solo = ApplicationFlowScheduler(make_manager()).run(
            fig1_applications(dev)[:1]
        )
        full = ApplicationFlowScheduler(make_manager()).run(
            fig1_applications(dev)
        )
        stall_solo = solo[0].stall_seconds
        stall_full = next(r for r in full if r.spec.name == "A").stall_seconds
        assert stall_full >= stall_solo


def rect_checks(workload: str, seed: int, defrag: str,
                fleet_size: int) -> list[bool]:
    """Run one application workload on XC2S15 fabrics under concurrent
    relocation and compare, each time a function starts and each time
    it finishes, its recorded ``rect`` with its owner's footprint in the
    fleet.  Returns one verdict per comparison."""
    fleet = build_fleet("XC2S15", fleet_size, rearrange="concurrent",
                        fit="first", defrag=defrag,
                        device_policy="first-fit")
    scheduler = ApplicationFlowScheduler(fleet)
    kernel = scheduler.kernel
    checks: list[bool] = []
    start_running = kernel.start_running
    finish_running = kernel.finish_running

    def footprint(owner):
        rects = [member.fabric.footprint(owner) for member in fleet.members]
        return next(rect for rect in rects if rect is not None)

    def checked_start(owner, finish_time, on_finish, item):
        checks.append(item.rect == footprint(owner))
        start_running(owner, finish_time, on_finish, item)

    def checked_finish(owner):
        checks.append(kernel.running[owner].item.rect == footprint(owner))
        finish_running(owner)

    kernel.start_running = checked_start
    kernel.finish_running = checked_finish
    scheduler.run(make_workload(workload, fleet.fabric.device, seed))
    return checks


@pytest.mark.parametrize("defrag", ["on-failure", "idle"])
def test_function_rect_follows_rearrangements(defrag):
    """A function configured ahead of its start is moved like any other
    resident: its recorded ``rect`` is where it really sits when it
    starts and when it finishes, on Fig. 1 and codec-swap chains over
    one and two fabrics."""
    checks = [check for workload in ("fig1", "codec-swap")
              for seed in range(4) for fleet_size in (1, 2)
              for check in rect_checks(workload, seed, defrag, fleet_size)]
    assert len(checks) > 200
    assert checks.count(False) == 0


class TestQueueTimeouts:
    def test_impatient_task_rejected(self):
        mgr = make_manager(policy=RearrangePolicy.NONE)
        sched = OnlineTaskScheduler(mgr)
        tasks = [
            Task(1, 28, 42, 10.0, arrival=0.0),
            Task(2, 28, 42, 1.0, arrival=0.0, max_wait=2.0),
        ]
        metrics = sched.run(tasks)
        assert metrics.finished == 1
        assert metrics.rejected == 1
        assert tasks[1].state is TaskState.REJECTED

    def test_patient_task_not_rejected(self):
        mgr = make_manager(policy=RearrangePolicy.NONE)
        sched = OnlineTaskScheduler(mgr)
        tasks = [
            Task(1, 28, 42, 1.0, arrival=0.0),
            Task(2, 28, 42, 1.0, arrival=0.0, max_wait=30.0),
        ]
        metrics = sched.run(tasks)
        assert metrics.finished == 2
        assert metrics.rejected == 0

    def test_timeout_unblocks_queue(self):
        # A huge impatient task at the head must not starve a small
        # patient task behind it forever.
        mgr = make_manager(policy=RearrangePolicy.NONE)
        sched = OnlineTaskScheduler(mgr)
        tasks = [
            Task(1, 28, 30, 20.0, arrival=0.0),
            Task(2, 28, 42, 1.0, arrival=0.1, max_wait=1.0),  # can't fit
            Task(3, 4, 4, 1.0, arrival=0.2),
        ]
        metrics = sched.run(tasks)
        assert tasks[1].state is TaskState.REJECTED
        assert tasks[2].state is TaskState.FINISHED
        # Task 3 started long before task 1 finished (it fit beside it
        # once the impatient giant gave up).
        assert tasks[2].started_at < 5.0

    def test_allocation_rate_improves_with_rearrangement(self):
        # Diessel-style metric: share of impatient tasks allocated.
        results = {}
        for policy in (RearrangePolicy.NONE, RearrangePolicy.CONCURRENT):
            mgr = make_manager(policy=policy)
            sched = OnlineTaskScheduler(mgr)
            metrics = sched.run(
                random_tasks(60, seed=9, mean_interarrival=1.5,
                             size_range=(4, 12), exec_range=(20, 60),
                             max_wait=10.0)
            )
            results[policy] = metrics.finished
        assert results[RearrangePolicy.CONCURRENT] >= results[
            RearrangePolicy.NONE
        ]
