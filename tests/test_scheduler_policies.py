"""Scheduler behaviour under the pluggable queue/port policies.

Covers the strategy layers over the scheduling kernel: admission order
per queue discipline, the ``max_wait`` timeout interaction with each
discipline (a backfilled or priority-bumped task must neutralise its
pending timeout), the timeout-atomicity regression, the port models'
end-to-end effect, and the stall-accounting fix for application runs.
"""

import pytest

from repro.core.cost import CostModel
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.sched.queues import QUEUE_NAMES, BackfillDiscipline
from repro.sched.scheduler import (
    ApplicationFlowScheduler,
    OnlineTaskScheduler,
)
from repro.sched.tasks import (
    ApplicationSpec,
    FunctionSpec,
    Task,
    TaskState,
)
from repro.sched.workload import random_tasks


def make_manager(policy=RearrangePolicy.NONE, dev_name="XC2S15",
                 port="selectmap"):
    dev = device(dev_name)
    return LogicSpaceManager(
        Fabric(dev), cost_model=CostModel(dev, port_kind=port), policy=policy
    )


def blocked_head_stream():
    """XC2S15 is 8x12: a long 8x10 blocker leaves an 8x2 strip free, an
    8x12 head request cannot fit until the blocker leaves at t = 10,
    and a 2x2 follower fits in the strip immediately."""
    return [
        Task(1, 8, 10, 10.0, arrival=0.0),
        Task(2, 8, 12, 1.0, arrival=1.0),
        Task(3, 2, 2, 1.0, arrival=2.0),
    ]


class TestQueueDisciplineOrdering:
    def test_priority_jumps_the_fifo_order(self):
        low = Task(2, 8, 12, 1.0, arrival=1.0, priority=0)
        high = Task(3, 8, 12, 1.0, arrival=1.5, priority=5)
        blocker = Task(1, 8, 12, 10.0, arrival=0.0)

        fifo = OnlineTaskScheduler(make_manager(), queue="fifo")
        fifo.run([blocker, low, high])
        assert low.started_at < high.started_at

        low2 = Task(2, 8, 12, 1.0, arrival=1.0, priority=0)
        high2 = Task(3, 8, 12, 1.0, arrival=1.5, priority=5)
        blocker2 = Task(1, 8, 12, 10.0, arrival=0.0)
        prio = OnlineTaskScheduler(make_manager(), queue="priority")
        prio.run([blocker2, low2, high2])
        assert high2.started_at < low2.started_at
        assert prio.metrics.finished == 3

    def test_sjf_admits_the_smallest_first(self):
        blocker = Task(1, 8, 12, 10.0, arrival=0.0)
        big = Task(2, 8, 12, 1.0, arrival=1.0)
        small = Task(3, 2, 2, 1.0, arrival=2.0)
        sched = OnlineTaskScheduler(make_manager(), queue="sjf")
        sched.run([blocker, big, small])
        assert small.started_at < big.started_at
        assert sched.metrics.finished == 3

    def test_backfill_lets_a_small_task_jump_a_blocked_head(self):
        fifo_tasks = blocked_head_stream()
        OnlineTaskScheduler(make_manager(), queue="fifo").run(fifo_tasks)
        # Strict FIFO: the small task is stuck behind the infeasible head.
        assert fifo_tasks[2].started_at > 9.0

        bf_tasks = blocked_head_stream()
        sched = OnlineTaskScheduler(make_manager(), queue="backfill")
        sched.run(bf_tasks)
        # Backfill: the 2x2 task takes the free strip right away.
        assert bf_tasks[2].started_at < 3.0
        assert sched.metrics.finished == 3

    def test_backfill_age_guard_protects_a_starving_head(self):
        tasks = blocked_head_stream()
        tasks[2].arrival = 8.0  # head has waited 7 s by then
        sched = OnlineTaskScheduler(
            make_manager(), queue=BackfillDiscipline(max_age=5.0)
        )
        sched.run(tasks)
        # Over-age head: strict FIFO again, no jumping.
        assert tasks[2].started_at > 9.0

    def test_fifo_remains_the_default(self):
        sched = OnlineTaskScheduler(make_manager())
        assert sched.kernel.queue.name == "fifo"
        assert sched.kernel.port.name == "serial"

    @pytest.mark.parametrize("queue", QUEUE_NAMES)
    def test_every_discipline_finishes_a_light_stream(self, queue):
        tasks = random_tasks(15, seed=3, mean_interarrival=5.0,
                             size_range=(2, 5), exec_range=(0.3, 0.8),
                             priority_levels=3)
        metrics = OnlineTaskScheduler(
            make_manager(RearrangePolicy.CONCURRENT), queue=queue
        ).run(tasks)
        assert metrics.finished == 15

    @pytest.mark.parametrize("queue", QUEUE_NAMES)
    def test_disciplines_are_deterministic(self, queue):
        def once():
            tasks = random_tasks(25, seed=11, mean_interarrival=0.4,
                                 size_range=(2, 7), exec_range=(0.5, 3.0),
                                 max_wait=4.0, priority_levels=3)
            return OnlineTaskScheduler(
                make_manager(RearrangePolicy.CONCURRENT), queue=queue
            ).run(tasks)
        assert once() == once()


class TestTimeoutInteraction:
    """Satellite: ``max_wait`` must compose with every discipline."""

    def test_timeout_atomicity_regression(self):
        """State change and rejection counter are one atomic step: even
        a task the queue has never seen (the historical
        ``deque.remove`` ValueError path returned early here, leaving a
        REJECTED task uncounted) is counted exactly once."""
        sched = OnlineTaskScheduler(make_manager())
        ghost = Task(99, 4, 4, 1.0, arrival=0.0, max_wait=1.0)
        ghost.state = TaskState.QUEUED  # queued, but never enqueued
        sched._on_timeout(ghost, ghost.queue_round)
        assert ghost.state is TaskState.REJECTED
        assert sched.metrics.rejected == 1
        # A second firing must not double-count.
        sched._on_timeout(ghost, ghost.queue_round)
        assert sched.metrics.rejected == 1

    @pytest.mark.parametrize("queue", QUEUE_NAMES)
    def test_impatient_task_rejected_under_every_discipline(self, queue):
        tasks = [
            Task(1, 8, 12, 10.0, arrival=0.0),
            Task(2, 8, 12, 1.0, arrival=0.0, max_wait=2.0),
        ]
        metrics = OnlineTaskScheduler(make_manager(), queue=queue).run(tasks)
        assert metrics.finished == 1
        assert metrics.rejected == 1
        assert tasks[1].state is TaskState.REJECTED

    def test_backfilled_task_neutralises_its_timeout(self):
        """A task placed by backfilling before its patience ran out must
        not be rejected when the stale timeout event fires."""
        tasks = blocked_head_stream()
        tasks[2].max_wait = 3.0  # fires at t = 5, after backfill at ~2
        metrics = OnlineTaskScheduler(
            make_manager(), queue="backfill"
        ).run(tasks)
        assert tasks[2].state is TaskState.FINISHED
        assert metrics.rejected == 0
        assert metrics.finished == 3

    def test_priority_bumped_task_neutralises_its_timeout(self):
        blocker = Task(1, 8, 12, 4.0, arrival=0.0)
        low = Task(2, 8, 12, 1.0, arrival=1.0, priority=0)
        high = Task(3, 8, 12, 1.0, arrival=2.0, priority=9, max_wait=3.0)
        metrics = OnlineTaskScheduler(
            make_manager(), queue="priority"
        ).run([blocker, low, high])
        # The bump places `high` at t = 4, before its t = 5 timeout.
        assert high.state is TaskState.FINISHED
        assert metrics.rejected == 0

    def test_timed_out_head_unblocks_backfill_queue(self):
        """A tombstoned head must disappear from the scan: the next
        live task becomes the head and places immediately."""
        tasks = [
            Task(1, 8, 10, 10.0, arrival=0.0),
            Task(2, 8, 12, 1.0, arrival=1.0, max_wait=2.0),  # dies t = 3
            Task(3, 8, 2, 1.0, arrival=1.5),  # fits the strip
        ]
        metrics = OnlineTaskScheduler(
            make_manager(), queue=BackfillDiscipline(max_age=0.0)
        ).run(tasks)
        # max_age 0 forbids jumping, so task 3 waits for the head to
        # time out, then places into the free strip at t = 3.
        assert tasks[1].state is TaskState.REJECTED
        assert tasks[2].started_at == pytest.approx(3.0, abs=0.5)
        assert metrics.rejected == 1


class TestPortModels:
    def test_multi_port_configures_concurrently(self):
        tasks = [Task(i, 4, 4, 1.0, arrival=0.0) for i in range(1, 5)]
        OnlineTaskScheduler(
            make_manager(dev_name="XCV200", port="boundary-scan"),
            ports="multi-2",
        ).run(tasks)
        starts = sorted(t.started_at for t in tasks)
        # Two lanes: the first two configurations end simultaneously.
        assert starts[0] == starts[1]
        assert starts[2] == starts[3]
        assert starts[2] > starts[0]

    def test_more_ports_never_hurt_makespan(self):
        def run(ports):
            tasks = [Task(i, 4, 4, 1.0, arrival=0.0) for i in range(1, 7)]
            return OnlineTaskScheduler(
                make_manager(dev_name="XCV200", port="boundary-scan"),
                ports=ports,
            ).run(tasks).makespan
        assert run("multi-2") < run("serial")
        assert run("multi-4") <= run("multi-2")

    def test_icap_beats_the_serial_baseline(self):
        def run(ports):
            tasks = [Task(i, 6, 6, 1.0, arrival=0.0) for i in range(1, 5)]
            return OnlineTaskScheduler(
                make_manager(dev_name="XCV200", port="boundary-scan"),
                ports=ports,
            ).run(tasks)
        serial, icap = run("serial"), run("icap")
        assert icap.port_busy_seconds < serial.port_busy_seconds
        assert icap.makespan < serial.makespan

    def test_application_scheduler_accepts_port_models(self):
        app = ApplicationSpec(
            "A", [FunctionSpec(f"A{i}", 6, 6, 0.5) for i in range(1, 4)]
        )
        manager = make_manager(RearrangePolicy.CONCURRENT,
                               dev_name="XCV200", port="boundary-scan")
        runs = ApplicationFlowScheduler(manager, ports="icap").run([app])
        assert runs[0].finished_at is not None


class TestApplicationPriorities:
    def app(self, name, priority=0, exec_seconds=1.0):
        """One full-device-function application on XC2S15."""
        return ApplicationSpec(
            name, [FunctionSpec(f"{name}1", 8, 12, exec_seconds)],
            priority=priority,
        )

    def test_priority_app_wakes_from_stall_first(self):
        apps = [self.app("R"), self.app("L"), self.app("H", priority=5)]

        fifo = ApplicationFlowScheduler(
            make_manager(RearrangePolicy.CONCURRENT), queue="fifo"
        )
        runs = fifo.run([a for a in apps])
        by_name = {r.spec.name: r for r in runs}
        assert (by_name["L"].runs[0].started_at
                < by_name["H"].runs[0].started_at)

        prio = ApplicationFlowScheduler(
            make_manager(RearrangePolicy.CONCURRENT), queue="priority"
        )
        runs = prio.run([self.app("R"), self.app("L"),
                         self.app("H", priority=5)])
        by_name = {r.spec.name: r for r in runs}
        assert (by_name["H"].runs[0].started_at
                < by_name["L"].runs[0].started_at)
        assert prio.metrics.finished == 3

    def test_backfill_coincides_with_fifo_for_applications(self):
        """The stall retry always attempts every stalled application,
        so backfill has no blocked head to jump: documented behaviour,
        pinned here so a silent semantics change is caught."""
        def run(queue):
            apps = [self.app(n) for n in ("A", "B", "C")]
            sched = ApplicationFlowScheduler(
                make_manager(RearrangePolicy.CONCURRENT), queue=queue
            )
            sched.run(apps)
            return sched.metrics
        assert run("backfill") == run("fifo")


class TestStallAccounting:
    """Satellite: stall excludes un-hidden configuration time."""

    def test_solo_unprefetched_app_reports_zero_stall(self):
        """A lone application that simply pays each configuration in
        line suffers no *contention*: its exposed configuration time
        must not masquerade as stall."""
        app = ApplicationSpec(
            "A", [FunctionSpec(f"A{i}", 10, 10, 0.5) for i in range(1, 4)]
        )
        sched = ApplicationFlowScheduler(
            make_manager(RearrangePolicy.CONCURRENT, dev_name="XCV200"),
            prefetch=False,
        )
        sched.run([app])
        assert sched.metrics.makespan > app.total_exec_seconds
        assert sched.metrics.stall_seconds == pytest.approx(0.0, abs=1e-9)

    def test_space_contention_still_counts_as_stall(self):
        """Two full-device apps: the second waits a whole execution for
        space — that wait is genuine stall and must survive the fix."""
        mk = lambda name: ApplicationSpec(
            name, [FunctionSpec(f"{name}1", 8, 12, 1.0)]
        )
        sched = ApplicationFlowScheduler(
            make_manager(RearrangePolicy.CONCURRENT)
        )
        sched.run([mk("A"), mk("B")])
        assert sched.metrics.stall_seconds > 0.9

    def test_prefetched_chain_still_reports_near_zero_stall(self):
        app = ApplicationSpec(
            "A", [FunctionSpec(f"A{i}", 4, 4, 0.5) for i in range(1, 4)]
        )
        sched = ApplicationFlowScheduler(
            make_manager(RearrangePolicy.CONCURRENT, dev_name="XCV200"),
            prefetch=True,
        )
        sched.run([app])
        assert sched.metrics.stall_seconds == pytest.approx(0.0, abs=1e-6)


class TestSeededPolicyMatrix:
    """Issue 6: the full seeded policy grid stays deterministic.

    One scenario per (queue discipline x port model x defrag policy x
    fleet size) cell, all on the heavy-tail stream, whose long-lived
    anchor tasks force both reactive rearrangement (the batched
    admission probes and the eviction planner) and proactive defrag.
    Two guarantees, both load-bearing for the hot-path refactor:

    * **serial == parallel** — the campaign runner returns identical
      results in-process and over a worker pool, so nothing in the
      admission path (fit cache, planner memo, batched screens) leaks
      cross-scenario state through module globals;
    * **run-to-run identical** — repeating the whole grid in the same
      process reproduces every metric bit-for-bit, so the caches are
      invisible even when instances are reused generation after
      generation.

    ``wall_seconds`` is compare-excluded on ``ScenarioResult``; every
    other metric participates in ``==``.
    """

    @staticmethod
    def _matrix():
        from repro.campaign.spec import ScenarioSpec
        from repro.core.defrag_policy import DEFRAG_POLICY_NAMES
        from repro.sched.ports import PORT_MODEL_NAMES

        return [
            ScenarioSpec(
                device="XC2S15", policy="concurrent",
                workload="heavy-tail", seed=9,
                defrag=defrag, queue=queue, ports=ports,
                fleet_size=fleet,
                workload_params=(("n", 20), ("priority_levels", 3)),
            )
            for queue in QUEUE_NAMES
            for ports in PORT_MODEL_NAMES
            for defrag in DEFRAG_POLICY_NAMES
            for fleet in (1, 2)
        ]

    def test_serial_equals_parallel_and_run_to_run(self):
        from repro.campaign.runner import run_campaign

        specs = self._matrix()
        serial = run_campaign(specs, jobs=1)
        again = run_campaign(specs, jobs=1)
        parallel = run_campaign(specs, jobs=2)
        assert serial == again, "grid is not reproducible in-process"
        assert serial == parallel, "worker pool changed the science"
        # The grid must actually exercise the interesting machinery:
        # some cell rearranges, some cell defrags proactively, and the
        # two fleet sizes disagree somewhere.
        assert any(r.rearrangements > 0 for r in serial)
        assert any(r.proactive_defrags > 0 for r in serial)
        by_fleet = {}
        for spec, result in zip(specs, serial):
            key = (spec.queue, spec.ports, spec.defrag)
            by_fleet.setdefault(key, {})[spec.fleet_size] = result
        assert any(
            cell[1].finished != cell[2].finished
            or cell[1].rejected != cell[2].rejected
            or cell[1].makespan != cell[2].makespan
            for cell in by_fleet.values()
        )
