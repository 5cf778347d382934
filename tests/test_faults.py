"""The fault-injection battery: plans, failover mechanics, service chaos.

What is pinned, layer by layer:

* **plans** (:mod:`repro.faults`): the named factories are seeded and
  deterministic, events validate every field, and each kind is carried
  out by the kernel's fault recovery;
* **failover** (:class:`repro.faults.recovery.FaultRecovery`):
  the relocate -> restart -> drop ladder — relocation keeps progress
  (the paper's own mechanism finds the task a new region), restart
  loses it, drop happens only when no surviving fabric could *ever*
  host the footprint — plus the acceptance scenario: killing 1 of 4
  members mid-surge recovers every displaced task; a stuck-at outbreak
  displaces the tasks on its sites wherever a rearrangement moved them;
* **the queueing-round regression**: the latent bug the kill sweep
  surfaced — a fault-restarted task being rejected by the *stale*
  patience timeout of its first queueing round — stays fixed;
* **service chaos** (:meth:`repro.service.app.ReproService.inject_fault`
  and ``POST /faults``): faults journal their displacements, a
  malformed fault is refused before any state moves, a checkpoint
  cut *mid-outbreak* restores bit-identically (hypothesis sweeps the
  cut instant), and a fault injected right after a restore records
  what the uninterrupted run records.
"""

import pytest
from hypothesis import given, strategies as st

from repro.campaign.replay import service_trace
from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.device.geometry import Rect
from repro.faults import (
    FAULT_OWNER_BASE,
    FAULT_PLAN_NAMES,
    FAULT_PLANS,
    FaultEvent,
    FaultPlan,
    make_fault_plan,
)
from repro.faults.plan import KILL_AT
from repro.fleet.manager import FleetManager
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.tasks import Task, TaskState
from repro.sched.workload import fleet_surge_tasks
from repro.service import ReproService, ServiceConfig, restore, snapshot

from test_service import fragmenting_service_after_a_move
from test_service_api import Client, with_api


def manager_for(name: str) -> LogicSpaceManager:
    return LogicSpaceManager(Fabric(device(name)))


def fleet_of(names: list[str]) -> FleetManager:
    return FleetManager([manager_for(n) for n in names],
                        policy="first-fit")


def single_scheduler(name: str = "XC2S15") -> OnlineTaskScheduler:
    return OnlineTaskScheduler(manager_for(name))


def inject(scheduler, kind: str, **fields) -> dict:
    """Carry one fault out now through the kernel's recovery."""
    return scheduler.kernel.faults.apply(
        FaultEvent(at=scheduler.events.now, kind=kind, **fields))


TERMINAL = (TaskState.FINISHED, TaskState.REJECTED, TaskState.DROPPED)


# -- fault plans ------------------------------------------------------------


def test_plan_registry_vocabulary():
    assert FAULT_PLAN_NAMES == ("none", "kill-member", "outbreak",
                                "flaky-port")
    assert set(FAULT_PLANS) == set(FAULT_PLAN_NAMES)
    with pytest.raises(ValueError, match="unknown fault plan"):
        make_fault_plan("gremlins", device("XC2S15"), 1, 0)


def test_none_plan_is_empty():
    plan = make_fault_plan("none", device("XC2S15"), 4, 7)
    assert plan.name == "none"
    assert len(plan) == 0


def test_kill_member_plan_is_seeded_and_spares_member_zero():
    dev = device("XC2S15")
    with pytest.raises(ValueError, match="at least 2"):
        make_fault_plan("kill-member", dev, 1, 0)
    # A 2-member fleet always loses member 1 (the only non-primary).
    plan = make_fault_plan("kill-member", dev, 2, 0)
    assert plan.events == (
        FaultEvent(at=KILL_AT, kind="member-death", member=1),
    )
    # Larger fleets draw the victim per seed, never member 0, and the
    # same seed always draws the same victim.
    victims = set()
    for seed in range(16):
        plan = make_fault_plan("kill-member", dev, 4, seed)
        assert plan == make_fault_plan("kill-member", dev, 4, seed)
        (event,) = plan.events
        assert event.kind == "member-death"
        assert 1 <= event.member <= 3
        victims.add(event.member)
    assert len(victims) > 1  # the seed axis genuinely varies the victim


def test_outbreak_plan_draws_in_bounds_transient_regions():
    dev = device("XC2S15")
    plan = make_fault_plan("outbreak", dev, 1, 5)
    assert plan == make_fault_plan("outbreak", dev, 1, 5)
    assert [e.at for e in plan.events] == [1.0, 2.5]
    for event in plan.events:
        assert event.kind == "region-stuck"
        assert event.member == 0
        assert event.duration == 1.5
        assert 0 <= event.row and event.row + event.height <= dev.clb_rows
        assert 0 <= event.col and event.col + event.width <= dev.clb_cols


def test_flaky_port_plan_shape():
    plan = make_fault_plan("flaky-port", device("XC2S15"), 1, 0)
    assert [e.at for e in plan.events] == [0.5, 1.5, 2.5, 3.5]
    assert all(e.kind == "port-flaky" and e.member == 0
               and e.retries == 3 and e.backoff == 0.2
               for e in plan.events)


REGION = {"kind": "region-stuck", "height": 2, "width": 2}


@pytest.mark.parametrize("kwargs", [
    {"at": 0.0, "kind": "solar-flare"},
    {"at": -0.1, "kind": "member-death"},
    {"at": 1.0, "kind": "region-stuck", "duration": 0.0},
    {"at": 1.0, "kind": "region-stuck", "duration": -2.0},
    {"at": 1.0, **REGION, "duration": -1.0},
    {"at": 1.0, **REGION, "duration": float("inf")},
    {"at": float("nan"), "kind": "member-death"},
    {"at": 1.0, "kind": "member-death", "member": -1},
    {"at": 1.0, "kind": "member-death", "member": True},
    {"at": 1.0, "kind": "member-death", "member": 1.5},
    {"at": 1.0, **REGION, "row": -1},
    {"at": 1.0, "kind": "region-stuck", "height": 0, "width": 2},
    {"at": 1.0, "kind": "region-stuck", "height": 2},
    {"at": 1.0, "kind": "port-flaky", "retries": -1},
    {"at": 1.0, "kind": "port-flaky", "backoff": -0.1},
    {"at": 1.0, "kind": "port-flaky", "backoff": "0.2"},
])
def test_fault_event_validation(kwargs):
    with pytest.raises(ValueError):
        FaultEvent(**kwargs)


def test_apply_event_dispatches_by_kind():
    """One ``apply`` carries every kind out, each with its summary."""
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S15"] * 3))
    faults = scheduler.kernel.faults
    assert faults.apply(FaultEvent(at=0.0, kind="member-death",
                                   member=2)) == {
        "member": 2, "relocated": [], "restarted": [], "dropped": []}
    assert faults.apply(FaultEvent(at=0.0, kind="region-stuck", member=0,
                                   row=1, col=2, height=3, width=4,
                                   duration=1.5)) == {
        "device": 0, "relocated": [], "restarted": [], "dropped": [],
        "fault": 1}
    assert faults.apply(FaultEvent(at=0.0, kind="port-flaky", member=1,
                                   retries=5, backoff=0.1)) == {
        "member": 1, "retry_seconds": pytest.approx(0.5)}
    assert scheduler.manager.lost == {2}
    assert faults.regions[1]["rect"] == [1, 2, 3, 4]
    assert scheduler.metrics.faults_injected == 3


def test_installed_plan_fires_on_the_scheduler_timeline():
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S15"] * 2))
    make_fault_plan("kill-member", device("XC2S15"), 2, 0).install(scheduler)
    metrics = scheduler.run([Task(1, 3, 3, 1.0, 0.0)])
    assert metrics.members_lost == 1
    assert 1 in scheduler.kernel.manager.lost


# -- failover: relocate / restart / drop ------------------------------------


def kill_at(scheduler, at, member):
    """Schedule a member death; returns the list its summary lands in."""
    out = []
    scheduler.events.at(at, lambda: out.append(
        inject(scheduler, "member-death", member=member)))
    return out


def test_relocation_keeps_progress():
    """A victim with room on a survivor moves there and keeps the work
    it already did: only the re-configuration is paid again."""
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S30", "XC2S30"]))
    tasks = [
        Task(1, 12, 18, 1.0, 0.0),   # fills member 0, finishes at ~1 s
        Task(2, 6, 6, 8.0, 0.0),     # lands on member 1
    ]
    summaries = kill_at(scheduler, 3.0, 1)
    metrics = scheduler.run(tasks)
    assert summaries[0]["relocated"] == [2]
    assert metrics.relocated_tasks == 1
    assert metrics.members_lost == 1
    assert metrics.finished == 2
    assert metrics.recovery_seconds > 0
    # Progress kept: the task needs only its remaining 5 s plus one
    # re-configuration, not a from-scratch 8 s (that would end > 11 s).
    assert 8.0 < metrics.makespan < 8.1


def test_restart_loses_progress():
    """No room anywhere right now, but a survivor is big enough: the
    task re-queues from scratch and waits for space."""
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S30", "XC2S30"]))
    tasks = [
        Task(1, 12, 18, 5.0, 0.0),   # member 0 stays full until ~5 s
        Task(2, 6, 6, 8.0, 0.0),
    ]
    summaries = kill_at(scheduler, 3.0, 1)
    metrics = scheduler.run(tasks)
    assert summaries[0]["restarted"] == [2]
    assert metrics.restarted_tasks == 1
    assert metrics.finished == 2
    # Lost progress: 3 s of work redone after waiting for member 0.
    assert metrics.makespan > 12.0
    assert tasks[1].state is TaskState.FINISHED


def test_drop_only_when_no_survivor_could_ever_fit():
    """A footprint larger than every surviving fabric is dropped —
    current occupancy is irrelevant, dead silicon never comes back."""
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S30", "XC2S15"]))
    tasks = [
        Task(1, 12, 18, 5.0, 0.0),   # only the XC2S30 can host this
        Task(2, 3, 3, 5.0, 0.0),
    ]
    summaries = kill_at(scheduler, 1.0, 0)
    metrics = scheduler.run(tasks)
    assert summaries[0]["dropped"] == [1]
    assert metrics.dropped_tasks == 1
    assert tasks[0].state is TaskState.DROPPED
    assert tasks[1].state is TaskState.FINISHED
    # Conservation holds even through a drop.
    assert metrics.finished + metrics.rejected + metrics.dropped_tasks \
        == len(tasks)


def test_kill_member_validation_and_idempotence():
    with pytest.raises(ValueError, match="requires a fleet"):
        inject(single_scheduler(), "member-death", member=0)
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S15"] * 2))
    with pytest.raises(ValueError, match="no fleet member"):
        inject(scheduler, "member-death", member=5)
    inject(scheduler, "member-death", member=1)
    again = inject(scheduler, "member-death", member=1)
    assert again == {"member": 1, "relocated": [], "restarted": [],
                     "dropped": []}
    assert scheduler.metrics.members_lost == 1  # not double-counted


def test_kill_one_of_four_mid_surge_recovers_all_relocatable_work():
    """ISSUE acceptance: killing 1 of 4 members at the surge peak loses
    the member but not the work — every displaced task is relocated or
    restarted (nothing dropped on a homogeneous fleet) and the stream's
    task accounting stays conservative."""
    tasks = fleet_surge_tasks(60, seed=1)
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S15"] * 4), queue="fifo")
    summaries = kill_at(scheduler, KILL_AT, 1)
    metrics = scheduler.run(tasks)
    summary = summaries[0]
    displaced = (len(summary["relocated"]) + len(summary["restarted"])
                 + len(summary["dropped"]))
    assert displaced >= 1  # the kill genuinely hit running work
    assert summary["dropped"] == []
    assert metrics.relocated_tasks + metrics.restarted_tasks == displaced
    assert metrics.members_lost == 1
    # Task conservation: every task reaches exactly one terminal state.
    assert metrics.finished + metrics.rejected + metrics.dropped_tasks \
        == len(tasks)
    assert all(task.state in TERMINAL for task in tasks)
    # The fleet keeps absorbing the surge on 3 members.
    assert metrics.finished >= 30


def test_stale_patience_timeout_cannot_reject_a_restarted_task():
    """Regression for the latent bug the kill sweep surfaced.

    A task's patience timeout is armed at enqueue and never cancelled
    (cancelling would perturb the event stream the goldens pin).  When
    a fault restarts the task, its patience re-arms at the fault
    instant — but the *original* timeout is still pending, and before
    the round guard it saw ``state == QUEUED`` again and rejected the
    restarted task at ``arrival + max_wait``, ahead of its real
    deadline.

    Timeline here: task 2 (max_wait 4.8) is admitted at t=0 on member
    1, killed at t=0.5, restarted with deadline 0.5 + 4.8 = 5.3; the
    stale timeout fires at 4.8 while member 0 is still full (until
    ~5.01 < 5.3).  Unguarded, task 2 is rejected at 4.8; guarded, it
    is admitted when member 0 frees and finishes.
    """
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S30", "XC2S30"]))
    tasks = [
        Task(1, 12, 18, 5.0, 0.0),
        Task(2, 6, 6, 8.0, 0.0, max_wait=4.8),
    ]
    summaries = kill_at(scheduler, 0.5, 1)
    metrics = scheduler.run(tasks)
    assert summaries[0]["restarted"] == [2]
    assert metrics.rejected == 0
    assert metrics.finished == 2
    assert tasks[1].state is TaskState.FINISHED


# -- region faults + port flakes --------------------------------------------


@pytest.mark.parametrize("build", [
    single_scheduler,
    lambda: OnlineTaskScheduler(fleet_of(["XC2S15"] * 2)),
], ids=["single", "fleet-2"])
def test_region_fault_displaces_and_relocates_on_the_same_member(build):
    scheduler = build()
    task = Task(1, 2, 2, 5.0, 0.0)
    summaries = []
    scheduler.events.at(1.0, lambda: summaries.append(
        inject(scheduler, "region-stuck", member=0, row=0, col=0,
               height=3, width=3, duration=1.5)
    ))
    metrics = scheduler.run([task])
    assert summaries[0]["relocated"] == [1]
    assert metrics.relocated_tasks == 1
    assert metrics.finished == 1
    # The task moved off the bad silicon but stayed on member 0.
    assert (task.rect.row, task.rect.col) != (0, 0)
    # The transient region healed: no active fault regions remain and
    # the fabric is completely free again.
    assert scheduler.kernel.faults.regions == {}
    fabric = scheduler.kernel.manager.members[0].fabric
    assert (fabric.occupancy != 0).sum() == 0
    # Blockers went in through the fleet's adopt and out through its
    # release, so its routing map and load counter are empty again.
    assert scheduler.manager.load(0) == 0.0
    assert scheduler.manager.residents_of(0) == []


def test_permanent_region_fault_blocks_with_fault_owners():
    scheduler = single_scheduler()
    summary = inject(scheduler, "region-stuck", row=2, col=2, height=3,
                     width=4)
    assert summary["fault"] == 1
    record = scheduler.kernel.faults.regions[1]
    assert record["heal_at"] is None
    assert all(owner > FAULT_OWNER_BASE for owner, _ in record["owners"])
    fabric = scheduler.kernel.manager.members[0].fabric
    assert (fabric.occupancy != 0).sum() == 3 * 4
    with pytest.raises(ValueError, match="out of bounds"):
        inject(scheduler, "region-stuck", row=7, col=10, height=4, width=4)
    with pytest.raises(ValueError, match="no device"):
        inject(scheduler, "region-stuck", member=3, height=2, width=2)


def test_stuck_at_fault_displaces_a_moved_task_from_its_current_sites():
    """Victims are the running owners on the faulty sites, wherever a
    rearrangement moved them since placement."""
    service = fragmenting_service_after_a_move()
    fabric = service.manager.members[0].fabric
    assert fabric.footprint(22) == Rect(6, 0, 2, 2)
    out = service.inject_fault("region-stuck", row=6, col=0, height=2,
                               width=2)
    assert 22 in out["relocated"] + out["restarted"]
    assert (fabric.occupancy[6:8, 0:2] > FAULT_OWNER_BASE).all()
    service.settle()
    assert service.status(22)["state"] == "finished"


def test_stuck_at_fault_spares_other_members():
    """Only the faulty member's sites pick victims: a task on another
    member at the same coordinates keeps running where it is."""
    service = ReproService(ServiceConfig(device="XC2S15", fleet_size=2))
    service.submit(8, 12, 5.0, qos="gold")  # fills member 0
    bystander = service.submit(2, 2, 5.0, qos="gold")
    assert (bystander["device"], bystander["rect"]) == (1, [0, 0, 2, 2])
    out = service.inject_fault("region-stuck", member=0, row=0, col=0,
                               height=2, width=2)
    assert out["relocated"] + out["restarted"] + out["dropped"] == [1]
    view = service.status(bystander["task"])
    assert (view["device"], view["rect"]) == (1, [0, 0, 2, 2])
    assert view["state"] in ("configuring", "running")


def test_region_fault_on_a_dead_member_is_moot():
    scheduler = OnlineTaskScheduler(fleet_of(["XC2S15"] * 2))
    inject(scheduler, "member-death", member=1)
    summary = inject(scheduler, "region-stuck", member=1, height=2,
                     width=2)
    assert summary["fault"] is None
    assert scheduler.kernel.faults.regions == {}


def test_flake_port_charges_retry_seconds():
    scheduler = single_scheduler()
    assert inject(scheduler, "port-flaky", retries=2,
                  backoff=0.5)["retry_seconds"] == 1.0
    assert scheduler.metrics.port_retry_seconds == 1.0
    assert scheduler.metrics.faults_injected == 1
    with pytest.raises(ValueError, match="no device"):
        inject(scheduler, "port-flaky", member=7)
    with pytest.raises(ValueError, match="retries must be"):
        inject(scheduler, "port-flaky", retries=-1)
    # A flake on a dead member charges nothing: the port is gone.
    fleet = OnlineTaskScheduler(fleet_of(["XC2S15"] * 2))
    inject(fleet, "member-death", member=1)
    assert inject(fleet, "port-flaky", member=1)["retry_seconds"] == 0.0


def test_export_fault_state_roundtrip_on_a_fresh_scheduler():
    scheduler = single_scheduler()
    assert scheduler.kernel.faults.export_state() is None  # fault-free
    inject(scheduler, "region-stuck", row=1, col=1, height=2, width=2,
           duration=4.0)
    state = scheduler.kernel.faults.export_state()
    fresh = single_scheduler()
    fresh.kernel.faults.restore_state(state)
    assert fresh.kernel.faults.export_state() == state
    occupied = (fresh.kernel.manager.members[0].fabric.occupancy != 0).sum()
    assert occupied == 2 * 2


# -- the always-on service --------------------------------------------------


def fleet_service() -> ReproService:
    service = ReproService(ServiceConfig(device="XC2S30", fleet_size=2,
                                         queue="priority"))
    service.submit(12, 18, 1.0, tenant="a", qos="gold")
    service.submit(6, 6, 8.0, tenant="b", qos="gold")
    service.advance(until=3.0)
    return service


def test_service_member_death_journals_the_relocation():
    service = fleet_service()
    out = service.inject_fault("member-death", member=1)
    assert out == {"kind": "member-death", "now": 3.0, "member": 1,
                   "relocated": [2], "restarted": [], "dropped": []}
    assert [e["event"] for e in service.engine.journal] == [
        "submitted", "admitted", "submitted", "admitted",
        "finished", "relocated",
    ]
    # The survivor hosts the relocated task now.
    assert service.engine.tasks[2].device == 0
    assert service.status(2)["device"] == 0
    service.settle()
    assert service.engine.tasks[2].state is TaskState.FINISHED
    stats = service.stats()
    assert stats["members_lost"] == 1
    assert stats["relocated"] == 1 and stats["dropped"] == 0


def test_service_region_and_port_faults():
    service = ReproService(ServiceConfig(device="XC2S15"))
    out = service.inject_fault("region-stuck", row=0, col=0,
                               height=3, width=3, duration=2.0)
    assert out["kind"] == "region-stuck" and out["fault"] == 1
    out = service.inject_fault("port-flaky", retries=3, backoff=0.2)
    assert out["retry_seconds"] == pytest.approx(0.6)
    with pytest.raises(ValueError, match="unknown fault kind"):
        service.inject_fault("cosmic-ray")


def test_service_checkpoint_mid_member_death_is_bit_identical():
    service = fleet_service()
    service.inject_fault("member-death", member=1)
    restored = restore(snapshot(service))
    assert restored.engine.kernel.faults.export_state() \
        == service.engine.kernel.faults.export_state()
    service.settle()
    restored.settle()
    assert restored.engine.journal == service.engine.journal
    assert restored.engine.telemetry == service.engine.telemetry


def test_member_death_after_a_restore_matches_the_uninterrupted_run():
    """A service restored mid-traffic and then faulted records what the
    uninterrupted run records: the same journal, and the same
    telemetry, whose recovery entry reads the sample taken after the
    fault."""
    trace = service_trace("diurnal", seed=3, n=80)
    original = ReproService(ServiceConfig(device="XC2S15", fleet_size=2,
                                          queue="priority"))
    for submission in trace[:40]:
        original.submit(**submission)
    restored = restore(snapshot(original))
    summaries = []
    for service in (original, restored):
        summaries.append(service.inject_fault("member-death", member=1))
        for submission in trace[40:]:
            service.submit(**submission)
        service.settle()
    assert summaries[0] == summaries[1]
    assert summaries[0]["restarted"], "expected displaced work"
    assert restored.engine.journal == original.engine.journal
    assert restored.engine.telemetry == original.engine.telemetry


def test_recovery_records_one_telemetry_entry_read_after_the_fault():
    """A member death writes one telemetry entry, sampled after the
    fault: the dead member reads (0, 0) and the fleet reading is the
    survivor's, however many tasks the recovery displaced."""
    service = ReproService(ServiceConfig(device="XC2S15", fleet_size=2,
                                         queue="priority"))
    for submission in service_trace("diurnal", seed=3, n=80)[:40]:
        service.submit(**submission)
    engine = service.engine
    before = len(engine.telemetry)
    out = service.inject_fault("member-death", member=1)
    assert out["now"] == pytest.approx(3.732, abs=1e-3)
    assert out["restarted"] == [16, 17, 19]
    (entry,) = engine.telemetry[before:]
    assert entry["members"] == [[0.4, pytest.approx(43 / 48)], [0.0, 0.0]]
    assert entry["utilization"] == pytest.approx(43 / 48)
    assert len(engine.telemetry) == engine.metrics.sample_count == 35


def test_one_telemetry_entry_per_kernel_sample():
    """Every kernel sample writes one telemetry entry and nothing else
    writes one: admissions, finishes, proactive defrags (the
    ``threshold`` trigger), a transient stuck-at region and its heal,
    and a member death's recovery, checked after every step."""
    service = ReproService(ServiceConfig(
        device="XC2S15", fleet_size=2, queue="priority", defrag="threshold"))
    engine = service.engine
    trace = service_trace("fragmenting", seed=0, n=60)
    for index, submission in enumerate(trace):
        service.submit(**submission)
        if index == 10:
            assert service.inject_fault(
                "region-stuck", row=0, col=0, height=3, width=3,
                duration=0.5)["fault"] == 1
        if index == 30:
            assert service.inject_fault(
                "member-death", member=1)["restarted"] == [28]
        assert len(engine.telemetry) == engine.metrics.sample_count
    assert engine.kernel.faults.regions == {}, "expected the region healed"
    service.settle()
    assert len(engine.telemetry) == engine.metrics.sample_count
    assert engine.metrics.proactive_defrags > 0


def test_post_faults_over_http():
    async def scenario(api, client):
        status, view, _ = await client.request(
            "POST", "/tasks",
            {"height": 12, "width": 18, "exec_seconds": 1.0, "qos": "gold"})
        assert status == 202 and view["admitted"]
        status, view, _ = await client.request(
            "POST", "/tasks",
            {"height": 6, "width": 6, "exec_seconds": 8.0, "qos": "gold"})
        assert status == 202 and view["admitted"]
        await client.request("POST", "/clock/advance", {"seconds": 3.0})
        status, summary, _ = await client.request(
            "POST", "/faults", {"kind": "member-death", "member": 1})
        assert status == 200
        assert summary["kind"] == "member-death"
        assert summary["relocated"] == [2]
        # Validation: a missing kind and an unknown kind are both 400s.
        status, payload, _ = await client.request("POST", "/faults", {})
        assert status == 400 and "kind" in payload["error"]
        status, _, _ = await client.request(
            "POST", "/faults", {"kind": "gremlins"})
        assert status == 400
    with_api(scenario, device="XC2S30", fleet_size=2)


@pytest.mark.parametrize("duration", [-1, 0])
def test_non_positive_fault_duration_is_a_400_that_moves_nothing(duration):
    async def scenario(api, client):
        service = api.service
        status, view, _ = await client.request(
            "POST", "/tasks",
            {"height": 3, "width": 3, "exec_seconds": 2.0, "qos": "gold"})
        assert status == 202
        fabric = service.manager.members[0].fabric
        row, col, height, width = view["rect"]

        def state():
            return (service.tasks(), fabric.occupancy.tolist(),
                    sorted(service.engine.kernel.running),
                    service.stats()["faults_injected"])

        before = state()
        status, payload, _ = await client.request(
            "POST", "/faults",
            {"kind": "region-stuck", "row": row, "col": col,
             "height": height, "width": width, "duration": duration})
        assert status == 400 and "duration" in payload["error"]
        assert state() == before
        status, _, _ = await client.request("POST", "/clock/settle")
        assert status == 200
        assert [v["state"] for v in service.tasks()] == ["finished"]
    with_api(scenario, device="XC2S15")


# -- hypothesis: checkpoint cut anywhere mid-outbreak -----------------------


def outbreak_service() -> ReproService:
    """A single-device service with live traffic and an active
    transient stuck-at outbreak (heal pending at t = 2.5)."""
    service = ReproService(ServiceConfig(device="XC2S15", queue="priority"))
    service.submit(4, 4, 3.0, tenant="a", qos="gold")
    service.submit(4, 4, 2.5, tenant="b", qos="silver")
    service.submit(3, 3, 4.0, tenant="c", qos="best-effort")
    service.advance(until=0.5)
    service.inject_fault("region-stuck", row=0, col=0, height=4, width=6,
                         duration=2.0)
    service.submit(5, 5, 1.5, tenant="a", qos="gold")
    return service


@given(cut=st.floats(min_value=0.5, max_value=8.0,
                     allow_nan=False, allow_infinity=False))
def test_checkpoint_cut_mid_outbreak_restores_bit_identically(cut):
    """Snapshot/restore at *any* instant — before, during or after the
    outbreak heals — continues the identical run: fault state roundtrips
    and the settled journal and telemetry streams match bit for bit."""
    original = outbreak_service()
    original.advance(until=cut)
    restored = restore(snapshot(original))
    assert restored.engine.kernel.faults.export_state() \
        == original.engine.kernel.faults.export_state()
    original.settle()
    restored.settle()
    assert restored.engine.journal == original.engine.journal
    assert restored.engine.telemetry == original.engine.telemetry
    assert restored.engine.metrics.relocated_tasks \
        == original.engine.metrics.relocated_tasks
