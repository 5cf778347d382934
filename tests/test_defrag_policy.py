"""Unit tests for the proactive defragmentation subsystem.

Covers the trigger-policy layer (`repro.core.defrag_policy`), the
manager's `maybe_defrag` pass, the scheduler wiring (port charging,
metrics counters), and the application-flow fix: a stalled application
must be re-checked after a *proactive* defrag frees space, not only
after a finish event.
"""

import numpy as np
import pytest

from repro.core.defrag import DefragPlanner
from repro.core.defrag_policy import (
    DEFRAG_POLICY_NAMES,
    IdleDefrag,
    NeverDefrag,
    OnFailureDefrag,
    ThresholdDefrag,
    make_defrag_policy,
)
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.device.geometry import Rect
from repro.sched.scheduler import ApplicationFlowScheduler, OnlineTaskScheduler
from repro.sched.tasks import ApplicationSpec, FunctionSpec, Task
from repro.sched.workload import make_workload


def fragmented_manager(**kwargs) -> LogicSpaceManager:
    """An XC2S15 manager with four 8x2 residents and 8x1 free slivers.

    Free area is exactly 32 sites (four full-height single-column
    slivers), so an 8x4 request is satisfiable by area but only after
    compaction; every reactive plan needs more than one move, so a
    planner with ``max_moves=1`` cannot serve it reactively.
    """
    manager = LogicSpaceManager(
        Fabric(device("XC2S15")),
        planner=DefragPlanner(max_moves=1),
        **kwargs,
    )
    for owner, col in enumerate((0, 3, 6, 9), start=1):
        manager.fabric.allocate_region(Rect(0, col, 8, 2), owner)
    return manager


# -- policy registry ---------------------------------------------------------


def test_registry_names_round_trip():
    for name in DEFRAG_POLICY_NAMES:
        assert make_defrag_policy(name).name == name


def test_unknown_policy_rejected():
    with pytest.raises(KeyError, match="unknown defrag policy"):
        make_defrag_policy("eager")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        ThresholdDefrag(threshold=0.0)
    with pytest.raises(ValueError):
        IdleDefrag(min_fragmentation=1.5)
    with pytest.raises(ValueError):
        OnFailureDefrag(cooldown=-1.0)


def test_reactive_and_proactive_flags():
    assert not NeverDefrag().reactive
    assert not NeverDefrag().proactive
    assert OnFailureDefrag().reactive
    assert not OnFailureDefrag().proactive
    assert ThresholdDefrag().proactive
    assert IdleDefrag().proactive


def test_threshold_trigger_and_cooldown():
    policy = ThresholdDefrag(threshold=0.5, cooldown=1.0)
    below = dict(fragmentation=0.4, free_area=10, now=5.0, port_idle=True)
    above = dict(fragmentation=0.6, free_area=10, now=5.0, port_idle=True)
    assert not policy.should_trigger(**below)
    assert policy.should_trigger(**above)
    policy.note_attempt(5.0)
    assert not policy.should_trigger(**above)
    assert policy.should_trigger(**{**above, "now": 6.0})


def test_idle_trigger_requires_idle_port():
    policy = IdleDefrag(min_fragmentation=0.1)
    busy = dict(fragmentation=0.5, free_area=10, now=0.0, port_idle=False)
    idle = dict(fragmentation=0.5, free_area=10, now=0.0, port_idle=True)
    calm = dict(fragmentation=0.05, free_area=10, now=0.0, port_idle=True)
    assert not policy.should_trigger(**busy)
    assert policy.should_trigger(**idle)
    assert not policy.should_trigger(**calm)


def test_full_grid_never_triggers():
    policy = IdleDefrag(min_fragmentation=0.0)
    assert not policy.should_trigger(
        fragmentation=0.0, free_area=0, now=0.0, port_idle=True
    )


# -- manager integration -----------------------------------------------------


def test_never_policy_disables_reactive_rearrangement():
    blocked = fragmented_manager(defrag_policy="never")
    outcome = blocked.request(8, 4, owner=99)
    assert not outcome.success
    assert blocked.maybe_defrag(now=1.0) is None

    # The identical state served reactively with a capable planner:
    reactive = LogicSpaceManager(
        Fabric(device("XC2S15")), defrag_policy="on-failure"
    )
    for owner, col in enumerate((0, 3, 6, 9), start=1):
        reactive.fabric.allocate_region(Rect(0, col, 8, 2), owner)
    assert reactive.request(8, 4, owner=99).success


def test_maybe_defrag_consolidates_and_preserves_owners():
    manager = fragmented_manager(
        defrag_policy=IdleDefrag(min_fragmentation=0.0, cooldown=0.0)
    )
    occupancy_before = manager.fabric.occupancy.copy()
    outcome = manager.maybe_defrag(now=0.0, port_idle=True)
    assert outcome is not None
    assert outcome.largest_after > outcome.largest_before
    assert outcome.port_seconds > 0.0
    assert manager.fabric.owners() == {1, 2, 3, 4}
    for owner in (1, 2, 3, 4):
        before = int((occupancy_before == owner).sum())
        assert int((manager.fabric.occupancy == owner).sum()) == before
    # The consolidated space now hosts the request reactive planning
    # could not serve.
    assert manager.request(8, 4, owner=99).success


def test_maybe_defrag_respects_rearrange_none():
    manager = fragmented_manager(
        policy=RearrangePolicy.NONE,
        defrag_policy=IdleDefrag(min_fragmentation=0.0, cooldown=0.0),
    )
    assert manager.maybe_defrag(now=0.0, port_idle=True) is None


def test_maybe_defrag_declines_on_reactive_policies():
    for name in ("never", "on-failure"):
        manager = fragmented_manager(defrag_policy=name)
        assert manager.maybe_defrag(now=0.0, port_idle=True) is None


# -- scheduler wiring --------------------------------------------------------


def test_task_scheduler_counts_and_charges_proactive_moves():
    dev = device("XC2S15")
    manager = LogicSpaceManager(
        Fabric(dev), defrag_policy=ThresholdDefrag(threshold=0.2)
    )
    tasks = make_workload("fragmenting", dev, seed=0, n=40)
    scheduler = OnlineTaskScheduler(manager)
    metrics = scheduler.run(tasks)
    assert metrics.proactive_defrags > 0
    assert metrics.defrag_moves >= metrics.proactive_defrags
    assert metrics.defrag_port_seconds > 0.0
    # Every proactive move went through the serial port.
    assert metrics.port_busy_seconds >= metrics.defrag_port_seconds


def test_on_failure_runs_keep_zero_defrag_counters():
    dev = device("XC2S15")
    manager = LogicSpaceManager(Fabric(dev), defrag_policy="on-failure")
    tasks = make_workload("fragmenting", dev, seed=0, n=30)
    metrics = OnlineTaskScheduler(manager).run(tasks)
    assert metrics.proactive_defrags == 0
    assert metrics.defrag_moves == 0
    assert metrics.defrag_port_seconds == 0.0


def test_app_scheduler_retries_stalled_after_proactive_defrag():
    """The satellite fix: a stalled application is woken by a background
    compaction, not only by the next finish event.

    App "big" needs an 8x4 block that exists by area but not contiguously;
    the reactive planner (max_moves=1) can never free it, so without the
    proactive retry the app would stay stalled forever once the last
    finish event has fired.
    """
    manager = fragmented_manager(
        defrag_policy=IdleDefrag(min_fragmentation=0.0, cooldown=0.0)
    )
    apps = [
        ApplicationSpec("warm", [FunctionSpec("W1", 8, 1, 1.0)]),
        ApplicationSpec("big", [FunctionSpec("B1", 8, 4, 1.0)]),
    ]
    scheduler = ApplicationFlowScheduler(manager)
    runs = scheduler.run(apps)
    finished = {r.spec.name: r.finished_at for r in runs}
    assert finished["warm"] is not None
    assert finished["big"] is not None, (
        "stalled app was not retried after the proactive defrag"
    )
    assert scheduler.metrics.proactive_defrags >= 1
    assert scheduler.metrics.defrag_moves >= 1
    assert scheduler.metrics.finished == 2


def test_app_scheduler_copies_defrag_counters_into_summary():
    dev = device("XC2S15")
    manager = LogicSpaceManager(
        Fabric(dev), defrag_policy=IdleDefrag(min_fragmentation=0.05)
    )
    executed = []
    maybe_defrag = manager.maybe_defrag

    def recording(**kwargs):
        outcome = maybe_defrag(**kwargs)
        if outcome is not None:
            executed.append(outcome)
        return outcome

    manager.maybe_defrag = recording
    apps = make_workload("codec-swap", dev, seed=3, n_apps=4)
    scheduler = ApplicationFlowScheduler(manager)
    scheduler.run(apps)
    assert executed, "no proactive defrag fired: workload too gentle"
    assert scheduler.metrics.proactive_defrags == len(executed)
    assert scheduler.metrics.defrag_moves == sum(
        len(o.moves) for o in executed
    )
