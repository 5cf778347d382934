"""Differential suite for the kernel's admission failure record.

The record (:meth:`SchedulingKernel._shape_blocked`: the shapes that
failed against the current occupancy, each with its dominance
certificate) exists purely to skip probes whose outcome is provably
unchanged — so a kernel that probes every candidate must produce
*bit-identical* schedules: the same admissions, rejections, timeouts,
metrics and port timelines, event for event.  This suite runs the two
kernels in lockstep over hypothesis-chosen workloads (timeout-heavy
churn; the slow variant crosses every queue discipline with every port
model, on one device and on a 2-member fleet) and pins the invalidation
contract (every path that changes occupancy moves the generation stamp
that empties the record, and every verdict it returns is backed by a
real failing probe).  A record that silently stopped hitting fails
``tests/test_work_budget.py``, which pins the admission work exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.defrag_policy import IdleDefrag
from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.device.geometry import Rect
from repro.fleet.manager import FleetManager
from repro.perf import PERF
from repro.sched.kernel import SchedulingKernel
from repro.sched.queues import QUEUE_NAMES
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.tasks import Task
from repro.sched.workload import heavy_tail_tasks


def _disable_memos(kernel) -> None:
    """Turn the failure record off on one kernel instance: every
    candidate is probed against the manager."""
    kernel._shape_blocked = lambda height, width, count=True: False


def _churn_tasks(n: int, seed: int):
    """A timeout-heavy stream on the XC2S15's 8x12 grid: tight
    footprints and short deadlines keep the queue saturated, so the
    record (and its invalidation) is exercised hard."""
    return heavy_tail_tasks(
        n, seed=seed, mean_interarrival=0.05, size_range=(2, 6),
        max_wait=4.0, priority_levels=3,
    )


def _stack(members: int):
    """XC2S15 member managers and what the kernel drives: the single
    manager, or a round-robin fleet over the members."""
    managers = [LogicSpaceManager(Fabric(device("XC2S15")))
                for _ in range(members)]
    if members == 1:
        return managers, managers[0]
    return managers, FleetManager(managers, policy="round-robin")


def _run(queue: str, ports: str, seed: int, n: int, memoised: bool,
         members: int = 1):
    managers, manager = _stack(members)
    # The admission trace: every placement that happened, in order, with
    # its device and rearrangement method.  Failed probes are *meant* to
    # differ — skipping them is exactly what the record does — so only
    # successes are traced.
    trace = []
    request = manager.request

    def traced(height, width, owner):
        outcome = request(height, width, owner)
        if outcome.success:
            trace.append((outcome.owner, outcome.device, outcome.rect,
                          outcome.method, outcome.config_seconds))
        return outcome

    manager.request = traced
    scheduler = OnlineTaskScheduler(manager, queue=queue, ports=ports)
    if not memoised:
        _disable_memos(scheduler.kernel)
    PERF.reset()
    metrics = scheduler.run(_churn_tasks(n, seed))
    return (
        metrics,
        scheduler.events.processed,
        [port.busy_seconds for port in scheduler.kernel.ports],
        [member.fabric.occupancy.tobytes() for member in managers],
        trace,
        PERF.shape_memo_skips + PERF.dominance_skips,
    )


def _assert_lockstep(queue: str, ports: str, seed: int,
                     members: int = 1) -> None:
    """Lockstep over 440+ events: record on vs off, identical
    everything, and the record must have skipped probes."""
    n = 220  # 2-3 events per task: arrival + timeout or admit + finish
    memo = _run(queue, ports, seed, n, memoised=True, members=members)
    bare = _run(queue, ports, seed, n, memoised=False, members=members)
    assert memo[0] == bare[0], "metrics diverged"
    assert memo[1] == bare[1], "event counts diverged"
    assert memo[2] == bare[2], "port busy time diverged"
    assert memo[3] == bare[3], "final occupancy diverged"
    assert memo[4] == bare[4], "admission trace diverged"
    assert memo[5] > 0, "the record never fired: churn too gentle"


@settings(max_examples=4, deadline=None)
@given(
    queue=st.sampled_from(["fifo", "priority", "backfill"]),
    ports=st.sampled_from(["serial", "icap"]),
    seed=st.integers(min_value=0, max_value=9999),
)
def test_memoised_kernel_is_observationally_identical(queue, ports, seed):
    _assert_lockstep(queue, ports, seed)


@pytest.mark.slow
@pytest.mark.parametrize("members", [1, 2])
@pytest.mark.parametrize("ports", ["serial", "multi-2", "icap"])
@pytest.mark.parametrize("queue", QUEUE_NAMES)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=9999))
def test_record_is_observationally_identical_on_every_cell(
        queue, ports, members, seed):
    _assert_lockstep(queue, ports, seed, members=members)


def test_shape_memo_never_outlives_a_generation_bump():
    """The invalidation contract, driven through the kernel: the record
    holds verdicts about the current occupancy only.  A pass over an
    unchanged occupancy re-probes nothing, and each path that changes
    it — an admission, a release nobody reports to the kernel, a
    stuck-at region appearing and healing, a proactive consolidation —
    moves a member's free-space generation, so the next pass empties
    the record and probes the blocked shape afresh."""
    manager = LogicSpaceManager(
        Fabric(device("XC2S15")),
        defrag_policy=IdleDefrag(min_fragmentation=0.0, cooldown=0.0),
    )
    # Four 8x2 residents leave four 8x1 slivers: room for a 2x1, and
    # something for a consolidation to move.
    for owner, col in enumerate((0, 3, 6, 9), start=1):
        manager.fabric.allocate_region(Rect(0, col, 8, 2), owner)
    kernel = SchedulingKernel(manager, queue="backfill")
    probes = []
    request = manager.request

    def counting(height, width, owner):
        probes.append(owner)
        return request(height, width, owner)

    manager.request = counting
    blocked = Task(task_id=10, height=20, width=20, exec_seconds=1.0,
                   arrival=0.0)  # never fits the 8x12 grid
    kernel.enqueue(blocked, area=blocked.area)
    assert probes.count(10) == 1
    assert kernel._shape_blocked(20, 20, count=False)
    # Dominance: the certified failure settles every larger footprint.
    assert kernel._shape_blocked(21, 30, count=False)
    kernel.drain()
    assert probes.count(10) == 1, "re-probed against the same occupancy"

    fits = Task(task_id=11, height=2, width=1, exec_seconds=1.0,
                arrival=0.0)
    kernel.enqueue(fits, area=fits.area)  # backfilled past the head
    assert manager.fabric.footprint(11) is not None
    assert probes.count(10) == 2, "an admission kept the record"

    manager.release(11)  # the kernel is not told
    kernel.drain()
    assert probes.count(10) == 3, "a release kept the record"

    # A stuck-at blocker enters and heals through the fleet, as the
    # fault path's ``adopt`` and ``release`` do.
    kernel.manager.adopt(12, 0, Rect(0, 2, 1, 1))
    kernel.drain()
    assert probes.count(10) == 4, "a stuck-at region kept the record"
    kernel.manager.release(12)
    kernel.drain()
    assert probes.count(10) == 5, "a healed region kept the record"
    kernel.drain()
    assert probes.count(10) == 5, "re-probed against the same occupancy"

    outcome = kernel.maybe_defrag()
    assert outcome is not None and outcome.moves
    assert probes.count(10) == 6, "a consolidation kept the record"


def test_every_memo_skip_is_backed_by_a_real_failure():
    """Soundness under churn: whenever the record calls a shape blocked,
    an actual probe of that shape against the live manager must fail —
    no admissible item is ever skipped."""
    manager = LogicSpaceManager(Fabric(device("XC2S15")))
    scheduler = OnlineTaskScheduler(manager, queue="backfill",
                                    ports="icap")
    kernel = scheduler.kernel
    original = kernel._shape_blocked
    verified = [0]

    def checked(height: int, width: int, count: bool = True) -> bool:
        blocked = original(height, width, count=count)
        if blocked:
            outcome = manager.request(height, width, owner=10_000_000)
            assert not outcome.success, (
                f"memo skipped an admissible {height}x{width} shape"
            )
            verified[0] += 1
        return blocked

    kernel._shape_blocked = checked
    scheduler.run(_churn_tasks(200, seed=3))
    assert verified[0] > 0, "the memo never fired: churn too gentle"
