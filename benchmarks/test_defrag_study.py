"""DEFRAG — the motivation experiment: on-line rearrangement pays off.

Paper (section 1): without management, free areas "become so small that
they fail to satisfy any request"; reference [5] proposed partial
rearrangements but executed them by "halting those functions, stopping
the normal system operation"; the paper's dynamic relocation performs
the same rearrangements "concurrently with all applications currently
running, without any time overheads".

The bench runs an identical on-line task stream under three policies —
no rearrangement, halting rearrangement, concurrent rearrangement — and
two configuration ports, reporting waiting time, turnaround and the
halted time inflicted on running tasks.  Expected shape:

* HALT and CONCURRENT place more tasks sooner than NONE when moves are
  cheap relative to waits (SelectMAP port);
* CONCURRENT always beats HALT, with zero halted seconds — the paper's
  contribution;
* over slow Boundary Scan, rearrangement costs real port time, which the
  table makes visible (the trade-off the 22.6 ms per CLB implies).
"""

import pytest

from repro.analysis import Table, mean
from repro.core.cost import CostModel
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.workload import random_tasks

SEEDS = (0, 1, 2)
WORKLOAD = dict(
    n=50, mean_interarrival=3.5, size_range=(3, 12), exec_range=(30, 90)
)


def run_policy(policy, port_kind):
    dev = device("XCV200")
    waits, turns, halted, rearr = [], [], 0.0, 0
    for seed in SEEDS:
        manager = LogicSpaceManager(
            Fabric(dev),
            cost_model=CostModel(dev, port_kind=port_kind),
            policy=policy,
        )
        metrics = OnlineTaskScheduler(manager).run(
            random_tasks(seed=seed, **WORKLOAD)
        )
        waits.append(metrics.mean_waiting)
        turns.append(metrics.mean_turnaround)
        halted += metrics.halted_seconds
        rearr += metrics.rearrangements
    return {
        "wait": mean(waits),
        "turnaround": mean(turns),
        "halted": halted / len(SEEDS),
        "rearrangements": rearr / len(SEEDS),
    }


def test_defrag_policy_comparison(benchmark):
    def run_all():
        results = {}
        for port in ("selectmap", "boundary-scan"):
            for policy in (
                RearrangePolicy.NONE,
                RearrangePolicy.HALT,
                RearrangePolicy.CONCURRENT,
            ):
                results[(port, policy)] = run_policy(policy, port)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(
        "DEFRAG: on-line rearrangement policies (3-seed means)",
        ["port", "policy", "mean wait s", "mean turnaround s",
         "halted s", "rearrangements"],
    )
    for (port, policy), r in results.items():
        table.add(
            port, policy.value, r["wait"], r["turnaround"], r["halted"],
            r["rearrangements"],
        )
    table.show()

    sm = {p: results[("selectmap", p)] for p in RearrangePolicy}
    bs = {p: results[("boundary-scan", p)] for p in RearrangePolicy}
    # Concurrent relocation never halts anything (the contribution).
    assert sm[RearrangePolicy.CONCURRENT]["halted"] == 0.0
    assert bs[RearrangePolicy.CONCURRENT]["halted"] == 0.0
    # Halting rearrangement inflicts real stopped time.
    assert sm[RearrangePolicy.HALT]["halted"] > 0.0
    # With a fast port, rearrangement beats no-rearrangement on waiting.
    assert (
        sm[RearrangePolicy.CONCURRENT]["wait"]
        < sm[RearrangePolicy.NONE]["wait"]
    )
    # Concurrent is at least as good as halting on turnaround.
    assert (
        sm[RearrangePolicy.CONCURRENT]["turnaround"]
        <= sm[RearrangePolicy.HALT]["turnaround"] * 1.05
    )


def test_defrag_rearrangement_rescues_allocations(benchmark):
    """Deterministic micro-scenario: two half-device pillars, the middle
    released; a 20-column function fits only after rearrangement."""
    from repro.device.geometry import Rect

    def run(policy):
        dev = device("XCV200")
        manager = LogicSpaceManager(
            Fabric(dev),
            cost_model=CostModel(dev, port_kind="selectmap"),
            policy=policy,
        )
        manager.request(28, 14, owner=1)
        manager.request(28, 14, owner=2)
        manager.release(1)  # free columns 0-13; 2 occupies 14-27
        outcome = manager.request(28, 20, owner=3)
        return outcome

    blocked = run(RearrangePolicy.NONE)
    rescued = benchmark.pedantic(
        run, args=(RearrangePolicy.CONCURRENT,), rounds=1, iterations=1
    )
    table = Table(
        "DEFRAG: 28x20 request against fragmented halves",
        ["policy", "allocated", "moves", "halted s"],
    )
    table.add("none", "no" if not blocked.success else "yes", 0, 0.0)
    table.add(
        "concurrent",
        "yes" if rescued.success else "no",
        len(rescued.moves),
        rescued.halted_seconds,
    )
    table.show()
    assert not blocked.success
    assert rescued.success
    assert rescued.halted_seconds == 0.0
