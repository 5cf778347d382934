"""Exact work budgets of the admission path, and an all-caches-off oracle.

The run-time manager earns its keep by the work it does per admission:
fit probes, screened eviction windows and relocation searches.  Every
cache on that path is transparent — it may only skip work whose outcome
is unchanged — so a cache that stops hitting changes no result and
shows only as more work.  That work is exact for a given seed, so this
suite pins it for six seeded cells that reach every path: the whole
:data:`repro.perf.PERF` snapshot, plus the members' summed
:class:`~repro.placement.fit.CachedFitter` hits and misses (no ``PERF``
counter moves when the fit cache is lost).

* XC2S15 churn on one member (fifo/serial, backfill/icap) and on a
  2-member round-robin fleet (priority/serial): the kernel's failure
  record, the members' repeated probes at one generation and the
  scalar screen;
* a 4-member XC2S30 least-loaded fleet under a surge;
* XCV200 backfill/icap through ``run_scenario``: the slab screen;
* XCV1000 fifo/serial through ``run_scenario``: a grid wider than 64
  columns, screened one window at a time.

On the same cells, the oracle turns every admission cache off at once:
the failure record, the fit cache and the planner's plan, compaction
and blocker-set caches.  The metrics, the admission trace, the event
count and every member's final occupancy must equal the cached run's.

A change that moves a budget lists old -> new per counter in
CHANGES.md, with the reason.
"""

import functools
from unittest import mock

import pytest

from repro.campaign import runner
from repro.campaign.spec import ScenarioSpec, normalize_params
from repro.core.defrag import DefragPlanner
from repro.core.manager import LogicSpaceManager
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.fleet.manager import FleetManager
from repro.perf import PERF
from repro.sched.scheduler import OnlineTaskScheduler
from repro.sched.workload import fleet_surge_tasks

from test_kernel_memo_differential import (
    _churn_tasks,
    _disable_memos,
    _stack,
)


def _churn(queue: str, ports: str, members: int):
    """The XC2S15 churn stream (seed 7) on one member or a round-robin
    fleet."""
    def run(make):
        __, manager = _stack(members)
        scheduler = make(manager, queue=queue, ports=ports)
        scheduler.run(_churn_tasks(200, seed=7))
    return run


def _surge(make):
    """A surge on four XC2S30 members, least-loaded first."""
    fleet = FleetManager(
        [LogicSpaceManager(Fabric(device("XC2S30"))) for _ in range(4)],
        policy="least-loaded",
    )
    make(fleet).run(fleet_surge_tasks(120, seed=7, size_range=(3, 10)))


def _scenario(name: str, workload: str, queue: str, ports: str, n: int,
              size_range: tuple[int, int]):
    """One campaign scenario, run through ``run_scenario``."""
    spec = ScenarioSpec(
        device=name, policy="concurrent", workload=workload, seed=3000,
        queue=queue, ports=ports, workload_params=normalize_params({
            "n": n, "size_range": size_range, "priority_levels": 3,
            "max_wait": 8.0, "mean_interarrival": 0.03,
        }),
    )

    def run(make):
        with mock.patch.object(runner, "OnlineTaskScheduler", make):
            runner.run_scenario(spec)
    return run


CELLS = {
    "xc2s15-fifo-serial": _churn("fifo", "serial", 1),
    "xc2s15-backfill-icap": _churn("backfill", "icap", 1),
    "xc2s15-fleet2-priority-serial": _churn("priority", "serial", 2),
    "xc2s30-fleet4-least-loaded": _surge,
    "xcv200-backfill-icap": _scenario("XCV200", "random", "backfill",
                                      "icap", 100, (3, 10)),
    "xcv1000-fifo-serial": _scenario("XCV1000", "heavy-tail", "fifo",
                                     "serial", 120, (7, 22)),
}


def _perf(probes, shape, dominance, fleet, calls, windows, hits, misses,
          evict, scalar, vector):
    """A ``PERF.snapshot()`` in counter order (``item_memo_skips`` is
    always 0)."""
    return dict(
        admission_probes=probes, item_memo_skips=0, shape_memo_skips=shape,
        dominance_skips=dominance, fleet_member_skips=fleet,
        screen_calls=calls, screen_windows=windows, screen_cache_hits=hits,
        screen_cache_misses=misses, evict_moves_calls=evict,
        first_fit_scalar=scalar, first_fit_vector=vector,
    )


#: cell -> (PERF snapshot, (fit hits, fit misses)).
BUDGETS = {
    "xc2s15-fifo-serial": (
        _perf(275, 208, 7, 0, 128, 2759, 168, 1076, 176, 698, 0),
        (550, 275)),
    "xc2s15-backfill-icap": (
        _perf(2112, 5314, 1744, 0, 246, 18882, 217, 4713, 747, 4784, 0),
        (4767, 3240)),
    "xc2s15-fleet2-priority-serial": (
        _perf(319, 186, 12, 0, 234, 3863, 285, 1357, 231, 1022, 0),
        (1183, 474)),
    "xc2s30-fleet4-least-loaded": (
        _perf(178, 52, 0, 0, 239, 3403, 483, 713, 193, 841, 0),
        (1082, 518)),
    "xcv200-backfill-icap": (
        _perf(553, 823, 0, 0, 142, 101177, 5613, 18889, 3172, 8010, 0),
        (1139, 689)),
    "xcv1000-fifo-serial": (
        _perf(116, 78, 0, 0, 71, 14082, 5114, 2659, 275, 0, 724),
        (232, 116)),
}


def _replace(obj, name: str, value) -> None:
    """Set ``obj.name``, refusing a name the code no longer has: a
    renamed cache would otherwise stay on unnoticed."""
    getattr(obj, name)
    setattr(obj, name, value)


def _caches_off(scheduler) -> None:
    """Every admission cache of one schedule, off."""
    _disable_memos(scheduler.kernel)
    for member in scheduler.kernel.manager.members:
        # The bare heuristic answers every probe afresh: nothing to warm.
        bare = functools.partial(member.fit.fn)
        bare.prefetch = lambda occupancy, shapes, index: None
        _replace(member, "fit", bare)
        # A fresh planner state for every call: no token is ever shared.
        _replace(member.planner, "_shared_state",
                 lambda token, planner=member.planner:
                 DefragPlanner._shared_state(planner, None))
        _replace(member.planner, "plan_prefetch",
                 lambda occupancy, shapes, token: None)


def _run(cell: str, caches: bool = True):
    """Run one cell: (observables, PERF snapshot, fit hits and misses).

    The observables are the metrics, the event count, the admission
    trace (every successful placement in order, with its device and
    rearrangement method) and each member's final occupancy.
    """
    schedulers = []
    trace = []

    def make(manager, **kwargs):
        scheduler = OnlineTaskScheduler(manager, **kwargs)
        fleet = scheduler.kernel.manager
        request = fleet.request

        def traced(height, width, owner):
            outcome = request(height, width, owner)
            if outcome.success:
                trace.append((owner, outcome.device, outcome.rect,
                              outcome.method, outcome.config_seconds))
            return outcome

        fleet.request = traced
        if not caches:
            _caches_off(scheduler)
        schedulers.append(scheduler)
        return scheduler

    PERF.reset()
    CELLS[cell](make)
    perf = PERF.snapshot()
    [scheduler] = schedulers
    members = scheduler.kernel.manager.members
    observed = (
        scheduler.metrics,
        scheduler.events.processed,
        trace,
        [member.fabric.occupancy.tobytes() for member in members],
    )
    fit = None
    if caches:
        fit = (sum(member.fit.hits for member in members),
               sum(member.fit.misses for member in members))
    return observed, perf, fit


_cached = functools.cache(_run)


@pytest.mark.parametrize("cell", CELLS)
def test_work_budget(cell):
    __, perf, fit = _cached(cell)
    expected_perf, expected_fit = BUDGETS[cell]
    assert perf == expected_perf
    assert fit == expected_fit


@pytest.mark.parametrize("cell", CELLS)
def test_every_cache_off_is_observationally_identical(cell):
    observed, perf, __ = _cached(cell)
    bare_observed, bare_perf, __ = _run(cell, caches=False)
    assert bare_observed[0] == observed[0], "metrics diverged"
    assert bare_observed[1] == observed[1], "event counts diverged"
    assert bare_observed[2] == observed[2], "admission trace diverged"
    assert bare_observed[3] == observed[3], "final occupancy diverged"
    # The oracle must have turned something off.
    assert bare_perf["admission_probes"] > perf["admission_probes"]
