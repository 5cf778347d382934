"""Unit + integration tests for configuration prefetch.

Covers the resident-bitstream cache (:mod:`repro.sched.prefetch`), the
kernel's demand-hit / planned-load paths, the scheduler wiring, and the
campaign layer's sparse ``--prefetch`` axis:

* cache semantics: hit/miss, recency refresh, refresh-in-place,
  LRU-with-known-next-use eviction order, state round-trips;
* a resident hit charges zero configuration seconds and the planner
  only loads into *currently idle* port windows, so planned traffic
  never delays a demand load already queued;
* ``never`` mode builds no cache at all and emits rows bit-identical
  in shape to the historical exports (the golden suite pins the values).
"""

import json

import pytest

from repro.campaign.runner import ScenarioResult, run_scenario
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.core.cost import CostModel
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.sched.prefetch import (
    PREFETCH_MODES,
    BitstreamCache,
    normalize_prefetch_mode,
)
from repro.sched.scheduler import ApplicationFlowScheduler, OnlineTaskScheduler
from repro.sched.tasks import ApplicationSpec, FunctionSpec, Task
from repro.sched.workload import bursty_tasks, codec_swap_applications
from repro.service import ReproService, ServiceConfig, restore, snapshot


def make_manager(name="XC2S15"):
    dev = device(name)
    return LogicSpaceManager(
        Fabric(dev), cost_model=CostModel(dev),
        policy=RearrangePolicy.CONCURRENT,
    )


class TestNormalize:
    @pytest.mark.parametrize("raw,canonical", [
        ("never", "never"), ("cache", "cache"), ("plan", "plan"),
        ("  PLAN ", "plan"),
    ])
    def test_canonical_spellings(self, raw, canonical):
        assert normalize_prefetch_mode(raw) == canonical

    @pytest.mark.parametrize("bad", ["always", "on", "", "caches"])
    def test_rejects_unknown_modes(self, bad):
        with pytest.raises(ValueError):
            normalize_prefetch_mode(bad)

    def test_modes_constant_is_canonical(self):
        for name in PREFETCH_MODES:
            assert normalize_prefetch_mode(name) == name


class TestBitstreamCache:
    def test_miss_then_insert_then_hit(self):
        cache = BitstreamCache(capacity=2)
        assert cache.hit("a", now=0.0) is None
        cache.insert("a", 2, 3, ready_at=1.0, now=0.0)
        entry = cache.hit("a", now=5.0)
        assert entry is not None
        assert (entry.height, entry.width) == (2, 3)
        assert entry.ready_at == 1.0
        assert entry.last_used == 5.0

    def test_hit_clears_known_next_use(self):
        cache = BitstreamCache(capacity=2)
        cache.insert("a", 1, 1, ready_at=0.0, now=0.0, next_use=3.0)
        assert cache.hit("a", now=3.0).next_use is None

    def test_refresh_in_place_never_evicts(self):
        cache = BitstreamCache(capacity=1)
        cache.insert("a", 1, 1, ready_at=0.0, now=0.0)
        assert cache.insert("a", 1, 1, ready_at=2.0, now=1.0) is None
        assert len(cache) == 1
        assert cache.get("a").ready_at == 2.0

    def test_evicts_farthest_known_next_use(self):
        cache = BitstreamCache(capacity=2)
        cache.insert("soon", 1, 1, ready_at=0.0, now=0.0, next_use=1.0)
        cache.insert("late", 1, 1, ready_at=0.0, now=0.0, next_use=9.0)
        evicted = cache.insert("new", 1, 1, ready_at=0.0, now=0.5,
                               next_use=2.0)
        assert evicted.key == "late"
        assert "soon" in cache

    def test_unknown_next_use_is_farthest(self):
        cache = BitstreamCache(capacity=2)
        cache.insert("known", 1, 1, ready_at=0.0, now=0.0, next_use=99.0)
        cache.insert("unknown", 1, 1, ready_at=0.0, now=0.0)
        assert cache.insert("new", 1, 1, ready_at=0.0,
                            now=0.5).key == "unknown"

    def test_lru_breaks_ties_among_unknowns(self):
        cache = BitstreamCache(capacity=2)
        cache.insert("old", 1, 1, ready_at=0.0, now=0.0)
        cache.insert("fresh", 1, 1, ready_at=0.0, now=0.0)
        cache.hit("old", now=5.0)  # refresh recency
        assert cache.insert("new", 1, 1, ready_at=0.0,
                            now=6.0).key == "fresh"

    def test_note_next_use_keeps_minimum(self):
        cache = BitstreamCache(capacity=2)
        cache.insert("a", 1, 1, ready_at=0.0, now=0.0, next_use=5.0)
        assert cache.note_next_use("a", 3.0)
        assert cache.get("a").next_use == 3.0
        cache.note_next_use("a", 8.0)  # later demand changes nothing
        assert cache.get("a").next_use == 3.0
        assert not cache.note_next_use("missing", 1.0)

    def test_admits_planned_loads_only_when_worthwhile(self):
        cache = BitstreamCache(capacity=1)
        assert cache.admits(next_use=None)  # space free
        cache.insert("resident", 1, 1, ready_at=0.0, now=0.0, next_use=5.0)
        assert cache.admits(next_use=2.0)       # earlier demand wins
        assert not cache.admits(next_use=7.0)   # victim needed sooner
        assert not cache.admits(next_use=None)  # unknown never beats known

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BitstreamCache(capacity=0)

    def test_state_roundtrip(self):
        """A cache-mode service's resident set survives snapshot, JSON
        and restore: same state, same victim."""
        svc = ReproService(ServiceConfig(prefetch="cache"))
        cache = svc.engine.kernel.caches[0]
        cache.capacity = 3
        cache.insert("a", 2, 2, ready_at=1.0, now=0.0, next_use=4.0)
        cache.insert("b", 3, 1, ready_at=2.0, now=1.5)
        cache.hit("a", now=2.0)
        clone = restore(json.loads(json.dumps(snapshot(svc))))
        assert snapshot(clone)["prefetch"] == snapshot(svc)["prefetch"]
        assert clone.engine.kernel.caches[0].peek_victim().key \
            == cache.peek_victim().key


def one_chain(functions, name="A"):
    """A single application from (name, h, w, exec) tuples."""
    return ApplicationSpec(name, [FunctionSpec(*f) for f in functions])


class TestKernelCachePath:
    def test_repeat_function_hits_and_charges_nothing(self):
        """The second demand of the same bitstream is a resident hit:
        zero configuration seconds are charged for it."""
        app = one_chain([("F", 4, 4, 1.0), ("F", 4, 4, 1.0)])
        sched = ApplicationFlowScheduler(make_manager(),
                                         prefetch_mode="cache")
        runs = sched.run([app])
        assert sched.metrics.prefetch_hits == 1
        first, second = runs[0].runs
        assert first.config_seconds > 0.0
        assert second.config_seconds == 0.0
        assert sched.metrics.config_stall_seconds == pytest.approx(
            first.config_seconds
        )

    def test_never_mode_builds_no_cache_and_counts_demand_stall(self):
        app = one_chain([("F", 4, 4, 1.0), ("F", 4, 4, 1.0)])
        sched = ApplicationFlowScheduler(make_manager())
        runs = sched.run([app])
        assert sched.kernel.caches is None
        assert sched.metrics.prefetch_hits == 0
        assert sched.metrics.prefetch_loads == 0
        assert sched.metrics.cache_evictions == 0
        # Both demands paid the port in full.
        charged = [r.config_seconds for r in runs[0].runs]
        assert all(c > 0.0 for c in charged)
        assert sched.metrics.config_stall_seconds == pytest.approx(
            sum(charged)
        )

    def test_cache_mode_never_exceeds_never_mode_stall(self):
        """The benefit, in simulated seconds on XC2S30.  Codec-swap
        chains repeat functions, so the resident cache alone cuts the
        exposed configuration stall (3 and 4 apps) and the mean
        turnaround (4 apps: 8.31 -> 8.11 s).  A bursty task stream's
        bitstreams never repeat, so only the planner helps there: it
        cuts the stall (0.275 -> 0.216 s) and the mean waiting."""
        def codec_swap(mode, n_apps, seed):
            sched = ApplicationFlowScheduler(make_manager("XC2S30"),
                                             prefetch_mode=mode)
            sched.run(codec_swap_applications(
                device("XC2S30"), n_apps=n_apps, seed=seed, repeats=3))
            return sched.metrics

        def bursty(mode):
            sched = OnlineTaskScheduler(make_manager("XC2S30"),
                                        prefetch_mode=mode)
            sched.run(bursty_tasks(60, seed=11))
            return sched.metrics

        for never, helped, delay in (
            (codec_swap("never", 3, 7), codec_swap("cache", 3, 7), None),
            (codec_swap("never", 4, 11), codec_swap("cache", 4, 11),
             "mean_turnaround"),
            (bursty("never"), bursty("plan"), "mean_waiting"),
        ):
            assert helped.prefetch_hits > 0
            assert helped.config_stall_seconds < never.config_stall_seconds
            if delay is not None:
                assert getattr(helped, delay) < getattr(never, delay)


class TestPlanner:
    def waiting_task_setup(self, mode):
        """One task filling the fabric, a second one queued behind it."""
        sched = OnlineTaskScheduler(make_manager(), prefetch_mode=mode)
        dev = sched.manager.fabric.device
        blocker = Task(1, dev.clb_rows, dev.clb_cols,
                       exec_seconds=10.0, arrival=0.0)
        waiter = Task(2, 4, 4, exec_seconds=1.0, arrival=1.0)
        return sched, [blocker, waiter]

    def test_planner_preloads_queued_task_in_idle_window(self):
        """While the waiter queues for space, the idle port preloads
        its bitstream; its eventual admission is then a resident hit."""
        sched, tasks = self.waiting_task_setup("plan")
        sched.run(tasks)
        assert sched.metrics.prefetch_loads == 1
        assert sched.metrics.prefetch_hits == 1
        # Only the blocker's demand load was exposed stall.
        assert sched.metrics.config_stall_seconds == pytest.approx(
            tasks[0].configured_at
        )

    def test_cache_mode_does_not_plan(self):
        """One-shot tasks never repeat, so pure cache mode cannot help
        a task stream — only the planner can."""
        sched, tasks = self.waiting_task_setup("cache")
        sched.run(tasks)
        assert sched.metrics.prefetch_loads == 0
        assert sched.metrics.prefetch_hits == 0

    def test_planner_never_waits_on_a_busy_port(self):
        """A planned load is only issued into a *currently idle* port
        window: the port horizon after the planner ran equals what the
        demand traffic alone had established, whenever the port was
        still busy at plan time."""
        sched, tasks = self.waiting_task_setup("plan")
        kernel = sched.kernel
        dev = sched.manager.fabric.device
        # Fill the fabric so the waiter must queue, then occupy the
        # port far beyond the horizon before asking the planner.
        assert kernel.manager.request(dev.clb_rows, dev.clb_cols, 1).success
        kernel.ports[0].acquire(config_seconds=50.0)
        horizon = kernel.ports[0].free_at
        kernel.enqueue(tasks[1], priority=0, area=tasks[1].area)
        kernel.maybe_prefetch()
        assert kernel.ports[0].free_at == horizon
        assert kernel.metrics.prefetch_loads == 0
        assert kernel.events.now < horizon  # the window genuinely was busy


class TestCampaignAxis:
    def test_spec_validates_and_canonicalises(self):
        spec = ScenarioSpec("XC2S15", "none", "random", 0,
                            prefetch=" CACHE ")
        assert spec.prefetch == "cache"
        with pytest.raises(ValueError):
            ScenarioSpec("XC2S15", "none", "random", 0, prefetch="on")

    def test_to_dict_emits_prefetch_sparsely(self):
        base = ScenarioSpec("XC2S15", "none", "random", 0)
        assert "prefetch" not in base.to_dict()
        swept = ScenarioSpec("XC2S15", "none", "random", 0,
                             prefetch="plan")
        assert swept.to_dict()["prefetch"] == "plan"

    def test_campaign_expands_prefetch_axis(self):
        campaign = CampaignSpec(devices=["XC2S15"], policies=["none"],
                                workloads=["random"], seeds=[0],
                                prefetches=["never", "cache", "plan"])
        specs = campaign.expand()
        assert campaign.size == len(specs) == 3
        assert [s.prefetch for s in specs] == ["never", "cache", "plan"]

    def test_rows_are_sparse_for_never_and_filled_when_swept(self):
        never = run_scenario(
            ScenarioSpec("XC2S15", "none", "random", 0,
                         workload_params=(("n", 8),))
        )
        row = never.to_row()
        for name in ScenarioResult.PREFETCH_METRIC_FIELDS:
            assert name not in row
        swept = run_scenario(
            ScenarioSpec("XC2S15", "none", "random", 0, prefetch="plan",
                         workload_params=(("n", 8),))
        )
        row = swept.to_row()
        assert row["prefetch"] == "plan"
        for name in ScenarioResult.PREFETCH_METRIC_FIELDS:
            assert name in row
