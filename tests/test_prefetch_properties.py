"""Property-based invariants for the configuration-prefetch layer.

Pinned invariants (hypothesis; the CI profile derandomizes them):

* **hits are free** — a resident hit never charges configuration
  seconds: across random application mixes, exactly the hit-counted
  function runs report zero config seconds, and the exposed config
  stall of ``cache``/``plan`` mode never exceeds ``never`` mode (and
  strictly improves whenever any hit landed);
* **eviction order** — the cache never evicts a bitstream whose known
  next use comes *earlier* than that of any bitstream it keeps, never
  exceeds its capacity, and survives an export/restore round-trip at
  any point of a random operation sequence;
* **never mode is inert** — an explicit ``--prefetch never`` produces
  results bit-identical to the axis default, with zero prefetch
  footprint and the historical (prefetch-free) export columns, so the
  golden snapshots stay pinned.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.runner import ScenarioResult, run_scenario
from repro.campaign.spec import ScenarioSpec
from repro.core.cost import CostModel
from repro.core.manager import LogicSpaceManager, RearrangePolicy
from repro.device.devices import device
from repro.device.fabric import Fabric
from repro.sched.prefetch import BitstreamCache
from repro.sched.scheduler import ApplicationFlowScheduler
from repro.sched.tasks import ApplicationSpec, FunctionSpec
from repro.service import ReproService, ServiceConfig, restore, snapshot

pytestmark = pytest.mark.slow

#: Recurring bitstream pool for random application chains — small
#: enough that repeats (and therefore cache hits) are common.
FUNCTION_POOL = (
    ("filt", 3, 4, 0.8),
    ("fft", 4, 4, 1.2),
    ("huff", 2, 3, 0.5),
    ("quant", 3, 3, 0.7),
    ("dct", 4, 5, 1.0),
)


@st.composite
def application_sets(draw):
    """1–3 applications, each a chain of 1–4 pool functions."""
    apps = []
    for index in range(draw(st.integers(1, 3))):
        chain = draw(st.lists(st.sampled_from(FUNCTION_POOL),
                              min_size=1, max_size=4))
        apps.append(ApplicationSpec(
            f"app-{index}", [FunctionSpec(*fn) for fn in chain]
        ))
    return apps


@st.composite
def cache_operations(draw):
    """A random (capacity, ops) trace over a handful of keys.

    Ops are ``("insert", key, next_use)``, ``("hit", key)`` and
    ``("note", key, horizon)``; the clock advances one second per op so
    recency is always well-defined.
    """
    keys = st.sampled_from(["a", "b", "c", "d", "e", "f"])
    horizons = st.one_of(st.none(), st.floats(0.0, 100.0))
    op = st.one_of(
        st.tuples(st.just("insert"), keys, horizons),
        st.tuples(st.just("hit"), keys),
        st.tuples(st.just("note"), keys, st.floats(0.0, 100.0)),
    )
    return (draw(st.integers(1, 3)),
            draw(st.lists(op, min_size=1, max_size=40)))


def run_mode(apps, mode):
    dev = device("XC2S30")
    manager = LogicSpaceManager(
        Fabric(dev), cost_model=CostModel(dev),
        policy=RearrangePolicy.CONCURRENT,
    )
    sched = ApplicationFlowScheduler(manager, prefetch_mode=mode)
    runs = sched.run(apps)
    return sched, [fn_run for app in runs for fn_run in app.runs]


class TestHitsAreFree:
    @given(apps=application_sets(), mode=st.sampled_from(["cache", "plan"]))
    @settings(max_examples=30)
    def test_exactly_the_hits_charge_nothing(self, apps, mode):
        """Config seconds partition exactly: every hit charges zero,
        every miss charges the cost model's (strictly positive) price,
        and the stall counter is their sum."""
        sched, fn_runs = run_mode(apps, mode)
        free = sum(1 for run in fn_runs if run.config_seconds == 0.0)
        assert free == sched.metrics.prefetch_hits
        assert sched.metrics.config_stall_seconds == pytest.approx(
            sum(run.config_seconds for run in fn_runs)
        )

    @given(apps=application_sets(), mode=st.sampled_from(["cache", "plan"]))
    @settings(max_examples=30)
    def test_caching_never_worsens_config_stall(self, apps, mode):
        """Every placement either hits (free) or pays the same
        shape-determined price ``never`` mode pays, so the exposed
        stall can only shrink — strictly, once any hit lands."""
        never, __ = run_mode(apps, "never")
        cached, __ = run_mode(apps, mode)
        baseline = never.metrics.config_stall_seconds
        stalled = cached.metrics.config_stall_seconds
        assert stalled <= baseline + 1e-9
        if cached.metrics.prefetch_hits:
            assert stalled < baseline


class TestEvictionOrder:
    @given(trace=cache_operations())
    @settings(max_examples=60)
    def test_never_drops_an_earlier_known_next_use(self, trace):
        """Under the kernel's contract — planned loads (known next
        use) go through ``admits``, demand loads (unknown next use)
        insert unconditionally because the bitstream is already on the
        fabric — no eviction ever drops a bitstream needed earlier
        than one it keeps."""
        capacity, ops = trace
        cache = BitstreamCache(capacity=capacity)
        for now, op in enumerate(ops):
            if op[0] == "insert":
                __, key, next_use = op
                if next_use is not None and not cache.admits(next_use):
                    continue  # the planner declines exactly here
                evicted = cache.insert(key, 2, 2, ready_at=float(now),
                                       now=float(now), next_use=next_use)
                if evicted is not None and evicted.next_use is not None:
                    for kept_key in cache.keys():
                        kept = cache.get(kept_key)
                        if kept.next_use is not None:
                            assert evicted.next_use >= kept.next_use, (
                                f"evicted {evicted.key!r} needed at "
                                f"{evicted.next_use} but kept "
                                f"{kept_key!r} needed at {kept.next_use}"
                            )
            elif op[0] == "hit":
                cache.hit(op[1], now=float(now))
            else:
                cache.note_next_use(op[1], op[2])
            assert len(cache) <= capacity

    @given(trace=cache_operations())
    @settings(max_examples=60)
    def test_state_roundtrip_preserves_behaviour(self, trace):
        """Snapshot, JSON and restore of a cache-mode service after a
        random trace is lossless: the clone reports the same state and
        would evict the same victim."""
        capacity, ops = trace
        svc = ReproService(ServiceConfig(prefetch="cache"))
        cache = svc.engine.kernel.caches[0]
        cache.capacity = capacity
        for now, op in enumerate(ops):
            if op[0] == "insert":
                cache.insert(op[1], 2, 2, ready_at=float(now),
                             now=float(now), next_use=op[2])
            elif op[0] == "hit":
                cache.hit(op[1], now=float(now))
            else:
                cache.note_next_use(op[1], op[2])
        clone = restore(json.loads(json.dumps(snapshot(svc))))
        assert snapshot(clone)["prefetch"] == snapshot(svc)["prefetch"]
        if len(cache):
            assert clone.engine.kernel.caches[0].peek_victim().key \
                == cache.peek_victim().key


class TestNeverModeIsInert:
    @given(seed=st.integers(0, 3),
           workload=st.sampled_from(["random", "bursty", "codec-swap"]))
    @settings(max_examples=12)
    def test_explicit_never_is_bit_identical_to_the_default(
            self, seed, workload):
        params = ((("n_apps", 2),) if workload == "codec-swap"
                  else (("n", 10),))
        base = dict(device="XC2S15", policy="concurrent",
                    workload=workload, seed=seed, workload_params=params)
        default = run_scenario(ScenarioSpec(**base))
        explicit = run_scenario(ScenarioSpec(prefetch="never", **base))
        assert default == explicit
        row = explicit.to_row()
        assert "prefetch" not in row
        for name in ScenarioResult.PREFETCH_METRIC_FIELDS:
            assert name not in row
        assert explicit.prefetch_hits == 0
        assert explicit.prefetch_loads == 0
        assert explicit.cache_evictions == 0
        assert explicit.config_stall_seconds > 0.0  # measured, not emitted
