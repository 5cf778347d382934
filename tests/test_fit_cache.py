"""The fit-score cache: exact invalidation by free-space generation.

:class:`repro.placement.fit.CachedFitter` memoises placement answers
against the free-space engines' ``generation`` counter.  The contract
under test:

* equal generations => byte-identical occupancy => the cached answer
  *is* the fresh answer (hits are observationally invisible);
* every effective mutation bumps the generation and drops the whole
  memo — the cache can never serve an answer computed against a grid
  that no longer exists;
* an **over-retaining** cache must fail: driven through an adversarial
  index whose generation counter does not move on mutation, the same
  query provably returns a stale rectangle — which is exactly the bug
  class the generation key eliminates, and the reason these tests pin
  the counter's semantics rather than just the happy path;
* ``prefetch`` (the admission loop's batch warm) produces bit-identical
  answers to one-at-a-time calls for every heuristic;
* grid-path calls (no index) and indexes without a generation counter
  bypass the cache entirely.
"""

import random

import numpy as np
import pytest

from repro.device.geometry import Rect
from repro.placement.fit import FIT_ALGORITHMS, CachedFitter, first_fit
from repro.placement.free_space import make_free_space
from repro.placement.incremental import IncrementalFreeSpace

SHAPES = [(1, 1), (2, 2), (3, 5), (4, 4), (2, 7), (6, 3)]


def churned_engine(rows=14, cols=20, steps=40, seed=11):
    """An incremental engine after some scattered alloc/release churn."""
    engine = IncrementalFreeSpace(np.zeros((rows, cols), dtype=np.int32))
    rng = random.Random(seed)
    placed = []
    owner = 0
    for _ in range(steps):
        if placed and rng.random() < 0.4:
            engine.release(placed.pop(rng.randrange(len(placed))))
            continue
        h, w = rng.randint(1, 4), rng.randint(1, 4)
        fitting = engine.rectangles_fitting(h, w)
        if not fitting:
            continue
        host = sorted(fitting)[rng.randrange(len(fitting))]
        rect = Rect(host.row + rng.randint(0, host.height - h),
                    host.col + rng.randint(0, host.width - w), h, w)
        owner += 1
        engine.allocate(rect, owner)
        placed.append(rect)
    return engine


class _OverRetainingIndex:
    """Adversarial wrapper: a real engine whose reported generation is
    frozen — the over-retention bug the cache key must make impossible.

    Everything else delegates, so any stale answer the cache serves
    comes purely from the broken invalidation token.
    """

    def __init__(self, engine):
        self._engine = engine
        self.generation = 0  # never moves

    def __getattr__(self, name):
        return getattr(self._engine, name)


class TestCacheTransparency:
    """Cached answers equal fresh answers for every heuristic."""

    @pytest.mark.parametrize("name", sorted(FIT_ALGORITHMS))
    def test_cached_equals_uncached_across_churn(self, name):
        fn = FIT_ALGORITHMS[name]
        cached = CachedFitter(fn)
        engine = IncrementalFreeSpace(np.zeros((12, 16), dtype=np.int32))
        rng = random.Random(5)
        placed = []
        owner = 0
        for step in range(60):
            # Interleave queries (twice each: miss then hit) with
            # mutations; the cached path must match the raw heuristic
            # at every generation.
            for h, w in SHAPES:
                expect = fn(engine.occupancy, h, w, index=engine)
                assert cached(engine.occupancy, h, w,
                              index=engine) == expect
                assert cached(engine.occupancy, h, w,
                              index=engine) == expect
            if placed and rng.random() < 0.45:
                engine.release(placed.pop(rng.randrange(len(placed))))
            else:
                spot = fn(engine.occupancy, rng.randint(1, 4),
                          rng.randint(1, 4), index=engine)
                if spot is None:
                    continue
                owner += 1
                engine.allocate(spot, owner)
                placed.append(spot)
        assert cached.hits > 0 and cached.misses > 0

    def test_repeat_queries_hit_until_mutation(self):
        cached = CachedFitter(first_fit)
        engine = churned_engine()
        occ = engine.occupancy
        cached(occ, 2, 2, index=engine)
        misses = cached.misses
        for _ in range(5):
            cached(occ, 2, 2, index=engine)
        assert cached.misses == misses  # same generation: all hits
        spot = first_fit(occ, 1, 1, index=engine)
        engine.allocate(spot, 999)  # generation bump
        cached(occ, 2, 2, index=engine)
        assert cached.misses == misses + 1  # memo was dropped


class TestExactInvalidation:
    """The generation key invalidates exactly when occupancy changes."""

    def test_noop_release_keeps_cache_warm(self):
        """No-op mutations provably change nothing — no invalidation."""
        cached = CachedFitter(first_fit)
        engine = churned_engine()
        free = first_fit(engine.occupancy, 2, 2, index=engine)
        cached(engine.occupancy, 3, 3, index=engine)
        misses = cached.misses
        engine.release(free)  # already free: generation must not move
        cached(engine.occupancy, 3, 3, index=engine)
        assert cached.misses == misses

    def test_over_retaining_cache_serves_stale_answers(self):
        """With the generation token frozen, the cache demonstrably
        returns a rectangle that is no longer free — the failure mode
        the per-generation key exists to rule out."""
        engine = IncrementalFreeSpace(np.zeros((8, 8), dtype=np.int32))
        broken = _OverRetainingIndex(engine)
        cached = CachedFitter(first_fit)
        first = cached(engine.occupancy, 3, 3, index=broken)
        assert first == Rect(0, 0, 3, 3)
        engine.allocate(Rect(0, 0, 3, 3), owner=7)
        stale = cached(engine.occupancy, 3, 3, index=broken)
        assert stale == first  # served from the over-retained memo
        fresh = first_fit(engine.occupancy, 3, 3, index=engine)
        assert fresh != stale  # ... and it is wrong
        # The real token heals it: the same cache against the honest
        # engine re-misses and returns the true answer.
        assert cached(engine.occupancy, 3, 3, index=engine) == fresh

    def test_cache_keyed_per_index_instance(self):
        """Two engines at the same generation number are different
        grids; the cache must not leak answers across them."""
        cached = CachedFitter(first_fit)
        a = IncrementalFreeSpace(np.zeros((8, 8), dtype=np.int32))
        b = IncrementalFreeSpace(np.zeros((8, 8), dtype=np.int32))
        b.allocate(Rect(0, 0, 4, 8), owner=1)
        b.release(Rect(0, 0, 4, 8))
        b.allocate(Rect(0, 0, 2, 8), owner=2)
        a.allocate(Rect(0, 0, 1, 1), owner=1)
        a.allocate(Rect(0, 1, 1, 1), owner=2)
        a.allocate(Rect(0, 2, 1, 1), owner=3)
        assert a.generation == b.generation
        assert cached(a.occupancy, 2, 2, index=a) == \
            first_fit(a.occupancy, 2, 2, index=a)
        assert cached(b.occupancy, 2, 2, index=b) == \
            first_fit(b.occupancy, 2, 2, index=b)


class TestPrefetch:
    """The admission loop's batch warm is observationally invisible."""

    @pytest.mark.parametrize("name", sorted(FIT_ALGORITHMS))
    def test_prefetch_equals_single_calls(self, name):
        fn = FIT_ALGORITHMS[name]
        engine = churned_engine(seed=23)
        cached = CachedFitter(fn)
        cached.prefetch(engine.occupancy, SHAPES, engine)
        misses = cached.misses
        for h, w in SHAPES:
            assert cached(engine.occupancy, h, w, index=engine) == \
                fn(engine.occupancy, h, w, index=engine)
        assert cached.misses == misses  # all served from the warm memo


class TestBypass:
    """States with no generation token are never cached."""

    def test_grid_path_bypasses_cache(self):
        cached = CachedFitter(first_fit)
        occ = np.zeros((6, 6), dtype=np.int32)
        assert cached(occ, 2, 2) == Rect(0, 0, 2, 2)
        occ[0:2, 0:2] = 5  # mutate with no index attached
        assert cached(occ, 2, 2) == Rect(0, 2, 2, 2)
        assert cached.hits == 0 and cached.misses == 0

    def test_generationless_index_bypasses_cache(self):
        class Bare:
            """Minimal index with no generation attribute."""

            def __init__(self, occ):
                self.occupancy = occ
                self._inner = make_free_space("recompute", occ)

            def rectangles_fitting(self, h, w):
                return self._inner.rectangles_fitting(h, w)

        occ = np.zeros((6, 6), dtype=np.int32)
        bare = Bare(occ)
        cached = CachedFitter(first_fit)
        assert cached(occ, 2, 2, index=bare) == Rect(0, 0, 2, 2)
        occ[0:2, 0:2] = 5
        bare._inner.rebuild()
        assert cached(occ, 2, 2, index=bare) == Rect(0, 2, 2, 2)
        assert cached.hits == 0 and cached.misses == 0
