"""Differential suite v2: the incremental engine and the reference, in
lockstep.

The first differential suite (``tests/test_free_space_differential.py``)
compares each engine to the ground-truth sweep; this one drives **the
incremental engine and the reference recompute engine through one
identical mutation history in lockstep** and, after *every* step, holds
three observables equal:

* the MER sets,
* every index-backed fragmentation/utilization metric,
* the free-space **generation counters** — including that no-op
  releases bump neither (the fit cache, the planner memo and the
  kernel's failure record key on this counter, so a counter divergence
  would silently decouple their invalidation from reality).

Histories run from tiny grids to the XCV200's 28 x 42, scattering
placements so the MER set grows well past the handful an XC2S15 holds.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device.geometry import Rect
from repro.placement import metrics
from repro.placement.free_space import (
    FreeSpaceManager,
    maximal_empty_rectangles,
)
from repro.placement.incremental import IncrementalFreeSpace

pytestmark = pytest.mark.slow


def make_pair(rows: int, cols: int):
    """One (incremental, reference) engine pair over twin empty grids."""
    inc = IncrementalFreeSpace(np.zeros((rows, cols), dtype=np.int32))
    ref = FreeSpaceManager(np.zeros((rows, cols), dtype=np.int32))
    return inc, ref


def assert_lockstep(inc: IncrementalFreeSpace,
                    ref: FreeSpaceManager) -> None:
    """Full observational equality of the two engines."""
    assert inc.generation == ref.generation
    occ_inc, occ_ref = inc.occupancy, ref.occupancy
    assert (occ_inc == occ_ref).all()
    assert set(inc.mers) == set(ref.mers)
    assert inc.free_area() == ref.free_area()
    assert inc.largest_free_area() == ref.largest_free_area()
    assert metrics.fragmentation_index(occ_inc, index=inc) == \
        pytest.approx(metrics.fragmentation_index(occ_ref, index=ref))
    assert metrics.average_free_rectangle(occ_inc, index=inc) == \
        pytest.approx(metrics.average_free_rectangle(occ_ref, index=ref))
    assert metrics.utilization(occ_inc, index=inc) == \
        pytest.approx(metrics.utilization(occ_ref, index=ref))
    assert metrics.reclaimable_sites(occ_inc, index=inc) == \
        metrics.reclaimable_sites(occ_ref, index=ref)
    requests = [(1, 1), (2, 3), (4, 4), (3, 7)]
    assert metrics.satisfiable_fraction(occ_inc, requests, index=inc) == \
        pytest.approx(
            metrics.satisfiable_fraction(occ_ref, requests, index=ref)
        )


def drive_lockstep(inc: IncrementalFreeSpace, ref: FreeSpaceManager,
                   rng: random.Random, steps: int,
                   max_h: int, max_w: int,
                   check_every: int = 1) -> int:
    """Apply one random history to both engines, checking as we go.

    Mutations are chosen off the *reference* engine's view (placements
    from its MER set), so any incremental-engine divergence shows up as
    an observational mismatch rather than as a forked history.  A slice
    of the steps are deliberate **no-op releases** of already-free
    regions, which must leave both generation counters untouched.
    Returns the number of mutations applied.
    """
    rows, cols = ref.occupancy.shape
    placed: dict[int, Rect] = {}
    owner = 0
    mutations = 0
    for _ in range(steps):
        roll = rng.random()
        if placed and (roll < 0.42
                       or ref.free_area() < max_h * max_w):
            victim = sorted(placed)[rng.randrange(len(placed))]
            rect = placed.pop(victim)
            ref.release(rect)
            inc.release(rect)
        elif roll < 0.52:
            # No-op release: a sub-rectangle of a free MER.  Neither
            # engine may bump its generation for a provably unchanged
            # logic space.
            fitting = ref.rectangles_fitting(1, 1)
            if not fitting:
                continue
            host = min(fitting, key=lambda r: (r.row, r.col))
            rect = Rect(host.row, host.col,
                        rng.randint(1, host.height),
                        rng.randint(1, host.width))
            before = ref.generation
            ref.release(rect)
            inc.release(rect)
            assert ref.generation == before
            assert inc.generation == before
        else:
            h = rng.randint(1, min(max_h, rows))
            w = rng.randint(1, min(max_w, cols))
            fitting = ref.rectangles_fitting(h, w)
            if not fitting:
                continue
            # A random anchor inside a random fitting MER (not first
            # fit): scattering placements keeps the grid fragmented,
            # which is what grows the MER set.
            host = sorted(fitting)[rng.randrange(len(fitting))]
            rect = Rect(host.row + rng.randint(0, host.height - h),
                        host.col + rng.randint(0, host.width - w),
                        h, w)
            owner += 1
            ref.allocate(rect, owner)
            inc.allocate(rect, owner)
            placed[owner] = rect
        mutations += 1
        if mutations % check_every == 0:
            assert_lockstep(inc, ref)
    assert_lockstep(inc, ref)
    return mutations


class TestLockstepProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(3, 9), st.integers(3, 9),
        st.integers(0, 2 ** 16),
    )
    def test_random_histories_small_grids(self, rows, cols, seed):
        """Small grids: a handful of MERs, every grid shape 3..9."""
        inc, ref = make_pair(rows, cols)
        drive_lockstep(inc, ref, random.Random(seed), steps=30,
                       max_h=rows, max_w=cols)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 16))
    def test_random_histories_vectorised_grid(self, seed):
        """A mid-size grid, whose churn holds dozens of MERs."""
        inc, ref = make_pair(16, 24)
        drive_lockstep(inc, ref, random.Random(seed),
                       steps=60, max_h=4, max_w=4, check_every=4)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(4, 10), st.integers(4, 10),
        st.integers(0, 2 ** 12),
    )
    def test_generation_counts_effective_mutations_only(self, rows,
                                                        cols, seed):
        """Generations equal the number of *effective* mutations."""
        inc, ref = make_pair(rows, cols)
        mutations = drive_lockstep(inc, ref, random.Random(seed),
                                   steps=25, max_h=rows, max_w=cols,
                                   check_every=25)
        # Every step either mutated both engines once or was a no-op
        # release; the counters must agree with each other at the end
        # (checked inside) and never exceed the mutation count.
        assert inc.generation == ref.generation <= mutations


class TestLongChurn:
    """The acceptance bar: 1000+ lockstep steps on the XCV200 grid."""

    def test_thousand_step_lockstep_churn(self):
        rng = random.Random(20030303)
        inc, ref = make_pair(28, 42)
        full_every = 25
        mutations = drive_lockstep(
            inc, ref, rng, steps=1200, max_h=7, max_w=10,
            check_every=full_every,
        )
        assert mutations >= 1000
        # Final state agrees with the ground-truth sweep, not just with
        # the sibling engine.
        assert set(inc.mers) == \
            set(maximal_empty_rectangles(inc.occupancy))

    def test_small_grid_long_churn(self):
        """An XC2S15-sized grid, 1000+ steps."""
        rng = random.Random(977)
        inc, ref = make_pair(8, 12)
        mutations = drive_lockstep(
            inc, ref, rng, steps=1100, max_h=4, max_w=5,
            check_every=20,
        )
        assert mutations >= 1000
