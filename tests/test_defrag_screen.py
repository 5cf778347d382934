"""Differential suite: the eviction screen never drops a usable window.

:meth:`DefragPlanner._screen_windows` discards candidate eviction
windows before the sequential relocation search runs.  It may only drop
windows that search would reject, so a planner whose screen keeps
every window (each one goes to ``_evict_moves``) must return the same
plans.  The suite draws fragmented grids up to 64 columns wide (the
widest the slab's uint64 rows hold, past the 52 columns a float64 mask
holds) and from 65 to 128 columns, resolves several shapes at one token
and then more shapes at the same token, so later calls read (blocker
set, shape) extents stored by earlier ones, and runs each screen path
on every example: the per-window Python path and the numpy slab, whose
new pairs are then all computed in slabs (the per-window path computes
them one at a time, as the slab does for small batches).  Grids wider
than 64 columns always take the Python path.  A window's blocker set is
one integer over the residents numbered largest first; the brute force
reads the blockers off the grid and checks that integer, and a fixed
grid of a few hundred residents holds sets past one 64-bit word.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.defrag as defrag
from repro.core.defrag import DefragPlanner
from repro.perf import PERF
from repro.placement.compaction import footprints
from repro.placement.fit import first_fit


@st.composite
def fragmented_grids(draw):
    """A grid packed with random residents, then hole-punched."""
    rows = draw(st.integers(min_value=4, max_value=10))
    cols = draw(st.one_of(st.integers(min_value=6, max_value=24),
                          st.integers(min_value=50, max_value=64),
                          st.integers(min_value=65, max_value=128)))
    occ = np.zeros((rows, cols), dtype=np.int32)
    owner = 0
    for _ in range(draw(st.integers(min_value=4, max_value=90))):
        h = draw(st.integers(min_value=1, max_value=4))
        w = draw(st.integers(min_value=1, max_value=6))
        spot = first_fit(occ, h, w)
        if spot is None:
            continue
        owner += 1
        occ[spot.row:spot.row_end, spot.col:spot.col_end] = owner
    for resident in range(1, owner + 1):
        if draw(st.integers(min_value=0, max_value=2)) == 0:
            occ[occ == resident] = 0
    return occ


def shape_lists(most: int = 6):
    """Two to ``most`` distinct requested shapes."""
    return st.lists(
        st.tuples(st.integers(min_value=1, max_value=10),
                  st.integers(min_value=1, max_value=12)),
        min_size=2, max_size=most, unique=True,
    )


def unscreened() -> DefragPlanner:
    """A planner that sends every window to the relocation search."""
    planner = DefragPlanner()
    planner._screen_windows = lambda occupancy, state, groups: [
        np.ones(len(group[0]), dtype=bool) for group in groups
    ]
    return planner


def forced(path: str):
    """Send every screen call down one path, whatever its window count;
    the slab computes all of its new pairs in slabs, however few."""
    return mock.patch.multiple(
        defrag, SCREEN_SLAB_MIN=10**9 if path == "scalar" else 0,
        PAIR_SLAB_MIN=0)


@pytest.mark.slow
@pytest.mark.parametrize("path", ["scalar", "slab"])
@settings(max_examples=60, deadline=None)
@given(occ=fragmented_grids(), first=shape_lists(), second=shape_lists())
def test_screen_keeps_every_usable_window(path, occ, first, second):
    with forced(path):
        check_same_plans(occ, first, second)


def check_same_plans(occ, first, second):
    reference = unscreened()
    token = object()
    planner = DefragPlanner()
    # One shape alone, then a batch, then more shapes at the same token:
    # the later screens read pairs the earlier ones stored.
    single = planner.plan(occ, *first[0], token=token)
    planner.plan_prefetch(occ, first, token)
    planner.plan_prefetch(occ, second + first, token)
    assert single == reference.plan(occ, *first[0])
    for height, width in second + first:
        expected = reference.plan(occ, height, width)
        assert planner.plan(occ, height, width, token=token) == expected
        assert DefragPlanner().plan(occ, height, width) == expected


def brute_force_keep(occ, state, keys, wr, wc, height, width):
    """The screen's definition, one window at a time on numpy grids:
    keep a window iff every blocker's shape fits somewhere in the grid
    with all its blockers lifted and the target reserved.  The blockers
    are read off the grid; each window's key must be exactly their set,
    bit ``p`` naming the state's resident ``p``."""
    index = {owner: p for p, (owner, _) in enumerate(state["print_items"])}
    keep = []
    for key, top, left in zip(keys, wr, wc):
        owners = np.unique(occ[top:top + height, left:left + width])
        members = [index[owner] for owner in owners.tolist() if owner]
        assert key == sum(1 << p for p in members)
        grid = occ.copy()
        blockers = [state["print_items"][p][1] for p in members]
        for rect in blockers:
            grid[rect.row:rect.row_end, rect.col:rect.col_end] = 0
        grid[top:top + height, left:left + width] = -1
        keep.append(all(first_fit(grid, rect.height, rect.width) is not None
                        for rect in blockers))
    return np.array(keep, dtype=bool)


@pytest.mark.slow
@pytest.mark.parametrize("path", ["scalar", "slab"])
@settings(max_examples=40, deadline=None)
@given(occ=fragmented_grids(), shapes=shape_lists(most=4))
def test_screen_verdicts_match_brute_force(path, occ, shapes):
    """Every verdict, kept or dropped, equals the definition: the
    extents test neither drops a window nor keeps one it could drop."""
    planner = DefragPlanner()
    state = planner._evict_state(occ, footprints(occ), {})
    # Residents are numbered largest first.
    areas = [rect.area for _, rect in state["print_items"]]
    assert areas == sorted(areas, reverse=True)
    rows, cols = occ.shape
    groups = []
    for height, width in shapes:
        if height <= rows and width <= cols and state["print_items"]:
            win = planner._eviction_windows(occ, state, height, width)
            if win is not None:
                groups.append((*win, height, width))
    if not groups:
        return
    with forced(path):
        # Twice at one token: the second call reads the stored pairs.
        for _ in range(2):
            keeps = planner._screen_windows(occ, state, groups)
            for keep, group in zip(keeps, groups):
                assert np.array_equal(
                    keep, brute_force_keep(occ, state, *group))


def _lattice(cols: int) -> np.ndarray:
    """2x2 residents on a 3-pitch lattice: free space is all one-wide
    lanes, so every request of 2x3 or more needs an eviction."""
    occ = np.zeros((9, cols), dtype=np.int32)
    owner = 0
    for row in range(0, 9, 3):
        for col in range(0, cols - 1, 3):
            owner += 1
            occ[row:row + 2, col:col + 2] = owner
    return occ


@pytest.mark.parametrize("cols", [58, 72])
@pytest.mark.parametrize("path", ["scalar", "slab"])
def test_screen_reuses_pairs_within_a_token(path, cols):
    occ = _lattice(cols)
    planner = DefragPlanner()
    token = object()
    with forced(path):
        PERF.reset()
        planner.plan(occ, 3, 3, token=token)
        first = PERF.snapshot()
        assert first["screen_calls"] == 1
        assert first["screen_cache_hits"] == 0
        assert first["screen_cache_misses"] > 0
        planner.plan(occ, 3, 4, token=token)
        second = PERF.snapshot()
        assert second["screen_calls"] == 2
        assert second["screen_cache_hits"] > 0
        # A new token starts from an empty cache.
        planner.plan(occ, 3, 5, token=object())
        assert PERF.snapshot()["screen_cache_hits"] \
            == second["screen_cache_hits"]
        PERF.reset()
        for height, width in [(3, 3), (3, 4), (3, 5)]:
            assert planner.plan(occ, height, width) \
                == unscreened().plan(occ, height, width)


def _dominoes(cols: int) -> np.ndarray:
    """A row pair of 2x4 residents over eight rows of 1x2 residents,
    every seventh 1x2 one removed: the holes are lone 1x2 gaps, so every
    request of 2x2 or 1x3 and more needs an eviction, a window over a
    2x4 resident has nowhere to send it, and the residents number in the
    hundreds."""
    occ = np.zeros((10, cols), dtype=np.int32)
    owner = 0
    for col in range(0, cols - 3, 4):
        owner += 1
        occ[0:2, col:col + 4] = owner
    for row in range(2, 10):
        for col in range(0, cols - 1, 2):
            owner += 1
            if owner % 7:
                occ[row, col:col + 2] = owner
    return occ


@pytest.mark.parametrize("cols", [64, 128])
@pytest.mark.parametrize("path", ["scalar", "slab"])
def test_screen_past_one_word_of_residents(path, cols):
    """Blocker sets of more than 64 residents span several 64-bit
    words: every verdict still equals the brute force, and every plan
    the unscreened planner's.  At 128 columns both paths run the
    per-window Python screen."""
    occ = _dominoes(cols)
    shapes = [(2, 3), (3, 4), (2, 5), (4, 2)]
    planner = DefragPlanner()
    state = planner._evict_state(occ, footprints(occ), {})
    assert len(state["print_items"]) > 3 * 64
    groups = [(*planner._eviction_windows(occ, state, height, width),
               height, width) for height, width in shapes]
    # Some window's set reaches past the first word.
    assert max(key.bit_length() for group in groups for key in group[0]) \
        > 64
    with forced(path):
        for _ in range(2):
            keeps = planner._screen_windows(occ, state, groups)
            for keep, group in zip(keeps, groups):
                assert np.array_equal(
                    keep, brute_force_keep(occ, state, *group))
        assert any(keep.any() for keep in keeps)
        assert not all(keep.all() for keep in keeps)
        check_same_plans(occ, shapes[:2], shapes[2:])
    assert all(DefragPlanner().plan(occ, height, width) is not None
               for height, width in shapes)
