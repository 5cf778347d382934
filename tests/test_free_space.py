"""Unit + property tests for maximal-empty-rectangle enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device.geometry import Rect
from repro.placement.free_space import (
    FreeSpaceManager,
    largest_empty_rectangle,
    make_free_space,
    maximal_empty_rectangles,
    rectangles_fitting,
)


def brute_force_mers(occupancy: np.ndarray) -> set[Rect]:
    """Reference implementation: enumerate every all-free rectangle and
    keep those not contained in a larger free rectangle."""
    rows, cols = occupancy.shape
    free = occupancy == 0
    empties = []
    for r in range(rows):
        for c in range(cols):
            for h in range(1, rows - r + 1):
                for w in range(1, cols - c + 1):
                    if free[r : r + h, c : c + w].all():
                        empties.append(Rect(r, c, h, w))
    return {
        a for a in empties
        if not any(b != a and b.contains_rect(a) for b in empties)
    }


class TestMaximalEmptyRectangles:
    def test_empty_grid_single_mer(self):
        occ = np.zeros((4, 6), dtype=int)
        mers = maximal_empty_rectangles(occ)
        assert mers == [Rect(0, 0, 4, 6)]

    def test_full_grid_no_mer(self):
        occ = np.ones((3, 3), dtype=int)
        assert maximal_empty_rectangles(occ) == []

    def test_single_obstacle(self):
        occ = np.zeros((3, 3), dtype=int)
        occ[1, 1] = 7
        mers = set(maximal_empty_rectangles(occ))
        assert mers == brute_force_mers(occ)

    def test_l_shape(self):
        occ = np.zeros((4, 4), dtype=int)
        occ[0:2, 0:2] = 1
        assert set(maximal_empty_rectangles(occ)) == brute_force_mers(occ)

    def test_checkerboard(self):
        occ = np.indices((4, 4)).sum(axis=0) % 2
        assert set(maximal_empty_rectangles(occ)) == brute_force_mers(occ)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 12),
    )
    def test_matches_brute_force(self, rows, cols, pattern):
        rng = np.random.RandomState(pattern)
        occ = (rng.rand(rows, cols) < 0.4).astype(int)
        assert set(maximal_empty_rectangles(occ)) == brute_force_mers(occ)

    def test_all_results_are_empty_rectangles(self):
        rng = np.random.RandomState(3)
        occ = (rng.rand(10, 12) < 0.3).astype(int)
        for rect in maximal_empty_rectangles(occ):
            view = occ[rect.row : rect.row_end, rect.col : rect.col_end]
            assert (view == 0).all()


class TestQueries:
    def test_largest_empty_rectangle(self):
        occ = np.zeros((5, 5), dtype=int)
        occ[:, 2] = 1  # split into two 5x2 halves
        rect = largest_empty_rectangle(occ)
        assert rect.area == 10

    def test_largest_on_full_grid(self):
        assert largest_empty_rectangle(np.ones((2, 2), dtype=int)) is None

    def test_rectangles_fitting_respects_orientation(self):
        occ = np.zeros((3, 6), dtype=int)
        assert rectangles_fitting(occ, 3, 6)
        assert not rectangles_fitting(occ, 6, 3)  # no rotation


class TestFreeSpaceManager:
    def test_cache_invalidation(self):
        occ = np.zeros((4, 4), dtype=int)
        mgr = FreeSpaceManager(occ)
        assert mgr.fits(4, 4)
        occ[0, 0] = 1
        mgr.rebuild()
        assert not mgr.fits(4, 4)
        assert mgr.fits(3, 4)

    def test_free_area(self):
        occ = np.zeros((4, 4), dtype=int)
        occ[0, :] = 5
        assert FreeSpaceManager(occ).free_area() == 12

    def test_owned_mutations_need_no_invalidate(self):
        """The footgun fix: allocate/release keep the cache fresh on
        their own."""
        occ = np.zeros((4, 4), dtype=int)
        mgr = FreeSpaceManager(occ)
        assert mgr.fits(4, 4)
        mgr.allocate(Rect(0, 0, 1, 1), owner=9)
        assert not mgr.fits(4, 4) and occ[0, 0] == 9
        assert mgr.rectangles_fitting(3, 4)
        mgr.release(Rect(0, 0, 1, 1))
        assert mgr.fits(4, 4) and occ[0, 0] == 0

    def test_engine_factory(self):
        occ = np.zeros((3, 3), dtype=int)
        for name in ("recompute", "incremental"):
            engine = make_free_space(name, occ)
            assert engine.occupancy is occ
            assert engine.fits(3, 3)
        with pytest.raises(KeyError):
            make_free_space("clairvoyant", occ)
