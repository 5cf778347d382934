"""Differential tests: the packed first-fit core against the grid reference.

:func:`repro.placement.bitgrid.first_fit_packed` answers a first-fit
probe on the whole grid packed into one integer, with a zero guard
column after every row.  :func:`repro.placement.fit.first_fit` answers
the same probe on the numpy grid.  The two must agree on every grid and
shape, including the edges where a packed run could wrap into the next
row or read past the last one.  ``anchor_extents``, which the eviction
screen reads, must likewise bound exactly the anchors of
:func:`repro.placement.fit.free_anchor_mask`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.placement.bitgrid import (
    anchor_extents,
    first_fit_bits,
    first_fit_packed,
    pack_free_rows,
    pack_grid,
)
from repro.placement.fit import first_fit, free_anchor_mask


def reference(occ: np.ndarray, height: int, width: int):
    spot = first_fit(occ, height, width)
    return None if spot is None else (spot.row, spot.col)


def packed(occ: np.ndarray, height: int, width: int):
    rows, cols = occ.shape
    stride = cols + 1
    at = first_fit_packed(pack_grid(pack_free_rows(occ), stride), rows,
                          stride, height, width)
    return None if at is None else divmod(at, stride)


def assert_agree(occ: np.ndarray, height: int, width: int) -> None:
    expected = reference(occ, height, width)
    assert packed(occ, height, width) == expected
    assert first_fit_bits(pack_free_rows(occ), height, width) == expected
    rows, cols = occ.shape
    if height > rows or width > cols:
        return
    anchor_rows, anchor_cols = np.nonzero(free_anchor_mask(occ, height,
                                                            width))
    extents = (None if anchor_rows.size == 0 else
               (anchor_rows.min(), anchor_rows.max(),
                anchor_cols.min(), anchor_cols.max()))
    assert anchor_extents(pack_grid(pack_free_rows(occ), cols + 1),
                          cols + 1, height, width) == extents


@st.composite
def grids_and_shapes(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=70))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    occ = (np.random.default_rng(seed).random((rows, cols)) < density) \
        .astype(np.int32)
    height = draw(st.integers(min_value=1, max_value=rows + 1))
    width = draw(st.integers(min_value=1, max_value=cols + 1))
    return occ, height, width


@settings(max_examples=300, deadline=None)
@given(case=grids_and_shapes())
def test_packed_first_fit_matches_grid_reference(case):
    assert_agree(*case)


@pytest.mark.parametrize("rows,cols", [(1, 1), (3, 7), (8, 12), (28, 42),
                                       (40, 64), (64, 96)])
def test_full_width_and_full_height_shapes(rows, cols):
    occ = np.zeros((rows, cols), dtype=np.int32)
    occ[rows - 1, cols - 1] = 1
    for height, width in [(rows, 1), (1, cols), (rows, cols),
                          (rows - 1 or 1, cols), (rows, cols - 1 or 1),
                          (rows + 1, 1), (1, cols + 1)]:
        assert_agree(occ, height, width)


@pytest.mark.parametrize("fill", [0, 1])
def test_empty_and_full_grids(fill):
    occ = np.full((9, 20), fill, dtype=np.int32)
    for height in range(1, 11):
        for width in range(1, 22):
            assert_agree(occ, height, width)


def test_free_bits_stopping_short_of_the_last_column():
    """No row is free near the right edge, so the widest free bit (which
    sets :func:`first_fit_bits`' stride) lies well inside the grid."""
    rng = np.random.default_rng(7)
    occ = (rng.random((10, 40)) < 0.3).astype(np.int32)
    occ[:, 25:] = 1
    occ[4:7, 18:25] = 0
    for height in range(1, 5):
        for width in range(1, 10):
            assert_agree(occ, height, width)


def test_runs_never_wrap_into_the_next_row():
    """A free tail of one row and a free head of the next are adjacent
    in the packed integer but separated by the guard column."""
    occ = np.ones((4, 10), dtype=np.int32)
    occ[1, 7:] = 0
    occ[2, :4] = 0
    for width in range(1, 8):
        assert_agree(occ, 1, width)
    assert packed(occ, 1, 4) == (2, 0)
    assert packed(occ, 1, 5) is None
