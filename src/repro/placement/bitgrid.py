"""Packed-row bitmask primitives for placement hot paths.

The planner and the free-space engines all answer the same inner-loop
question — "is this ``height`` x ``width`` window entirely free?" — many
thousands of times per scheduling run.  Numpy views answer it in ~30µs;
a per-row Python integer whose bit ``c`` mirrors "column ``c`` is free"
answers it in well under a microsecond, because an entire row of the
device collapses to one machine word (or a few, via arbitrary-precision
ints) and a window test collapses to shift-and-AND arithmetic.

:class:`~repro.placement.incremental.IncrementalFreeSpace` already keeps
such masks for its release sweep; this module extracts the bit tricks so
the rearrangement planners (`repro.core.defrag`,
`repro.placement.compaction`) can run their candidate searches on the
same representation instead of slicing numpy scratch grids.

Conventions: bit ``c`` of ``row_bits[r]`` is set iff site ``(r, c)`` is
free.  A packed grid (:func:`pack_grid`) holds the same bit of row ``r``
at ``r * stride + c``.  All helpers are pure; callers own the (cheap)
list copies.
"""

from __future__ import annotations

import numpy as np

from repro.perf import PERF

#: Grid size (rows x columns) that splits the first-fit counters:
#: probes on smaller grids count as ``first_fit_scalar``, the rest as
#: ``first_fit_vector`` (see :mod:`repro.perf`).  Both sizes run the same
#: packed core, :func:`first_fit_packed`; the split only keeps the counts
#: comparable across releases.
SMALL_SET = 4096


def pack_free_rows(occupancy: np.ndarray) -> list[int]:
    """Per-row free-column bitmasks of a grid (bit c set = column c free)."""
    packed = np.packbits(occupancy == 0, axis=1, bitorder="little")
    return [
        int.from_bytes(packed[r].tobytes(), "little")
        for r in range(occupancy.shape[0])
    ]


def span_mask(col: int, width: int) -> int:
    """Bitmask covering columns ``col .. col + width - 1``."""
    return ((1 << width) - 1) << col


def run_anchor_mask(bits: int, width: int) -> int:
    """Anchors of ``width``-long runs: bit ``c`` set iff bits
    ``c .. c + width - 1`` are all set in ``bits``.

    Doubling shift-AND: after each step the mask witnesses runs of
    ``shift`` columns, and two overlapping witnesses ``step`` apart
    witness a run of ``shift + step``.
    """
    mask = bits
    shift = 1
    while shift < width and mask:
        step = min(shift, width - shift)
        mask &= mask >> step
        shift += step
    return mask


def pack_grid(row_bits: list[int], stride: int) -> int:
    """One integer holding every row: row ``r`` at bits ``r * stride``.

    With ``stride`` at least one more than the widest row, each row ends
    in a zero guard column, so a run of set bits can never wrap from one
    row into the next (see :func:`first_fit_packed`).
    """
    grid = 0
    for bits in reversed(row_bits):
        grid = (grid << stride) | bits
    return grid


def packed_anchors(grid: int, stride: int, height: int, width: int) -> int:
    """Anchors of free ``height`` x ``width`` windows in a packed grid.

    ``grid`` is a :func:`pack_grid` layout whose last column
    (``stride - 1``) is always clear.  One doubling shift/AND chain down
    the rows leaves bit ``(r, c)`` set iff column ``c`` is free in rows
    ``r .. r + height - 1`` (rows past the grid read as zero); a second
    chain along the columns leaves it set iff that band is free in
    columns ``c .. c + width - 1``.  A run that would cross the guard
    column reads a zero there, so it never wraps into the next row.
    """
    shift = 1
    while shift < height and grid:
        step = min(shift, height - shift)
        grid &= grid >> (step * stride)
        shift += step
    shift = 1
    while shift < width and grid:
        step = min(shift, width - shift)
        grid &= grid >> step
        shift += step
    return grid


def first_fit_packed(grid: int, rows: int, stride: int, height: int,
                     width: int) -> int | None:
    """Bit index of the row-major-first free ``height`` x ``width`` anchor.

    ``grid`` holds ``rows`` rows laid out by :func:`pack_grid`.  The
    lowest set bit of :func:`packed_anchors` is the topmost row's
    leftmost anchor, exactly :func:`repro.placement.fit.first_fit`'s
    choice.  Returns the bit index (``divmod(index, stride)`` is
    ``(row, col)``) or ``None``.
    """
    if height > rows or width >= stride:
        return None
    if rows * (stride - 1) >= SMALL_SET:
        PERF.first_fit_vector += 1
    else:
        PERF.first_fit_scalar += 1
    anchors = packed_anchors(grid, stride, height, width)
    if not anchors:
        return None
    return (anchors & -anchors).bit_length() - 1


def anchor_extents(grid: int, stride: int, height: int,
                   width: int) -> tuple[int, int, int, int] | None:
    """``(top, bottom, left, right)`` over every free-window anchor.

    The first and last anchor rows, and the first and last columns
    holding an anchor in any row, of :func:`packed_anchors`; ``None``
    when the shape fits nowhere.  Folding the anchor rows onto row 0
    (doubling shift/OR) gives the columns.
    """
    anchors = packed_anchors(grid, stride, height, width)
    if not anchors:
        return None
    low = (anchors & -anchors).bit_length() - 1
    top = low // stride
    bottom = (anchors.bit_length() - 1) // stride
    fold = anchors >> (top * stride)
    span = 1
    while span <= bottom - top:
        fold |= fold >> (span * stride)
        span *= 2
    fold &= (1 << stride) - 1
    return (top, bottom, (fold & -fold).bit_length() - 1,
            fold.bit_length() - 1)


def first_fit_bits(row_bits: list[int], height: int,
                   width: int) -> tuple[int, int] | None:
    """Row-major-first anchor of a free ``height`` x ``width`` window.

    Matches :func:`repro.placement.fit.first_fit`'s grid path exactly:
    the topmost row holding any feasible anchor wins, leftmost column
    within it.  Returns ``(row, col)`` or ``None``.  The rows are packed
    into one integer (:func:`pack_grid`) and answered by
    :func:`first_fit_packed`; callers probing one grid many times should
    pack it once and call the core directly.
    """
    cols = max(map(int.bit_length, row_bits), default=0)
    stride = cols + 1
    at = first_fit_packed(pack_grid(row_bits, stride), len(row_bits),
                          stride, height, width)
    return None if at is None else divmod(at, stride)


def clear_rect(row_bits: list[int], row: int, row_end: int,
               mask: int) -> None:
    """Mark the masked columns of rows ``row .. row_end - 1`` occupied."""
    inv = ~mask
    for r in range(row, row_end):
        row_bits[r] &= inv


def set_rect(row_bits: list[int], row: int, row_end: int,
             mask: int) -> None:
    """Mark the masked columns of rows ``row .. row_end - 1`` free."""
    for r in range(row, row_end):
        row_bits[r] |= mask


def band_mask(row_bits: list[int], row: int, row_end: int) -> int:
    """Columns free across *all* of rows ``row .. row_end - 1``."""
    band = row_bits[row]
    for r in range(row + 1, row_end):
        band &= row_bits[r]
        if not band:
            break
    return band
