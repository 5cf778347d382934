"""On-line placement heuristics for incoming functions.

When a new function arrives, the manager must pick a free rectangle for
it ("placement decisions have to be made on-line", section 1).  These are
the standard choices evaluated by the on-line placement literature the
paper builds on (Diessel et al. [5]):

* :func:`first_fit` — row-major scan, first position whose rectangle is
  free;
* :func:`best_fit` — the maximal empty rectangle with the least leftover
  area, anchored at its corner;
* :func:`bottom_left` — the feasible position closest to the top-left
  corner (classic on-line bin-packing heuristic).

All return a :class:`~repro.device.geometry.Rect` or ``None`` without
modifying the grid; the caller allocates.  Each heuristic has two equal
query paths:

* **grid path** (``index=None``) — feasibility testing over an integral
  image of the occupancy grid, O(rows x cols) vectorised numpy; used on
  the planner's scratch grids, which have no index attached;
* **index path** — read the answer off a
  :class:`~repro.placement.free_space.FreeSpaceIndex`'s maximal empty
  rectangles in O(K): every feasible anchor lies in some fitting MER
  whose top-left corner precedes it in the heuristic's order, so the
  best corner *is* the answer.

The two paths return identical rectangles (the differential suite pins
this), so schedulers can switch engines without changing the science.
"""

from __future__ import annotations

import numpy as np

from repro.device.geometry import Rect

from .free_space import FreeSpaceIndex, rectangles_fitting


def free_anchor_mask(occupancy: np.ndarray, height: int,
                     width: int) -> np.ndarray:
    """Boolean mask of anchors where a ``height`` x ``width`` rectangle
    is entirely free.  Shape: (rows-height+1, cols-width+1); empty when
    the request exceeds the grid."""
    rows, cols = occupancy.shape
    if height > rows or width > cols or height < 1 or width < 1:
        return np.zeros((0, 0), dtype=bool)
    occupied = (occupancy != 0).astype(np.int32)
    integral = np.zeros((rows + 1, cols + 1), dtype=np.int64)
    integral[1:, 1:] = occupied.cumsum(0).cumsum(1)
    window = (
        integral[height:, width:]
        - integral[:-height, width:]
        - integral[height:, :-width]
        + integral[:-height, :-width]
    )
    return window == 0


def _fitting(occupancy: np.ndarray, height: int, width: int,
             index: FreeSpaceIndex | None) -> list[Rect]:
    """MERs hosting the request, from the index when one is attached."""
    if index is not None:
        return index.rectangles_fitting(height, width)
    return rectangles_fitting(occupancy, height, width)


def first_fit(occupancy: np.ndarray, height: int, width: int,
              index: FreeSpaceIndex | None = None) -> Rect | None:
    """First free position in row-major order.

    Index path: any feasible anchor (r, c) lies inside a fitting MER
    whose corner (M.row, M.col) precedes (r, c) row-major and is itself
    feasible — so the row-major-first corner over fitting MERs is the
    row-major-first anchor.
    """
    if index is not None:
        fitting = index.rectangles_fitting(height, width)
        if not fitting:
            return None
        host = min(fitting, key=lambda r: (r.row, r.col))
        return Rect(host.row, host.col, height, width)
    mask = free_anchor_mask(occupancy, height, width)
    if mask.size == 0 or not mask.any():
        return None
    flat = int(np.flatnonzero(mask)[0])
    r, c = divmod(flat, mask.shape[1])
    return Rect(r, c, height, width)


def best_fit(occupancy: np.ndarray, height: int, width: int,
             index: FreeSpaceIndex | None = None) -> Rect | None:
    """Anchor in the maximal empty rectangle with least leftover area.

    Leftover ties break toward the smaller rectangle perimeter and then
    toward the top-left, keeping the packing deterministic.
    """
    fitting = _fitting(occupancy, height, width, index)
    if not fitting:
        return None

    def key(r: Rect) -> tuple[int, int, int, int]:
        leftover = r.area - height * width
        return (leftover, 2 * (r.height + r.width), r.row, r.col)

    host = min(fitting, key=key)
    return Rect(host.row, host.col, height, width)


def bottom_left(occupancy: np.ndarray, height: int, width: int,
                index: FreeSpaceIndex | None = None) -> Rect | None:
    """The feasible position minimising (row + col), then row.

    Packs functions toward one corner, which empirically preserves large
    free rectangles on the opposite side.  Index path: within one MER's
    anchor range both coordinates are minimised at its corner, so the
    best corner over fitting MERs minimises the key globally.
    """
    if index is not None:
        fitting = index.rectangles_fitting(height, width)
        if not fitting:
            return None
        host = min(fitting, key=lambda r: (r.row + r.col, r.row))
        return Rect(host.row, host.col, height, width)
    mask = free_anchor_mask(occupancy, height, width)
    if mask.size == 0 or not mask.any():
        return None
    rs, cs = np.nonzero(mask)
    keys = rs + cs
    best = int(np.lexsort((rs, keys))[0])
    return Rect(int(rs[best]), int(cs[best]), height, width)


#: Registry used by the manager/scheduler configuration surface.
FIT_ALGORITHMS = {
    "first": first_fit,
    "best": best_fit,
    "bottom-left": bottom_left,
}


def fitter(name: str):
    """Look up a placement heuristic by name."""
    try:
        return FIT_ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(FIT_ALGORITHMS))
        raise KeyError(f"unknown fit algorithm {name!r}; known: {known}") from None


class CachedFitter:
    """A placement heuristic memoised per free-space generation.

    The admission hot path re-asks the same fit question many times
    between occupancy changes (every admission pass probes every waiting
    shape).  A heuristic's answer is a pure function of (occupancy,
    height, width), and the engines' ``generation`` counter names the
    occupancy: it bumps on every effective mutation, so equal
    generations guarantee a byte-identical grid.  The cache therefore
    keys on ``(generation, height, width)`` and is dropped wholesale the
    moment the generation moves — over-retention is impossible by
    construction (``tests/test_fit_cache.py`` pins this with an
    adversarially mutated engine).

    Grid-path calls (no index) and indexes without a generation counter
    bypass the cache entirely: there is no token naming the grid state.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self._index_id: int | None = None
        self._generation: int | None = None
        self._answers: dict[tuple[int, int], Rect | None] = {}
        #: cache telemetry (hits/misses), for the property tests and
        #: the work budgets (``tests/test_work_budget.py``).
        self.hits = 0
        self.misses = 0

    def _sync(self, index: FreeSpaceIndex) -> bool:
        """Point the cache at ``index``'s current generation; False when
        the index exposes no generation counter (cache unusable)."""
        generation = getattr(index, "generation", None)
        if generation is None:
            return False
        if self._index_id != id(index) or self._generation != generation:
            self._index_id = id(index)
            self._generation = generation
            self._answers.clear()
        return True

    def __call__(self, occupancy: np.ndarray, height: int, width: int,
                 index: FreeSpaceIndex | None = None) -> Rect | None:
        """Answer like the wrapped heuristic, consulting the cache."""
        if index is None or not self._sync(index):
            return self.fn(occupancy, height, width, index=index)
        key = (height, width)
        try:
            answer = self._answers[key]
        except KeyError:
            self.misses += 1
            answer = self.fn(occupancy, height, width, index=index)
            self._answers[key] = answer
            return answer
        self.hits += 1
        return answer

    def prefetch(self, occupancy: np.ndarray,
                 shapes: list[tuple[int, int]],
                 index: FreeSpaceIndex) -> None:
        """Warm the cache for many shapes at the index's current
        generation.

        The admission loop calls this once per pass with every
        queue-eligible shape, so the per-item probes that follow are
        dictionary lookups.  Each shape not yet cached costs one call of
        the wrapped heuristic and counts as one miss, exactly as a
        single call would.
        """
        if not shapes or not self._sync(index):
            return
        for height, width in [s for s in shapes if s not in self._answers]:
            self.misses += 1
            self._answers[(height, width)] = self.fn(
                occupancy, height, width, index=index
            )
