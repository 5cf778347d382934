"""Incremental maintenance of the maximal-empty-rectangle set.

The run-time manager asks "does this function fit, and where?" after
every allocation, relocation and release; recomputing the whole KAMER
set from the grid each time (the ``"recompute"`` engine) makes that hot
path scale with the device, not with the change.  This engine updates
the set locally, the strip-packing insight of the on-line placement
literature (Angermeier et al.; Handa & Vinnakota's staircase methods):

* **allocate(rect)** — only maximal empty rectangles overlapping the
  newly occupied rectangle can change.  Each such MER shatters into at
  most four maximal sub-rectangles (above, below, left, right of the
  allocation); every free rectangle avoiding the allocation lies wholly
  in one of the four, so keeping the non-contained pieces preserves
  exactly the maximal set.  MERs not touching the allocation stay
  maximal: occupying sites never creates room to extend.

* **release(rect)** — every *new* maximal rectangle must contain a
  freed site, so its row span intersects the freed rows and some freed
  column is free across its full height.  The engine sweeps candidate
  row intervals outward from the freed rectangle (bounded by the first
  blocked row above and below — the sweep never leaves the reachable
  neighbourhood), reads the maximal column runs off a column prefix
  sum, and keeps the runs that cannot grow vertically.  Old MERs now
  contained in a bigger rectangle are dropped; the rest are untouched.

The differential suite (``tests/test_free_space_differential.py``)
holds this engine observationally identical to the reference
full-recomputation sweep over randomized alloc/release histories.
"""

from __future__ import annotations

import numpy as np

from repro.device.geometry import Rect

from .bitgrid import pack_free_rows
from .free_space import free_mask, maximal_empty_rectangles


class IncrementalFreeSpace:
    """The ``"incremental"`` free-space engine (see module docstring)."""

    name = "incremental"

    def __init__(self, occupancy: np.ndarray) -> None:
        self._occupancy = occupancy
        self._mers: set[Rect] = set(maximal_empty_rectangles(occupancy))
        self._free = int(free_mask(occupancy).sum())
        self._row_bits = pack_free_rows(occupancy)
        self._generation = 0

    # -- protocol: queries ---------------------------------------------------

    @property
    def occupancy(self) -> np.ndarray:
        """The bound occupancy grid."""
        return self._occupancy

    @property
    def generation(self) -> int:
        """Counter bumped by every effective occupancy mutation.

        Two queries at the same generation see byte-identical occupancy,
        so fit decisions and rearrangement plans may be memoised against
        this value (see :class:`repro.placement.fit.CachedFitter`).
        No-op mutations — releasing an already-free region — do not
        bump it: the logic space is provably unchanged.
        """
        return self._generation

    @property
    def mers(self) -> list[Rect]:
        """Current maximal empty rectangles (order unspecified)."""
        return list(self._mers)

    def fits(self, height: int, width: int) -> bool:
        """True when some free rectangle can host the request."""
        return any(
            r.height >= height and r.width >= width
            for r in self._mers
        )

    def rectangles_fitting(self, height: int, width: int) -> list[Rect]:
        """MERs that can host a ``height`` x ``width`` request."""
        return [
            r for r in self._mers
            if r.height >= height and r.width >= width
        ]

    def free_area(self) -> int:
        """Total free sites (tracked, not recounted)."""
        return self._free

    def largest_free_area(self) -> int:
        """Area of the largest free rectangle (0 when the grid is full)."""
        return max((r.area for r in self._mers), default=0)

    def rebuild(self) -> None:
        """Resynchronise with the grid after an external mutation."""
        self._mers = set(maximal_empty_rectangles(self._occupancy))
        self._free = int(free_mask(self._occupancy).sum())
        self._row_bits = pack_free_rows(self._occupancy)
        self._generation += 1

    # -- protocol: mutations -------------------------------------------------

    def _check_bounds(self, rect: Rect) -> None:
        rows, cols = self._occupancy.shape
        if rect.row < 0 or rect.col < 0 or rect.row_end > rows \
                or rect.col_end > cols:
            raise ValueError(f"rectangle {rect} outside the {rows}x{cols} grid")

    def allocate(self, rect: Rect, owner: int = 1) -> None:
        """Claim ``rect`` for ``owner``; the region must be free."""
        if owner == 0:
            raise ValueError("owner 0 is the free marker")
        self._check_bounds(rect)
        view = self._occupancy[rect.row : rect.row_end,
                               rect.col : rect.col_end]
        if bool((view != 0).any()):
            raise ValueError(f"region {rect} is not entirely free")
        view[...] = owner
        self._free -= rect.area
        self._generation += 1
        span = ((1 << rect.width) - 1) << rect.col
        for r in range(rect.row, rect.row_end):
            self._row_bits[r] &= ~span

        overlapping = [m for m in self._mers if m.overlaps(rect)]
        if not overlapping:
            return
        survivors = self._mers.difference(overlapping)
        pieces: set[Rect] = set()
        for m in overlapping:
            if rect.row > m.row:  # above the allocation
                pieces.add(Rect(m.row, m.col, rect.row - m.row, m.width))
            if rect.row_end < m.row_end:  # below
                pieces.add(
                    Rect(rect.row_end, m.col,
                         m.row_end - rect.row_end, m.width)
                )
            if rect.col > m.col:  # left
                pieces.add(Rect(m.row, m.col, m.height, rect.col - m.col))
            if rect.col_end < m.col_end:  # right
                pieces.add(
                    Rect(m.row, rect.col_end,
                         m.height, m.col_end - rect.col_end)
                )
        if not pieces:
            self._mers = survivors
            return
        # Absorption over precomputed coordinate tuples: the
        # ``o != p and o.contains_rect(p)`` formulation spends most of
        # its time in dataclass ``__eq__`` and property calls, and this
        # check runs on every allocation.
        cand = [
            (o.row, o.col, o.row + o.height, o.col + o.width)
            for o in survivors
        ]
        cand += [
            (o.row, o.col, o.row + o.height, o.col + o.width)
            for o in pieces
        ]
        kept = set()
        for p in pieces:
            pr = p.row
            pc = p.col
            pre = pr + p.height
            pce = pc + p.width
            for cr, cc, cre, cce in cand:
                if (cr <= pr and cc <= pc and cre >= pre
                        and cce >= pce
                        and not (cr == pr and cc == pc
                                 and cre == pre and cce == pce)):
                    break
            else:
                kept.add(p)
        self._mers = survivors | kept

    def release(self, rect: Rect) -> None:
        """Return ``rect`` to the free pool."""
        self._check_bounds(rect)
        view = self._occupancy[rect.row : rect.row_end,
                               rect.col : rect.col_end]
        freed = int((view != 0).sum())
        if freed == 0:
            return  # the region was already free: nothing can change
        view[...] = 0
        self._free += freed
        self._generation += 1
        span = ((1 << rect.width) - 1) << rect.col
        for r in range(rect.row, rect.row_end):
            self._row_bits[r] |= span

        fresh = self._maximal_through(rect)
        if not fresh:
            return
        # An old MER is demoted exactly when the freed space lets a
        # strictly larger rectangle absorb it — and that rectangle, being
        # maximal and intersecting the freed rect, is in ``fresh``.
        # Coordinate-tuple absorption scan (see ``allocate``).
        fr = [
            (n.row, n.col, n.row + n.height, n.col + n.width)
            for n in fresh
        ]
        survivors = set()
        for m in self._mers:
            mr = m.row
            mc = m.col
            mre = mr + m.height
            mce = mc + m.width
            for nr, nc, nre, nce in fr:
                if (nr <= mr and nc <= mc and nre >= mre
                        and nce >= mce
                        and not (nr == mr and nc == mc
                                 and nre == mre and nce == mce)):
                    break
            else:
                survivors.add(m)
        self._mers = survivors | set(fresh)

    # -- the release sweep ---------------------------------------------------

    def _maximal_through(self, rect: Rect) -> list[Rect]:
        """All maximal empty rectangles intersecting ``rect``.

        A maximal rectangle through the freed region spans rows
        ``r0..r1`` with ``r0 <=`` the rectangle's bottom row and
        ``r1 >=`` its top row, and some freed column free across all of
        them.  The per-row free-column bitmasks are engine state (kept
        current by every mutation), so the free columns of a row
        interval are a running AND, maximal column runs are carry
        chains, and the sweep stops the moment the freed columns all
        block — the work is bounded by the free neighbourhood of the
        release, not the grid.
        """
        rows = self._occupancy.shape[0]
        row_bits = self._row_bits
        top, bottom = rect.row, rect.row_end - 1
        seed = ((1 << rect.width) - 1) << rect.col
        out: list[Rect] = []
        # Top edges inside the freed rows: the interval starts at r0.
        for r0 in range(top, bottom + 1):
            self._sweep_down(row_bits, r0, r0, seed, rows, out)
        # Top edges above: AND in rows r0..top; once the freed columns
        # all block on that stretch, no higher top edge can reach.
        acc = row_bits[top] if top < rows else 0
        for r0 in range(top - 1, -1, -1):
            acc &= row_bits[r0]
            if not acc & seed:
                break
            self._sweep_down(row_bits, r0, top, seed, rows, out, acc)
        return out

    @staticmethod
    def _sweep_down(row_bits: list[int], r0: int, r1_start: int,
                    seed: int, rows: int, out: list[Rect],
                    band: int | None = None) -> None:
        """Emit the maximal rectangles with top edge ``r0`` whose free
        columns (``band``, AND of rows ``r0..r1``) still touch the
        ``seed`` columns, walking the bottom edge ``r1`` downward."""
        if band is None:
            band = row_bits[r0]
        not_above = ~(row_bits[r0 - 1] if r0 > 0 else 0)
        r1 = r1_start
        while band & seed:
            if not band & not_above:
                # Every run is free across row r0 - 1 too, so each is
                # emitted by the sweep starting there — and bands only
                # shrink walking down, so that stays true: done.
                return
            not_below = ~(row_bits[r1 + 1] if r1 < rows - 1 else 0)
            if band & not_below:
                x = band
                while x:
                    low = x & -x
                    grown = x + low
                    run = x & ~grown  # the lowest run of set bits
                    x &= grown
                    if not run & seed:
                        continue  # misses the freed columns
                    if not run & not_above:
                        continue  # grows upward: emitted at a smaller r0
                    if not run & not_below:
                        continue  # grows downward: emitted at larger r1
                    c0 = (run & -run).bit_length() - 1
                    c1 = run.bit_length() - 1
                    out.append(Rect(r0, c0, r1 - r0 + 1, c1 - c0 + 1))
            # else: the band persists through row r1 + 1, so every run
            # grows downward and the level emits nothing — skip the
            # run enumeration outright.
            r1 += 1
            if r1 >= rows:
                break
            band &= row_bits[r1]
