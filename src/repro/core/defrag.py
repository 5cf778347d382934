"""Rearrangement planning: which running functions move, and where.

The goal, from the paper's section 1:

    "If a new function cannot be allocated immediately due to lack of
    contiguous free resources, a suitable rearrangement of a subset of
    the functions currently running may solve the problem."

The planner proposes a move list that releases a contiguous ``height`` x
``width`` rectangle, preferring plans that disturb the fewest running
functions (reference [5]'s criterion: "minimising disruptions to running
functions that are to be relocated").  Three strategies are tried, best
plan wins:

* **none-needed** — the request already fits (empty move list);
* **ordered compaction** — slide residents toward an edge (1-D moves);
* **eviction** — pick a target window and relocate exactly the functions
  overlapping it into free space elsewhere (the most surgical plan).

Planning happens on scratch grids; execution belongs to the manager,
which charges reconfiguration time per move and — in the paper's
contribution — performs the moves *concurrently* with execution via
dynamic relocation instead of halting the moved functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.device.geometry import Rect
from repro.perf import PERF
from repro.placement.bitgrid import (
    anchor_extents,
    first_fit_bits,
    first_fit_packed,
    pack_free_rows,
    pack_grid,
    span_mask,
)
from repro.placement.compaction import (
    Move,
    apply_moves,
    compaction_moves,
    footprints,
    ordered_compaction,
    sequence_moves,
)
from repro.placement.free_space import largest_empty_rectangle

#: Stored extents of a (blocker set, shape) pair with no anchor at all:
#: larger than any window coordinate, so no window test passes.
_NO_ANCHOR = 1 << 30

#: Screen batches with fewer candidate windows than this run in plain
#: Python on the packed grid (:meth:`DefragPlanner._screen_scalar`); larger
#: ones run as numpy slabs (:meth:`DefragPlanner._screen_slab`).  Both
#: give the same verdicts and share one cache.  The slab's fixed cost,
#: some fifty array operations, only pays off over many windows.  Timed
#: on one core of a shared x86-64 host with a cold cache, the two paths
#: break even near 20 windows on XCV200 (28 x 42) and near 55 on XC2S15
#: (8 x 12), whose packed integers are smaller; 32 lies between.  Service
#: calls on XC2S15 screen 4 to 30 windows and campaign calls on XCV200
#: at least 129, so each runs its faster path.
SCREEN_SLAB_MIN = 32


@dataclass
class RearrangementPlan:
    """A target rectangle plus the moves that make it free."""

    target: Rect
    moves: list[Move] = field(default_factory=list)
    method: str = "none-needed"

    @property
    def moved_area(self) -> int:
        """Total CLB sites that must be relocated."""
        return sum(m.src.area for m in self.moves)

    @property
    def disturbed_functions(self) -> int:
        """Number of running functions the plan touches."""
        return len({m.owner for m in self.moves})

    def __str__(self) -> str:
        return (
            f"<plan {self.method}: target {self.target}, "
            f"{len(self.moves)} moves, {self.moved_area} sites>"
        )


class DefragPlanner:
    """Finds minimal-disturbance rearrangements for a placement request."""

    def __init__(self, max_moves: int = 8, max_candidates: int = 256,
                 max_consolidation_moves: int = 16) -> None:
        if max_moves < 1:
            raise ValueError("max_moves must be positive")
        if max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        if max_consolidation_moves < 1:
            raise ValueError("max_consolidation_moves must be positive")
        self.max_moves = max_moves
        self.max_candidates = max_candidates
        #: proactive consolidations serve no single request, so they may
        #: disturb more functions than a reactive plan is allowed to.
        self.max_consolidation_moves = max_consolidation_moves
        #: per-occupancy-generation shared state (see :meth:`plan`):
        #: packed rows, footprints, compaction results, the eviction
        #: state with its screen cache, and finished plans, all pure
        #: functions of the grid named by the token.
        self._cache_token: object = None
        self._shared: dict | None = None

    def plan(self, occupancy: np.ndarray, height: int, width: int,
             token: object = None) -> RearrangementPlan | None:
        """Best plan freeing a ``height`` x ``width`` rectangle, or None.

        Candidate plans are scored by (functions disturbed, sites moved,
        total move distance) — fewer and smaller disruptions first.

        ``token``, when supplied, must name the occupancy content (the
        free-space engine's generation counter qualifies: it bumps on
        every effective mutation).  Calls sharing a token reuse the
        shape-independent work — row packing, footprints, both
        compaction sweeps — and identical (token, height, width) calls
        return the memoised plan outright; an admission pass probing a
        whole queue against one unchanged fabric then pays for one
        planner run per distinct shape.  Without a token every call
        computes from scratch.
        """
        shared = self._shared_state(token)
        if shared is not None and (height, width) in shared["plans"]:
            return shared["plans"][height, width]
        result = self._plan_uncached(occupancy, height, width, shared)
        if shared is not None:
            shared["plans"][height, width] = result
        return result

    def _shared_state(self, token: object) -> dict | None:
        """The per-token scratch dict (fresh when the token moved)."""
        if token is None:
            return None
        if self._cache_token != token:
            self._cache_token = token
            self._shared = {"plans": {}, "compaction": {}}
        return self._shared

    def plan_prefetch(self, occupancy: np.ndarray,
                      shapes: list[tuple[int, int]],
                      token: object) -> None:
        """Batch-resolve :meth:`plan` for several shapes at one token.

        The admission loop calls this with every queue-eligible shape
        still waiting on an unchanged fabric, so the per-item ``plan``
        calls that follow are memo hits.  The answers are identical to
        per-shape calls — the batch merely shares the shape-independent
        work and runs **one** eviction screen over the concatenated
        candidate windows of every shape instead of one screen per shape
        (a screen's fixed cost is per-op dispatch, and the shapes share
        most of their blocker sets).
        """
        if token is None:
            return
        shared = self._shared_state(token)
        memo = shared["plans"]
        todo: list[tuple[int, int]] = []
        for shape in shapes:
            if shape not in memo and shape not in todo:
                todo.append(shape)
        if not todo:
            return
        row_bits = self._token_row_bits(occupancy, shared)
        free_area = sum(b.bit_count() for b in row_bits)
        evict_shapes: list[tuple[int, int]] = []
        for height, width in todo:
            spot = first_fit_bits(row_bits, height, width)
            if spot is not None:
                memo[height, width] = RearrangementPlan(
                    Rect(spot[0], spot[1], height, width)
                )
            elif free_area < height * width:
                # No rearrangement can help when the free *area* is too
                # small: defragmentation only consolidates, it cannot
                # create sites.
                memo[height, width] = None
            else:
                evict_shapes.append((height, width))
        if not evict_shapes:
            return
        prints = self._token_prints(occupancy, shared)
        evictions = self._eviction_batch(
            occupancy, prints, evict_shapes, shared
        )
        for height, width in evict_shapes:
            memo[height, width] = self._assemble(
                prints, row_bits, height, width, shared,
                evictions.get((height, width)),
            )

    def _token_row_bits(self, occupancy: np.ndarray,
                        shared: dict | None) -> list[int]:
        """Packed free-row bitmasks, shared within a token."""
        if shared is not None and "row_bits" in shared:
            return shared["row_bits"]
        row_bits = pack_free_rows(occupancy)
        if shared is not None:
            shared["row_bits"] = row_bits
        return row_bits

    def _token_prints(self, occupancy: np.ndarray,
                      shared: dict | None) -> dict[int, Rect]:
        """Resident footprints, shared within a token."""
        if shared is not None and "prints" in shared:
            return shared["prints"]
        prints = footprints(occupancy)
        if shared is not None:
            shared["prints"] = prints
        return prints

    def _plan_uncached(self, occupancy: np.ndarray, height: int,
                       width: int,
                       shared: dict | None) -> RearrangementPlan | None:
        """:meth:`plan` body, with the shape-independent pieces read
        from (and published to) ``shared`` when a token is active."""
        row_bits = self._token_row_bits(occupancy, shared)
        spot = first_fit_bits(row_bits, height, width)
        if spot is not None:
            return RearrangementPlan(Rect(spot[0], spot[1], height, width))
        # No rearrangement can help when the free *area* is too small:
        # defragmentation only consolidates, it cannot create sites.
        if sum(b.bit_count() for b in row_bits) < height * width:
            return None
        prints = self._token_prints(occupancy, shared)
        eviction = self._eviction_batch(
            occupancy, prints, [(height, width)], shared
        )[height, width]
        return self._assemble(
            prints, row_bits, height, width, shared, eviction
        )

    def _assemble(self, prints: dict[int, Rect], row_bits: list[int],
                  height: int, width: int, shared: dict | None,
                  eviction: RearrangementPlan | None,
                  ) -> RearrangementPlan | None:
        """Rank the compaction candidates against a ready eviction plan
        (the tail of :meth:`plan`, shared by the batch path)."""
        candidates: list[RearrangementPlan] = []
        candidates.extend(
            self._compaction_plans(prints, row_bits, height, width, shared)
        )
        if eviction is not None:
            candidates.append(eviction)
        candidates = [
            p for p in candidates if len(p.moves) <= self.max_moves
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda p: (
                p.disturbed_functions,
                p.moved_area,
                sum(m.distance for m in p.moves),
            ),
        )

    def plan_consolidation(
        self, occupancy: np.ndarray
    ) -> RearrangementPlan | None:
        """Best consolidation: maximise the largest free rectangle.

        Unlike :meth:`plan`, no pending request drives the search — the
        goal is to compact the resident functions so that *future*
        arrivals find the free space as contiguous as possible (the
        proactive-defragmentation premise).  Candidates are ordered
        compactions toward the left edge, the top edge, and both in
        sequence (corner packing), each truncated to
        ``max_consolidation_moves``; a prefix of a compaction move list
        is always executable in order, so truncation stays collision
        free.  Returns ``None`` unless some candidate *strictly* grows
        the largest free rectangle — consolidation never shrinks it, and
        pointless move lists are never executed.  The returned plan's
        ``target`` is the largest free rectangle of the compacted grid.
        """
        current = largest_empty_rectangle(occupancy)
        baseline = current.area if current is not None else 0
        cap = self.max_consolidation_moves
        candidates: list[tuple[str, list[Move]]] = []
        left = ordered_compaction(occupancy, toward="left")
        top = ordered_compaction(occupancy, toward="top")
        candidates.append(("consolidate-left", left[:cap]))
        candidates.append(("consolidate-top", top[:cap]))
        if left and len(left) < cap:
            # Corner packing: compact left, then compact the result up
            # (skipped when truncation could never reach the top moves —
            # the candidate would duplicate the plain left compaction).
            shifted = apply_moves(occupancy, left)
            corner = left + ordered_compaction(shifted, toward="top")
            candidates.append(("consolidate-corner", corner[:cap]))
        best: RearrangementPlan | None = None
        best_key: tuple[int, int, int] | None = None
        for method, moves in candidates:
            if not moves:
                continue
            compacted = apply_moves(occupancy, moves)
            target = largest_empty_rectangle(compacted)
            if target is None or target.area <= baseline:
                continue
            key = (
                -target.area,
                sum(m.src.area for m in moves),
                sum(m.distance for m in moves),
            )
            if best_key is None or key < best_key:
                best = RearrangementPlan(target, moves, method)
                best_key = key
        return best

    # -- strategies ---------------------------------------------------------

    def _compaction_plans(self, prints: dict[int, Rect],
                          row_bits: list[int], height: int, width: int,
                          shared: dict | None = None,
                          ) -> list[RearrangementPlan]:
        plans: list[RearrangementPlan] = []
        for toward in ("left", "top"):
            # The sweep is shape-independent: within one token both
            # directions are computed once and every probed shape reads
            # the (moves, compacted bitmask) pair from the shared state.
            if shared is not None and toward in shared["compaction"]:
                moves, compacted_bits = shared["compaction"][toward]
            else:
                moves, compacted_bits = compaction_moves(
                    prints, row_bits, toward
                )
                if shared is not None:
                    shared["compaction"][toward] = (moves, compacted_bits)
            # A plan longer than ``max_moves`` is discarded by
            # ``_assemble`` regardless of where the shape would land, so
            # the first-fit probe is skipped outright — on saturated
            # grids the compaction move lists routinely overshoot the
            # cap and this avoids the probe entirely.
            if not moves or len(moves) > self.max_moves:
                continue
            spot = first_fit_bits(compacted_bits, height, width)
            if spot is not None:
                plans.append(
                    RearrangementPlan(
                        Rect(spot[0], spot[1], height, width),
                        moves, f"compaction-{toward}",
                    )
                )
        return plans

    def _evict_state(self, occupancy: np.ndarray, prints: dict[int, Rect],
                     shared: dict | None) -> dict:
        """Shape-independent inputs of the eviction search.

        Everything here is a pure function of the occupancy grid: the
        footprint coordinate columns, the grid packed into one integer
        with each blocker's packed footprint (for :meth:`_evict_moves`),
        and, on grids up to 64 columns, the uint64 row masks, the unique
        blocker shapes and the screen's blocker-set cache (for
        :meth:`_screen_windows`).  Within one planner token the bundle
        is built once and every probed shape reuses it.
        """
        if shared is not None and "evict" in shared:
            return shared["evict"]
        print_items = list(prints.items())
        prl = [rect.row for _, rect in print_items]
        pcl = [rect.col for _, rect in print_items]
        phl = [rect.height for _, rect in print_items]
        pwl = [rect.width for _, rect in print_items]
        pr, pc, ph, pw = (np.array(v, dtype=np.int64)
                          for v in (prl, pcl, phl, pwl))
        rows, cols = occupancy.shape
        # Row-major packing with a zero guard column after every row
        # (see :func:`~repro.placement.bitgrid.first_fit_packed`);
        # ``reps[h]`` has bit 0 of ``h`` consecutive rows set.
        stride = cols + 1
        reps = [0]
        for h in range(rows):
            reps.append(reps[-1] | 1 << (h * stride))
        state = {
            "print_items": print_items,
            "pr": pr, "pc": pc, "ph": ph, "pw": pw,
            "areas": [h * w for h, w in zip(phl, pwl)],
            # Plain-list mirrors for the per-shape anchor dedup in
            # :meth:`_eviction_windows` — the candidate sets are a few
            # dozen ints, where a Python set beats array machinery.
            "coord_lists": (prl, pcl, phl, pwl),
            "rows": rows,
            "stride": stride,
            "reps": reps,
            "packed": pack_grid(self._token_row_bits(occupancy, shared),
                                stride),
            "blocker_masks": [
                ((1 << w) - 1) * reps[h] << (r * stride + c)
                for r, c, h, w in zip(prl, pcl, phl, pwl)
            ],
        }
        if cols <= 64:
            packed = np.packbits(occupancy == 0, axis=1,
                                 bitorder="little")
            buf = np.zeros((rows, 8), dtype=np.uint8)
            buf[:, : packed.shape[1]] = packed
            state["base64"] = buf.view("<u8").ravel()
            spans = (((np.uint64(1) << pw.astype(np.uint64))
                      - np.uint64(1)) << pc.astype(np.uint64))
            rows_idx = np.arange(rows)
            covers = (pr[:, None] <= rows_idx[None, :]) \
                & (rows_idx[None, :] < pr[:, None] + ph[:, None])
            blocker_rows = np.where(covers, spans[:, None], np.uint64(0))
            # Both 32-bit halves of every span mask as float64: a sum of
            # disjoint sub-2^32 masks is exact, so the slab screen lifts
            # many blocker sets at once through two BLAS products.
            state["blocker_lo"] = (blocker_rows & np.uint64(0xFFFFFFFF)) \
                .astype(np.float64)
            state["blocker_hi"] = (blocker_rows >> np.uint64(32)) \
                .astype(np.float64)
            # Unique blocker shapes, ascending, and each footprint's.
            shapes = sorted(set(zip(phl, pwl)))
            index = {shape: i for i, shape in enumerate(shapes)}
            state["shapes"] = shapes
            state["inv"] = [index[shape] for shape in zip(phl, pwl)]
            state["uh"] = np.array([h for h, _ in shapes], dtype=np.int64)
            state["uw"] = np.array([w for _, w in shapes], dtype=np.int64)
            # The screen's cache: blocker set (its packed member row) ->
            # id, and per (id, shape) pair a stored-flag and extents row.
            state["set_ids"] = {}
            state["known"] = np.zeros(0, dtype=bool)
            state["extents"] = np.empty((0, 4), dtype=np.int64)
        if shared is not None:
            shared["evict"] = state
        return state

    def _eviction_windows(
        self, occupancy: np.ndarray, state: dict, height: int, width: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Candidate windows for one shape, in scan order.

        Anchors come from 'corner points' (edges of the device and of
        resident footprints), optionally subsampled to
        ``max_candidates``; each window's blocker set is enumerated with
        one separable overlap pass.  Returns ``(member, n_w, wr, wc)``
        filtered to windows with 1..``max_moves`` blockers, or ``None``
        when no window qualifies.
        """
        rows, cols = occupancy.shape
        count = len(state["print_items"])
        pr, pc, ph, pw = (state["pr"], state["pc"],
                          state["ph"], state["pw"])
        prl, pcl, phl, pwl = state["coord_lists"]
        rhi = rows - height
        chi = cols - width
        if rhi < 0 or chi < 0:
            return None
        rset = {0, rhi}
        for p, h in zip(prl, phl):
            for v in (p - height, p, p + h):
                if 0 <= v <= rhi:
                    rset.add(v)
        ra = np.array(sorted(rset), dtype=np.int64)
        cset = {0, chi}
        for p, w in zip(pcl, pwl):
            for v in (p - width, p, p + w):
                if 0 <= v <= chi:
                    cset.add(v)
        ca = np.array(sorted(cset), dtype=np.int64)
        # Bound the search (minimising disturbance is a heuristic, not an
        # exhaustive optimisation): subsample anchors evenly if needed.
        while len(ra) * len(ca) > self.max_candidates:
            if len(ra) >= len(ca):
                ra = ra[::2]
            else:
                ca = ca[::2]
        # Footprint/window overlap, separably per axis; the (R, C, P)
        # AND enumerates every window's blocker set in scan order.
        row_ov = (pr[:, None] < ra[None, :] + height) \
            & (pr[:, None] + ph[:, None] > ra[None, :])
        col_ov = (pc[:, None] < ca[None, :] + width) \
            & (pc[:, None] + pw[:, None] > ca[None, :])
        member = (
            row_ov.T[:, None, :] & col_ov.T[None, :, :]
        ).reshape(-1, count)
        n_all = member.sum(axis=1)
        valid = np.flatnonzero((n_all > 0) & (n_all <= self.max_moves))
        if valid.size == 0:
            return None
        return (
            member[valid],
            n_all[valid],
            np.repeat(ra, len(ca))[valid],
            np.tile(ca, len(ra))[valid],
        )

    def _eviction_batch(
        self, occupancy: np.ndarray, prints: dict[int, Rect],
        shapes: list[tuple[int, int]], shared: dict | None,
    ) -> dict[tuple[int, int], RearrangementPlan | None]:
        """The eviction plan of each shape, over one screen pass.

        Tries target windows anchored at 'corner points' (edges of the
        device and of resident footprints) and relocates exactly the
        overlapping functions into remaining free space.  Every shape's
        candidate windows are built as usual, then the feasibility
        screen (:meth:`_screen_windows`) runs once over their
        concatenation and discards every window holding a blocker with
        no relocation spot; the sequential spot search
        (:meth:`_eviction_select`) only runs on the survivors.  A
        window's verdict does not depend on the other windows in the
        batch, so each shape's plan is identical to a one-shape call.
        """
        rows, cols = occupancy.shape
        results: dict[tuple[int, int], RearrangementPlan | None] = {}
        if not prints:
            return dict.fromkeys(shapes)
        state = self._evict_state(occupancy, prints, shared)
        wins: dict[tuple[int, int], tuple] = {}
        for height, width in shapes:
            win = None
            if height <= rows and width <= cols:
                win = self._eviction_windows(occupancy, state, height, width)
            if win is None:
                results[height, width] = None
            else:
                wins[height, width] = win
        if not wins:
            return results
        keeps = self._screen_windows(occupancy, state, [
            (win[0], win[2], win[3], height, width)
            for (height, width), win in wins.items()
        ])
        for g, ((height, width), win) in enumerate(wins.items()):
            member, n_w, wr, wc = win
            if keeps is not None:
                keep = keeps[g]
                if not keep.any():
                    results[height, width] = None
                    continue
                member, n_w, wr, wc = (member[keep], n_w[keep],
                                       wr[keep], wc[keep])
            results[height, width] = self._eviction_select(
                occupancy, state, member, n_w, wr, wc, height, width,
            )
        return results

    def _eviction_select(
        self, occupancy: np.ndarray, state: dict,
        member: np.ndarray, n_w: np.ndarray, wr: np.ndarray,
        wc: np.ndarray, height: int, width: int,
    ) -> RearrangementPlan | None:
        """Pick the winning window among the screen survivors.

        One disturbed function is already minimal non-trivial
        disruption; the first single-blocker window (in scan order)
        with a workable relocation wins outright.  Heavier buckets are
        ranked by (sites moved, distance) with scan order breaking
        ties, and the best *sequenceable* candidate wins — the same
        winner the one-window-at-a-time scan selected.

        The (sites moved) rank is lazy: a window's moved area is the
        sum of its blockers' footprint areas — every blocker yields
        exactly one move whose source is its footprint — so it is known
        from the member matrix *before* any relocation search runs.
        Windows are grouped by moved area ascending and only groups
        reached before a winner pay for their move lists, which is most
        of the eviction cost on rejection-heavy streams.
        """
        areas = state["areas"]
        # Survivor counts are tiny after the screen (a handful per
        # shape), so the walk runs on plain Python containers — per-
        # bucket numpy dispatches would dominate the actual work.
        w_idx, p_idx = np.nonzero(member)
        n = member.shape[0]
        blockers_of: list[list[int]] = [[] for _ in range(n)]
        for w, p in zip(w_idx.tolist(), p_idx.tolist()):
            blockers_of[w].append(p)
        wr_l = wr.tolist()
        wc_l = wc.tolist()
        n_l = n_w.tolist()
        order = sorted(range(n), key=lambda i: (n_l[i], i))
        pos = 0
        while pos < len(order):
            seq = order[pos]
            bucket = n_l[seq]
            if bucket == 1:
                pos += 1
                target = Rect(wr_l[seq], wc_l[seq], height, width)
                moves = self._evict_moves(state, blockers_of[seq], target)
                if moves is None:
                    continue
                ordered = sequence_moves(occupancy, moves)
                if ordered is not None:
                    return RearrangementPlan(target, ordered, "eviction")
                continue
            # One whole bucket, grouped by moved area ascending; only
            # groups reached before a winner pay for their move lists.
            stop = pos
            while stop < len(order) and n_l[order[stop]] == bucket:
                stop += 1
            idxs = order[pos:stop]
            pos = stop
            area_of = {
                i: sum(areas[p] for p in blockers_of[i]) for i in idxs
            }
            by_area = sorted(idxs, key=lambda i: (area_of[i], i))
            g = 0
            while g < len(by_area):
                area = area_of[by_area[g]]
                scored: list[tuple[int, int, Rect, list[Move]]] = []
                while g < len(by_area):
                    seq = by_area[g]
                    if area_of[seq] != area:
                        break
                    g += 1
                    target = Rect(wr_l[seq], wc_l[seq], height, width)
                    moves = self._evict_moves(state, blockers_of[seq],
                                              target)
                    if moves is None:
                        continue
                    distance = sum(m.distance for m in moves)
                    scored.append((distance, seq, target, moves))
                scored.sort(key=lambda entry: (entry[0], entry[1]))
                for _, _, target, moves in scored:
                    ordered = sequence_moves(occupancy, moves)
                    if ordered is not None:
                        return RearrangementPlan(
                            target, ordered, "eviction"
                        )
        return None

    def _screen_windows(
        self,
        occupancy: np.ndarray,
        state: dict,
        groups: list[tuple],
    ) -> list[np.ndarray] | None:
        """Which windows could possibly relocate *all* their blockers.

        ``groups`` is a list of ``(member, wr, wc, height, width)``
        window batches, one per probed shape, screened together.
        Returns one boolean keep-mask per group, or ``None`` when the
        device is wider than 64 columns (the caller then evaluates every
        window sequentially).

        A window's eviction attempt places its blockers, one at a time,
        into the grid with the blockers lifted and the target reserved.
        Earlier placements only consume sites, so a blocker whose shape
        has no spot in that vacated grid has none in the real attempt
        either, and the window can be dropped: the screen never drops a
        window the sequential search could have used.

        The vacated grid of window ``W`` with blocker set ``B`` is the
        lifted grid ``base | F_B`` minus ``W``.  A shape fits there
        exactly when one of its anchors in the lifted grid lies wholly
        above, below, left of or right of ``W``, which four comparisons
        against the row and column extents of its anchor set decide.
        The extents depend on ``(B, shape)`` only, not on the window, so
        each distinct pair is computed once and stored in the token's
        eviction state, keyed by the set's exact packed member row;
        every window is then decided from the stored extents.
        ``screen_cache_hits`` counts the distinct pairs of a call found
        stored by an earlier call, ``screen_cache_misses`` the pairs
        computed.
        """
        if occupancy.shape[1] > 64:
            return None
        member = (groups[0][0] if len(groups) == 1
                  else np.concatenate([g[0] for g in groups], axis=0))
        windows = member.shape[0]
        PERF.screen_calls += 1
        PERF.screen_windows += windows
        keys = np.packbits(member, axis=1)
        set_ids = state["set_ids"]
        sid = [set_ids.setdefault(k, len(set_ids))
               for k in keys.view(f"V{keys.shape[1]}").ravel().tolist()]
        need = len(set_ids) * len(state["shapes"])
        if state["known"].size < need:
            old = state["known"].size
            size = max(2 * old, need)
            known = np.zeros(size, dtype=bool)
            known[:old] = state["known"]
            extents = np.empty((size, 4), dtype=np.int64)
            extents[:old] = state["extents"]
            state["known"], state["extents"] = known, extents
        if windows < SCREEN_SLAB_MIN:
            keep = self._screen_scalar(state, member, sid, groups)
        else:
            keep = self._screen_slab(state, member, sid, groups)
        if len(groups) == 1:
            return [keep]
        return np.split(keep, np.cumsum([g[0].shape[0] for g in groups])[:-1])

    @staticmethod
    def _screen_scalar(state: dict, member: np.ndarray, sid: list[int],
                       groups: list[tuple]) -> np.ndarray:
        """:meth:`_screen_windows` verdicts, one window at a time.

        A missing pair's extents come from
        :func:`~repro.placement.bitgrid.anchor_extents` on the packed
        lifted grid; the stored row is ``(top + height, -bottom,
        left + width, -right)``, as in :meth:`_pair_extents`.
        """
        shapes = state["shapes"]
        inv = state["inv"]
        known, extents = state["known"], state["extents"]
        masks = state["blocker_masks"]
        stride = state["stride"]
        blockers: list[list[int]] = [[] for _ in sid]
        w_idx, p_idx = np.nonzero(member)
        for w, p in zip(w_idx.tolist(), p_idx.tolist()):
            blockers[w].append(p)
        seen: dict[int, list[int]] = {}
        keep: list[bool] = []
        w = 0
        for _, wr, wc, height, width in groups:
            for top, left in zip(wr.tolist(), wc.tolist()):
                neg_bottom, neg_right = -(top + height), -(left + width)
                base = sid[w] * len(shapes)
                lifted = None
                clear = True
                for p in blockers[w]:
                    code = base + inv[p]
                    ext = seen.get(code)
                    if ext is None:
                        if known[code]:
                            PERF.screen_cache_hits += 1
                            ext = extents[code].tolist()
                        else:
                            PERF.screen_cache_misses += 1
                            if lifted is None:
                                lifted = state["packed"]
                                for q in blockers[w]:
                                    lifted |= masks[q]
                            bh, bw = shapes[inv[p]]
                            found = anchor_extents(lifted, stride, bh, bw)
                            ext = ([_NO_ANCHOR] * 4 if found is None else
                                   [found[0] + bh, -found[1],
                                    found[2] + bw, -found[3]])
                            extents[code] = ext
                            known[code] = True
                        seen[code] = ext
                    if clear and not (ext[0] <= top or ext[1] <= neg_bottom
                                      or ext[2] <= left
                                      or ext[3] <= neg_right):
                        clear = False
                keep.append(clear)
                w += 1
        return np.array(keep, dtype=bool)

    def _screen_slab(self, state: dict, member: np.ndarray,
                     sid: list[int], groups: list[tuple]) -> np.ndarray:
        """:meth:`_screen_windows` verdicts for a whole batch at once."""
        windows = member.shape[0]
        sid_a = np.array(sid, dtype=np.int64)
        w_idx, p_idx = np.nonzero(member)
        shapes = len(state["shapes"])
        codes = sid_a[w_idx] * shapes + np.take(state["inv"], p_idx)
        ordered = np.sort(codes)
        fresh = np.empty(ordered.size, dtype=bool)
        fresh[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
        pairs = ordered[fresh]
        known, extents = state["known"], state["extents"]
        missing = pairs[~known[pairs]]
        PERF.screen_cache_hits += pairs.size - missing.size
        PERF.screen_cache_misses += missing.size
        if missing.size:
            missing = missing[np.argsort(
                state["uh"][missing % shapes], kind="stable"
            )]
            where = np.empty(len(state["set_ids"]), dtype=np.int64)
            where[sid_a] = np.arange(windows)
            extents[missing] = self._pair_extents(
                state, member[where[missing // shapes]], missing % shapes,
            )
            known[missing] = True
        # Each window as (top, -bottom, left, -right): a stored extents
        # row at or below it in any column is an anchor clear of it.
        geom = np.concatenate([
            np.stack([wr, -(wr + height), wc, -(wc + width)], axis=1)
            for _, wr, wc, height, width in groups
        ])
        hits = np.take(extents, codes, axis=0) \
            <= np.take(geom, w_idx, axis=0)
        # Four bools per entry read as one uint32: nonzero iff any holds.
        clear = hits.view(np.uint32).ravel() != 0
        bad = np.zeros(windows, dtype=bool)
        bad[w_idx[~clear]] = True
        return ~bad

    @staticmethod
    def _pair_extents(state: dict, sets: np.ndarray,
                      shape_idx: np.ndarray) -> np.ndarray:
        """Anchor extents of each (blocker set, shape) pair, in one slab.

        ``sets`` holds one member row per pair and ``shape_idx`` the
        pair's blocker shape, pairs sorted by shape height.  Each pair's
        lifted grid (free rows OR its blockers' span masks) is reduced
        to the anchors of its shape: the band down the rows grows one row
        at a time over the pairs still needing it, and the run along the
        columns doubles with a per-pair shift.  Returns rows of
        ``(top + height, -bottom, left + width, -right)`` over the
        anchors, so that a window at ``(top, -bottom, left, -right)`` is
        clear of some anchor iff one column of the row is at most the
        window's; pairs without anchors get a row no window passes.
        """
        rows = state["rows"]
        heights = state["uh"][shape_idx]
        widths = state["uw"][shape_idx]
        weights = sets.astype(np.float64)
        lifted = (
            ((weights @ state["blocker_hi"]).astype(np.uint64)
             << np.uint64(32))
            | (weights @ state["blocker_lo"]).astype(np.uint64)
            | state["base64"]
        )
        tallest = int(heights[-1])
        grid = np.zeros((len(sets), rows + tallest - 1), dtype=np.uint64)
        grid[:, :rows] = lifted
        band = lifted
        for i, first in enumerate(
            np.searchsorted(heights, np.arange(1, tallest), side="right")
            .tolist(), start=1,
        ):
            band[first:] &= grid[first:, i:i + rows]
        # Doubling along the columns: round k shifts each pair by its
        # remaining width, at most 2^k.
        rounds = int(widths.max() - 1).bit_length()
        doubling = (1 << np.arange(rounds))[:, None]
        steps = np.clip(widths - doubling, 0, doubling).astype(np.uint64)
        shifted = np.empty_like(band)
        for step in steps:
            np.right_shift(band, step[:, None], out=shifted)
            band &= shifted
        hit = band != 0
        out = np.empty((len(sets), 4), dtype=np.int64)
        out[:, 0] = hit.argmax(axis=1) + heights
        out[:, 1] = hit[:, ::-1].argmax(axis=1) - (rows - 1)
        # Anchor columns as bits, lowest column first and highest first.
        found = np.bitwise_or.reduce(band, axis=1)
        low = np.unpackbits(found.astype("<u8").view(np.uint8)
                            .reshape(-1, 8), axis=1, bitorder="little")
        high = np.unpackbits(found.astype(">u8").view(np.uint8)
                             .reshape(-1, 8), axis=1)
        out[:, 2] = low.view(bool).argmax(axis=1) + widths
        out[:, 3] = high.view(bool).argmax(axis=1) - 63
        out[found == 0] = _NO_ANCHOR
        return out

    def _evict_moves(
        self,
        state: dict,
        blockers: list[int],
        target: Rect,
    ) -> list[Move] | None:
        """Relocation moves clearing ``target``, or None when some
        blocker has nowhere to go.

        ``blockers`` index the state's footprints.  Works on the grid
        packed into one integer: vacate the blockers, reserve the
        target, then first-fit each blocker largest-first — the exact
        scratch-grid procedure of the eviction strategy, minus the numpy
        copies.  Sequencing is the caller's job.
        """
        PERF.evict_moves_calls += 1
        stride = state["stride"]
        rows = state["rows"]
        reps = state["reps"]
        masks = state["blocker_masks"]
        print_items = state["print_items"]
        areas = state["areas"]
        grid = state["packed"]
        for i in blockers:
            grid |= masks[i]
        grid &= ~(span_mask(target.col, target.width) * reps[target.height]
                  << (target.row * stride))
        moves: list[Move] = []
        for i in sorted(blockers, key=areas.__getitem__, reverse=True):
            owner, rect = print_items[i]
            at = first_fit_packed(grid, rows, stride, rect.height,
                                  rect.width)
            if at is None:
                return None
            grid &= ~(span_mask(0, rect.width) * reps[rect.height] << at)
            row, col = divmod(at, stride)
            moves.append(
                Move(owner, rect, Rect(row, col, rect.height, rect.width))
            )
        return moves
