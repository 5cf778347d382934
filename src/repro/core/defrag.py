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
from itertools import compress, islice

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
#: give the same verdicts and share one cache.  Sampled calls replayed
#: through each path from their cache state, on one core of a shared
#: x86-64 host: on XC2S15 (8 x 12) the per-window path is faster up to
#: 64 windows (13.6 against 19.4 ms over 148 calls) and about even
#: above; on XCV200 (28 x 42), whose calls all hold 129 windows or more,
#: the slab is faster at every size (26 against 37 ms over the 54 calls
#: of 129 to 160 windows).  Service calls on XC2S15 screen 4 to 30
#: windows, so 32 sends each workload down its faster path.
SCREEN_SLAB_MIN = 32

#: A slab screen computes a batch of fewer missing (blocker set, shape)
#: pairs than this one pair at a time on the packed grid
#: (:func:`_extents_row`), and a larger batch in one
#: :meth:`DefragPlanner._pair_extents` slab.  On XCV200 a pair costs
#: about 4 us on the packed grid, and a slab about 75 us plus 2 us per
#: pair (sampled batches, timed warm), so they meet near 35 pairs; half
#: of the batches of the first 10 scenarios of ``batch-backfill-v200``
#: at seed 3 hold fewer than 22.
PAIR_SLAB_MIN = 32


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
        plans = shared["plans"]
        if (height, width) not in plans:
            self._resolve(occupancy, [(height, width)], shared)
        return plans[height, width]

    def _shared_state(self, token: object) -> dict:
        """The per-token scratch dict (fresh when the token moved, and
        fresh for every call without a token)."""
        if token is None:
            return {"plans": {}, "compaction": {}}
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
        self._resolve(occupancy, shapes, self._shared_state(token))

    def _resolve(self, occupancy: np.ndarray,
                 shapes: list[tuple[int, int]], shared: dict) -> None:
        """Store the plan of every shape not yet in ``shared["plans"]``,
        sharing the shape-independent work and one eviction screen."""
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
                        shared: dict) -> list[int]:
        """Packed free-row bitmasks, shared within a token."""
        if "row_bits" not in shared:
            shared["row_bits"] = pack_free_rows(occupancy)
        return shared["row_bits"]

    def _token_prints(self, occupancy: np.ndarray,
                      shared: dict) -> dict[int, Rect]:
        """Resident footprints, shared within a token."""
        if "prints" not in shared:
            shared["prints"] = footprints(occupancy)
        return shared["prints"]

    def _assemble(self, prints: dict[int, Rect], row_bits: list[int],
                  height: int, width: int, shared: dict,
                  eviction: RearrangementPlan | None,
                  ) -> RearrangementPlan | None:
        """Rank the compaction candidates against a ready eviction plan
        (the tail of :meth:`_resolve`)."""
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
                          shared: dict) -> list[RearrangementPlan]:
        plans: list[RearrangementPlan] = []
        compaction = shared["compaction"]
        for toward in ("left", "top"):
            # The sweep is shape-independent: within one token both
            # directions are computed once and every probed shape reads
            # the (moves, compacted bitmask) pair from the shared state.
            if toward not in compaction:
                compaction[toward] = compaction_moves(
                    prints, row_bits, toward
                )
            moves, compacted_bits = compaction[toward]
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
                     shared: dict) -> dict:
        """Shape-independent inputs of the eviction search.

        Everything here is a pure function of the occupancy grid.  The
        residents are numbered largest first (area descending, then
        footprint order), and a blocker set is the integer with bit ``p``
        set for each resident ``p`` in it, so its lowest set bit is its
        largest blocker.  The bundle holds the grid packed into one
        integer with each resident's packed footprint (for
        :meth:`_evict_moves` and the scalar screen), both window axes
        (for :meth:`_eviction_windows`), and the unique blocker shapes
        with the screen's blocker-set cache (for
        :meth:`_screen_windows`); the slab screen's masks are added on
        first use (:func:`_slab_masks`).  Within one planner token the
        bundle is built once and every probed shape reuses it.
        """
        if "evict" in shared:
            return shared["evict"]
        # A stable sort: equal areas keep their footprint order.
        print_items = sorted(prints.items(), key=lambda item: -item[1].area)
        prl = [rect.row for _, rect in print_items]
        pcl = [rect.col for _, rect in print_items]
        phl = [rect.height for _, rect in print_items]
        pwl = [rect.width for _, rect in print_items]
        rows, cols = occupancy.shape
        row_bits = self._token_row_bits(occupancy, shared)
        # Row-major packing with a zero guard column after every row
        # (see :func:`~repro.placement.bitgrid.first_fit_packed`);
        # ``reps[h]`` has bit 0 of ``h`` consecutive rows set.
        stride = cols + 1
        reps = [0]
        for h in range(rows):
            reps.append(reps[-1] | 1 << (h * stride))
        # Resident p's bit, in as many 64-bit words as the count needs.
        count = len(print_items)
        index = np.arange(count)
        bits = np.zeros((count, -(-count // 64)), dtype=np.uint64)
        bits[index, index >> 6] = np.left_shift(
            np.uint64(1), (index & 63).astype(np.uint64))
        shapes = sorted(set(zip(phl, pwl)))
        shape_index = {shape: i for i, shape in enumerate(shapes)}
        state = {
            "print_items": print_items,
            "areas": [h * w for h, w in zip(phl, pwl)],
            "rows": rows,
            "row_bits": row_bits,
            "stride": stride,
            "reps": reps,
            "packed": pack_grid(row_bits, stride),
            "blocker_masks": [
                ((1 << w) - 1) * reps[h] << (r * stride + c)
                for r, c, h, w in zip(prl, pcl, phl, pwl)
            ],
            "row_axis": _Axis(prl, phl, rows, bits),
            "col_axis": _Axis(pcl, pwl, cols, bits),
            # Unique blocker shapes, ascending (so by height), and each
            # resident's.
            "shapes": shapes,
            "inv": [shape_index[shape] for shape in zip(phl, pwl)],
            # The screen's cache: blocker set -> id, each id's set and the
            # shape of its largest blocker, and per (id, shape) pair a
            # stored-flag and extents row.
            "set_ids": {},
            "set_keys": [],
            "lead": np.zeros(0, dtype=np.int64),
            "known": np.zeros(0, dtype=bool),
            "extents": np.zeros((0, 4), dtype=np.int64),
        }
        shared["evict"] = state
        return state

    def _eviction_windows(
        self, occupancy: np.ndarray, state: dict, height: int, width: int,
    ) -> tuple[list[int], np.ndarray, np.ndarray] | None:
        """Candidate windows for one shape, in scan order.

        Anchors come from 'corner points' (edges of the device and of
        resident footprints), optionally subsampled to
        ``max_candidates``.  A window's blocker set is one integer, the
        AND of its row band and its column band (:meth:`_Axis.bands`),
        and its blocker count is the integer's bit count.  Returns ``(keys, wr, wc)``: the blocker sets and anchors
        of the windows with 1..``max_moves`` blockers, or ``None`` when
        no window qualifies.
        """
        rows, cols = occupancy.shape
        if height > rows or width > cols:
            return None
        row_axis, col_axis = state["row_axis"], state["col_axis"]
        ra = row_axis.anchors(height)
        ca = col_axis.anchors(width)
        # Bound the search (minimising disturbance is a heuristic, not an
        # exhaustive optimisation): subsample anchors evenly if needed.
        while len(ra) * len(ca) > self.max_candidates:
            if len(ra) >= len(ca):
                ra = ra[::2]
            else:
                ca = ca[::2]
        row_band = row_axis.bands(ra, height)
        col_band = col_axis.bands(ca, width)
        sets = (row_band[:, None] & col_band[None]).reshape(
            len(ra) * len(ca), -1)
        counts = np.bitwise_count(sets).sum(axis=1)
        valid = np.flatnonzero((counts > 0) & (counts <= self.max_moves))
        if valid.size == 0:
            return None
        sets = sets[valid]
        keys = sets[:, 0].tolist()
        for word in range(1, sets.shape[1]):
            keys = [key | high << 64 * word
                    for key, high in zip(keys, sets[:, word].tolist())]
        return keys, ra[valid // len(ca)], ca[valid % len(ca)]

    def _eviction_batch(
        self, occupancy: np.ndarray, prints: dict[int, Rect],
        shapes: list[tuple[int, int]], shared: dict,
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
        results: dict[tuple[int, int], RearrangementPlan | None] = {}
        if not prints:
            return dict.fromkeys(shapes)
        state = self._evict_state(occupancy, prints, shared)
        wins: dict[tuple[int, int], tuple] = {}
        for height, width in shapes:
            win = self._eviction_windows(occupancy, state, height, width)
            if win is None:
                results[height, width] = None
            else:
                wins[height, width] = win
        if not wins:
            return results
        keeps = self._screen_windows(occupancy, state, [
            (*win, height, width) for (height, width), win in wins.items()
        ])
        for keep, (shape, (keys, wr, wc)) in zip(keeps, wins.items()):
            if not keep.any():
                results[shape] = None
                continue
            results[shape] = self._eviction_select(
                occupancy, state, list(compress(keys, keep.tolist())),
                wr[keep], wc[keep], *shape,
            )
        return results

    def _eviction_select(
        self, occupancy: np.ndarray, state: dict, keys: list[int],
        wr: np.ndarray, wc: np.ndarray, height: int, width: int,
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
        from the blocker set *before* any relocation search runs.
        Windows are grouped by moved area ascending and only groups
        reached before a winner pay for their move lists, which is most
        of the eviction cost on rejection-heavy streams.
        """
        areas = state["areas"]
        # Survivor counts are tiny after the screen (a handful per
        # shape), so the walk runs on plain Python containers — per-
        # bucket numpy dispatches would dominate the actual work.
        blockers_of = [_members(key) for key in keys]
        n = len(keys)
        wr_l = wr.tolist()
        wc_l = wc.tolist()
        n_l = [len(blockers) for blockers in blockers_of]
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
    ) -> list[np.ndarray]:
        """Which windows could possibly relocate *all* their blockers.

        ``groups`` is a list of ``(keys, wr, wc, height, width)`` window
        batches, one per probed shape, screened together.  Returns one
        boolean keep-mask per group.

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
        eviction state, keyed by the set's integer; every window is then
        decided from the stored extents.  A window is kept when every
        blocker can leave, so both executors try its blockers largest
        first (the one most likely to have no spot) and stop at the
        first that cannot: most windows are decided by one pair.
        ``screen_cache_hits`` counts the distinct pairs a call reads that
        an earlier call stored, ``screen_cache_misses`` the pairs
        computed.
        """
        keys = (groups[0][0] if len(groups) == 1
                else [key for group in groups for key in group[0]])
        windows = len(keys)
        PERF.screen_calls += 1
        PERF.screen_windows += windows
        set_ids = state["set_ids"]
        old = len(set_ids)
        sid = [set_ids.setdefault(key, len(set_ids)) for key in keys]
        if len(set_ids) > old:
            fresh = list(islice(set_ids, old, None))
            state["set_keys"].extend(fresh)
            if len(set_ids) > state["lead"].size:
                sets = max(2 * state["lead"].size, len(set_ids))
                pairs = sets * len(state["shapes"])
                for name, shape in (("lead", sets), ("known", pairs),
                                    ("extents", (pairs, 4))):
                    grown = np.zeros(shape, dtype=state[name].dtype)
                    grown[:len(state[name])] = state[name]
                    state[name] = grown
            inv = state["inv"]
            state["lead"][old:len(set_ids)] = [
                inv[(key & -key).bit_length() - 1] for key in fresh
            ]
        # The slab packs a row into one uint64; wider grids stay on the
        # packed Python integer, which has no width limit.
        if windows < SCREEN_SLAB_MIN or occupancy.shape[1] > 64:
            keep = self._screen_scalar(state, sid, groups)
        else:
            keep = self._screen_slab(state, sid, groups)
        if len(groups) == 1:
            return [keep]
        return np.split(keep, np.cumsum([len(g[0]) for g in groups])[:-1])

    @staticmethod
    def _screen_scalar(state: dict, sid: list[int],
                       groups: list[tuple]) -> np.ndarray:
        """:meth:`_screen_windows` verdicts, one window at a time.

        Each window walks its blockers largest first and stops at the
        first with no spot.  A missing pair's extents come from the
        packed lifted grid (:func:`_extents_row`).
        """
        shapes = len(state["shapes"])
        inv = state["inv"]
        known, extents = state["known"], state["extents"]
        seen: dict[int, list[int]] = {}
        keep: list[bool] = []
        ids = iter(sid)
        for keys, wr, wc, height, width in groups:
            for key, top, left in zip(keys, wr.tolist(), wc.tolist()):
                neg_bottom, neg_right = -(top + height), -(left + width)
                base = next(ids) * shapes
                blockers = _members(key)
                lifted = None
                clear = True
                for p in blockers:
                    code = base + inv[p]
                    ext = seen.get(code)
                    if ext is None:
                        if known[code]:
                            PERF.screen_cache_hits += 1
                            ext = extents[code].tolist()
                        else:
                            PERF.screen_cache_misses += 1
                            if lifted is None:
                                lifted = _lift(state, blockers)
                            ext = _extents_row(state, lifted, inv[p])
                            extents[code] = ext
                            known[code] = True
                        seen[code] = ext
                    if not (ext[0] <= top or ext[1] <= neg_bottom
                            or ext[2] <= left or ext[3] <= neg_right):
                        clear = False
                        break
                keep.append(clear)
        return np.array(keep, dtype=bool)

    def _screen_slab(self, state: dict, sid: list[int],
                     groups: list[tuple]) -> np.ndarray:
        """:meth:`_screen_windows` verdicts for a whole batch at once.

        Every window is first decided on its largest blocker: one pair
        per window, which drops almost all of them.  Only the survivors
        read the pairs of their other blockers, so a call computes its
        new pairs in at most two batches (:meth:`_fill_pairs`).
        """
        shapes = len(state["shapes"])
        extents = state["extents"]
        sid_a = np.fromiter(sid, dtype=np.int64, count=len(sid))
        # Each window as (top, -bottom, left, -right): a stored extents
        # row at or below it in any column is an anchor clear of it.
        geom = np.empty((len(sid), 4), dtype=np.int64)
        at = 0
        for _, wr, wc, height, width in groups:
            block = geom[at:at + len(wr)]
            block[:, 0] = wr
            np.subtract(-height, wr, out=block[:, 1])
            block[:, 2] = wc
            np.subtract(-width, wc, out=block[:, 3])
            at += len(wr)
        codes = sid_a * shapes + state["lead"][sid_a]
        self._fill_pairs(state, _distinct(codes))
        # Four bools per entry read as one uint32: nonzero iff any holds.
        alive = np.flatnonzero(
            (np.take(extents, codes, axis=0) <= geom).view(np.uint32)
        )
        keep = np.zeros(len(sid), dtype=bool)
        keep[alive] = True
        # The survivors' other blocker shapes: pairs stage 1 never read,
        # since a set's pair with its largest blocker's shape has passed.
        inv = state["inv"]
        set_keys = state["set_keys"]
        owners: list[int] = []
        rest: list[int] = []
        for w in alive.tolist():
            base = sid[w] * shapes
            first, *others = _members(set_keys[sid[w]])
            for p in others:
                if inv[p] != inv[first]:
                    owners.append(w)
                    rest.append(base + inv[p])
        if rest:
            rest_a = np.array(rest, dtype=np.int64)
            owner_a = np.array(owners, dtype=np.int64)
            self._fill_pairs(state, _distinct(rest_a))
            clear = (np.take(extents, rest_a, axis=0)
                     <= np.take(geom, owner_a, axis=0)).view(np.uint32)
            keep[owner_a[clear.ravel() == 0]] = False
        return keep

    def _fill_pairs(self, state: dict, pairs: np.ndarray) -> None:
        """Count distinct (set, shape) ``pairs`` of a slab call, and
        compute and store the extents of those not stored yet: in one
        :meth:`_pair_extents` slab, or one at a time on the packed grid
        when there are fewer than ``PAIR_SLAB_MIN``."""
        known = state["known"]
        missing = pairs[~known[pairs]]
        PERF.screen_cache_hits += pairs.size - missing.size
        PERF.screen_cache_misses += missing.size
        if not missing.size:
            return
        shapes = len(state["shapes"])
        set_keys = state["set_keys"]
        if missing.size < PAIR_SLAB_MIN:
            extents = state["extents"]
            for code in missing.tolist():
                i, shape = divmod(code, shapes)
                extents[code] = _extents_row(
                    state, _lift(state, _members(set_keys[i])), shape)
        else:
            # Shape indices ascend with height (the shapes are sorted).
            missing = missing[np.argsort(missing % shapes, kind="stable")]
            sets = _member_rows(
                [set_keys[i] for i in (missing // shapes).tolist()],
                len(state["print_items"]))
            state["extents"][missing] = self._pair_extents(
                state, sets, missing % shapes)
        known[missing] = True

    @staticmethod
    def _pair_extents(state: dict, sets: np.ndarray,
                      shape_idx: np.ndarray) -> np.ndarray:
        """Anchor extents of each (blocker set, shape) pair, in one slab.

        ``sets`` holds one 0/1 member row per pair and ``shape_idx`` the
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
        slab = _slab_masks(state)
        rows = state["rows"]
        heights = slab["heights"][shape_idx]
        widths = slab["widths"][shape_idx]
        weights = sets.astype(np.float64)
        lifted = (
            ((weights @ slab["blocker_hi"]).astype(np.uint64)
             << np.uint64(32))
            | (weights @ slab["blocker_lo"]).astype(np.uint64)
            | slab["base"]
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

        ``blockers`` index the state's footprints, largest first (the
        order of a blocker set's bits).  Works on the grid packed into
        one integer: vacate the blockers, reserve the target, then
        first-fit each blocker largest-first — the exact scratch-grid
        procedure of the eviction strategy, minus the numpy copies.
        Sequencing is the caller's job.
        """
        PERF.evict_moves_calls += 1
        stride = state["stride"]
        rows = state["rows"]
        reps = state["reps"]
        masks = state["blocker_masks"]
        print_items = state["print_items"]
        grid = state["packed"]
        for i in blockers:
            grid |= masks[i]
        grid &= ~(span_mask(target.col, target.width) * reps[target.height]
                  << (target.row * stride))
        moves: list[Move] = []
        for i in blockers:
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


class _Axis:
    """One axis of a token's eviction windows, rows or columns.

    Built from the residents' first lines ``lo`` and extents on an axis
    of ``size`` lines, and ``bits``, each resident's bit as a row of
    64-bit words.  ``starts`` flags the lines where a resident begins
    and ``edges`` those where one begins or ends (both ``size + 1``
    long).  ``first[x]`` holds the bits of every resident whose first
    line is at or before ``x``, and ``last[x]`` of every resident whose
    last line is at or after ``x``.
    """

    __slots__ = ("size", "starts", "edges", "first", "last")

    def __init__(self, lo: list[int], extent: list[int], size: int,
                 bits: np.ndarray) -> None:
        lo = np.array(lo, dtype=np.int64)
        hi = lo + np.array(extent, dtype=np.int64)
        self.size = size
        self.starts = np.zeros(size + 1, dtype=bool)
        self.starts[lo] = True
        self.edges = self.starts.copy()
        self.edges[hi] = True
        first = np.zeros((size, bits.shape[1]), dtype=np.uint64)
        np.bitwise_or.at(first, lo, bits)
        last = np.zeros_like(first)
        np.bitwise_or.at(last, hi - 1, bits)
        self.first = np.bitwise_or.accumulate(first)
        self.last = np.bitwise_or.accumulate(last[::-1])[::-1]

    def anchors(self, length: int) -> np.ndarray:
        """Ascending starts of a ``length``-long window: both ends of the
        axis and every resident edge the window can touch (``p -
        length``, ``p`` and ``p + extent`` for a resident at ``p``)."""
        top = self.size - length
        flags = self.starts[length:] | self.edges[:top + 1]
        flags[0] = flags[top] = True
        return np.flatnonzero(flags)

    def bands(self, starts: np.ndarray, length: int) -> np.ndarray:
        """The bits of the residents overlapping each ``length``-long
        window at ``starts``: those beginning at or before its last line
        and ending at or after its first."""
        return self.first[starts + length - 1] & self.last[starts]


def _lift(state: dict, blockers: list[int]) -> int:
    """The packed grid with ``blockers`` lifted: free sites plus their
    footprints."""
    lifted = state["packed"]
    masks = state["blocker_masks"]
    for p in blockers:
        lifted |= masks[p]
    return lifted


def _extents_row(state: dict, lifted: int, shape: int) -> list[int]:
    """The stored extents row of one (blocker set, shape) pair from its
    packed lifted grid: ``(top + height, -bottom, left + width,
    -right)`` over the shape's anchors
    (:func:`~repro.placement.bitgrid.anchor_extents`), as in
    :meth:`DefragPlanner._pair_extents`."""
    height, width = state["shapes"][shape]
    found = anchor_extents(lifted, state["stride"], height, width)
    if found is None:
        return [_NO_ANCHOR] * 4
    return [found[0] + height, -found[1], found[2] + width, -found[3]]


def _members(key: int) -> list[int]:
    """The residents of a blocker set, largest first."""
    members = []
    while key:
        low = key & -key
        members.append(low.bit_length() - 1)
        key ^= low
    return members


def _member_rows(keys: list[int], count: int) -> np.ndarray:
    """Blocker sets as 0/1 rows over ``count`` residents (column ``p``
    is bit ``p``)."""
    size = -(-count // 8)
    raw = np.frombuffer(b"".join(key.to_bytes(size, "little")
                                 for key in keys), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(keys), size), axis=1,
                         count=count, bitorder="little")


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a non-empty array."""
    ordered = np.sort(codes)
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return ordered[fresh]


def _slab_masks(state: dict) -> dict:
    """The slab screen's inputs, built on a token's first slab: the
    free rows as uint64 masks, every resident's rows as two float64
    halves, and the blocker shapes' heights and widths."""
    slab = state.get("slab")
    if slab is not None:
        return slab
    rows = state["rows"]
    pr, pc, ph, pw = (
        np.array(column, dtype=np.int64) for column in zip(*(
            (rect.row, rect.col, rect.height, rect.width)
            for _, rect in state["print_items"]
        ))
    )
    spans = (((np.uint64(1) << pw.astype(np.uint64)) - np.uint64(1))
             << pc.astype(np.uint64))
    rows_idx = np.arange(rows)
    covers = (pr[:, None] <= rows_idx[None, :]) \
        & (rows_idx[None, :] < pr[:, None] + ph[:, None])
    blocker_rows = np.where(covers, spans[:, None], np.uint64(0))
    slab = state["slab"] = {
        "base": np.array(state["row_bits"], dtype=np.uint64),
        # Both 32-bit halves of every span mask as float64: a sum of
        # disjoint sub-2^32 masks is exact, so the slab lifts many
        # blocker sets at once through two BLAS products.
        "blocker_lo": (blocker_rows & np.uint64(0xFFFFFFFF))
        .astype(np.float64),
        "blocker_hi": (blocker_rows >> np.uint64(32)).astype(np.float64),
        "heights": np.array([h for h, _ in state["shapes"]],
                            dtype=np.int64),
        "widths": np.array([w for _, w in state["shapes"]],
                           dtype=np.int64),
    }
    return slab
