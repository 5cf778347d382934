"""The on-line logic-space manager.

Ties the pieces of the paper together: placement requests arrive on-line;
when contiguous space is missing, a rearrangement plan is executed with
one of three policies:

* :attr:`RearrangePolicy.NONE` — no rearrangement; the request waits
  (the fragmentation-suffering baseline of section 1);
* :attr:`RearrangePolicy.HALT` — moved functions are stopped during
  their move, the state of the art the paper criticises ("no physical
  execution of these rearrangements is proposed other than halting those
  functions, stopping the normal system operation");
* :attr:`RearrangePolicy.CONCURRENT` — the paper's contribution: moves
  execute through dynamic relocation "concurrently with all applications
  currently running, without any time overheads" for the moved
  functions; only the configuration port is busy.

Move timing comes from the relocation cost model: moving a W x H function
relocates W*H CLBs, each paying the per-CLB plan cost over the move span
(Boundary Scan, column-granularity writes — the paper's ~22.6 ms per
gated-clock CLB).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.device.clb import CellMode
from repro.device.fabric import Fabric
from repro.device.geometry import Rect
from repro.placement.compaction import Move
from repro.placement.fit import CachedFitter, fitter
from repro.placement import metrics

from .cost import CostModel
from .defrag import DefragPlanner, RearrangementPlan
from .defrag_policy import DefragPolicy, make_defrag_policy
from .procedure import StepClass, build_plan


#: Process-wide relocation/configuration cost memos.  A cost figure is a
#: pure function of (device, port kind, cost parameters, cell mode,
#: geometry), so managers over the same device share it — the scheduling
#: benches and fleet runs construct many managers per process and would
#: otherwise regenerate identical packet streams per instance.  Only the
#: stock :class:`~repro.core.cost.CostModel` participates: subclasses may
#: override the maths, so they always compute through their own instance.
_MOVE_COST_MEMO: dict[tuple, float] = {}
_CONFIG_COST_MEMO: dict[tuple, float] = {}


class RearrangePolicy(Enum):
    """How rearrangement moves are (not) executed."""

    NONE = "none"
    HALT = "halt"
    CONCURRENT = "concurrent"


@dataclass(slots=True)
class MoveExecution:
    """One executed move with its reconfiguration cost."""

    move: Move
    seconds: float
    halted: bool

    @property
    def halt_seconds(self) -> float:
        """Time the moved function was stopped (zero when concurrent)."""
        return self.seconds if self.halted else 0.0


@dataclass(slots=True)
class PlacementOutcome:
    """Result of one placement request."""

    success: bool
    owner: int
    rect: Rect | None = None
    moves: list[MoveExecution] = field(default_factory=list)
    config_seconds: float = 0.0
    method: str = "direct"
    #: fleet member that accepted the request (0 for the single-device
    #: manager; set by :class:`repro.fleet.manager.FleetManager` so the
    #: scheduling kernel charges the right device's port).
    device: int = 0
    #: failure certificate: True when the manager can *prove* that any
    #: request of equal-or-larger footprint (height' >= height and
    #: width' >= width) would also fail against this same occupancy.
    #: Two provable cases exist — a direct-fit failure with
    #: rearrangement disabled (a larger window contains a smaller one),
    #: and a free-area shortfall (defragmentation consolidates sites,
    #: it cannot create them).  A rearrangement-*search* failure is NOT
    #: dominant: the eviction heuristic's candidate anchors and
    #: relocation trade-offs are shape-dependent and non-monotone.  The
    #: scheduling kernel uses the certificate to skip doomed probes of
    #: larger queued shapes; always False on success.
    dominant: bool = False

    @property
    def rearrange_seconds(self) -> float:
        """Configuration-port time spent on rearrangement moves."""
        return sum(m.seconds for m in self.moves)

    @property
    def halted_seconds(self) -> float:
        """Total stopped time inflicted on running functions."""
        return sum(m.halt_seconds for m in self.moves)


@dataclass
class DefragOutcome:
    """Result of one executed proactive consolidation."""

    moves: list[MoveExecution] = field(default_factory=list)
    method: str = "consolidate"
    largest_before: int = 0
    largest_after: int = 0

    @property
    def port_seconds(self) -> float:
        """Configuration-port time the consolidation consumed."""
        return sum(m.seconds for m in self.moves)

    @property
    def halted_seconds(self) -> float:
        """Total stopped time inflicted on running functions."""
        return sum(m.halt_seconds for m in self.moves)


class LogicSpaceManager:
    """On-line allocation with optional transparent rearrangement."""

    def __init__(
        self,
        fabric: Fabric,
        cost_model: CostModel | None = None,
        policy: RearrangePolicy = RearrangePolicy.CONCURRENT,
        fit: str = "first",
        planner: DefragPlanner | None = None,
        moved_cell_mode: CellMode = CellMode.FF_GATED_CLOCK,
        defrag_policy: DefragPolicy | str = "on-failure",
    ) -> None:
        self.fabric = fabric
        self.cost = cost_model or CostModel(fabric.device)
        self.policy = policy
        #: the placement heuristic, memoised per free-space generation —
        #: repeated probes against an unchanged fabric (one admission
        #: pass asks about every waiting shape) are dictionary hits.
        self.fit = CachedFitter(fitter(fit))
        self.planner = planner or DefragPlanner()
        #: worst-case assumption about moved cells: gated-clock cells pay
        #: the full Fig. 4 flow; pass FF_FREE_CLOCK for lighter payloads.
        self.moved_cell_mode = moved_cell_mode
        #: when to rearrange: reactive and/or proactive trigger policy.
        self.defrag_policy = (
            make_defrag_policy(defrag_policy)
            if isinstance(defrag_policy, str) else defrag_policy
        )
        self._move_cost_cache: dict[tuple[int, int], float] = {}
        self._config_cost_cache: dict[int, float] = {}

    @property
    def free_space(self):
        """The fabric's free-space engine (all placement queries and
        telemetry read the maximal-empty-rectangle set from here, so a
        request can never observe a stale view of the logic space)."""
        return self.fabric.free_space

    # -- cost estimates --------------------------------------------------------

    def clb_move_seconds(self, src_col: int, dst_col: int) -> float:
        """Port time to relocate one CLB between two columns.

        Each CLB relocation follows the full per-cell procedure; the four
        cells of a CLB share the column writes of one plan ("CLBs
        relocation is performed individually, even if many of these
        blocks were replicated simultaneously", section 2).
        """
        cached = self._move_cost_cache.get((src_col, dst_col))
        if cached is not None:
            return cached
        memo_key = None
        if type(self.cost) is CostModel:
            memo_key = (self.fabric.device, self.cost.port_kind,
                        self.cost.params, self.moved_cell_mode,
                        src_col, dst_col)
            hit = _MOVE_COST_MEMO.get(memo_key)
            if hit is not None:
                self._move_cost_cache[(src_col, dst_col)] = hit
                return hit
        cols = self.fabric.device.clb_cols
        aux_col = min(dst_col + 1, cols - 1)
        span = set(range(min(src_col, dst_col), max(src_col, dst_col) + 1))
        plan = build_plan(
            "move",
            self.moved_cell_mode,
            signal_columns=span,
            src_col=src_col,
            dst_col=dst_col,
            aux_col=aux_col if self.moved_cell_mode in
            (CellMode.FF_GATED_CLOCK, CellMode.LATCH) else None,
            ce_col=src_col,
        )
        seconds = self.cost.plan_cost(plan).total_seconds
        self._move_cost_cache[(src_col, dst_col)] = seconds
        if memo_key is not None:
            _MOVE_COST_MEMO[memo_key] = seconds
        return seconds

    def move_seconds(self, move: Move) -> float:
        """Port time to relocate a whole footprint, CLB by CLB."""
        per_clb = self.clb_move_seconds(move.src.col, move.dst.col)
        return per_clb * move.src.area

    def config_seconds(self, rect: Rect) -> float:
        """Port time to configure an incoming function over ``rect``
        (every column of the footprint is written once)."""
        cached = self._config_cost_cache.get(rect.width)
        if cached is not None:
            return cached
        memo_key = None
        if type(self.cost) is CostModel:
            memo_key = (self.fabric.device, self.cost.port_kind,
                        self.cost.params, rect.width)
            cached = _CONFIG_COST_MEMO.get(memo_key)
        if cached is None:
            cached = self.cost.seconds_for_columns(rect.width, StepClass.LOGIC)
            if memo_key is not None:
                _CONFIG_COST_MEMO[memo_key] = cached
        self._config_cost_cache[rect.width] = cached
        return cached

    # -- requests ---------------------------------------------------------------

    def request(self, height: int, width: int, owner: int) -> PlacementOutcome:
        """Place a ``height`` x ``width`` function for ``owner``.

        Tries a direct fit first; on failure and with rearrangement
        enabled, plans and executes the cheapest rearrangement.  The
        outcome carries all reconfiguration costs for the scheduler to
        charge against the configuration port.
        """
        rect = self.fit(self.fabric.occupancy, height, width,
                        index=self.free_space)
        if rect is not None:
            self.fabric.allocate_region(rect, owner)
            return PlacementOutcome(
                True, owner, rect, config_seconds=self.config_seconds(rect)
            )
        if self.policy is RearrangePolicy.NONE \
                or not self.defrag_policy.reactive:
            # Fit-only failure is monotone in the footprint: any larger
            # window would contain the missing smaller one.
            return PlacementOutcome(False, owner, dominant=True)
        # The token names the current occupancy content (see
        # DefragPlanner.plan): probes repeated against an unchanged
        # fabric reuse the planner's per-generation work and memoised
        # answers.  Successful plans are executed immediately, which
        # bumps the generation — so a memoised *plan* is only ever
        # re-served for requests the fabric still cannot host.
        token = (self.free_space, self.free_space.generation)
        plan = self.planner.plan(
            self.fabric.occupancy, height, width, token=token
        )
        if plan is None:
            # The failure is dominant only on a free-area shortfall
            # (larger shapes need even more area); a rearrangement
            # *search* failure proves nothing about other shapes.
            return PlacementOutcome(
                False, owner,
                dominant=self.free_space.free_area() < height * width,
            )
        executions = self.execute_plan(plan)
        self.fabric.allocate_region(plan.target, owner)
        return PlacementOutcome(
            True,
            owner,
            plan.target,
            moves=executions,
            config_seconds=self.config_seconds(plan.target),
            method=plan.method,
        )

    #: how deep into the failing run :meth:`prefetch_admission` resolves
    #: rearrangement plans ahead of demand.  The caller passes the
    #: admission pass's own candidate order, so prefetched plans are
    #: normally all consumed by the pass; the cap bounds the speculation
    #: in the rare case an early shape's *plan* succeeds (which admits
    #: the item and invalidates everything after it).  Shapes past the
    #: cap fall back to on-demand (still token-memoised) planning.
    #: Sized to cover a rejection-heavy pass's whole distinct-shape set
    #: (the batch screens all shapes in one vectorised pass, so depth
    #: is nearly free when plans fail — and plans failing is exactly
    #: when the deep batch gets consumed).
    PLAN_PREFETCH_DEPTH = 32

    def prefetch_admission(self, shapes: list[tuple[int, int]]) -> None:
        """Warm the fit and plan caches for one admission pass.

        ``shapes`` are the queue-eligible (height, width) requests in
        discipline order.  The fit cache is warmed for every shape;
        rearrangement plans are then batch-resolved for
        the leading run of shapes whose fit fails (capped at
        :attr:`PLAN_PREFETCH_DEPTH`) — the first shape that *fits* will
        be admitted, which mutates the fabric and bumps the generation,
        so any plan prefetched past it would be computed against a grid
        the pass never asks about again.  Purely a cache warmer: the
        per-item :meth:`request` calls that follow return bit-identical
        outcomes whether or not this ran.
        """
        if not shapes:
            return
        index = self.free_space
        occupancy = self.fabric.occupancy
        self.fit.prefetch(occupancy, shapes, index)
        if self.policy is RearrangePolicy.NONE \
                or not self.defrag_policy.reactive:
            return
        failing: list[tuple[int, int]] = []
        for height, width in shapes:
            if self.fit(occupancy, height, width, index=index) is not None:
                break
            if (height, width) not in failing:
                failing.append((height, width))
                if len(failing) >= self.PLAN_PREFETCH_DEPTH:
                    break
        if failing:
            self.planner.plan_prefetch(
                occupancy, failing, (index, index.generation)
            )

    def execute_plan(self, plan: RearrangementPlan) -> list[MoveExecution]:
        """Apply a rearrangement plan to the fabric, move by move."""
        executions: list[MoveExecution] = []
        for move in plan.moves:
            self.fabric.move_region(move.src, move.dst, move.owner)
            executions.append(
                MoveExecution(
                    move,
                    self.move_seconds(move),
                    halted=self.policy is RearrangePolicy.HALT,
                )
            )
        return executions

    def maybe_defrag(self, now: float = 0.0,
                     port_idle: bool = True) -> DefragOutcome | None:
        """Run one proactive consolidation pass if the policy calls for it.

        Consults :attr:`defrag_policy` against the current fragmentation
        metrics (``now`` is simulation time, ``port_idle`` whether the
        reconfiguration port has no queued work); when triggered, asks
        the planner for a consolidation plan and executes it through the
        same relocation path as reactive rearrangements.  Returns the
        executed :class:`DefragOutcome` — whose ``port_seconds`` the
        caller must charge against the reconfiguration port, so
        proactive moves compete with arrivals for it — or ``None`` when
        the policy declined or no profitable plan exists.
        """
        if self.policy is RearrangePolicy.NONE:
            return None
        # Reactive-only policies can never fire here; skip before
        # computing the trigger's fragmentation/free-area inputs, which
        # would otherwise cost a MER-set scan per finish event (times
        # fleet size, once a kernel drives many members).
        if not self.defrag_policy.proactive:
            return None
        if not self.defrag_policy.should_trigger(
            fragmentation=self.fragmentation(),
            free_area=self.free_space.free_area(),
            now=now,
            port_idle=port_idle,
        ):
            return None
        # Cooldown starts at the attempt, not the success: a state the
        # planner cannot improve should not be replanned every event.
        self.defrag_policy.note_attempt(now)
        plan = self.planner.plan_consolidation(self.fabric.occupancy)
        if plan is None or not plan.moves:
            return None
        before = self.free_space.largest_free_area()
        executions = self.execute_plan(plan)
        after = self.free_space.largest_free_area()
        return DefragOutcome(
            moves=executions,
            method=plan.method,
            largest_before=before,
            largest_after=after,
        )

    def release(self, owner: int) -> None:
        """Free a finished function's footprint."""
        rect = self.fabric.footprint(owner)
        if rect is None:
            raise KeyError(f"owner {owner} holds no region")
        self.fabric.free_region(rect, owner)

    # -- telemetry ----------------------------------------------------------------

    def fragmentation(self) -> float:
        """Current fragmentation index of the logic space."""
        return metrics.fragmentation_index(
            self.fabric.occupancy, index=self.free_space
        )

    def utilization(self) -> float:
        """Current site occupancy."""
        return metrics.utilization(
            self.fabric.occupancy, index=self.free_space
        )
