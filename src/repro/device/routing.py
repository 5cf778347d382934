"""Routing-resource model: segmented channels, switch matrices, router.

Section 3 of the paper rearranges interconnections "due to the scarcity of
routing resources": paths are first duplicated (original and replica in
parallel) and then the original is disconnected and its switches returned
to the free pool.  To support that, this module models:

* a grid of switch matrices (one per CLB site) joined by segmented wires —
  *single* lines spanning one CLB and *hex* lines spanning six, with
  per-channel capacities in the spirit of the Virtex routing fabric;
* a congestion-aware shortest-path router (Dijkstra over the implicit
  graph) with an explicit *avoid set*, so replica paths can be forced
  disjoint from the original path where required;
* per-segment delay accounting — the propagation-delay analysis of Fig. 6
  needs each path's delay, and "for transient analysis, the propagation
  delay associated to the parallel interconnections shall be the longer
  of the two paths".

Wire usage is tracked per directed channel; allocation beyond capacity
raises, so the "only free routing resources are used" property of the
auxiliary relocation circuit is machine-checked rather than assumed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum

from .devices import VirtexDevice
from .geometry import ClbCoord


class WireKind(Enum):
    """Wire segment classes modelled (subset of the Virtex fabric)."""

    SINGLE = "single"  # spans 1 CLB
    HEX = "hex"        # spans 6 CLBs

    @property
    def span(self) -> int:
        """Number of CLB positions the segment advances."""
        return 1 if self is WireKind.SINGLE else 6


#: Delay charged per segment, in nanoseconds: one switch traversal plus
#: the wire itself.  Values are representative of Virtex -6 speed grade;
#: only ratios matter to the experiments.
SEGMENT_DELAY_NS = {WireKind.SINGLE: 0.7, WireKind.HEX: 1.6}

#: Default per-channel capacities (wires per direction between adjacent
#: switch matrices): Virtex has 24 singles and 12 hexes per direction.
DEFAULT_CAPACITY = {WireKind.SINGLE: 24, WireKind.HEX: 12}


@dataclass(frozen=True, order=True)
class Segment:
    """One allocated wire segment from switch matrix ``a`` to ``b``."""

    a: ClbCoord
    b: ClbCoord
    kind: WireKind

    def columns(self) -> range:
        """CLB columns whose routing frames program this segment."""
        lo = min(self.a.col, self.b.col)
        hi = max(self.a.col, self.b.col)
        return range(lo, hi + 1)

    @property
    def delay_ns(self) -> float:
        """Propagation delay through the segment and its entry switch."""
        return SEGMENT_DELAY_NS[self.kind]

    def __str__(self) -> str:
        return f"{self.a}-{self.kind.value}-{self.b}"


@dataclass
class RoutePath:
    """An ordered chain of segments from a source site to a sink site."""

    source: ClbCoord
    sink: ClbCoord
    segments: list[Segment] = field(default_factory=list)

    @property
    def delay_ns(self) -> float:
        """Total propagation delay along the path."""
        return sum(s.delay_ns for s in self.segments)

    @property
    def length(self) -> int:
        """Number of segments (switch traversals)."""
        return len(self.segments)

    def columns(self) -> set[int]:
        """All CLB columns whose routing frames this path occupies."""
        cols: set[int] = set()
        for s in self.segments:
            cols.update(s.columns())
        return cols

    def is_contiguous(self) -> bool:
        """Structural sanity: segments chain from source to sink."""
        at = self.source
        for s in self.segments:
            if s.a != at:
                return False
            at = s.b
        return at == self.sink


class RoutingError(RuntimeError):
    """Raised when a route cannot be found or capacity is violated."""


class RoutingGraph:
    """Wire usage tracker and router over one device's fabric."""

    def __init__(
        self,
        device: VirtexDevice,
        capacity: dict[WireKind, int] | None = None,
    ) -> None:
        self.device = device
        self.capacity = dict(DEFAULT_CAPACITY if capacity is None else capacity)
        #: usage[(a, b, kind)] = wires in use from a to b (directed).
        self.usage: dict[tuple[ClbCoord, ClbCoord, WireKind], int] = {}

    # -- topology ----------------------------------------------------------

    def in_bounds(self, node: ClbCoord) -> bool:
        """True if ``node`` is a valid switch-matrix coordinate."""
        return (
            0 <= node.row < self.device.clb_rows
            and 0 <= node.col < self.device.clb_cols
        )

    def neighbours(self, node: ClbCoord) -> list[tuple[ClbCoord, WireKind]]:
        """Reachable switch matrices and the wire kind reaching them."""
        out: list[tuple[ClbCoord, WireKind]] = []
        for kind in WireKind:
            span = kind.span
            for dr, dc in ((-span, 0), (span, 0), (0, -span), (0, span)):
                nxt = ClbCoord(node.row + dr, node.col + dc)
                if self.in_bounds(nxt):
                    out.append((nxt, kind))
        return out

    # -- usage accounting ---------------------------------------------------

    def used(self, a: ClbCoord, b: ClbCoord, kind: WireKind) -> int:
        """Wires currently in use on the directed channel a->b."""
        return self.usage.get((a, b, kind), 0)

    def free_wires(self, a: ClbCoord, b: ClbCoord, kind: WireKind) -> int:
        """Wires still available on the directed channel a->b."""
        return self.capacity[kind] - self.used(a, b, kind)

    def total_wires_used(self) -> int:
        """Total allocated wire segments across the device."""
        return sum(self.usage.values())

    def allocate(self, path: RoutePath) -> None:
        """Claim every segment of ``path``; raises if any channel is full.

        This is the invariant behind the paper's replica paths: they can
        only be built from *free* routing resources.
        """
        if not path.is_contiguous():
            raise RoutingError(f"path {path.source}->{path.sink} is not contiguous")
        for s in path.segments:
            if self.free_wires(s.a, s.b, s.kind) <= 0:
                raise RoutingError(f"channel {s} is out of {s.kind.value} wires")
        for s in path.segments:
            key = (s.a, s.b, s.kind)
            self.usage[key] = self.usage.get(key, 0) + 1

    def release(self, path: RoutePath) -> None:
        """Return every segment of ``path`` to the free pool."""
        for s in path.segments:
            key = (s.a, s.b, s.kind)
            current = self.usage.get(key, 0)
            if current <= 0:
                raise RoutingError(f"releasing unallocated segment {s}")
            if current == 1:
                del self.usage[key]
            else:
                self.usage[key] = current - 1

    # -- routing -------------------------------------------------------------

    def route(
        self,
        source: ClbCoord,
        sink: ClbCoord,
        avoid: set[tuple[ClbCoord, ClbCoord, WireKind]] | None = None,
        congestion_weight: float = 0.5,
    ) -> RoutePath:
        """Find a minimum-delay path from ``source`` to ``sink``.

        ``avoid`` lists directed channels the path must not use (e.g. the
        original path's channels, when building a physically disjoint
        replica).  Channels with no free wires are never used.  Raises
        :class:`RoutingError` when no path exists.
        """
        if not self.in_bounds(source) or not self.in_bounds(sink):
            raise RoutingError(f"route endpoints {source}->{sink} out of bounds")
        if source == sink:
            return RoutePath(source, sink, [])
        avoid = avoid or set()
        best: dict[ClbCoord, float] = {source: 0.0}
        back: dict[ClbCoord, Segment] = {}
        heap: list[tuple[float, int, ClbCoord]] = [(0.0, 0, source)]
        tie = 0
        while heap:
            cost, _, node = heapq.heappop(heap)
            if node == sink:
                break
            if cost > best.get(node, float("inf")):
                continue
            for nxt, kind in self.neighbours(node):
                key = (node, nxt, kind)
                if key in avoid or self.free_wires(node, nxt, kind) <= 0:
                    continue
                penalty = congestion_weight * self.used(node, nxt, kind)
                ncost = cost + SEGMENT_DELAY_NS[kind] + penalty
                if ncost < best.get(nxt, float("inf")):
                    best[nxt] = ncost
                    back[nxt] = Segment(node, nxt, kind)
                    tie += 1
                    heapq.heappush(heap, (ncost, tie, nxt))
        if sink not in back:
            raise RoutingError(f"no route {source}->{sink} with free wires")
        segments: list[Segment] = []
        at = sink
        while at != source:
            seg = back[at]
            segments.append(seg)
            at = seg.a
        segments.reverse()
        return RoutePath(source, sink, segments)

    def route_and_allocate(
        self,
        source: ClbCoord,
        sink: ClbCoord,
        avoid: set[tuple[ClbCoord, ClbCoord, WireKind]] | None = None,
    ) -> RoutePath:
        """Route and immediately claim the path (the common case)."""
        path = self.route(source, sink, avoid=avoid)
        self.allocate(path)
        return path


def path_channels(path: RoutePath) -> set[tuple[ClbCoord, ClbCoord, WireKind]]:
    """The directed channels a path occupies (for use as an avoid set)."""
    return {(s.a, s.b, s.kind) for s in path.segments}
