"""Technology mapping: pack netlist cells into CLBs and place on fabric.

A light-weight stand-in for the vendor flow the paper's tool consumes
("a complete configuration file generated by the traditional development
tool", section 4): cells are clustered four-to-a-CLB with connectivity
driven packing, placed into a rectangular footprint — placement
"gathers in the same area the logic that is needed to implement the
components of a given function" (section 3) — and nets may be routed over
the fabric's routing graph for frame and delay accounting.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.device.clb import CellMode, LogicCellConfig
from repro.device.fabric import Fabric, FabricError
from repro.device.geometry import CELLS_PER_CLB, CellCoord, ClbCoord, Rect
from repro.device.routing import RoutePath, RoutingError

from .circuit import Circuit


class MappingError(RuntimeError):
    """Raised when a circuit cannot be packed or placed."""


def pack(circuit: Circuit) -> list[list[str]]:
    """Group cells into CLB clusters of up to four, connectivity first.

    Greedy BFS over the net adjacency: each cluster seeds with the first
    unpacked cell and pulls in its closest neighbours, approximating the
    locality the vendor placer would produce.
    """
    adjacency: dict[str, list[str]] = {name: [] for name in circuit.cells}
    driver_of: dict[str, str] = {}
    for name, cell in circuit.cells.items():
        driver_of[cell.output] = name
    for name, cell in circuit.cells.items():
        for net in cell.fanin:
            other = driver_of.get(net)
            if other is not None and other != name:
                adjacency[name].append(other)
                adjacency[other].append(name)
    packed: set[str] = set()
    clusters: list[list[str]] = []
    for seed in circuit.cells:
        if seed in packed:
            continue
        cluster: list[str] = []
        queue = deque([seed])
        while queue and len(cluster) < CELLS_PER_CLB:
            name = queue.popleft()
            if name in packed:
                continue
            packed.add(name)
            cluster.append(name)
            for neighbour in adjacency[name]:
                if neighbour not in packed:
                    queue.append(neighbour)
        clusters.append(cluster)
    return clusters


def footprint_shape(n_clbs: int, max_height: int,
                    max_width: int) -> tuple[int, int]:
    """Smallest near-square (height, width) with area >= ``n_clbs``."""
    if n_clbs <= 0:
        raise MappingError("cannot place an empty circuit")
    side = max(1, math.isqrt(n_clbs))
    for height in range(side, 0, -1):
        width = math.ceil(n_clbs / height)
        if height <= max_height and width <= max_width:
            return height, width
    raise MappingError(
        f"{n_clbs} CLBs do not fit a {max_height}x{max_width} device"
    )


@dataclass
class MappedDesign:
    """A circuit bound to fabric sites.

    ``placement`` maps every cell name to its :class:`CellCoord`;
    ``region`` is the rectangular footprint owned by this design;
    ``routes`` holds the allocated inter-CLB paths per (driver cell,
    sink cell) pair after :meth:`route_all`.
    """

    circuit: Circuit
    fabric: Fabric
    owner: int
    region: Rect
    placement: dict[str, CellCoord] = field(default_factory=dict)
    routes: dict[tuple[str, str], RoutePath] = field(default_factory=dict)

    # -- queries --------------------------------------------------------

    def site_of(self, cell_name: str) -> CellCoord:
        """The fabric site of a cell."""
        try:
            return self.placement[cell_name]
        except KeyError:
            raise MappingError(f"cell {cell_name!r} is not placed") from None

    def connected_cells(self, cell_name: str) -> list[str]:
        """Cells sharing a net with ``cell_name`` (fan-in drivers and
        fan-out readers) — their sites determine the columns a relocation
        of ``cell_name`` touches."""
        cell = self.circuit.cells[cell_name]
        driver_of = {c.output: n for n, c in self.circuit.cells.items()}
        connected: set[str] = set()
        for net in cell.fanin:
            driver = driver_of.get(net)
            if driver and driver != cell_name:
                connected.add(driver)
        for reader in self.circuit.fanout(cell.output):
            if reader != cell_name:
                connected.add(reader)
        return sorted(connected)

    def signal_columns(self, cell_name: str) -> set[int]:
        """CLB columns crossed by the signals of one cell.

        "When the functionality of a given CLB is dynamically relocated
        ... more than one column may be affected, since its input and
        output signals may cross several columns" (section 2).
        """
        site = self.site_of(cell_name)
        cols = {site.col}
        for other in self.connected_cells(cell_name):
            if other in self.placement:
                other_col = self.placement[other].col
                lo, hi = min(site.col, other_col), max(site.col, other_col)
                cols.update(range(lo, hi + 1))
        for (driver, sink), path in self.routes.items():
            if driver == cell_name or sink == cell_name:
                cols.update(path.columns())
        return cols

    # -- fabric binding ----------------------------------------------------

    def bind_cell(self, cell_name: str, site: CellCoord) -> None:
        """Place one cell's configuration at a fabric site."""
        cell = self.circuit.cells[cell_name]
        config = LogicCellConfig(mode=cell.mode, lut=cell.lut)
        self.fabric.place_cell(site, config)
        self.placement[cell_name] = site

    def unbind_cell(self, cell_name: str) -> CellCoord:
        """Vacate one cell's fabric site (it returns to the free pool)."""
        site = self.site_of(cell_name)
        self.fabric.vacate_cell(site)
        del self.placement[cell_name]
        return site

    # -- routing -------------------------------------------------------------

    def route_all(self) -> int:
        """Route every inter-CLB cell-to-cell connection; returns the
        number of paths allocated.  Intra-CLB connections use dedicated
        fast interconnect and consume no general routing."""
        driver_of = {c.output: n for n, c in self.circuit.cells.items()}
        count = 0
        for name, cell in self.circuit.cells.items():
            sink_site = self.placement.get(name)
            if sink_site is None:
                continue
            for net in cell.fanin:
                driver = driver_of.get(net)
                if driver is None or driver == name:
                    continue
                driver_site = self.placement.get(driver)
                if driver_site is None or driver_site.clb == sink_site.clb:
                    continue
                key = (driver, name)
                if key in self.routes:
                    continue
                try:
                    self.routes[key] = self.fabric.routing.route_and_allocate(
                        driver_site.clb, sink_site.clb
                    )
                except RoutingError as exc:
                    raise MappingError(
                        f"routing failed for {driver}->{name}: {exc}"
                    ) from exc
                count += 1
        return count

    def unroute_all(self) -> None:
        """Release every allocated path."""
        for path in self.routes.values():
            self.fabric.routing.release(path)
        self.routes.clear()

    def remove_from_fabric(self) -> None:
        """Vacate all sites and routing; free the owned region."""
        self.unroute_all()
        for name in list(self.placement):
            self.unbind_cell(name)
        self.fabric.free_region(self.region, self.owner)


def place(circuit: Circuit, fabric: Fabric, owner: int,
          origin: ClbCoord | None = None,
          route: bool = False) -> MappedDesign:
    """Pack, place and optionally route ``circuit`` onto ``fabric``.

    With ``origin`` the footprint's top-left corner is fixed; otherwise
    the first free location (row-major scan) is used.  Raises
    :class:`MappingError` when no free rectangle fits.
    """
    clusters = pack(circuit)
    height, width = footprint_shape(
        len(clusters), fabric.device.clb_rows, fabric.device.clb_cols
    )
    region = _find_region(fabric, height, width, origin)
    fabric.allocate_region(region, owner)
    design = MappedDesign(circuit, fabric, owner, region)
    sites = [
        CellCoord(clb.row, clb.col, k)
        for clb in region.sites()
        for k in range(CELLS_PER_CLB)
    ]
    index = 0
    for cluster in clusters:
        # Clusters start at CLB boundaries to honour the packing.
        if index % CELLS_PER_CLB:
            index += CELLS_PER_CLB - (index % CELLS_PER_CLB)
        for name in cluster:
            design.bind_cell(name, sites[index])
            index += 1
    if route:
        design.route_all()
    return design


def _find_region(fabric: Fabric, height: int, width: int,
                 origin: ClbCoord | None) -> Rect:
    """Locate a free ``height`` x ``width`` rectangle."""
    if origin is not None:
        rect = Rect(origin.row, origin.col, height, width)
        if not fabric.region_is_free(rect):
            raise MappingError(f"requested region {rect} is not free")
        return rect
    for row in range(fabric.device.clb_rows - height + 1):
        for col in range(fabric.device.clb_cols - width + 1):
            rect = Rect(row, col, height, width)
            if fabric.region_is_free(rect):
                return rect
    raise MappingError(
        f"no free {height}x{width} region on {fabric.device.name}"
    )
