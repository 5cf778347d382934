"""On-line concurrent testing through dynamic relocation.

The relocation mechanism was first developed by the same authors for
on-line FPGA self-test (reference [8] of the paper: "Active Replication:
Towards a Truly SRAM-based FPGA On-Line Concurrent Testing"), and the
conclusion lists extending the tool's functionality as further work.
This module implements that extension on top of the relocation engine:

* a **test rotation** sweeps the CLB array; occupied cells are first
  relocated to spare cells (transparently, via the Fig. 2/4 procedures),
  then the vacated CLB runs a built-in self-test (every LUT input vector
  against a set of test configurations);
* a **fault model** (stuck-at cell outputs) is injected at fabric sites;
  a fault is *detected* when the observed response differs from the
  expected response of any test configuration;
* the whole sweep happens while the application keeps running — the same
  transparency guarantee as any other relocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.device.geometry import CELLS_PER_CLB, CellCoord, ClbCoord

from .procedure import RelocationVeto
from .relocation import RelocationEngine, RelocationReport

#: Test configurations loaded into each cell under test: a pattern-
#: sensitive pair (checkerboard LUTs) plus the all-ones/all-zeros
#: configurations that expose stuck-at faults on every input vector.
TEST_LUTS = (0xAAAA, 0x5555, 0xFFFF, 0x0000)


@dataclass(frozen=True)
class StuckAtFault:
    """A physical defect: the cell's output is stuck at ``value``."""

    site: CellCoord
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")


@dataclass
class CellTestResult:
    """BIST outcome for one physical cell."""

    site: CellCoord
    tested: bool
    faulty: bool


@dataclass
class RotationReport:
    """Outcome of one full (or partial) test rotation."""

    clbs_tested: int = 0
    cells_tested: int = 0
    relocations: list[RelocationReport] = field(default_factory=list)
    detected: list[StuckAtFault] = field(default_factory=list)
    skipped: list[ClbCoord] = field(default_factory=list)

    @property
    def relocation_seconds(self) -> float:
        """Port time spent vacating CLBs under test."""
        return sum(r.total_seconds for r in self.relocations)

    @property
    def transparent(self) -> bool:
        """True when every vacating relocation was transparent."""
        return all(r.transparent for r in self.relocations)


class ActiveReplicationTester:
    """Rotates a self-test over the array, relocating live cells away."""

    def __init__(self, engine: RelocationEngine) -> None:
        self.engine = engine
        self.design = engine.design
        self.fabric = engine.design.fabric
        #: injected physical faults by site.
        self.faults: dict[CellCoord, StuckAtFault] = {}
        self.tested: set[ClbCoord] = set()

    # -- fault injection ----------------------------------------------------

    def inject_fault(self, fault: StuckAtFault) -> None:
        """Plant a stuck-at defect at a physical site."""
        self.faults[fault.site] = fault

    # -- BIST ------------------------------------------------------------------

    def _cell_response(self, site: CellCoord, lut: int, vector: int) -> int:
        """Observed output of a (possibly faulty) cell under test."""
        fault = self.faults.get(site)
        if fault is not None:
            return fault.value
        return (lut >> vector) & 1

    def test_cell(self, site: CellCoord) -> CellTestResult:
        """Exhaustive BIST of one free cell: every test LUT, every
        input vector; compares observed and expected responses."""
        if self.fabric.cell_config(site).used:
            raise RelocationVeto(f"cell {site} is in use; vacate it first")
        for lut in TEST_LUTS:
            for vector in range(16):
                expected = (lut >> vector) & 1
                if self._cell_response(site, lut, vector) != expected:
                    return CellTestResult(site, True, True)
        return CellTestResult(site, True, False)

    # -- rotation ----------------------------------------------------------------

    def vacate_clb(self, clb: ClbCoord,
                   report: RotationReport) -> bool:
        """Relocate every live cell out of ``clb`` (transparently).

        Returns False when some occupant cannot be moved (no free cell
        elsewhere, LUT/RAM restriction, ...) — the CLB is then skipped,
        never silently half-tested.
        """
        occupants = [
            name
            for name, site in self.design.placement.items()
            if site.clb == clb
        ]
        for name in occupants:
            try:
                # Destination chosen automatically; exclude this CLB by
                # searching from a neighbour.
                dst = self._destination_outside(clb, name)
                reloc = self.engine.relocate(name, dst)
            except RelocationVeto:
                return False
            report.relocations.append(reloc)
        return True

    def _destination_outside(self, clb: ClbCoord, cell_name: str) -> CellCoord:
        """A free cell in some other CLB, nearest to the one under test."""
        limit = self.fabric.device.clb_rows + self.fabric.device.clb_cols
        for dist in range(1, limit):
            for dr in range(-dist, dist + 1):
                dc = dist - abs(dr)
                for signed in {dc, -dc}:
                    coord = ClbCoord(clb.row + dr, clb.col + signed)
                    if not self.fabric.bounds.contains(coord):
                        continue
                    config = self.fabric.clb(coord)
                    free = config.free_cell_indices()
                    if free:
                        return CellCoord(coord.row, coord.col, free[0])
        raise RelocationVeto(f"no free cell outside {clb}")

    def rotate(self, clbs: list[ClbCoord] | None = None,
               max_clbs: int | None = None) -> RotationReport:
        """Test the given CLBs (default: the whole array, column-major —
        the natural frame order), vacating occupied ones first."""
        if clbs is None:
            clbs = [
                ClbCoord(row, col)
                for col in range(self.fabric.device.clb_cols)
                for row in range(self.fabric.device.clb_rows)
            ]
        report = RotationReport()
        for clb in clbs:
            if max_clbs is not None and report.clbs_tested >= max_clbs:
                break
            if clb in self.tested:
                continue
            if not self.fabric.clb(clb).is_free:
                if not self.vacate_clb(clb, report):
                    report.skipped.append(clb)
                    continue
            for index in range(CELLS_PER_CLB):
                site = CellCoord(clb.row, clb.col, index)
                result = self.test_cell(site)
                report.cells_tested += 1
                if result.faulty:
                    report.detected.append(self.faults[site])
            self.tested.add(clb)
            report.clbs_tested += 1
        return report

    def coverage(self) -> float:
        """Fraction of the CLB array tested so far."""
        return len(self.tested) / self.fabric.device.clb_count
