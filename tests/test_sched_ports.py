"""Unit tests for the reconfiguration-port models (repro.sched.ports)."""

import json

import pytest

from repro.sched.events import EventQueue, SequentialResource
from repro.sched.ports import (
    PORT_MODEL_NAMES,
    IcapPortModel,
    MultiPortModel,
    SerialPortModel,
    make_port_model,
    normalize_port_model,
)
from repro.service import ReproService, ServiceConfig, restore, snapshot


class TestNormalize:
    @pytest.mark.parametrize("raw,canonical", [
        ("serial", "serial"),
        ("icap", "icap"),
        ("1", "serial"),
        (1, "serial"),
        ("2", "multi-2"),
        (4, "multi-4"),
        ("multi-3", "multi-3"),
        ("multi:8", "multi-8"),
        ("multi-1", "serial"),
        ("  ICAP ", "icap"),
    ])
    def test_canonical_spellings(self, raw, canonical):
        assert normalize_port_model(raw) == canonical

    @pytest.mark.parametrize("bad", ["uart", "multi-0", "0", "multi-x", ""])
    def test_rejects_unknown_specs(self, bad):
        with pytest.raises(ValueError):
            normalize_port_model(bad)

    def test_names_constant_is_canonical(self):
        for name in PORT_MODEL_NAMES:
            assert normalize_port_model(name) == name


class TestSerialModel:
    def test_matches_sequential_resource_exactly(self):
        """The default model must reproduce the historical serial port
        interval for interval."""
        q1, q2 = EventQueue(), EventQueue()
        legacy = SequentialResource(q1)
        model = SerialPortModel(q2)
        jobs = [(0.5, 0.0), (0.2, 0.3), (0.0, 1.0), (0.7, 0.7)]
        for config, move in jobs:
            assert model.acquire(config, move) == legacy.acquire(config + move)
        assert model.free_at == legacy.free_at
        assert model.busy_seconds == legacy.busy_seconds

    def test_advancing_clock_leaves_idle_gap(self):
        q = EventQueue()
        model = SerialPortModel(q)
        model.acquire(1.0)
        q.now = 5.0
        start, end = model.acquire(2.0)
        assert (start, end) == (5.0, 7.0)


class TestMultiModel:
    def test_two_ports_serve_two_jobs_concurrently(self):
        model = MultiPortModel(EventQueue(), n_ports=2)
        a = model.acquire(1.0)
        b = model.acquire(1.0)
        c = model.acquire(1.0)
        assert a == (0.0, 1.0)
        assert b == (0.0, 1.0)  # second lane, same interval
        assert c == (1.0, 2.0)  # back onto the earliest-free lane
        assert model.busy_seconds == 3.0

    def test_free_at_is_earliest_idle_lane(self):
        model = MultiPortModel(EventQueue(), n_ports=2)
        model.acquire(3.0)
        assert model.free_at == 0.0  # lane 2 still idle
        model.acquire(1.0)
        assert model.free_at == 1.0

    def test_dispatch_is_deterministic(self):
        """Same job sequence, same lane assignment, every time."""
        def intervals():
            model = MultiPortModel(EventQueue(), n_ports=3)
            return [model.acquire(d) for d in (2.0, 1.0, 1.0, 0.5, 2.0)]
        assert intervals() == intervals()

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiPortModel(EventQueue(), n_ports=0)
        with pytest.raises(ValueError):
            MultiPortModel(EventQueue(), n_ports=2).acquire(-1.0)


class TestIcapModel:
    def test_write_and_readback_scaling(self):
        model = IcapPortModel(EventQueue(), write_speedup=8.0,
                              readback_speedup=4.0)
        # Pure configuration: write phase only.
        assert model.acquire(8.0, 0.0) == (0.0, 1.0)
        # Pure move: write phase + readback phase.
        start, end = model.acquire(0.0, 8.0)
        assert end - start == pytest.approx(8.0 / 8.0 + 8.0 / 4.0)

    def test_faster_than_serial_for_the_same_jobs(self):
        serial = SerialPortModel(EventQueue())
        icap = IcapPortModel(EventQueue())
        for config, move in [(1.0, 0.5), (0.3, 0.0), (0.0, 0.8)]:
            __, serial_end = serial.acquire(config, move)
            __, icap_end = icap.acquire(config, move)
        assert icap_end < serial_end

    def test_validation(self):
        with pytest.raises(ValueError):
            IcapPortModel(EventQueue(), write_speedup=0.0)
        with pytest.raises(ValueError):
            IcapPortModel(EventQueue(), readback_speedup=-1.0)

    def test_readback_pipelines_behind_prior_write(self):
        """A move's readback phase runs on its own lane and overlaps
        the previous job's write phase.  The historical model folded
        both phases into one contiguous job on a single channel, which
        would serve the second job at [3.0, 6.0] here."""
        model = IcapPortModel(EventQueue(), write_speedup=8.0,
                              readback_speedup=4.0)
        first = model.acquire(0.0, 8.0)   # readback [0,2], write [2,3]
        second = model.acquire(0.0, 8.0)  # readback [2,4], write [4,5]
        assert first == (0.0, 3.0)
        assert second == (2.0, 5.0)
        assert model.free_at == 5.0

    def test_pure_write_leaves_readback_lane_idle(self):
        """Configurations without moves never touch the readback lane,
        so a following move's readback starts immediately."""
        model = IcapPortModel(EventQueue(), write_speedup=8.0,
                              readback_speedup=4.0)
        model.acquire(8.0, 0.0)               # write [0,1]
        start, end = model.acquire(0.0, 8.0)  # readback [0,2], write [2,3]
        assert (start, end) == (0.0, 3.0)

    def test_busy_seconds_counts_both_phases(self):
        model = IcapPortModel(EventQueue(), write_speedup=8.0,
                              readback_speedup=4.0)
        model.acquire(8.0, 8.0)
        assert model.busy_seconds == pytest.approx(16.0 / 8.0 + 8.0 / 4.0)

    def test_state_roundtrip_and_legacy_restore(self):
        """An icap service's lanes survive snapshot, JSON and restore;
        a pre-lane port row (one folded free_at horizon) is refused."""
        svc = ReproService(ServiceConfig(ports="icap"))
        model = svc.engine.kernel.ports[0]
        model.acquire(4.0, 8.0)
        doc = json.loads(json.dumps(snapshot(svc)))
        clone = restore(doc).engine.kernel.ports[0]
        assert (clone.write_free, clone.readback_free) \
            == (model.write_free, model.readback_free)
        assert clone.free_at == model.free_at
        assert clone.busy_seconds == model.busy_seconds
        doc["ports"][0] = {"free_at": 7.5, "busy_seconds": 2.0}
        with pytest.raises(ValueError, match=r"ports\[0\]"):
            restore(doc)

    def test_icap_beats_serial_on_a_defrag_heavy_scenario(self):
        """End to end through the kernel: on a relocation-heavy stream
        the pipelined icap port strictly reduces waiting and channel
        occupancy versus the serial channel."""
        from repro.campaign.runner import run_scenario
        from repro.campaign.spec import ScenarioSpec
        results = {}
        for ports in ("serial", "icap"):
            spec = ScenarioSpec(
                "XC2S15", "concurrent", "fragmenting", 0,
                defrag="threshold", ports=ports,
                workload_params=(("n", 25),),
            )
            results[ports] = run_scenario(spec)
        assert results["icap"].moves > 0
        assert (results["icap"].mean_waiting
                < results["serial"].mean_waiting)
        assert (results["icap"].port_busy_seconds
                < results["serial"].port_busy_seconds)


class TestFactory:
    def test_builds_each_model(self):
        q = EventQueue()
        assert isinstance(make_port_model("serial", q), SerialPortModel)
        assert isinstance(make_port_model("icap", q), IcapPortModel)
        multi = make_port_model("multi-4", q)
        assert isinstance(multi, MultiPortModel)
        assert multi.n_ports == 4
        assert isinstance(make_port_model("1", q), SerialPortModel)

    def test_instances_pass_through(self):
        q = EventQueue()
        model = MultiPortModel(q, 2)
        assert make_port_model(model, q) is model

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            make_port_model("parallel-cable-iv", EventQueue())
