"""The always-on service core: door, engine, checkpoint identity.

Four claims are pinned here:

* the **QoS door** behaves as documented: class priorities order
  admission, per-tenant token buckets throttle with honest
  ``Retry-After`` hints, and the queue-depth bound sheds load with the
  ``queue-full`` reason — all deterministically in simulated time;
* the **engine** runs a correct task life-cycle incrementally:
  submissions admit or queue, patience rejects, and cancellation works
  in *both* the queued and the running state (a running cancel frees
  space that wakes waiting work, exactly like a finish); a malformed
  submission raises ``ValueError`` and leaves no trace (fuzzed);
* **checkpoint/restore is lossless**: a service frozen mid-flight and
  thawed produces the same journal and telemetry streams, bit for bit,
  as the original had it never been interrupted — including with a
  blocked waiting queue, in-flight executions and hot token buckets;
* the **flash-crowd smoke**: the seeded ``fleet-surge`` campaign
  workload replayed through the door keeps the service live and the
  accounting consistent (every submission is admitted, throttled, or
  rejected — none vanish).
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.campaign.replay import replay_trace, replay_workload, service_trace
from repro.service import (
    QOS_CLASSES,
    ReproService,
    ServiceConfig,
    TokenBucket,
    get_qos,
    restore,
    snapshot,
)
from repro.sched.tasks import TaskState
from repro.sched.trace import qos_of_priority
from repro.service.admission import DEPTH_RETRY_AFTER, AdmissionController
from repro.service.checkpoint import load, save

REPO = Path(__file__).resolve().parents[1]


def small_service(**overrides) -> ReproService:
    """A 1-member XC2S15 service (the tightest fabric: 96 sites)."""
    return ReproService(ServiceConfig(**overrides))


# -- QoS registry -----------------------------------------------------------


def test_qos_registry_is_consistent():
    assert set(QOS_CLASSES) == {"gold", "silver", "best-effort"}
    gold, silver, best = (QOS_CLASSES[n] for n in
                          ("gold", "silver", "best-effort"))
    # Better classes: higher priority, longer patience, tighter rate.
    assert gold.priority > silver.priority > best.priority
    assert gold.patience > silver.patience > best.patience
    assert gold.rate < silver.rate < best.rate
    with pytest.raises(ValueError):
        get_qos("platinum")


def test_priority_round_trips_through_qos_classes():
    for name, qos in QOS_CLASSES.items():
        assert qos_of_priority(qos.priority) == name
    assert qos_of_priority(-3) == "best-effort"
    assert qos_of_priority(7) == "gold"


# -- token buckets ----------------------------------------------------------


def test_token_bucket_refills_in_simulated_time():
    bucket = TokenBucket(rate=2.0, burst=3.0, tokens=3.0)
    assert [bucket.try_take(0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
    # Empty: the retry hint is the exact refill horizon (1 token / rate).
    assert bucket.try_take(0.0) == pytest.approx(0.5)
    # Half the horizon later, half a token exists: hint shrinks to match.
    assert bucket.try_take(0.25) == pytest.approx(0.25)
    assert bucket.try_take(0.5) == 0.0
    # Refill saturates at the burst.
    bucket.try_take(1000.0)
    assert bucket.tokens == pytest.approx(bucket.burst - 1.0)


def test_admission_controller_is_per_tenant_and_per_class():
    door = AdmissionController()
    gold_burst = int(QOS_CLASSES["gold"].burst)
    for _ in range(gold_burst):
        assert door.admit("a", "gold", 0.0, 0).admitted
    refused = door.admit("a", "gold", 0.0, 0)
    assert not refused.admitted and refused.reason == "rate-limit"
    assert refused.retry_after > 0.0
    # Tenant b's gold bucket and tenant a's silver bucket are untouched.
    assert door.admit("b", "gold", 0.0, 0).admitted
    assert door.admit("a", "silver", 0.0, 0).admitted
    stats = door.stats["a"].to_dict()
    assert stats["submitted"] == gold_burst + 2
    assert stats["throttled_rate"] == 1


def test_depth_bound_sheds_load_before_metering_it():
    door = AdmissionController(max_queue_depth=4)
    refused = door.admit("a", "gold", 0.0, queue_depth=4)
    assert not refused.admitted and refused.reason == "queue-full"
    assert refused.retry_after > 0.0
    # A depth refusal must not spend a token (the bucket is consulted
    # read-only for the Retry-After hint, never drained).
    bucket = door.buckets[("a", "gold")]
    assert bucket.tokens == bucket.burst
    assert door.stats["a"].throttled_depth == 1


def test_queue_full_retry_hint_tracks_refill_deficit():
    """A queue-full 429 owes an honest hint: a tenant whose bucket is
    also drained is told its actual refill deficit — which shrinks as
    simulated time advances — not a blanket constant."""
    door = AdmissionController(max_queue_depth=4)
    qos = get_qos("gold")
    for _ in range(int(qos.burst)):
        assert door.admit("a", "gold", 0.0, queue_depth=0).admitted
    hints = []
    for now in (0.0, 0.01, 0.02):
        refused = door.admit("a", "gold", now, queue_depth=4)
        assert not refused.admitted and refused.reason == "queue-full"
        hints.append(refused.retry_after)
    assert hints[0] > hints[1] > hints[2] > 0.0
    # The probe is pure: three refusals later the bucket still holds
    # exactly what the admitted burst left it.
    assert door.buckets[("a", "gold")].tokens == 0.0
    # A refilled tenant is only queue-bound: constant drain-time hint.
    recovered = door.admit("a", "gold", 10.0, queue_depth=4)
    assert recovered.retry_after == DEPTH_RETRY_AFTER


# -- engine life-cycle ------------------------------------------------------


def test_submit_places_immediately_when_space_exists():
    svc = small_service()
    view = svc.submit(4, 4, 1.0, tenant="t", qos="gold")
    assert view["admitted"] and view["state"] == "configuring"
    assert view["device"] == 0 and view["rect"] is not None
    svc.advance(seconds=5.0)
    assert svc.status(view["task"])["state"] == "finished"
    events = [e["event"] for e in svc.engine.journal]
    assert events == ["submitted", "admitted", "finished"]


def test_placed_task_reads_running_once_configured():
    """A placed task is configuring until ``started_at``, then running
    until it finishes; the ``state`` filter sees the same view."""
    svc = small_service()
    view = svc.submit(3, 3, 5.0, qos="gold")
    task_id = view["task"]
    assert view["state"] == "configuring"
    assert 0.0 < view["started_at"] < 1.0
    assert svc.tasks(state="running") == []
    svc.advance(seconds=1.0)
    assert svc.status(task_id)["state"] == "running"
    assert [v["task"] for v in svc.tasks(state="running")] == [task_id]
    assert svc.tasks(state="configuring") == []
    svc.advance(seconds=5.0)
    assert svc.status(task_id)["state"] == "finished"
    assert svc.tasks(state="running") == []


def fragmenting_service_after_a_move() -> ReproService:
    """``fragmenting``, seed 0, 40 tasks on an XC2S15 under fifo and
    concurrent relocation, replayed to t = 9.75: by then a
    rearrangement has moved task 22 from where it was placed (R1C7) to
    R6C0."""
    service = small_service(queue="fifo", rearrange="concurrent")
    for submission in service_trace("fragmenting", device="XC2S15", seed=0,
                                    n=40):
        if submission["at"] > 9.75:
            break
        service.submit(**submission)
    service.advance(until=9.75)
    return service


def test_task_view_reports_the_region_a_rearrangement_moved_it_to():
    service = fragmenting_service_after_a_move()
    assert service.status(22)["rect"] == [6, 0, 2, 2]
    fabric = service.manager.members[0].fabric
    for owner in service.engine.kernel.running:
        rect = fabric.footprint(owner)
        assert service.status(owner)["rect"] \
            == [rect.row, rect.col, rect.height, rect.width]


def test_task_listing_builds_views_only_up_to_the_limit(monkeypatch):
    svc = small_service()
    for index in range(50):
        svc.submit(1, 1, 0.5, tenant=f"t{index % 5}")
    built = []
    status = svc.status
    monkeypatch.setattr(svc, "status",
                        lambda task_id: built.append(task_id)
                        or status(task_id))
    assert [view["task"] for view in svc.tasks(limit=1)] == [50]
    assert built == [50]


def test_submissions_queue_and_patience_rejects():
    svc = small_service()
    # XC2S15 is 8x12 = 96 sites; an 8x12 task fills the fabric.
    svc.submit(8, 12, 10.0, qos="gold")
    waiting = svc.submit(2, 2, 1.0, qos="best-effort")  # patience 2.0
    assert waiting["state"] == "queued"
    svc.advance(seconds=5.0)
    assert svc.status(waiting["task"])["state"] == "rejected"
    assert [e["event"] for e in svc.engine.journal
            if e["task"] == waiting["task"]] == ["submitted", "rejected"]


def test_qos_priority_orders_admission_of_waiting_work():
    svc = small_service()
    svc.submit(8, 12, 2.0, qos="gold")  # fill the fabric
    best = svc.submit(4, 4, 1.0, qos="best-effort", max_wait=50.0)
    gold = svc.submit(4, 4, 1.0, qos="gold", max_wait=50.0)
    svc.settle()
    # The later-arriving gold task was admitted first.
    started = {v["task"]: v["started_at"] for v in svc.tasks()}
    assert started[gold["task"]] < started[best["task"]]


def test_cancel_queued_task_tombstones_it():
    svc = small_service()
    svc.submit(8, 12, 4.0, qos="gold")
    waiting = svc.submit(3, 3, 1.0, qos="gold")
    view = svc.cancel(waiting["task"])
    assert view["state"] == "cancelled"
    svc.settle()
    assert svc.status(waiting["task"])["state"] == "cancelled"
    assert svc.stats()["finished"] == 1  # only the runner finished


def test_cancel_running_task_frees_space_and_wakes_queue():
    svc = small_service()
    hog = svc.submit(8, 12, 100.0, qos="gold")
    waiting = svc.submit(4, 4, 1.0, qos="gold", max_wait=None)
    assert waiting["state"] == "queued"
    view = svc.cancel(hog["task"])
    assert view["state"] == "cancelled"
    # The freed fabric admitted the waiting task synchronously.
    assert svc.status(waiting["task"])["state"] == "configuring"
    svc.settle()
    assert svc.status(waiting["task"])["state"] == "finished"


def test_cancel_leaves_no_patience_entries_behind():
    """Cancelled queued tasks leave the queue with their patience
    deadlines: a settled service's checkpoint holds no queued entry,
    and restoring it arms no timeout."""
    svc = small_service()
    hog = svc.submit(8, 12, 4.0, qos="gold")
    queued = [svc.submit(2, 2, 1.0, qos="best-effort")["task"]
              for _ in range(3)]
    state = snapshot(svc)
    assert [row["task"] for row in state["queued"]] == queued
    assert all(row["deadline"] == 2.0 for row in state["queued"])
    for task_id in queued:
        svc.cancel(task_id)
    svc.cancel(hog["task"])
    svc.settle()
    state = snapshot(svc)
    assert state["queued"] == [] and state["running"] == []
    thawed = restore(state)
    assert thawed.engine.events.pending == 0


def test_cancel_rejects_terminal_and_unknown_tasks():
    svc = small_service()
    done = svc.submit(2, 2, 0.5, qos="gold")
    svc.advance(seconds=5.0)
    with pytest.raises(ValueError):
        svc.cancel(done["task"])
    with pytest.raises(KeyError):
        svc.cancel(999)


def test_door_throttles_submissions_with_retry_hint():
    svc = small_service()
    views = [svc.submit(1, 1, 0.1, tenant="t", qos="gold")
             for _ in range(int(QOS_CLASSES["gold"].burst) + 1)]
    refused = views[-1]
    assert not refused["admitted"]
    assert refused["reason"] == "rate-limit"
    assert refused["retry_after"] > 0.0
    # Advancing past the hint makes the next submission admissible.
    svc.advance(seconds=refused["retry_after"] + 1e-9)
    assert svc.submit(1, 1, 0.1, tenant="t", qos="gold")["admitted"]


def test_depth_bound_rejects_when_queue_is_full():
    svc = small_service(max_queue_depth=2)
    svc.submit(8, 12, 100.0, qos="gold")  # occupy the fabric
    for _ in range(2):
        assert svc.submit(4, 4, 1.0, qos="gold")["admitted"]
    refused = svc.submit(4, 4, 1.0, qos="gold")
    assert not refused["admitted"] and refused["reason"] == "queue-full"
    assert svc.stats()["tenants"]["default"]["throttled_depth"] == 1


def test_advance_validates_direction_and_arguments():
    svc = small_service()
    svc.advance(seconds=1.0)
    with pytest.raises(ValueError):
        svc.advance(until=0.5)  # backwards
    with pytest.raises(ValueError):
        svc.advance()
    with pytest.raises(ValueError):
        svc.advance(until=2.0, seconds=1.0)


# -- malformed submissions --------------------------------------------------


def test_unknown_qos_is_refused_before_the_clock_moves():
    svc = small_service()
    with pytest.raises(ValueError, match="unknown QoS class"):
        svc.submit(2, 2, 1.0, qos="platinum", at=5.0)
    assert svc.now == 0.0
    assert svc.stats()["tenants"] == {}


#: a well-formed submission's numeric fields (the clock stands at 1.0
#: when it is submitted) ...
VALID_FIELDS = st.fixed_dictionaries({
    "height": st.integers(1, 4),
    "width": st.integers(1, 4),
    "exec_seconds": st.floats(0.0, 3.0),
    "max_wait": st.one_of(st.none(), st.floats(0.0, 3.0)),
    "at": st.one_of(st.none(), st.floats(1.0, 3.0)),
})
#: ... what replaces some of them ...
JUNK = st.sampled_from([None, "x", "3", True, False, 0, -1, -2.5,
                        math.nan, math.inf, -math.inf])
#: ... and the junk values a field still accepts, compared by identity
#: so that ``False`` is not ``0`` (a negative ``at`` is in the past).
ACCEPTED_JUNK = {"exec_seconds": (0,), "max_wait": (None, 0),
                 "at": (None,)}
TERMINAL = {TaskState.FINISHED, TaskState.REJECTED, TaskState.DROPPED,
            TaskState.CANCELLED}
SHAPE_2X2 = {"height": 2, "width": 2, "exec_seconds": 1.0,
             "max_wait": None, "at": None}


@settings(max_examples=100)
@example(fields=SHAPE_2X2, junk={"at": math.nan})
@example(fields=SHAPE_2X2, junk={"at": 0.5})
@example(fields=SHAPE_2X2, junk={"width": True})
@given(fields=VALID_FIELDS,
       junk=st.dictionaries(st.sampled_from(["height", "width",
                                             "exec_seconds", "max_wait",
                                             "at"]), JUNK, max_size=3))
def test_malformed_submission_raises_and_leaves_no_trace(fields, junk):
    """A malformed submission raises ``ValueError`` before the registry,
    the journal and the door see it; a well-formed one returns an
    admitted or throttled view.  Either way the service keeps admitting
    valid work and every registered task reaches a terminal state."""
    malformed = any(
        not any(value is ok for ok in ACCEPTED_JUNK.get(name, ()))
        for name, value in junk.items()
    )
    svc = small_service()
    svc.submit(2, 2, 1.0, tenant="t", at=1.0)
    engine = svc.engine
    tasks, journal = dict(engine.tasks), list(engine.journal)
    door = svc.door.export_state()
    if malformed:
        with pytest.raises(ValueError):
            svc.submit(tenant="t", **{**fields, **junk})
        assert engine.tasks == tasks
        assert engine.journal == journal
        assert svc.door.export_state() == door
    else:
        view = svc.submit(tenant="t", **{**fields, **junk})
        assert view["admitted"] or view["reason"] in ("rate-limit",
                                                      "queue-full")
    assert svc.submit(2, 2, 0.5, tenant="u")["admitted"]
    svc.settle()
    assert all(task.state in TERMINAL for task in engine.tasks.values())


# -- checkpoint/restore -----------------------------------------------------


def surge_service(**overrides) -> tuple[ReproService, list[dict]]:
    """A service plus a surge trace that queues, throttles and rejects."""
    svc = ReproService(ServiceConfig(
        fleet_size=overrides.pop("fleet_size", 1), **overrides
    ))
    trace = service_trace("fleet-surge", device=svc.config.device,
                          seed=11, n=80,
                          tenants=("alice", "bob", "carol"))
    return svc, trace


def run_split(trace: list[dict], cut: int, fleet_size: int = 1,
              **overrides):
    """Replay ``trace`` with a snapshot/restore at submission ``cut``;
    returns (uninterrupted service, restored service)."""
    whole, _ = surge_service(fleet_size=fleet_size, **overrides)
    for sub in trace:
        whole.submit(**sub)
    whole.settle()

    first, _ = surge_service(fleet_size=fleet_size, **overrides)
    for sub in trace[:cut]:
        first.submit(**sub)
    thawed = restore(snapshot(first))
    for sub in trace[cut:]:
        thawed.submit(**sub)
    thawed.settle()
    return whole, thawed


@pytest.mark.parametrize("cut", [1, 20, 40, 79])
def test_checkpoint_roundtrip_streams_are_bit_identical(cut):
    _, trace = surge_service()
    whole, thawed = run_split(trace, cut)
    assert thawed.engine.journal == whole.engine.journal
    assert thawed.engine.telemetry == whole.engine.telemetry
    assert thawed.stats() == whole.stats()


def test_checkpoint_roundtrip_cancels_a_running_task_alike():
    """Cancelling a task the view reports running, on the original and
    on its restored copy, leaves the same journal on both sides."""
    _, trace = surge_service()
    sides = []
    for thaw in (False, True):
        svc, _ = surge_service()
        for sub in trace[:20]:
            svc.submit(**sub)
        if thaw:
            svc = restore(snapshot(svc))
        running = [v["task"] for v in svc.tasks(state="running")]
        assert running, "expected a running task at the cut"
        assert svc.cancel(running[-1])["state"] == "cancelled"
        for sub in trace[20:]:
            svc.submit(**sub)
        svc.settle()
        sides.append(svc)
    whole, thawed = sides
    assert thawed.engine.journal == whole.engine.journal
    assert "cancelled" in [e["event"] for e in whole.engine.journal]


def test_checkpoint_roundtrip_on_a_fleet():
    _, trace = surge_service(fleet_size=2)
    whole, thawed = run_split(trace, 33, fleet_size=2)
    assert thawed.engine.journal == whole.engine.journal
    assert thawed.engine.telemetry == whole.engine.telemetry


def _prefetch_stat_view(svc: ReproService) -> dict:
    """The stall/prefetch counters a roundtrip must carry losslessly."""
    metrics = svc.engine.metrics
    return {
        "config_stall_seconds": metrics.config_stall_seconds,
        "prefetch_hits": metrics.prefetch_hits,
        "prefetch_loads": metrics.prefetch_loads,
        "cache_evictions": metrics.cache_evictions,
        "prefetched_functions": metrics.prefetched_functions,
        "prefetch_state": snapshot(svc)["prefetch"],
    }


@pytest.mark.parametrize("cut", [10, 40])
def test_checkpoint_roundtrip_carries_prefetch_state(cut):
    """A plan-mode service frozen mid-flight resumes with its resident
    caches, wishlist and stall/prefetch counters intact — the restored
    run's streams *and* prefetch statistics match the uninterrupted
    run exactly."""
    _, trace = surge_service(prefetch="plan")
    whole, thawed = run_split(trace, cut, prefetch="plan")
    assert whole.engine.metrics.config_stall_seconds > 0.0
    assert thawed.engine.journal == whole.engine.journal
    assert thawed.engine.telemetry == whole.engine.telemetry
    assert _prefetch_stat_view(thawed) == _prefetch_stat_view(whole)


def test_never_mode_snapshot_has_no_prefetch_state():
    """prefetch="never" services carry an explicit null in the
    snapshot, and restore builds no cache from it."""
    svc = small_service()
    state = snapshot(svc)
    assert state["prefetch"] is None
    thawed = restore(state)
    assert thawed.engine.kernel.caches is None


def test_snapshot_mid_flight_captures_queue_and_running_work():
    svc, trace = surge_service()
    for sub in trace[:40]:
        svc.submit(**sub)
    state = snapshot(svc)
    assert state["version"] == 2
    assert state["running"], "expected in-flight work at the cut"
    # The snapshot is read-only: the service keeps running afterwards.
    svc.settle()
    assert svc.stats()["running"] == 0


def test_snapshot_is_json_clean_and_file_roundtrips(tmp_path):
    svc, trace = surge_service()
    for sub in trace[:25]:
        svc.submit(**sub)
    path = save(svc, tmp_path / "ckpt.json")
    thawed = load(path)
    svc.settle()
    thawed.settle()
    assert thawed.engine.journal == svc.engine.journal


def test_restore_refuses_unknown_snapshot_versions():
    svc = small_service()
    state = snapshot(svc)
    # Version 1 kept task facts in side tables and per-event metric
    # lists; its layout is not read any more.
    for version in (1, 99):
        state["version"] = version
        with pytest.raises(ValueError, match="unsupported snapshot"):
            restore(state)


def as_json(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def test_mid_run_snapshot_restore_snapshot_is_the_identity():
    """A 2-member service caught with work queued and running restores
    to a service whose snapshot is the original one, and whose kernel
    holds the original's metrics: the latest sample with each member's
    reading included, which only the checkpoint carries across."""
    original = ReproService(ServiceConfig(fleet_size=2))
    for submission in service_trace("diurnal", seed=3, n=80)[:40]:
        original.submit(**submission)
    kernel = original.engine.kernel
    assert len(kernel.queue) and kernel.running
    assert all(util > 0 for _, util in kernel.metrics.latest_sample[2])
    doc = as_json(snapshot(original))
    restored = restore(doc)
    assert as_json(snapshot(restored)) == doc
    assert as_json(asdict(restored.engine.metrics)) \
        == as_json(asdict(kernel.metrics))


@pytest.mark.parametrize("flags", [["--queue", "bogus"],
                                   ["--fleet-size", "0"],
                                   ["--replay", "bogus"]])
def test_service_cli_refuses_a_malformed_config(flags):
    """A config or replay workload the service refuses ends the daemon
    with one ``error:`` line and exit status 2 before it serves or
    replays anything."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.service", "--port", "0", *flags],
        capture_output=True, text=True, timeout=60, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ")


def test_checkpoint_metrics_stay_bounded_as_the_service_runs():
    """The checkpoint's metrics are running totals and the latest
    sample, not per-event lists: after 3,000 diurnal submissions they
    are within a few hundred bytes of their size after 300."""
    trace = service_trace("diurnal", seed=1, n=3000, peak_rate=20.0,
                          tenants=("alice", "bob", "carol"),
                          priority_levels=3)
    svc = ReproService(ServiceConfig(fleet_size=2, max_queue_depth=16))
    sizes = []
    for count, submission in enumerate(trace, 1):
        svc.submit(**submission)
        if count in (300, 3000):
            sizes.append(len(json.dumps(snapshot(svc)["metrics"])))
    assert abs(sizes[1] - sizes[0]) < 300, sizes


def test_restored_door_remembers_bucket_levels():
    svc = small_service()
    burst = int(QOS_CLASSES["gold"].burst)
    for _ in range(burst):
        svc.submit(1, 1, 0.1, tenant="t", qos="gold")
    thawed = restore(snapshot(svc))
    # The original would throttle the next gold submission; so must
    # the restored service — buckets travel in the checkpoint.
    assert not svc.submit(1, 1, 0.1, tenant="t", qos="gold")["admitted"]
    assert not thawed.submit(1, 1, 0.1, tenant="t", qos="gold")["admitted"]


# -- flash-crowd smoke ------------------------------------------------------


def test_flash_crowd_replay_accounting_is_conservative():
    svc = ReproService(ServiceConfig(fleet_size=2, max_queue_depth=16))
    summary = replay_workload(svc, "fleet-surge", seed=3, n=150,
                              tenants=("alice", "bob"))
    assert summary["submitted"] == 150
    assert summary["admitted"] + summary["throttled"] == 150
    stats = summary["stats"]
    # Every admitted task ended somewhere: finished, rejected by
    # patience, or (here, after settle) nothing left in flight.
    assert stats["finished"] + stats["rejected"] == summary["admitted"]
    assert stats["waiting"] == 0 and stats["running"] == 0
    door = sum(t["submitted"] for t in stats["tenants"].values())
    assert door == 150
    assert math.isfinite(svc.engine.metrics.waiting_total)


def test_replay_trace_is_deterministic():
    svc_a = ReproService(ServiceConfig(fleet_size=2))
    svc_b = ReproService(ServiceConfig(fleet_size=2))
    trace = service_trace("fleet-surge", seed=5, n=60)
    a = replay_trace(svc_a, list(trace))
    b = replay_trace(svc_b, list(trace))
    # The perf export is process-global diagnostics (both replays bump
    # the same counters), not service state: exclude it from the
    # determinism comparison.
    a["stats"].pop("perf", None)
    b["stats"].pop("perf", None)
    assert a == b
    assert svc_a.engine.journal == svc_b.engine.journal


def test_service_trace_refuses_application_workloads():
    with pytest.raises(ValueError):
        service_trace("fig1")
