"""The NDJSON arrival-trace layer: format, replayer, shaped generators.

Covers :mod:`repro.sched.trace` (round-trip identity, loud parse
failures, the thinned nonhomogeneous generators) and its registry
face in :mod:`repro.sched.workload` (``trace`` / ``diurnal`` /
``flash-crowd`` / ``multi-tenant``).  One test pins the QoS-name ->
priority mapping to :mod:`repro.service.qos` — the two modules must
agree *numerically* without the sched layer importing the service
layer (no layering cycle).
"""

import pytest
from hypothesis import given, strategies as st

from repro.device.devices import device
from repro.sched.tasks import Task
from repro.sched.trace import (
    QOS_PRIORITY,
    diurnal_tasks,
    flash_crowd_tasks,
    format_trace,
    multi_tenant_tasks,
    parse_trace,
    qos_of_priority,
    read_trace,
    write_trace,
)
from repro.sched.workload import WORKLOADS, make_workload


# -- format + parse ----------------------------------------------------------


def make_tasks():
    return [
        Task(task_id=1, height=4, width=6, exec_seconds=1.2, arrival=0.41,
             max_wait=1.5, priority=2, tenant="video"),
        Task(task_id=2, height=2, width=2, exec_seconds=0.3, arrival=0.9,
             max_wait=None, priority=0, tenant=""),
        Task(task_id=3, height=7, width=3, exec_seconds=2.0, arrival=1.1,
             max_wait=0.8, priority=1, tenant="audio"),
    ]


def test_roundtrip_preserves_every_field():
    text = format_trace(make_tasks())
    parsed = parse_trace(text)
    for original, replayed in zip(make_tasks(), parsed):
        assert replayed.task_id == original.task_id
        assert replayed.height == original.height
        assert replayed.width == original.width
        assert replayed.exec_seconds == original.exec_seconds
        assert replayed.arrival == original.arrival
        assert replayed.max_wait == original.max_wait
        assert replayed.priority == original.priority
        assert replayed.tenant == original.tenant


def test_format_is_one_json_object_per_line():
    text = format_trace(make_tasks())
    lines = text.splitlines()
    assert len(lines) == 3
    assert text.endswith("\n")
    assert format_trace([]) == ""


def test_file_roundtrip(tmp_path):
    path = tmp_path / "arrivals.ndjson"
    write_trace(path, make_tasks())
    assert parse_trace(path.read_text()) == read_trace(path)
    assert len(read_trace(path)) == 3


def test_blank_lines_are_skipped():
    text = format_trace(make_tasks())
    padded = "\n" + text.replace("\n", "\n\n")
    assert len(parse_trace(padded)) == 3


@pytest.mark.parametrize("line, message", [
    ("{not json", "invalid JSON"),
    ('{"at": 0, "qos": "platinum", "height": 2, "width": 2, '
     '"duration": 1}', "unknown qos"),
    ('{"at": 0, "height": 0, "width": 2, "duration": 1}',
     "non-positive shape"),
    ('{"at": -1, "height": 2, "width": 2, "duration": 1}',
     "negative time"),
    ('{"at": 0, "height": 2, "width": 2, "duration": -1}',
     "negative time"),
])
def test_bad_lines_fail_loudly_with_line_numbers(line, message):
    good = format_trace(make_tasks()[:1])
    with pytest.raises(ValueError, match=f"line 2.*{message}"):
        parse_trace(good + line + "\n")


def test_qos_defaults_to_best_effort_and_tenant_to_empty():
    tasks = parse_trace(
        '{"at": 0.5, "height": 2, "width": 3, "duration": 1.0}\n'
    )
    assert tasks[0].priority == 0
    assert tasks[0].tenant == ""
    assert tasks[0].max_wait is None


def test_qos_of_priority_saturates():
    assert qos_of_priority(-3) == "best-effort"
    assert qos_of_priority(0) == "best-effort"
    assert qos_of_priority(1) == "silver"
    assert qos_of_priority(2) == "gold"
    assert qos_of_priority(9) == "gold"


@given(st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.one_of(st.none(),
                  st.floats(min_value=0, max_value=10, allow_nan=False)),
        st.sampled_from(sorted(QOS_PRIORITY)),
        st.text(alphabet="abcxyz-", max_size=8),
    ),
    max_size=20,
))
def test_roundtrip_property(rows):
    tasks = [
        Task(task_id=i + 1, height=h, width=w, exec_seconds=dur,
             arrival=at, max_wait=wait, priority=QOS_PRIORITY[qos],
             tenant=tenant)
        for i, (at, h, w, dur, wait, qos, tenant) in enumerate(rows)
    ]
    replayed = parse_trace(format_trace(tasks))
    assert [
        (t.arrival, t.height, t.width, t.exec_seconds, t.max_wait,
         t.priority, t.tenant)
        for t in replayed
    ] == [
        (t.arrival, t.height, t.width, t.exec_seconds, t.max_wait,
         t.priority, t.tenant)
        for t in tasks
    ]


# -- shaped generators -------------------------------------------------------


def assert_valid_stream(tasks, n):
    assert len(tasks) == n
    assert [t.task_id for t in tasks] == list(range(1, n + 1))
    arrivals = [t.arrival for t in tasks]
    assert arrivals == sorted(arrivals)
    assert all(t.height >= 1 and t.width >= 1 for t in tasks)


def test_diurnal_deterministic_and_valid():
    a = diurnal_tasks(50, seed=3)
    b = diurnal_tasks(50, seed=3)
    assert a == b
    assert a != diurnal_tasks(50, seed=4)
    assert_valid_stream(a, 50)


def test_diurnal_peak_hours_are_denser_than_troughs():
    """With period 8, [0, 2) is the rising trough and [3, 5) straddles
    the peak: the peak window must collect clearly more arrivals."""
    tasks = diurnal_tasks(400, seed=0, period=8.0, base_rate=2.0,
                          peak_rate=30.0)
    horizon = tasks[-1].arrival
    trough = sum(1 for t in tasks if (t.arrival % 8.0) < 2.0)
    peak = sum(1 for t in tasks if 3.0 <= (t.arrival % 8.0) < 5.0)
    assert horizon > 8.0  # the sample actually spans a full period
    assert peak > trough


def test_flash_crowd_window_is_denser():
    tasks = flash_crowd_tasks(300, seed=1, base_rate=4.0, flash_at=2.0,
                              flash_duration=1.0, flash_factor=10.0)
    assert_valid_stream(tasks, 300)
    in_window = sum(1 for t in tasks if 2.0 <= t.arrival < 3.0)
    before = sum(1 for t in tasks if 1.0 <= t.arrival < 2.0)
    assert in_window > 2 * max(1, before)


def test_multi_tenant_labels_and_qos_follow_rank():
    tasks = multi_tenant_tasks(200, seed=5, tenants=3)
    assert_valid_stream(tasks, 200)
    tenants = {t.tenant for t in tasks}
    assert tenants == {"t-0", "t-1", "t-2"}
    for task in tasks:
        rank = int(task.tenant.split("-")[1])
        assert task.priority == max(0, 2 - rank)
    counts = {name: sum(1 for t in tasks if t.tenant == name)
              for name in tenants}
    assert counts["t-0"] > counts["t-2"]  # Zipf-like skew


@pytest.mark.parametrize("factory, kwargs", [
    (diurnal_tasks, {"n": -1}),
    (diurnal_tasks, {"n": 5, "base_rate": 0.0}),
    (diurnal_tasks, {"n": 5, "base_rate": 5.0, "peak_rate": 1.0}),
    (flash_crowd_tasks, {"n": -1}),
    (flash_crowd_tasks, {"n": 5, "flash_factor": 0.5}),
    (multi_tenant_tasks, {"n": -1}),
    (multi_tenant_tasks, {"n": 5, "tenants": 0}),
])
def test_generator_validation(factory, kwargs):
    with pytest.raises(ValueError):
        factory(**kwargs)


# -- registry face -----------------------------------------------------------


def test_trace_families_are_registered():
    for name in ("trace", "diurnal", "flash-crowd", "multi-tenant"):
        assert name in WORKLOADS
    assert WORKLOADS["multi-tenant"].tenanted
    assert WORKLOADS["trace"].tenanted
    assert not WORKLOADS["diurnal"].tenanted


def test_trace_workload_replays_a_file(tmp_path):
    path = tmp_path / "t.ndjson"
    write_trace(path, make_tasks())
    dev = device("XC2S15")
    tasks = make_workload("trace", dev, seed=99, path=str(path))
    # the seed is irrelevant: a trace IS the arrival sequence, and
    # shapes are never clamped to the device.
    assert tasks == make_workload("trace", dev, seed=0, path=str(path))
    assert [t.height for t in tasks] == [4, 2, 7]


def test_trace_workload_requires_a_path():
    dev = device("XC2S15")
    with pytest.raises(ValueError, match="--trace FILE"):
        make_workload("trace", dev, seed=0)
    with pytest.raises(ValueError, match="unknown trace parameters"):
        make_workload("trace", dev, seed=0, path="x", n=40)
