"""The service's HTTP face: routing, backpressure, streams, restore.

Everything runs against a real ``asyncio.start_server`` socket on an
ephemeral port — no mocked transports — inside ``asyncio.run`` (the
repo deliberately carries no pytest-asyncio dependency).  Pinned:

* the REST surface routes and validates: submit/status/list/cancel,
  clock control, stats, 404/405/409/400 on the documented conditions;
* malformed requests (a bad request line, a ``Content-Length``, task
  id or ``limit`` query parameter that is not a plain decimal integer
  >= 0, a JSON body that is not an object, a numeric field of the
  wrong type or out of range) are answered with a 400 and
  leave the server serving; a malformed submission leaves the task
  registry, the journal and the door counters as they were; an
  unexpected handler error is a 500, never a dropped connection;
* throttled submissions surface as **429 with a Retry-After header**
  whose value matches the door's simulated-time hint;
* **concurrent** clients interleave safely: parallel submits, cancels
  and status reads serialize on the event loop without corrupting the
  accounting (the admitted + throttled totals stay conservative);
* the NDJSON telemetry stream delivers backlog then live samples;
* a checkpoint taken over HTTP restores over HTTP into a service that
  continues the same run (journal identity after the swap); a malformed
  snapshot is a 400 that keeps the running service.
"""

import asyncio
import functools
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign.replay import service_trace
from repro.service import ReproService, ServiceAPI, ServiceConfig
from repro.service import api as api_module
from repro.service import checkpoint
from repro.service.__main__ import main as service_main


class Client:
    """A tiny raw-socket HTTP/JSON client (one request per call)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    async def request(self, method: str, path: str, body=None):
        """Issue one request; returns (status, payload, headers)."""
        data = json.dumps(body).encode() if body is not None else b""
        return await self.raw(
            (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
             f"Content-Length: {len(data)}\r\n\r\n").encode() + data
        )

    async def raw(self, request: bytes):
        """Send ``request`` verbatim; returns (status, payload, headers)."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(request)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, payload = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, json.loads(payload), headers

    async def stream_lines(self, path: str, n: int) -> list[dict]:
        """Open an NDJSON stream and read ``n`` lines."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
        await writer.drain()
        while (await reader.readline()).strip():
            pass  # skip response head
        lines = []
        for _ in range(n):
            lines.append(json.loads(await reader.readline()))
        writer.close()
        return lines


def with_api(test, **config):
    """Run ``test(api, client)`` against a live server, then tear down."""
    async def body():
        api = ServiceAPI(ReproService(ServiceConfig(**config)))
        host, port = await api.start(port=0)
        try:
            await test(api, Client(host, port))
        finally:
            await api.stop()
    asyncio.run(body())


SUBMIT = {"height": 3, "width": 3, "exec_seconds": 0.5, "qos": "gold"}


# -- routing + validation ---------------------------------------------------


def test_healthz_and_qos_registry():
    async def scenario(api, client):
        status, payload, _ = await client.request("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        status, payload, _ = await client.request("GET", "/qos")
        assert status == 200
        assert set(payload) == {"gold", "silver", "best-effort"}
    with_api(scenario)


def test_submit_status_cancel_lifecycle_over_http():
    async def scenario(api, client):
        status, view, _ = await client.request("POST", "/tasks", SUBMIT)
        assert status == 202 and view["admitted"]
        task_id = view["task"]
        status, fetched, _ = await client.request(
            "GET", f"/tasks/{task_id}")
        assert status == 200 and fetched["state"] == "configuring"
        # Configured at ``started_at``: running from then on.
        await client.request(
            "POST", "/clock/advance", {"until": fetched["started_at"]})
        status, fetched, _ = await client.request(
            "GET", f"/tasks/{task_id}")
        assert fetched["state"] == "running"
        status, payload, _ = await client.request(
            "GET", "/tasks?state=running")
        assert [view["task"] for view in payload["tasks"]] == [task_id]
        status, now, _ = await client.request(
            "POST", "/clock/advance", {"until": 5.0})
        assert status == 200 and now["now"] == 5.0
        status, fetched, _ = await client.request(
            "GET", f"/tasks/{task_id}")
        assert fetched["state"] == "finished"
        # Terminal cancel is a 409, unknown id a 404.
        status, _, _ = await client.request("DELETE", f"/tasks/{task_id}")
        assert status == 409
        status, _, _ = await client.request("DELETE", "/tasks/999")
        assert status == 404
    with_api(scenario)


def test_validation_errors_map_to_400_and_404():
    async def scenario(api, client):
        status, payload, _ = await client.request(
            "POST", "/tasks", {"height": 3})
        assert status == 400 and "missing field" in payload["error"]
        status, _, _ = await client.request(
            "POST", "/tasks", {**SUBMIT, "qos": "platinum"})
        assert status == 400
        status, _, _ = await client.request("GET", "/no/such/route")
        assert status == 404
        status, _, _ = await client.request("PUT", "/tasks/1")
        assert status == 405
        status, _, _ = await client.request(
            "POST", "/clock/advance", {})
        assert status == 400
    with_api(scenario)


def answers_error_then_serves_on(request: bytes, error: str,
                                 status: int = 400) -> None:
    """A bad request gets its error status with a JSON error (not a
    dropped connection and a logged traceback), and the server keeps
    serving."""
    expected = status

    async def scenario(api, client):
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context))
        status, payload, _ = await asyncio.wait_for(client.raw(request),
                                                    timeout=10.0)
        assert status == expected and error in payload["error"]
        status, payload, _ = await client.request("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        assert not unhandled
    with_api(scenario)


def test_malformed_request_line_is_a_400():
    answers_error_then_serves_on(b"NONSENSE\r\n\r\n", "malformed request line")


def test_non_integer_content_length_is_a_400():
    answers_error_then_serves_on(
        b"POST /tasks HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        "Content-Length must be an integer >= 0",
    )


@pytest.mark.parametrize("length", [b"+16", b"1_6", b"16.0", b" 1 6"])
def test_content_length_is_digits_only(length):
    """``int()`` would read the first two as 16; HTTP allows digits
    only.  The 16-byte body would otherwise be a valid advance."""
    answers_error_then_serves_on(
        b"POST /clock/advance HTTP/1.1\r\nContent-Length: " + length
        + b"\r\n\r\n" + b'{"seconds": 1.0}',
        "Content-Length must be an integer >= 0",
    )


@pytest.mark.parametrize("task_id", ["+1", "1_0", "%201", "-1"])
def test_task_id_is_digits_only(task_id):
    async def scenario(api, client):
        status, _, _ = await client.request("POST", "/tasks", SUBMIT)
        assert status == 202
        for method in ("GET", "DELETE"):
            status, payload, _ = await client.request(
                method, f"/tasks/{task_id}")
            assert status == 400
            assert "task id must be an integer >= 0" in payload["error"]
        status, view, _ = await client.request("GET", "/tasks/1")
        assert status == 200 and view["state"] != "cancelled"
        status, _, _ = await client.request("GET", "/healthz")
        assert status == 200
    with_api(scenario)


def test_json_array_submit_body_is_a_400():
    answers_error_then_serves_on(
        b"POST /tasks HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]",
        "not a JSON object",
    )


def test_json_array_clock_advance_body_is_a_400():
    answers_error_then_serves_on(
        b"POST /clock/advance HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]",
        "not a JSON object",
    )


def test_negative_content_length_is_a_400():
    answers_error_then_serves_on(
        b"POST /tasks HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        "Content-Length must be an integer >= 0",
    )


def test_oversized_content_length_is_a_413_before_any_body_is_read(
        monkeypatch):
    # A server that waited for the body would answer 408 instead.
    monkeypatch.setattr(api_module, "READ_TIMEOUT_S", 1.0)
    answers_error_then_serves_on(
        b"POST /restore HTTP/1.1\r\nContent-Length: 99999999999\r\n"
        b"\r\n{}",
        "request body over", status=413,
    )


@pytest.mark.parametrize("request_bytes", [
    b"",
    b"GET /heal",
    b"GET /healthz HTTP/1.1\r\nHost: t\r\n",
    b"POST /tasks HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
], ids=["nothing", "partial-line", "no-blank-line", "short-body"])
def test_slow_request_is_a_408(monkeypatch, request_bytes):
    """The request line, the headers or the body not arriving in time:
    a 408, and the server keeps serving."""
    monkeypatch.setattr(api_module, "READ_TIMEOUT_S", 0.2)
    answers_error_then_serves_on(request_bytes, "not received within",
                                 status=408)


_HEADER_LINES = st.one_of(
    st.sampled_from([
        b"Host: t", b"Content-Length: 0", b"Content-Length: 2",
        b"Content-Length: 40", b"Content-Length: -1", b"Content-Length:",
        b"Content-Length: x", b"Content-Length: 99999999999",
    ]),
    st.binary(max_size=24).filter(lambda line: b"\n" not in line),
)


@st.composite
def raw_requests(draw) -> bytes:
    """Bytes a client might send: noise, or a request assembled from
    plausible and broken parts.  Routes that stream, write files or
    stop the server are left out."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    line = b" ".join([
        draw(st.sampled_from([b"GET", b"POST", b"DELETE", b"PUT", b""])),
        draw(st.sampled_from([
            b"/healthz", b"/qos", b"/tasks", b"/tasks/1", b"/tasks/x",
            b"/tasks?state=running&limit=2", b"/clock/advance",
            b"/clock/settle", b"/telemetry", b"/stats", b"/faults",
            b"/restore", b"/nowhere", b"",
        ])),
        draw(st.sampled_from([b"HTTP/1.1", b"", b"HTTP/9"])),
    ])
    head = b"\r\n".join([line, *draw(st.lists(_HEADER_LINES, max_size=4))])
    end = draw(st.sampled_from([b"\r\n\r\n", b"\n\n", b"\r\n", b""]))
    body = draw(st.one_of(
        st.binary(max_size=64),
        st.sampled_from([
            b"{}", b"[1]", b'{"seconds": 1}', b'{"kind": "port-flaky"}',
            b'{"height": 2, "width": 2, "exec_seconds": 1}',
        ]),
    ))
    return head + end + body


@settings(max_examples=60, deadline=None)
@given(request=raw_requests(), half_close=st.booleans())
def test_any_request_bytes_get_an_answer_or_a_clean_close(request,
                                                          half_close):
    """Fuzz over raw request bytes: every connection gets an HTTP
    response with a JSON body, or is closed without one, and the server
    keeps serving.  A client that half-closes ends its request early; one
    that stays open and silent meets the read timeout."""
    async def scenario(api, client):
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context))
        reader, writer = await asyncio.open_connection(client.host,
                                                       client.port)
        writer.write(request)
        if half_close:
            writer.write_eof()
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=10.0)
        writer.close()
        if raw:
            head, _, payload = raw.partition(b"\r\n\r\n")
            version, status, _ = head.split(b"\r\n")[0].split(b" ", 2)
            assert version == b"HTTP/1.1" and 200 <= int(status) < 600
            assert isinstance(json.loads(payload), dict)
        status, payload, _ = await client.request("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        assert not unhandled
    with mock.patch.object(api_module, "READ_TIMEOUT_S", 0.05):
        with_api(scenario)


@pytest.mark.parametrize("route", ["/tasks", "/telemetry/stream"])
@pytest.mark.parametrize("limit", ["-1", "x", "1.5", "+1", "%C2%B2"])
def test_bad_limit_is_a_400(route, limit):
    answers_error_then_serves_on(
        f"GET {route}?limit={limit} HTTP/1.1\r\n\r\n".encode(),
        "query parameter 'limit' must be an integer >= 0",
    )


def post(path: str, body: dict) -> bytes:
    """Raw bytes of one POST request with a JSON body."""
    data = json.dumps(body).encode()
    return (f"POST {path} HTTP/1.1\r\nContent-Length: {len(data)}"
            "\r\n\r\n").encode() + data


def test_wrong_typed_clock_advance_field_is_a_400():
    answers_error_then_serves_on(
        post("/clock/advance", {"seconds": "x"}),
        "field 'seconds' must be a finite number",
    )


def test_null_fault_member_is_a_400():
    answers_error_then_serves_on(
        post("/faults", {"kind": "member-death", "member": None}),
        "field 'member' must be an integer",
    )


@pytest.mark.parametrize("bad", [
    {"height": 0},
    {"exec_seconds": -5},
    {"max_wait": -1},
    {"max_wait": "x"},
    {"height": None},
], ids=["zero-height", "negative-exec", "negative-max-wait",
        "string-max-wait", "null-height"])
def test_malformed_submission_is_a_400_that_touches_nothing(bad):
    """The submission is refused before the door counts it or the
    registry sees it, and the next valid submission is admitted."""
    async def scenario(api, client):
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context))
        status, _, _ = await client.request("POST", "/tasks", SUBMIT)
        assert status == 202
        _, before, _ = await client.request("GET", "/stats")
        journal = list(api.service.engine.journal)
        status, payload, _ = await client.request(
            "POST", "/tasks", {**SUBMIT, **bad})
        assert status == 400 and payload["error"]
        _, after, _ = await client.request("GET", "/stats")
        assert after["tasks"] == before["tasks"] == 1
        assert after["tenants"] == before["tenants"]
        assert api.service.engine.journal == journal
        status, view, _ = await client.request("POST", "/tasks", SUBMIT)
        assert status == 202 and view["admitted"]
        status, _, _ = await client.request("GET", "/healthz")
        assert status == 200
        assert not unhandled
    with_api(scenario)


def test_unexpected_handler_error_is_a_500_and_serving_continues():
    async def scenario(api, client):
        def broken(*args):
            raise RuntimeError("boom")

        api._dispatch = broken
        status, payload, _ = await client.request("GET", "/stats")
        assert status == 500 and "boom" in payload["error"]
        del api._dispatch
        status, payload, _ = await client.request("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
    with_api(scenario)


def test_task_listing_filters_and_limits():
    async def scenario(api, client):
        for _ in range(4):
            await client.request("POST", "/tasks", SUBMIT)
        await client.request("POST", "/clock/advance", {"seconds": 10.0})
        await client.request("POST", "/tasks", SUBMIT)
        status, payload, _ = await client.request(
            "GET", "/tasks?state=finished")
        assert status == 200 and len(payload["tasks"]) == 4
        # Newest first; 0 lists nothing, a limit past the end all.
        for limit, expected in (("2", [5, 4]), ("0", []),
                                ("9", [5, 4, 3, 2, 1])):
            status, payload, _ = await client.request(
                "GET", f"/tasks?limit={limit}")
            assert status == 200
            assert [view["task"] for view in payload["tasks"]] == expected
    with_api(scenario)


# -- backpressure -----------------------------------------------------------


def test_throttle_surfaces_as_429_with_retry_after_header():
    async def scenario(api, client):
        last = None
        for _ in range(12):  # gold burst is 10
            last = await client.request("POST", "/tasks", SUBMIT)
        status, view, headers = last
        assert status == 429
        assert view["reason"] == "rate-limit"
        assert float(headers["retry-after"]) == pytest.approx(
            view["retry_after"], abs=1e-3)
    with_api(scenario)


def test_queue_full_backpressure_over_http():
    async def scenario(api, client):
        await client.request(
            "POST", "/tasks",
            {"height": 8, "width": 12, "exec_seconds": 50.0,
             "qos": "gold"})
        for _ in range(2):
            status, _, _ = await client.request("POST", "/tasks", SUBMIT)
            assert status == 202
        status, view, _ = await client.request("POST", "/tasks", SUBMIT)
        assert status == 429 and view["reason"] == "queue-full"
    with_api(scenario, max_queue_depth=2)


# -- concurrency ------------------------------------------------------------


def test_concurrent_submit_cancel_status_stay_consistent():
    async def scenario(api, client):
        async def submitter(tenant):
            results = []
            for _ in range(15):
                results.append(await client.request(
                    "POST", "/tasks",
                    {**SUBMIT, "qos": "best-effort", "tenant": tenant}))
            return results

        batches = await asyncio.gather(*[
            submitter(f"tenant-{i}") for i in range(4)
        ])
        admitted = [view for batch in batches for status, view, _ in batch
                    if status == 202]
        throttled = [view for batch in batches for status, view, _ in batch
                     if status == 429]
        assert len(admitted) + len(throttled) == 60
        # Interleave cancels and status reads concurrently.
        cancels = [client.request("DELETE", f"/tasks/{v['task']}")
                   for v in admitted[::3]]
        reads = [client.request("GET", f"/tasks/{v['task']}")
                 for v in admitted[1::3]]
        outcomes = await asyncio.gather(*cancels, *reads)
        assert all(status in (200, 409) for status, _, _ in outcomes)
        await client.request("POST", "/clock/settle", {})
        _, stats, _ = await client.request("GET", "/stats")
        assert stats["waiting"] == 0 and stats["running"] == 0
        door = sum(t["submitted"] for t in stats["tenants"].values())
        assert door == 60
        # The hot-path counter export: every repro.perf counter column
        # is present, and a run this size must have issued probes.
        from repro.perf import COUNTER_NAMES
        assert set(COUNTER_NAMES) <= set(stats["perf"])
        assert stats["perf"]["admission_probes"] > 0
        terminal = 0
        for state in ("finished", "rejected", "cancelled"):
            _, listed, _ = await client.request(
                "GET", f"/tasks?state={state}")
            terminal += len(listed["tasks"])
        assert terminal == len(admitted)
    with_api(scenario)


# -- telemetry streaming ----------------------------------------------------


def test_telemetry_stream_delivers_backlog_then_live_samples():
    async def scenario(api, client):
        await client.request("POST", "/tasks", SUBMIT)  # one backlog sample
        backlog = len(api.service.engine.telemetry)
        stream = asyncio.ensure_future(
            client.stream_lines(f"/telemetry/stream?limit={backlog + 1}",
                                backlog + 1))
        await asyncio.sleep(0.05)  # stream subscribes
        await client.request("POST", "/tasks", SUBMIT)  # live sample
        lines = await asyncio.wait_for(stream, 5)
        assert len(lines) == backlog + 1
        assert all({"t", "waiting", "running", "fragmentation",
                    "utilization", "members"} <= set(line)
                   for line in lines)
        # The listener is dropped once the limit is reached.
        await asyncio.sleep(0.05)
        assert not api.service.engine.telemetry_listeners
    with_api(scenario)


def test_telemetry_stream_limit_zero_means_no_bound():
    async def scenario(api, client):
        await client.request("POST", "/tasks", SUBMIT)  # one backlog sample
        backlog = len(api.service.engine.telemetry)
        stream = asyncio.ensure_future(
            client.stream_lines("/telemetry/stream?limit=0", backlog + 2))
        await asyncio.sleep(0.05)  # stream subscribes
        for _ in range(2):
            await client.request("POST", "/tasks", SUBMIT)  # live samples
        lines = await asyncio.wait_for(stream, 5)
        assert len(lines) == backlog + 2
    with_api(scenario)


def test_telemetry_snapshot_endpoint():
    async def scenario(api, client):
        status, payload, _ = await client.request("GET", "/telemetry")
        assert status == 200 and payload["last_sample"] is None
        await client.request("POST", "/tasks", SUBMIT)
        _, payload, _ = await client.request("GET", "/telemetry")
        assert payload["last_sample"]["members"]
    with_api(scenario)


# -- checkpoint/restore over HTTP -------------------------------------------


def test_checkpoint_restore_continues_the_same_run():
    async def scenario(api, client):
        for _ in range(6):
            await client.request(
                "POST", "/tasks", {**SUBMIT, "qos": "silver"})
        await client.request("POST", "/clock/advance", {"seconds": 0.2})
        _, snap, _ = await client.request("POST", "/checkpoint", {})
        original = api.service
        status, payload, _ = await client.request("POST", "/restore", snap)
        assert status == 200 and api.service is not original
        # Both services, driven identically from here, stay identical.
        api.service.settle()
        original.settle()
        assert api.service.engine.journal == original.engine.journal
        assert api.service.engine.telemetry == original.engine.telemetry
    with_api(scenario)


def test_checkpoint_to_file_and_restore_from_path(tmp_path):
    path = str(tmp_path / "ckpt.json")

    async def scenario(api, client):
        await client.request("POST", "/tasks", SUBMIT)
        status, payload, _ = await client.request(
            "POST", "/checkpoint", {"path": path})
        assert status == 200 and payload["saved"] == path
        status, payload, _ = await client.request(
            "POST", "/restore", {"path": path})
        assert status == 200
        assert len(api.service.engine.tasks) == 1
    with_api(scenario)


@pytest.mark.parametrize("config", [
    {"fleet_size": "2"}, {"fleet_size": 2.5}, {"fleet_size": True},
    {"fleet_size": 2, "fleet_devices": ["XC2S30"]},
    {"fleet_devices": "XC2S30"}, {"device": 7}, {"queue": None},
    {"fit": ["first"]}, {"max_queue_depth": "x"}, {"max_queue_depth": 0},
    {"max_queue_depth": True}, {"colour": "red"}, "XC2S15", [],
    {"fleet_size": 65}, {"fleet_size": 10**12}, {"ports": "multi-65"},
    {"ports": 10**12},
], ids=["string-fleet-size", "fractional-fleet-size", "boolean-fleet-size",
        "fleet-size-next-to-fleet-devices", "string-fleet-devices",
        "numeric-device", "null-queue", "list-fit", "string-queue-depth",
        "zero-queue-depth", "boolean-queue-depth", "unknown-key",
        "string-config", "list-config", "fleet-size-65", "fleet-size-10-12",
        "multi-65-ports", "10-12-ports"])
def test_malformed_restore_config_is_a_400_that_keeps_the_service(config):
    """The config is checked before any stack is built, a fleet or a
    port count above the ceilings included: the restore is refused and
    the running service keeps serving."""
    async def scenario(api, client):
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context))
        await client.request("POST", "/tasks", SUBMIT)
        original = api.service
        _, snap, _ = await client.request("POST", "/checkpoint", {})
        snap["config"] = ({**snap["config"], **config}
                          if isinstance(config, dict) else config)
        if config == {"ports": "multi-65"}:
            # The port row such a model restores, so that only the port
            # ceiling refuses the document.
            snap["ports"] = [{"lane_free": [0.0] * 65, "busy_seconds": 0.0}]
        status, payload, _ = await client.request("POST", "/restore", snap)
        assert status == 400 and payload["error"]
        assert api.service is original
        status, payload, _ = await client.request("GET", "/healthz")
        assert status == 200 and payload["tasks"] == 1
        assert not unhandled
    with_api(scenario)


def entry_row(snap: dict, key: str = "running") -> dict:
    """The task row of the snapshot's first ``key`` entry."""
    owner = snap[key][0]["task"]
    return next(row for row in snap["tasks"] if row["task"] == owner)


#: Ways to break a snapshot document of a service with one running and
#: two queued tasks, by name.
MALFORMED_SNAPSHOTS = {
    **{f"{key}-not-a-container": lambda snap, key=key: snap.update({key: 1})
       for key in ("tasks", "queued", "running", "ports",
                   "defrag_last_attempt", "journal", "telemetry",
                   "metrics", "door")},
    "unknown-metric": lambda snap: snap["metrics"].update(colour=1),
    "rect-off-the-fabric":
        lambda snap: entry_row(snap).update(rect=[0, 40, 6, 8]),
    "unknown-queued-task": lambda snap: snap["queued"][0].update(task=999),
    "unknown-running-task": lambda snap: snap["running"][0].update(task=999),
    "running-device-null": lambda snap: entry_row(snap).update(device=None),
    "running-rect-null": lambda snap: entry_row(snap).update(rect=None),
    "running-rect-of-three-values":
        lambda snap: entry_row(snap).update(rect=[0, 0, 6]),
    "running-rect-of-strings":
        lambda snap: entry_row(snap).update(rect=["0", "0", "6", "8"]),
    "queued-height-string":
        lambda snap: entry_row(snap, "queued").update(height="6"),
    "queued-deadline-string":
        lambda snap: snap["queued"][0].update(deadline="5"),
    "null-next-task-id": lambda snap: snap.update(next_task_id=None),
    "door-stats-unknown-key":
        lambda snap: snap["door"]["stats"]["default"].update(colour=1),
    "journal-entry-not-an-object":
        lambda snap: snap["journal"].__setitem__(0, 1),
    "telemetry-entry-not-an-object":
        lambda snap: snap["telemetry"].__setitem__(0, 1),
    "faults-not-an-object": lambda snap: snap.update(faults=1),
    "running-entry-without-finish-at":
        lambda snap: snap["running"][0].pop("finish_at"),
    "task-row-without-tenant": lambda snap: snap["tasks"][0].pop("tenant"),
    "no-clock": lambda snap: snap.pop("clock"),
    "port-row-without-free-at": lambda snap: snap["ports"][0].pop("free_at"),
    "door-without-buckets": lambda snap: snap["door"].pop("buckets"),
    "metrics-finished-string":
        lambda snap: snap["metrics"].update(finished="x"),
    "queued-entry-on-a-finished-row":
        lambda snap: entry_row(snap, "queued").update(state="finished"),
    "duplicated-task-row":
        lambda snap: snap["tasks"].insert(1, dict(snap["tasks"][0])),
    "string-defrag-last-attempt":
        lambda snap: snap["defrag_last_attempt"].__setitem__(0, "x"),
    "prefetch-not-an-object": lambda snap: snap.update(prefetch=1),
    "queued-entry-naming-the-running-task": lambda snap: snap["queued"][0]
        .update(task=snap["running"][0]["task"]),
    "next-task-id-1": lambda snap: snap.update(next_task_id=1),
    "next-task-id-10-12": lambda snap: snap.update(next_task_id=10**12),
}


def assert_restore_refused(mutation, path, capsys, **config) -> None:
    """``mutation`` of a snapshot of a service (built from ``config``)
    with one running and two queued tasks is refused: ``restore`` raises
    ValueError, ``POST /restore`` answers 400 and the running service
    keeps serving, and ``--restore`` prints one ``error:`` line and
    exits 2."""
    async def scenario(api, client):
        for _ in range(3):
            await client.request("POST", "/tasks",
                                 {**SUBMIT, "height": 6, "width": 8})
        _, snap, _ = await client.request("POST", "/checkpoint", {})
        assert len(snap["running"]) == 1 and len(snap["queued"]) == 2
        mutation(snap)
        path.write_text(json.dumps(snap))
        original = api.service
        status, payload, _ = await client.request("POST", "/restore", snap)
        assert status == 400 and payload["error"]
        assert api.service is original
        status, payload, _ = await client.request("GET", "/healthz")
        assert status == 200 and payload["tasks"] == 3
        with pytest.raises(ValueError):
            checkpoint.restore(snap)
    with_api(scenario, **config)
    assert service_main(["--restore", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize("mutation", MALFORMED_SNAPSHOTS.values(),
                         ids=MALFORMED_SNAPSHOTS.keys())
def test_malformed_snapshot_is_a_400_that_keeps_the_service(
        mutation, tmp_path, capsys):
    """A snapshot with a value of the wrong kind, a missing or unknown
    key, a region off the fabric, a queued or running entry naming no
    task of its own in that state, or a task id past ``next_task_id``
    is refused (see :func:`assert_restore_refused`)."""
    assert_restore_refused(mutation, tmp_path / "snapshot.json", capsys)


@pytest.mark.parametrize("ports, row", [
    ("icap", {"free_at": 7.5, "busy_seconds": 2.0}),
    ("multi-2", {"lane_free": [0.0], "busy_seconds": 0.0}),
], ids=["icap-port-with-a-serial-row", "multi-2-port-with-one-lane"])
def test_port_row_of_another_shape_is_a_400_that_keeps_the_service(
        ports, row, tmp_path, capsys):
    """A port row not of the config's port model — an icap port with
    the serial row of an older layout, or a multi-2 port with one lane —
    is refused (see :func:`assert_restore_refused`)."""
    assert_restore_refused(
        lambda snap: snap["ports"].__setitem__(0, row),
        tmp_path / "snapshot.json", capsys, ports=ports)


@pytest.mark.parametrize("endpoint, where", [
    ("/restore", "missing"), ("/restore", "directory"), ("/restore", 7),
    ("/checkpoint", "missing-directory"), ("/checkpoint", "directory"),
    ("/checkpoint", 7), ("--restore", "missing"),
], ids=["restore-missing-file", "restore-directory", "restore-number",
        "checkpoint-into-missing-directory", "checkpoint-onto-directory",
        "checkpoint-number", "cli-restore-missing-file"])
def test_checkpoint_file_errors_are_a_400_that_keeps_the_service(
        endpoint, where, tmp_path, capsys):
    """A checkpoint path that is not a string, names no file or names a
    directory is refused: ``POST /restore`` and ``POST /checkpoint``
    answer 400 and the service keeps serving, and ``--restore`` prints
    one ``error:`` line naming the path and exits 2."""
    path = {"missing": str(tmp_path / "missing.json"),
            "directory": str(tmp_path),
            "missing-directory": str(tmp_path / "missing" / "ckpt.json"),
            }.get(where, where)
    if endpoint == "--restore":
        assert service_main(["--restore", path]) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert not out and line.startswith("error: ") and path in line
        return

    async def scenario(api, client):
        await client.request("POST", "/tasks", SUBMIT)
        original = api.service
        status, payload, _ = await client.request(
            "POST", endpoint, {"path": path})
        assert status == 400 and payload["error"]
        assert api.service is original
        status, payload, _ = await client.request("GET", "/healthz")
        assert status == 200 and payload["tasks"] == 1
    with_api(scenario)


def _fuzz_snapshot(config: dict, faults: list, at: int) -> str:
    """The JSON snapshot of a service built from ``config``, fed a
    diurnal trace, with each of ``faults`` (a kind and its fields)
    injected after ``at`` submissions."""
    service = ReproService(ServiceConfig(**config))
    trace = service_trace("diurnal", seed=3, n=40, tenants=("a", "b"))
    for index, submission in enumerate(trace):
        if index == at:
            for kind, fields in faults:
                service.inject_fault(kind, **fields)
        service.submit(**submission)
    return json.dumps(checkpoint.snapshot(service))


@functools.lru_cache(maxsize=None)
def fuzz_snapshots() -> tuple[str, ...]:
    """Three real snapshots: a 2-member plan-mode fleet with an active
    stuck-at region, a multi-2 backfill service, and a 2-member icap
    cache-mode fleet after a member death."""
    return (
        _fuzz_snapshot(dict(fleet_size=2, prefetch="plan"), [(
            "region-stuck", dict(member=1, row=0, col=0, height=2, width=3,
                                 duration=50.0))], at=25),
        _fuzz_snapshot(dict(ports="multi-2", queue="backfill"), [], at=0),
        _fuzz_snapshot(dict(fleet_size=2, ports="icap", prefetch="cache"),
                       [("member-death", dict(member=1))], at=25),
    )


def _paths(value, path: tuple):
    """``path`` and the path to every item below ``value``, found
    there."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for step, item in items:
        yield from _paths(item, (*path, step))


#: The values one change of the fuzz below may put anywhere.
FUZZ_VALUES = (None, "x", -1, 0, 2.5, 1e9, 10**12, True, [], {}, [1, 2])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_restore_refuses_or_serves_any_one_change_of_a_snapshot(data):
    """One value changed anywhere in a real snapshot (to a value of
    :data:`FUZZ_VALUES`), one key deleted or one added: ``restore``
    raises ValueError (or KeyError for a config naming an unknown
    name), or the restored service takes one more submission, settles
    and snapshots to JSON."""
    doc = json.loads(data.draw(st.sampled_from(fuzz_snapshots())))
    # The entry first, so journal and telemetry do not drown the rest.
    key = data.draw(st.sampled_from(list(doc)))
    *head, last = data.draw(st.sampled_from(list(_paths(doc[key], (key,)))))
    parent = doc
    for step in head:
        parent = parent[step]
    change = data.draw(st.sampled_from(("delete", "add") + FUZZ_VALUES))
    if change == "delete":
        del parent[last]
    elif change == "add":
        target = (parent[last] if isinstance(parent[last], dict)
                  else parent)
        if isinstance(target, dict):
            target["extra"] = 1
        else:
            target.append(1)
    else:
        parent[last] = json.loads(json.dumps(change))
    try:
        service = checkpoint.restore(doc)
    except ValueError:
        return
    except KeyError:
        assert key == "config"
        return
    service.submit(2, 2, 0.5, tenant="a")
    service.settle()
    json.dumps(checkpoint.snapshot(service), allow_nan=False)


def test_shutdown_endpoint_resolves_the_shutdown_event():
    async def scenario(api, client):
        assert not api.shutdown.is_set()
        status, payload, _ = await client.request("POST", "/shutdown", {})
        assert status == 200 and api.shutdown.is_set()
    with_api(scenario)
