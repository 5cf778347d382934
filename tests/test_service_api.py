"""The service's HTTP face: routing, backpressure, streams, restore.

Everything runs against a real ``asyncio.start_server`` socket on an
ephemeral port — no mocked transports — inside ``asyncio.run`` (the
repo deliberately carries no pytest-asyncio dependency).  Pinned:

* the REST surface routes and validates: submit/status/list/cancel,
  clock control, stats, 404/405/409/400 on the documented conditions;
* malformed requests (a bad request line, a non-integer
  ``Content-Length``, a JSON body that is not an object, a numeric
  field of the wrong type or out of range, a ``limit`` query parameter
  that is not an integer >= 0) are answered with a 400 and
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
  continues the same run (journal identity after the swap).
"""

import asyncio
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import ReproService, ServiceAPI, ServiceConfig
from repro.service import api as api_module


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
        "Content-Length is not an integer",
    )


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
        "Content-Length is negative",
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


def test_shutdown_endpoint_resolves_the_shutdown_event():
    async def scenario(api, client):
        assert not api.shutdown.is_set()
        status, payload, _ = await client.request("POST", "/shutdown", {})
        assert status == 200 and api.shutdown.is_set()
    with_api(scenario)
