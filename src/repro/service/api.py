"""The asyncio HTTP face of the always-on service.

A deliberately small REST/JSON layer over :class:`ReproService`, built
on ``asyncio.start_server`` alone — no web framework, no new
dependencies, one connection per request.  Everything runs on a single
event loop and the service core is synchronous, so handlers need no
locks and the service stays deterministic under concurrent clients
(requests are serialized at the loop).

Endpoints (all bodies JSON unless noted):

========  ======================  ==========================================
method    path                    behaviour
========  ======================  ==========================================
GET       /healthz                liveness + clock + task counts
GET       /qos                    the QoS class registry
POST      /tasks                  submit (``{height, width, exec_seconds,
                                  tenant?, qos?, max_wait?, at?}``); 202 on
                                  admit, **429 + Retry-After** on throttle
GET       /tasks                  task views (``?state=``, ``?limit=``)
GET       /tasks/{id}             one task's view (404 unknown)
DELETE    /tasks/{id}             cancel (409 already terminal)
POST      /clock/advance          ``{seconds}`` or ``{until}``; moves the
                                  simulated clock, firing due events
POST      /clock/settle           drain every pending event
GET       /telemetry              latest sample + live queue/run counts
GET       /telemetry/stream       **NDJSON**: history then live samples
                                  (``?limit=N`` closes after N lines,
                                  ``?history=0`` skips the backlog)
GET       /stats                  run metrics + per-tenant door counters
POST      /faults                 inject a fault (``{kind, member?, row?,
                                  col?, height?, width?, duration?,
                                  retries?, backoff?}``); kinds are
                                  ``member-death`` / ``region-stuck`` /
                                  ``port-flaky``; returns the recovery
                                  summary
POST      /checkpoint             snapshot; returns it (or writes
                                  ``{path}`` and returns the path)
POST      /restore                swap in a service restored from the
                                  posted snapshot (or from ``{path}``)
POST      /shutdown               resolve :attr:`ServiceAPI.shutdown`
========  ======================  ==========================================

Simulated time never advances on its own: clients move it via ``at``
submission stamps or ``/clock/advance`` (``python -m repro.service
--auto-advance`` adds a wall-clock ticker for interactive use).

Every connection gets a JSON answer or a clean close: a request that
cannot be parsed is a 400, a ``Content-Length`` above
:data:`MAX_BODY_BYTES` a 413, and a request not read whole within
:data:`READ_TIMEOUT_S` a 408.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
from urllib.parse import parse_qs, urlsplit

from . import checkpoint
from .app import ReproService
from .qos import QOS_CLASSES

#: HTTP reason phrases for the status codes the API emits.
_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout", 409: "Conflict",
    413: "Content Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Largest request body read, in bytes; a longer ``Content-Length`` is
#: answered 413 before any of the body is read.  An inline ``/restore``
#: posts a whole checkpoint, about 13.5 MB after 16k submissions, so
#: the cap leaves room for several times that.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a client has to deliver one whole request (request line,
#: headers and body); a slower one is answered 408, so no connection
#: can hold the server's attention forever.
READ_TIMEOUT_S = 30.0


_LOG = logging.getLogger(__name__)


class _HttpError(Exception):
    """A handler-raised HTTP failure (status + JSON payload)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message}


def _number(body: dict, name: str, kind: type = float, default=None):
    """Numeric body field ``name`` converted by ``kind`` (``int`` or
    ``float``).

    An absent field gives ``default``, and so does ``null`` when the
    default is ``None``.  Anything else that is not a finite JSON number
    (of integral value, for ``int``) is a 400: a string, a boolean, a
    ``null`` where a number is required, NaN or an infinity.
    """
    value = body.get(name, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value) \
            or (kind is int and value != int(value)):
        wanted = "an integer" if kind is int else "a finite number"
        raise _HttpError(400, f"field {name!r} must be {wanted}, "
                              f"got {value!r}")
    return kind(value)


def _decimal(raw: str | None, what: str) -> int | None:
    """``raw`` as a decimal integer >= 0 (``None`` when absent): ASCII
    digits only, so a sign, an underscore, whitespace or a non-ASCII
    digit is a 400 naming ``what``."""
    if raw is None:
        return None
    if not (raw.isascii() and raw.isdigit()):
        raise _HttpError(400, f"{what} must be an integer >= 0, "
                              f"got {raw!r}")
    return int(raw)


class ServiceAPI:
    """Serve one :class:`ReproService` over HTTP.

    Construct with the service, :meth:`start` on a host/port (port 0
    picks an ephemeral one — the tests do), then await
    :attr:`shutdown` or :meth:`stop` explicitly.  ``/restore`` swaps
    :attr:`service` in place; new requests see the restored instance.
    """

    def __init__(self, service: ReproService) -> None:
        self.service = service
        self._server: asyncio.AbstractServer | None = None
        #: resolved by ``POST /shutdown`` (or anyone); the ``__main__``
        #: runner awaits it alongside the signal handlers.
        self.shutdown = asyncio.Event()

    async def start(self, host: str = "127.0.0.1",
                    port: int = 8327) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) of a started server."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Stop accepting connections and close the server."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one request on one connection, then close it."""
        try:
            try:
                try:
                    async with asyncio.timeout(READ_TIMEOUT_S):
                        parsed = await self._read_request(reader)
                except TimeoutError:
                    raise _HttpError(
                        408, f"request not received within "
                             f"{READ_TIMEOUT_S:g} s") from None
                if parsed is None:
                    return
                method, path, query, body = parsed
                if method == "GET" and path == "/telemetry/stream":
                    await self._stream_telemetry(writer, query)
                    return
                status, payload, headers = self._dispatch(
                    method, path, query, body
                )
            except _HttpError as exc:
                status, payload, headers = exc.status, exc.payload, {}
            except (KeyError, ValueError) as exc:
                status, payload, headers = 400, {"error": str(exc)}, {}
            except (ConnectionError, asyncio.IncompleteReadError):
                raise
            except Exception as exc:
                # A bug, not a bad request: answer it rather than drop
                # the connection, and keep the traceback for operators.
                _LOG.exception("error serving a request")
                status, headers = 500, {}
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP request; None on empty/closed connections."""
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _ = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = _decimal(value.strip(), "Content-Length")
                if length > MAX_BODY_BYTES:
                    raise _HttpError(
                        413, f"request body over {MAX_BODY_BYTES} bytes"
                    )
        body = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError:
                raise _HttpError(400, "request body is not JSON") from None
            if not isinstance(body, dict):
                raise _HttpError(400, "request body is not a JSON object")
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method.upper(), split.path.rstrip("/") or "/", query, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, headers: dict | None = None) -> None:
        """Write one JSON response and flush it."""
        data = (json.dumps(payload) + "\n").encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    def _dispatch(self, method: str, path: str, query: dict,
                  body: dict) -> tuple[int, dict, dict]:
        """Route one request; returns (status, payload, extra headers)."""
        service = self.service
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "ok",
                "now": service.now,
                "tasks": len(service.engine.tasks),
                "waiting": len(service.engine.kernel.queue),
            }, {}
        if path == "/qos" and method == "GET":
            return 200, {
                name: {"priority": qos.priority, "rate": qos.rate,
                       "burst": qos.burst, "patience": qos.patience}
                for name, qos in QOS_CLASSES.items()
            }, {}
        if path == "/tasks" and method == "POST":
            return self._submit(body)
        if path == "/tasks" and method == "GET":
            return 200, {
                "tasks": service.tasks(
                    state=query.get("state"),
                    limit=_decimal(query.get("limit"),
                                   "query parameter 'limit'"))
            }, {}
        if path.startswith("/tasks/"):
            return self._task_detail(method, path)
        if path == "/clock/advance" and method == "POST":
            now = service.advance(
                until=_number(body, "until"),
                seconds=_number(body, "seconds"),
            )
            return 200, {"now": now}, {}
        if path == "/clock/settle" and method == "POST":
            return 200, {"now": service.settle()}, {}
        if path == "/telemetry" and method == "GET":
            return 200, service.telemetry(), {}
        if path == "/stats" and method == "GET":
            return 200, service.stats(), {}
        if path == "/faults" and method == "POST":
            return self._inject_fault(body)
        if path == "/checkpoint" and method == "POST":
            if body.get("path"):
                saved = checkpoint.save(service, body["path"])
                return 200, {"saved": str(saved)}, {}
            return 200, checkpoint.snapshot(service), {}
        if path == "/restore" and method == "POST":
            if body.get("path"):
                self.service = checkpoint.load(body["path"])
            else:
                self.service = checkpoint.restore(body)
            return 200, {"status": "restored",
                         "now": self.service.now}, {}
        if path == "/shutdown" and method == "POST":
            self.shutdown.set()
            return 200, {"status": "shutting-down"}, {}
        raise _HttpError(404, f"no route for {method} {path}")

    def _submit(self, body: dict) -> tuple[int, dict, dict]:
        """POST /tasks: one submission through the admission door (the
        service validates the numeric fields: a bad one is a 400)."""
        try:
            view = self.service.submit(
                body["height"], body["width"], body["exec_seconds"],
                tenant=str(body.get("tenant", "default")),
                qos=str(body.get("qos", "best-effort")),
                max_wait=body.get("max_wait"),
                at=body.get("at"),
            )
        except KeyError as exc:
            raise _HttpError(400, f"missing field {exc}") from None
        if not view["admitted"]:
            return 429, view, {"Retry-After": f"{view['retry_after']:.3f}"}
        return 202, view, {}

    def _inject_fault(self, body: dict) -> tuple[int, dict, dict]:
        """POST /faults: chaos injection into the live service."""
        try:
            kind = str(body["kind"])
        except KeyError:
            raise _HttpError(400, "missing field 'kind'") from None
        summary = self.service.inject_fault(
            kind,
            member=_number(body, "member", int, 0),
            row=_number(body, "row", int, 0),
            col=_number(body, "col", int, 0),
            height=_number(body, "height", int, 0),
            width=_number(body, "width", int, 0),
            duration=_number(body, "duration"),
            retries=_number(body, "retries", int, 3),
            backoff=_number(body, "backoff", float, 0.2),
        )
        return 200, summary, {}

    def _task_detail(self, method: str, path: str) -> tuple[int, dict, dict]:
        """GET/DELETE /tasks/{id}."""
        task_id = _decimal(path.rsplit("/", 1)[1], "task id")
        try:
            if method == "GET":
                return 200, self.service.status(task_id), {}
            if method == "DELETE":
                return 200, self.service.cancel(task_id), {}
        except KeyError:
            raise _HttpError(404, f"unknown task {task_id}") from None
        except ValueError as exc:
            raise _HttpError(409, str(exc)) from None
        raise _HttpError(405, f"{method} not allowed on {path}")

    # -- telemetry streaming -------------------------------------------------

    async def _stream_telemetry(self, writer: asyncio.StreamWriter,
                                query: dict) -> None:
        """GET /telemetry/stream: NDJSON, backlog then live samples.

        Subscribes to the engine's telemetry listeners; every entry the
        service records (one per kernel sample) is pushed to the client
        as one JSON line.  ``limit`` bounds the total
        lines (the tests' termination condition; 0 or absent means no
        bound); ``history=0`` skips the backlog.  The subscription is
        dropped when the client disconnects or the limit is reached.
        """
        limit = _decimal(query.get("limit"),
                         "query parameter 'limit'") or None
        engine = self.service.engine
        backlog = (list(engine.telemetry)
                   if query.get("history", "1") != "0" else [])
        feed: asyncio.Queue = asyncio.Queue()
        listener = feed.put_nowait
        engine.telemetry_listeners.append(listener)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        try:
            await writer.drain()
            for entry in backlog:
                writer.write((json.dumps(entry) + "\n").encode())
                await writer.drain()
                sent += 1
                if limit is not None and sent >= limit:
                    return
            while limit is None or sent < limit:
                entry = await feed.get()
                writer.write((json.dumps(entry) + "\n").encode())
                await writer.drain()
                sent += 1
        except ConnectionError:
            pass
        finally:
            try:
                engine.telemetry_listeners.remove(listener)
            except ValueError:
                pass
