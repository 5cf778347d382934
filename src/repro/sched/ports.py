"""Reconfiguration-port models: how configuration traffic is served.

The cost model (:mod:`repro.core.cost`) prices every job in *port
seconds* — the serial-channel time a configuration or a relocation move
occupies on the paper's Boundary-Scan flow.  A :class:`PortModel` then
decides how those seconds are served:

* ``serial`` — one sequential channel; jobs queue back to back.  This
  is the paper's model and reproduces the historical
  :class:`~repro.sched.events.SequentialResource` behaviour exactly;
* ``multi-N`` — ``N`` independent configuration ports; each job is
  placed whole on the earliest-free port (a job's moves and its own
  configuration are inherently ordered, so they never split across
  ports), modelling multi-context / multi-ICAP devices;
* ``icap`` — one channel with distinct write and readback throughput.
  Configuration jobs are pure frame *writes* and complete
  ``write_speedup`` times faster than the Boundary-Scan baseline;
  relocation moves re-read the source frames before rewriting them, so
  each move pays a write phase (``/ write_speedup``) plus a readback
  phase (``/ readback_speedup``) — the asymmetry of real ICAP readback
  paths feeding straight into the relocation cost model.

Every model exposes ``free_at`` (earliest instant any capacity is
idle — the proactive-defrag trigger's ``port_idle`` signal) and the
total ``busy_seconds`` consumed.
"""

from __future__ import annotations

import re
from typing import Protocol

from .events import EventQueue, SequentialResource

#: Canonical port-model names accepted everywhere (``multi-N`` admits
#: any N >= 2; these are the spellings shown in help text).
PORT_MODEL_NAMES = ("serial", "multi-2", "icap")


class PortModel(Protocol):
    """Service model for reconfiguration-port time."""

    free_at: float
    busy_seconds: float

    def acquire(self, config_seconds: float = 0.0,
                move_seconds: float = 0.0) -> tuple[float, float]:
        """Reserve one contiguous job of configuration + move time at
        the earliest opportunity; returns the granted [start, end)."""
        ...


class SerialPortModel:
    """One sequential configuration channel (the paper's model)."""

    name = "serial"

    def __init__(self, events: EventQueue) -> None:
        self._port = SequentialResource(events)

    @property
    def free_at(self) -> float:
        """Instant the channel next becomes idle."""
        return self._port.free_at

    @property
    def busy_seconds(self) -> float:
        """Total channel time consumed so far."""
        return self._port.busy_seconds

    def acquire(self, config_seconds: float = 0.0,
                move_seconds: float = 0.0) -> tuple[float, float]:
        """Queue the whole job on the single channel."""
        return self._port.acquire(config_seconds + move_seconds)

    def export_state(self) -> dict:
        """Serializable channel state (checkpoint/restore)."""
        return {"free_at": self._port.free_at,
                "busy_seconds": self._port.busy_seconds}

    def restore_state(self, state: dict) -> None:
        """Load a previously exported channel state."""
        self._port.free_at = float(state["free_at"])
        self._port.busy_seconds = float(state["busy_seconds"])


class MultiPortModel:
    """``N`` independent configuration ports, earliest-free dispatch.

    Each job (its moves plus its own configuration, inherently ordered)
    runs whole on one port; the port chosen is the one free earliest,
    ties broken deterministically by port index.  ``free_at`` is the
    earliest instant *any* port is idle, so the defrag trigger's
    ``port_idle`` check fires as soon as spare bandwidth exists.
    """

    name = "multi"

    def __init__(self, events: EventQueue, n_ports: int = 2) -> None:
        if n_ports < 1:
            raise ValueError("n_ports must be positive")
        self._events = events
        self.n_ports = n_ports
        self._lane_free = [0.0] * n_ports
        self.busy_seconds = 0.0

    @property
    def free_at(self) -> float:
        """Earliest instant any of the ports is idle."""
        return min(self._lane_free)

    def acquire(self, config_seconds: float = 0.0,
                move_seconds: float = 0.0) -> tuple[float, float]:
        """Place the job whole on the earliest-free port."""
        duration = config_seconds + move_seconds
        if duration < 0:
            raise ValueError("duration cannot be negative")
        lane = min(range(self.n_ports), key=lambda i: self._lane_free[i])
        start = max(self._events.now, self._lane_free[lane])
        end = start + duration
        self._lane_free[lane] = end
        self.busy_seconds += duration
        return start, end

    def export_state(self) -> dict:
        """Serializable per-lane state (checkpoint/restore)."""
        return {"lane_free": list(self._lane_free),
                "busy_seconds": self.busy_seconds}

    def restore_state(self, state: dict) -> None:
        """Load a previously exported per-lane state."""
        lanes = [float(v) for v in state["lane_free"]]
        if len(lanes) != self.n_ports:
            raise ValueError(
                f"state has {len(lanes)} lanes, model has {self.n_ports}"
            )
        self._lane_free = lanes
        self.busy_seconds = float(state["busy_seconds"])


class IcapPortModel:
    """Write and readback channels with asymmetric throughput.

    Baseline port seconds assume Boundary-Scan-rate frame writes.  An
    ICAP-style internal port writes ``write_speedup`` times faster; a
    relocation move additionally *reads back* the source frames before
    rewriting them, paying ``move / readback_speedup`` on the readback
    path plus ``move / write_speedup`` on the write path.

    The two paths are distinct hardware, so they are modelled as
    distinct lanes: a job's readback phase runs on the readback lane
    and may overlap a *previous* job still occupying the write lane;
    its own write phase (configuration + move rewrites, inherently
    ordered after the readback) then starts once both the readback has
    finished and the write lane is free.  Total channel time consumed
    is identical to serving both phases back to back — only the
    *placement* of the readback seconds changes, which is exactly the
    asymmetric-path pipelining real ICAP readback hardware provides.
    (Historically both phases were folded into one contiguous job on a
    single channel, which serialized readback traffic behind unrelated
    writes and defeated the asymmetric model for relocations.)
    """

    name = "icap"

    def __init__(self, events: EventQueue, write_speedup: float = 8.0,
                 readback_speedup: float = 4.0) -> None:
        if write_speedup <= 0 or readback_speedup <= 0:
            raise ValueError("speedups must be positive")
        self._events = events
        self.write_speedup = write_speedup
        self.readback_speedup = readback_speedup
        self._write_free = 0.0
        self._readback_free = 0.0
        self.busy_seconds = 0.0

    @property
    def free_at(self) -> float:
        """Instant both channels are idle (the port-idle signal)."""
        return max(self._write_free, self._readback_free)

    def acquire(self, config_seconds: float = 0.0,
                move_seconds: float = 0.0) -> tuple[float, float]:
        """Serve the job: readback lane first, then the write lane.

        Returns the granted [start, end) of the whole job — ``start``
        is when its first phase begins, ``end`` when its write phase
        (the part that makes the new configuration usable) completes.
        """
        now = self._events.now
        readback = move_seconds / self.readback_speedup
        write = (config_seconds + move_seconds) / self.write_speedup
        if readback > 0.0:
            rb_start = max(now, self._readback_free)
            rb_end = rb_start + readback
            self._readback_free = rb_end
        else:
            rb_start = rb_end = now
        w_start = max(now, self._write_free, rb_end)
        w_end = w_start + write
        self._write_free = w_end
        self.busy_seconds += readback + write
        start = rb_start if readback > 0.0 else w_start
        return start, w_end

    def export_state(self) -> dict:
        """Serializable per-lane state (checkpoint/restore)."""
        return {"write_free": self._write_free,
                "readback_free": self._readback_free,
                "busy_seconds": self.busy_seconds}

    def restore_state(self, state: dict) -> None:
        """Load a previously exported per-lane state."""
        self._write_free = float(state["write_free"])
        self._readback_free = float(state["readback_free"])
        self.busy_seconds = float(state["busy_seconds"])


_MULTI_RE = re.compile(r"^multi[-:](\d+)$")


def normalize_port_model(name: str | int) -> str:
    """Canonical spelling of a port-model spec.

    Accepts ``"serial"``, ``"icap"``, ``"multi-N"`` / ``"multi:N"``,
    or a bare port count (``"1"`` -> ``"serial"``, ``"2"`` ->
    ``"multi-2"``) so the campaign CLI reads naturally as ``--ports 2``.
    Raises :class:`ValueError` for anything else.
    """
    text = str(name).strip().lower()
    if text in ("serial", "icap"):
        return text
    if text.isdigit():
        count = int(text)
        if count < 1:
            raise ValueError("port count must be positive")
        return "serial" if count == 1 else f"multi-{count}"
    match = _MULTI_RE.match(text)
    if match:
        count = int(match.group(1))
        if count < 1:
            raise ValueError("port count must be positive")
        return "serial" if count == 1 else f"multi-{count}"
    raise ValueError(
        f"unknown port model {name!r}; choose from {PORT_MODEL_NAMES} "
        "(multi-N for any N >= 2, or a bare port count)"
    )


def make_port_model(spec: str | PortModel, events: EventQueue) -> PortModel:
    """Build the port model a spec string names (instances pass through)."""
    if not isinstance(spec, (str, int)):
        return spec
    canonical = normalize_port_model(spec)
    if canonical == "serial":
        return SerialPortModel(events)
    if canonical == "icap":
        return IcapPortModel(events)
    return MultiPortModel(events, int(canonical.split("-", 1)[1]))
