"""Task and application models for the on-line scheduling experiments.

Two workload shapes appear in the paper:

* **Independent tasks** (the Diessel-style stream behind the
  defragmentation study): each task needs a ``height x width`` rectangle
  of CLBs for ``exec_seconds``, arrives on-line, and waits when no
  contiguous space exists.
* **Applications** (Fig. 1): "an application comprises a set of
  functions that are predominantly executed sequentially"; while one
  function runs, its successor can be configured in advance during the
  reconfiguration interval *rt*, hiding the reconfiguration time
  entirely — unless space or the configuration port is missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.device.geometry import Rect


class TaskState(Enum):
    """Life-cycle of a task: pending, queued, configuring from its
    placement on, then one terminal state."""

    PENDING = "pending"
    QUEUED = "queued"
    CONFIGURING = "configuring"
    #: never stored on a task: the service's status view reports a
    #: configuring task as running once its configuration completed
    #: (``started_at`` has passed).
    RUNNING = "running"
    FINISHED = "finished"
    REJECTED = "rejected"
    #: dropped by an explicit cancel request (the always-on service's
    #: API; batch runs never enter this state).
    CANCELLED = "cancelled"
    #: lost to a fault: the task was running when its host member died
    #: (or a stuck-at outbreak took its region) and no surviving fabric
    #: could ever host its footprint (see :mod:`repro.faults`).
    DROPPED = "dropped"


@dataclass(slots=True)
class Task:
    """One independent task instance."""

    task_id: int
    height: int
    width: int
    exec_seconds: float
    arrival: float
    #: maximum queueing time before the request is abandoned (None =
    #: wait forever).  Diessel et al. [5] measure the *allocation rate*
    #: under exactly this kind of impatience.
    max_wait: float | None = None
    #: QoS priority class (higher = more urgent); only the ``priority``
    #: queue discipline reads it — FIFO admission ignores classes.
    priority: int = 0
    #: owning tenant (multi-tenant traces; empty for the synthetic
    #: single-tenant generators).  Purely a label: admission never reads
    #: it, but per-tenant fairness accounting groups finish counts by it.
    tenant: str = ""
    state: TaskState = TaskState.PENDING
    rect: Rect | None = None
    configured_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    halted_seconds: float = 0.0

    @property
    def area(self) -> int:
        """Footprint in CLB sites."""
        return self.height * self.width

    @property
    def prefetch_key(self) -> str:
        """Bitstream identity for the resident-bitstream cache.

        Independent tasks are one-shot, so the key is per-task: a task
        never *hits* the cache, but the planner can still preload its
        bitstream while it waits in the queue (the kernel's
        ``maybe_prefetch`` walks the queue discipline's order and picks
        up any entry exposing this attribute).
        """
        return f"task:{self.task_id}"

    @property
    def waiting_seconds(self) -> float:
        """Time between arrival and execution start (inf if never ran)."""
        if self.started_at is None:
            return float("inf")
        return self.started_at - self.arrival

    @property
    def turnaround_seconds(self) -> float:
        """Arrival to completion (inf if unfinished)."""
        if self.finished_at is None:
            return float("inf")
        return self.finished_at - self.arrival

    def __str__(self) -> str:
        return (
            f"<task {self.task_id} {self.height}x{self.width} "
            f"{self.state.value}>"
        )


@dataclass(frozen=True, slots=True)
class FunctionSpec:
    """One function of an application (Fig. 1's A1, B2, C3 ...)."""

    name: str
    height: int
    width: int
    exec_seconds: float

    @property
    def area(self) -> int:
        """Footprint in CLB sites."""
        return self.height * self.width


@dataclass
class ApplicationSpec:
    """An application: an ordered chain of functions."""

    name: str
    functions: list[FunctionSpec]
    #: QoS priority class (higher = more urgent); read by the
    #: ``priority`` queue discipline when stalled applications compete
    #: for released space.
    priority: int = 0

    @property
    def total_area(self) -> int:
        """Sum of function footprints (can exceed the device: that is
        the virtual-hardware premise)."""
        return sum(f.area for f in self.functions)

    @property
    def total_exec_seconds(self) -> float:
        """Pure execution time of the chain (the zero-overhead bound)."""
        return sum(f.exec_seconds for f in self.functions)


@dataclass(slots=True)
class FunctionRun:
    """Execution record of one function instance."""

    app: str
    spec: FunctionSpec
    rect: Rect | None = None
    configured_at: float | None = None
    #: port seconds the function's own configuration cost (excluding
    #: rearrangement moves); the stall accounting uses it to tell
    #: un-hidden configuration apart from waiting for space.
    config_seconds: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def prefetched(self) -> bool:
        """True when the function was configured strictly before it
        started — the Fig. 1 ideal ("the reconfiguration time overhead
        may be virtually zero, if new functions are swapped in advance").
        A function whose start had to wait for its own configuration is
        not prefetched: its reconfiguration time was exposed."""
        return (
            self.configured_at is not None
            and self.started_at is not None
            and self.configured_at < self.started_at
        )


@dataclass
class ApplicationRun:
    """Execution record of a whole application."""

    spec: ApplicationSpec
    runs: list[FunctionRun] = field(default_factory=list)
    finished_at: float | None = None

    @property
    def makespan(self) -> float:
        """Total elapsed time (inf if unfinished)."""
        if self.finished_at is None or not self.runs:
            return float("inf")
        first = self.runs[0]
        start = first.started_at if first.started_at is not None else 0.0
        return self.finished_at - start

    @property
    def stall_seconds(self) -> float:
        """Reconfiguration-induced delay: elapsed minus pure execution."""
        if self.finished_at is None:
            return float("inf")
        return max(0.0, self.makespan - self.spec.total_exec_seconds)
