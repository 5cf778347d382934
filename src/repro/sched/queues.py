"""Queue disciplines: pluggable admission order for waiting work.

The scheduling kernel (:mod:`repro.sched.kernel`) keeps *one* waiting
queue of unplaced work items and asks a :class:`QueueDiscipline` two
questions: in what order should placement be attempted on this pass
(:meth:`QueueDiscipline.scan`), and what is the full live ordering
(:meth:`QueueDiscipline.ordered`).  Four disciplines ship:

* ``fifo`` — strict arrival order; the head blocks the queue until it
  places (bit-identical to the historical hand-rolled scheduler loop);
* ``priority`` — highest priority class first, FIFO within a class
  (Ullmann et al., *Hardware Support for QoS-based Function Allocation
  in Reconfigurable Systems*: urgent functions preempt the admission
  order, not the device);
* ``sjf`` — smallest configuration area first (shortest-job-first by
  the resource that actually contends: contiguous CLB sites);
* ``backfill`` — FIFO, but when the head does not fit, *smaller* tasks
  behind it may be attempted in its place — unless the head has already
  waited longer than ``max_age`` seconds, after which the queue blocks
  strictly to stop the head from starving.

Every discipline removes cancelled entries with a **lazy tombstone**:
:meth:`QueueDiscipline.discard` only flips a flag (O(1)); dead entries
are skipped at the head/top as walks pass over them, and a periodic
compaction rebuilds the container once tombstones outnumber live
entries, so the amortised cost per cancellation stays O(1) (O(log n)
for the heaps).  A timeout under a heavy-tail workload therefore never
pays the O(n) ``deque.remove`` the old scheduler did.

Note on the application scheduler: its admission pass tries every
waiting function in the discipline's ``ordered`` order (a placement
failure never blocks the rest), so disciplines contribute only the
*order* there; ``backfill``'s blocked-head semantics coincide with
``fifo`` for application workloads.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Protocol

#: Default starvation bound for the backfill discipline: once the head
#: of the queue has waited this long, nothing may jump it any more.
DEFAULT_BACKFILL_MAX_AGE = 5.0


@dataclass(slots=True)
class QueueEntry:
    """Internal book-keeping for one queued work item.

    ``item`` is whatever the caller queues (a task, an application
    stall record); the discipline orders entries only by the scalar
    metadata supplied at :meth:`QueueDiscipline.push` time.
    """

    item: object
    priority: int
    area: int
    enqueued_at: float
    seq: int
    alive: bool = True


class QueueDiscipline(Protocol):
    """Admission-order policy over a set of waiting work items."""

    name: str

    def push(self, item: object, *, priority: int = 0, area: int = 0,
             now: float = 0.0) -> None:
        """Enqueue ``item`` with its ordering metadata."""
        ...

    def discard(self, item: object) -> None:
        """Tombstone ``item`` (O(1); unknown items are ignored)."""
        ...

    def take(self, item: object) -> None:
        """Remove ``item`` after it was successfully placed."""
        ...

    def scan(self, now: float) -> Iterator[object]:
        """Yield items in the order placement should be attempted on
        one admission pass; the pass is *blocked* when every yielded
        item fails to place."""
        ...

    def ordered(self, now: float) -> list[object]:
        """Every live item, in full discipline order."""
        ...

    def __len__(self) -> int:
        """Number of live (non-tombstoned) items."""
        ...


class _DisciplineBase:
    """Shared entry/tombstone plumbing for the concrete disciplines."""

    name = "base"

    def __init__(self) -> None:
        self._entries: dict[int, QueueEntry] = {}
        self._seq = 0
        self._live = 0

    def _entry(self, item: object, priority: int, area: int,
               now: float) -> QueueEntry:
        """Wrap ``item`` into a live entry and register it."""
        entry = QueueEntry(item, priority, area, now, self._seq)
        self._seq += 1
        self._entries[id(item)] = entry
        self._live += 1
        return entry

    def discard(self, item: object) -> None:
        """Tombstone ``item`` in O(1); unknown items are a no-op."""
        entry = self._entries.pop(id(item), None)
        if entry is not None and entry.alive:
            entry.alive = False
            self._live -= 1

    def take(self, item: object) -> None:
        """Remove a successfully placed ``item`` (same lazy scheme)."""
        self.discard(item)

    def __len__(self) -> int:
        """Live item count (tombstones excluded)."""
        return self._live


class FifoDiscipline(_DisciplineBase):
    """Strict first-in-first-out: the head alone is ever attempted."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[QueueEntry] = deque()

    def push(self, item: object, *, priority: int = 0, area: int = 0,
             now: float = 0.0) -> None:
        """Append ``item`` to the tail of the queue."""
        self._queue.append(self._entry(item, priority, area, now))

    def _compact(self) -> None:
        """Physically drop tombstones once they outnumber live entries
        (keeps every walk over the queue O(live), amortised)."""
        if len(self._queue) > 2 * self._live + 8:
            self._queue = deque(e for e in self._queue if e.alive)

    def _purge_head(self) -> QueueEntry | None:
        """Drop dead entries off the head; return the live head."""
        self._compact()
        while self._queue and not self._queue[0].alive:
            self._queue.popleft()
        return self._queue[0] if self._queue else None

    def scan(self, now: float) -> Iterator[object]:
        """Yield only the head: FIFO blocks on its first failure."""
        head = self._purge_head()
        if head is not None:
            yield head.item

    def ordered(self, now: float) -> list[object]:
        """Live items in arrival order."""
        self._compact()
        return [e.item for e in self._queue if e.alive]


class BackfillDiscipline(FifoDiscipline):
    """FIFO with bounded backfilling past a blocked head.

    When the head fails to place, strictly *smaller* (by area) live
    tasks behind it are attempted in arrival order — but only while the
    head's waiting age is at most ``max_age`` seconds.  An over-age head
    reverts the queue to strict FIFO, so backfilled traffic can delay
    the head by at most ``max_age`` before the queue blocks for it.
    """

    name = "backfill"

    def __init__(self, max_age: float = DEFAULT_BACKFILL_MAX_AGE) -> None:
        super().__init__()
        if max_age < 0:
            raise ValueError("max_age cannot be negative")
        self.max_age = max_age

    def scan(self, now: float) -> Iterator[object]:
        """Yield the head, then (age permitting) smaller followers."""
        head = self._purge_head()
        if head is None:
            return
        yield head.item
        if now - head.enqueued_at > self.max_age:
            return  # head is starving: strict FIFO until it places
        for entry in list(self._queue):
            if entry.alive and entry is not head and entry.area < head.area:
                yield entry.item


class _HeapDiscipline(_DisciplineBase):
    """Shared heap plumbing for the key-ordered disciplines."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[tuple, QueueEntry]] = []

    def _key(self, entry: QueueEntry) -> tuple:
        raise NotImplementedError

    def push(self, item: object, *, priority: int = 0, area: int = 0,
             now: float = 0.0) -> None:
        """Insert ``item`` at its key-ordered position."""
        entry = self._entry(item, priority, area, now)
        heapq.heappush(self._heap, (self._key(entry), entry))

    def _compact(self) -> None:
        """Rebuild the heap without tombstones once they dominate
        (entry keys embed the arrival sequence, so the rebuilt heap is
        deterministically ordered like the original)."""
        if len(self._heap) > 2 * self._live + 8:
            self._heap = [pair for pair in self._heap if pair[1].alive]
            heapq.heapify(self._heap)

    def _purge_top(self) -> QueueEntry | None:
        """Pop dead entries off the heap top; return the live best."""
        self._compact()
        while self._heap and not self._heap[0][1].alive:
            heapq.heappop(self._heap)
        return self._heap[0][1] if self._heap else None

    def scan(self, now: float) -> Iterator[object]:
        """Yield only the best-keyed item: the order is strict, so a
        blocked best candidate blocks the pass."""
        top = self._purge_top()
        if top is not None:
            yield top.item

    def ordered(self, now: float) -> list[object]:
        """Live items sorted by the discipline key."""
        self._compact()
        live = [entry for __, entry in self._heap if entry.alive]
        live.sort(key=self._key)
        return [entry.item for entry in live]


class PriorityDiscipline(_HeapDiscipline):
    """Highest priority class first; FIFO within a class."""

    name = "priority"

    def _key(self, entry: QueueEntry) -> tuple:
        """Sort key: descending priority, then arrival sequence."""
        return (-entry.priority, entry.seq)


class SjfDiscipline(_HeapDiscipline):
    """Smallest configuration area first (ties broken FIFO)."""

    name = "sjf"

    def _key(self, entry: QueueEntry) -> tuple:
        """Sort key: ascending area, then arrival sequence."""
        return (entry.area, entry.seq)


#: Queue discipline registry: name -> zero-argument factory.
QUEUE_DISCIPLINES = {
    "fifo": FifoDiscipline,
    "priority": PriorityDiscipline,
    "sjf": SjfDiscipline,
    "backfill": BackfillDiscipline,
}

#: Valid queue-discipline names, in registry order.
QUEUE_NAMES = tuple(QUEUE_DISCIPLINES)


def make_queue(discipline: str | QueueDiscipline) -> QueueDiscipline:
    """Resolve a discipline name (or pass an instance through)."""
    if not isinstance(discipline, str):
        return discipline
    try:
        return QUEUE_DISCIPLINES[discipline]()
    except KeyError:
        raise ValueError(
            f"unknown queue discipline {discipline!r}; "
            f"choose from {QUEUE_NAMES}"
        ) from None
