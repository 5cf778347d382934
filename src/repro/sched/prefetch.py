"""Configuration prefetch: hiding reconfiguration time in idle windows.

The paper charges every function load to the serial reconfiguration
channel, so configuration stall dominates waiting time whenever the
port is contended.  Two classic mitigations from the related work
(PAPERS.md) are modelled here:

* **configuration caching** — a bitstream that is already resident in
  configuration memory does not need to be written again; a repeat of
  the same function skips the load entirely (the multi-context /
  configuration-cache literature);
* **configuration prefetch** — Resano et al.'s hybrid heuristic: load
  the configurations of *predicted* future functions while the port
  would otherwise sit idle, so the load is off the critical path when
  the function is finally admitted.

:class:`BitstreamCache` is the resident set: a bounded cache of
bitstream keys with **LRU-with-known-next-use** eviction.  Entries may
carry the instant they are next needed (the planner knows it for
application successors, and a queued task wants its bitstream "as soon
as possible"); the eviction victim is always the entry whose next use
is *farthest* (unknown counts as infinitely far), ties broken by least
recent use.  That ordering gives the invariant the property suite pins:
**an eviction never drops a bitstream with a known earlier next-use
than any kept entry**.

The planner half lives in :class:`~repro.sched.kernel.SchedulingKernel`
(:meth:`~repro.sched.kernel.SchedulingKernel.maybe_prefetch`): it walks
the queue discipline's candidate order plus the application layer's
explicit successor offers (:class:`PrefetchRequest`), and issues loads
through the normal ``PortModel.acquire`` machinery — only when the
target member's port is idle *right now*, so a planned load can never
delay a demand load that was already queued.

Three modes (:data:`PREFETCH_MODES`) select how much of this runs:

* ``never`` — neither cache nor planner is built; every code path is
  bit-identical to the historical behaviour (the golden snapshots and
  every committed campaign row run in this mode);
* ``cache`` — demand loads leave their bitstream resident, repeats hit;
* ``plan`` — ``cache`` plus idle-window planned loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Prefetch modes accepted by the kernel, schedulers and campaign axis.
PREFETCH_MODES = ("never", "cache", "plan")

#: Default resident-set capacity (bitstreams kept per fleet member).
DEFAULT_CACHE_CAPACITY = 8

#: Upper bound on candidates the planner examines per invocation (the
#: wishlist plus the head of the queue discipline's order).
PLAN_CANDIDATE_BOUND = 16

#: Upper bound on outstanding application-successor offers the kernel
#: retains (oldest dropped first; a dropped offer only costs a miss).
WISHLIST_BOUND = 32


def normalize_prefetch_mode(name: str) -> str:
    """Canonical spelling of a prefetch mode (raises on unknown)."""
    text = str(name).strip().lower()
    if text not in PREFETCH_MODES:
        raise ValueError(
            f"unknown prefetch mode {name!r}; choose from {PREFETCH_MODES}"
        )
    return text


@dataclass(slots=True)
class PrefetchRequest:
    """One bitstream the planner should try to preload.

    ``next_use`` is the best known estimate of when the bitstream will
    be demanded (``None`` = unknown); ``device`` pins the fleet member
    the load must land on (``None`` = let the kernel predict one via
    the device-selection policy).
    """

    key: str
    height: int
    width: int
    next_use: float | None = None
    device: int | None = None


@dataclass(slots=True)
class CacheEntry:
    """One resident bitstream.

    ``ready_at`` is the instant its (pre)load completes — a planned
    load hit before it finishes simply waits for the in-flight load
    instead of re-charging the port.  ``next_use`` is the known
    earliest future demand (``None`` = unknown), the signal the
    eviction order protects.
    """

    key: str
    height: int
    width: int
    ready_at: float
    last_used: float
    next_use: float | None = None
    seq: int = 0


class BitstreamCache:
    """Bounded resident-bitstream set, LRU-with-known-next-use eviction.

    Keys are opaque strings (``task:<id>`` for independent tasks,
    ``fn:<name>:<h>x<w>`` for application functions).  The cache does
    not touch the port or the clock itself — the kernel charges loads
    and supplies ``now`` — so it stays a pure, checkpointable value.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        #: the resident entries by key, in insertion order.
        self.entries: dict[str, CacheEntry] = {}
        #: the insertion sequence the next entry takes.
        self.seq = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str) -> CacheEntry | None:
        """The resident entry for ``key`` (no side effects)."""
        return self.entries.get(key)

    def keys(self) -> tuple[str, ...]:
        """The resident keys, in insertion order (no side effects)."""
        return tuple(self.entries)

    def hit(self, key: str, now: float) -> CacheEntry | None:
        """Consume a resident entry for a demand at ``now``.

        Returns the entry (its load is *not* re-charged; the caller
        waits until ``ready_at`` if the preload is still in flight) or
        ``None`` on a miss.  A consumed entry's ``next_use`` is cleared
        — the known demand just happened — and its recency refreshed.
        """
        entry = self.entries.get(key)
        if entry is None:
            return None
        entry.last_used = now
        entry.next_use = None
        return entry

    def note_next_use(self, key: str, next_use: float | None) -> bool:
        """Record a known future demand for a resident bitstream (the
        eviction order protects it); returns False on a miss."""
        entry = self.entries.get(key)
        if entry is None:
            return False
        if next_use is not None and (
            entry.next_use is None or next_use < entry.next_use
        ):
            entry.next_use = next_use
        return True

    @staticmethod
    def _victim_rank(entry: CacheEntry) -> tuple[float, float, int]:
        """Eviction preference: farthest known next use first (unknown
        = infinitely far), then least recently used, then oldest."""
        horizon = entry.next_use if entry.next_use is not None else math.inf
        return (horizon, -entry.last_used, -entry.seq)

    def peek_victim(self) -> CacheEntry | None:
        """The entry an insertion at capacity would evict."""
        if not self.entries:
            return None
        return max(self.entries.values(), key=self._victim_rank)

    def admits(self, next_use: float | None) -> bool:
        """Whether a *planned* load with this known next use is worth
        inserting: there is free space, or the victim is needed later
        (or not at known time at all).  Demand loads bypass this check
        — their bitstream is resident by construction."""
        if len(self.entries) < self.capacity:
            return True
        victim = self.peek_victim()
        assert victim is not None
        if victim.next_use is None:
            return True
        return next_use is not None and next_use < victim.next_use

    def insert(self, key: str, height: int, width: int, *,
               ready_at: float, now: float,
               next_use: float | None = None) -> CacheEntry | None:
        """Make ``key`` resident; returns the evicted entry, if any.

        An already-resident key is refreshed in place (no eviction).
        At capacity the victim with the farthest next use goes first —
        never an entry with a known earlier next-use than a kept one.
        """
        entry = self.entries.get(key)
        if entry is not None:
            entry.ready_at = ready_at
            entry.last_used = now
            if next_use is not None:
                entry.next_use = next_use
            return None
        evicted: CacheEntry | None = None
        if len(self.entries) >= self.capacity:
            evicted = self.peek_victim()
            assert evicted is not None
            del self.entries[evicted.key]
        self.entries[key] = CacheEntry(
            key, height, width, ready_at=ready_at, last_used=now,
            next_use=next_use, seq=self.seq,
        )
        self.seq += 1
        return evicted
