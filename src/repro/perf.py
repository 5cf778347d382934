"""Process-wide hot-path instrumentation: counters and timers.

The admission hot path is a stack of caches — the kernel's shape-level
failure memos, the planner's per-token blocker-set screen cache, the
fitter's per-generation answer cache, the fleet's per-member probe
memo.  Each one is provably transparent (it may only skip work whose
outcome is unchanged), which also makes each one invisible: a broken
invalidation shows up as *wrong results* (pinned by the differential
suites), but a broken *hit rate* shows up as nothing at all — the code
silently does the full work again and only the wall clock knows.

This module makes hit rates observable.  It keeps one process-global
:class:`PerfCounters` instance (:data:`PERF`) that the hot paths bump
with plain attribute increments — no locks, no dict lookups, no
formatting — and that the performance harnesses sample per benchmark
cell (``benchmarks/perf/bench_sched.py`` commits the numbers to
``BENCH_sched.json``) and the always-on service exports under
``/stats``.  The next optimisation round then starts from committed
counter evidence instead of ad-hoc profiling runs.

Counter semantics (all monotonically increasing since the last
:meth:`~PerfCounters.reset`):

``admission_probes``
    ``manager.request`` calls issued by the kernel's admission loop —
    the work everything below exists to avoid.
``item_memo_skips`` / ``shape_memo_skips`` / ``dominance_skips``
    admission probes skipped by the per-item failure memo, the exact
    shape-level memo and the dominance (equal-or-larger footprint)
    memo respectively.
``fleet_member_skips``
    per-member probes the fleet manager skipped because the shape
    already failed on that member at its current free-space generation.
``screen_calls`` / ``screen_windows``
    eviction screens actually run, and the total candidate windows they
    examined.
``screen_cache_hits`` / ``screen_cache_misses``
    the eviction screen's per-token blocker-set cache: distinct
    (blocker set, blocker shape) pairs a screen call found stored by an
    earlier call at the same planner token, and pairs it computed.
``evict_moves_calls``
    sequential relocation searches (the work the screens gate).
``first_fit_scalar`` / ``first_fit_vector``
    packed first-fit probes on grids under
    ``repro.placement.bitgrid.SMALL_SET`` sites and on larger ones.
    One packed-integer core answers both; the size split keeps the
    counts comparable with earlier releases, which ran a scalar and a
    numpy path.

Timers are for the harnesses only (they cost a ``perf_counter`` call
per edge): ``with PERF.timer("screen"): ...`` accumulates wall seconds
into :attr:`PerfCounters.times`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Counter attribute names, in reporting order.  Kept explicit (rather
#: than introspected) so the snapshot layout is stable for the
#: committed benchmark JSON.
COUNTER_NAMES = (
    "admission_probes",
    "item_memo_skips",
    "shape_memo_skips",
    "dominance_skips",
    "fleet_member_skips",
    "screen_calls",
    "screen_windows",
    "screen_cache_hits",
    "screen_cache_misses",
    "evict_moves_calls",
    "first_fit_scalar",
    "first_fit_vector",
)


class PerfCounters:
    """A bundle of hot-path counters with snapshot/reset semantics."""

    __slots__ = COUNTER_NAMES + ("times",)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter and drop accumulated timer seconds."""
        for name in COUNTER_NAMES:
            setattr(self, name, 0)
        self.times: dict[str, float] = {}

    def snapshot(self) -> dict:
        """Current counter values (and timers, when any ran) as a dict.

        Every counter is reported — including zeros — so committed
        benchmark payloads keep a stable column set across runs.
        """
        out: dict = {name: getattr(self, name) for name in COUNTER_NAMES}
        if self.times:
            out["times"] = dict(sorted(self.times.items()))
        return out

    def collect(self) -> dict:
        """Snapshot, then reset — one benchmark cell's worth of counts."""
        out = self.snapshot()
        self.reset()
        return out

    @contextmanager
    def timer(self, name: str):
        """Accumulate the wall time of the ``with`` body under ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = (
                self.times.get(name, 0.0) + time.perf_counter() - started
            )


#: The process-global counter bundle the hot paths increment.
PERF = PerfCounters()
