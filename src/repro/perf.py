"""Process-wide hot-path instrumentation counters.

The admission hot path is a stack of caches — the kernel's admission
failure record, the planner's per-token plan memo and blocker-set
screen cache, the fitter's per-generation answer cache — all keyed on
the members' free-space generation.  Each one is provably transparent
(it may only skip work whose outcome is unchanged), which also makes
each one invisible: a broken invalidation shows up as *wrong results*
(pinned by the differential suites), but a broken *hit rate* shows up
as nothing at all — the code silently does the full work again and
only the wall clock knows.

This module makes hit rates observable.  It keeps one process-global
:class:`PerfCounters` instance (:data:`PERF`) that the hot paths bump
with plain attribute increments — no locks, no dict lookups, no
formatting.  The counts are exact for a given seed, so the test suite
pins the whole snapshot for a set of seeded cells
(``tests/test_work_budget.py``): a lost cache fails there, not only on
the wall clock.  The benchmark (``perfbench/``) reports them per layer,
and the always-on service exports them under ``/stats``.

Counter semantics (all monotonically increasing since the last
:meth:`~PerfCounters.reset`):

``admission_probes``
    ``manager.request`` calls issued by the kernel's admission loop —
    the work everything below exists to avoid.
``shape_memo_skips`` / ``dominance_skips``
    admission probes the kernel's failure record skipped: the exact
    shape already failed against the current occupancy, or a certified
    failure of an equal-or-smaller footprint dominates it.  Together
    they count every skipped probe.
``item_memo_skips``
    always 0.  The per-item failure memo it counted is gone (every
    skip it made was also a shape or dominance skip); the key stays
    because the benchmark (``perfbench/``) reads the column.
``fleet_member_skips``
    always 0.  The fleet's per-member failure memo it counted is gone:
    a member whose generation has not moved answers a repeated shape
    from its fit cache and plan memo.  The key stays because the
    benchmark reads the column.
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
    numpy path, and the benchmark reads both columns.
"""

from __future__ import annotations

#: Counter attribute names, in reporting order.  Kept explicit (rather
#: than introspected) so the snapshot layout the work budgets and the
#: benchmark read stays stable.
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

    __slots__ = COUNTER_NAMES

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        for name in COUNTER_NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        """Current counter values as a dict.

        Every counter is reported — including zeros — so the pinned
        budgets and the benchmark see a stable column set across runs.
        """
        return {name: getattr(self, name) for name in COUNTER_NAMES}


#: The process-global counter bundle the hot paths increment.
PERF = PerfCounters()
