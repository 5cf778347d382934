#!/usr/bin/env python3
"""Mutation gate: every listed mutant must be killed by its tests.

A mutant is one exact edit to the program, (file, original snippet,
mutated snippet), together with the tests that must fail once it is
applied.  Each mutant stands for a defect a test claims to catch: a
cache that stops hitting, an invalidation that goes missing, an input
check that is dropped.  The runner

* checks that every original snippet occurs exactly once in its file,
  so a refactor that moves the code cannot leave a mutant silently
  untested;
* runs the union of the listed tests once on an unmutated copy of the
  tree, which must pass;
* for each mutant, copies the tree to a temporary directory, applies
  the edit and runs only that mutant's tests.  The mutant is killed
  when pytest reports failing tests (exit status 1).

It exits non-zero when a snippet does not match, the baseline fails or
any mutant survives.  Pure stdlib; run from anywhere::

    python tools/mutants.py

A change that adds a cache, a memo or an input check adds the mutant
that proves its test here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: What a temporary copy of the tree holds: the program, its tests and
#: the pytest configuration.
_COPIED = ("src", "tests", "pytest.ini")

#: Seconds one pytest run may take before it counts as hung.
_RUN_TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    """One edit to the program and the tests that must catch it."""

    name: str
    path: str
    original: str
    mutated: str
    tests: tuple[str, ...]


_BUDGET = "tests/test_work_budget.py::test_work_budget"
_ORACLE = ("tests/test_work_budget.py::"
           "test_every_cache_off_is_observationally_identical")
_FLEET_CELLS = ("xc2s15-fleet2-priority-serial",
                "xc2s30-fleet4-least-loaded")
_APPS_GOLDEN = "tests/test_golden_campaign.py::test_golden_apps_snapshot"

MUTANTS = (
    Mutant(
        name="fleet-stamp-member-0",
        path="src/repro/sched/kernel.py",
        original=("stamp = tuple(m.free_space.generation "
                  "for m in self.manager.members)"),
        mutated="stamp = (self.manager.members[0].free_space.generation,)",
        tests=tuple(f"{test}[{cell}]" for test in (_BUDGET, _ORACLE)
                    for cell in _FLEET_CELLS),
    ),
    Mutant(
        name="stamp-compared-once-per-drain",
        path="src/repro/sched/kernel.py",
        original="""\
        while len(self.queue):
            self._sync_record()
            self._prefetch()
""",
        mutated="""\
        self._sync_record()
        while len(self.queue):
            self._prefetch()
""",
        tests=(_BUDGET,),
    ),
    Mutant(
        name="failure-record-off",
        path="src/repro/sched/kernel.py",
        original=("        self._failed_shapes[item.height, item.width] "
                  "= outcome.dominant\n"),
        mutated="",
        tests=(_BUDGET,),
    ),
    # Application chains on the kernel's admission path: each pass tries
    # every waiting function, a release gets a pass without the prefetch
    # planner, and a function configured ahead is held where moves
    # follow it.
    Mutant(
        name="chain-pass-blocks-on-scan",
        path="src/repro/sched/scheduler.py",
        original="        return iter(self.discipline.ordered(now))\n",
        mutated="        return self.discipline.scan(now)\n",
        tests=(_APPS_GOLDEN,),
    ),
    Mutant(
        name="chain-release-drains",
        path="src/repro/sched/scheduler.py",
        original="        self.kernel.admit_waiting()\n",
        mutated="        self.kernel.drain()\n",
        tests=(_APPS_GOLDEN,),
    ),
    Mutant(
        name="held-function-not-recorded",
        path="src/repro/sched/kernel.py",
        original="        self.running[owner] = Running(item, None, None)\n",
        mutated="        pass\n",
        tests=("tests/test_scheduler.py::"
               "test_function_rect_follows_rearrangements",),
    ),
    Mutant(
        name="fit-prefetch-no-store",
        path="src/repro/placement/fit.py",
        original="""\
            self._answers[(height, width)] = self.fn(
                occupancy, height, width, index=index
            )
""",
        mutated="""\
            self.fn(occupancy, height, width, index=index)
""",
        tests=(_BUDGET,),
    ),
    Mutant(
        name="fit-cache-bypassed",
        path="src/repro/placement/fit.py",
        original="""\
        if index is None or not self._sync(index):
            return self.fn(occupancy, height, width, index=index)
""",
        mutated="""\
        if True:
            return self.fn(occupancy, height, width, index=index)
""",
        tests=(_BUDGET,),
    ),
    Mutant(
        name="plan-memo-never-read",
        path="src/repro/core/defrag.py",
        original="""\
        plans = shared["plans"]
        if (height, width) not in plans:
""",
        mutated="""\
        plans = shared["plans"]
        plans.pop((height, width), None)
        if (height, width) not in plans:
""",
        tests=(_BUDGET,),
    ),
    Mutant(
        name="blocker-set-cache-forgotten",
        path="src/repro/core/defrag.py",
        original="""\
        set_ids = state["set_ids"]
""",
        mutated="""\
        set_ids = state["set_ids"]
        state["known"][:] = False
""",
        tests=(_BUDGET,),
    ),
    # The slab screen decides every window on its largest blocker, then
    # checks the survivors' other blockers; without that second stage
    # the relocation search sees windows the screen should have dropped.
    Mutant(
        name="screen-skips-the-survivor-check",
        path="src/repro/core/defrag.py",
        original="        if rest:\n",
        mutated="        if False:\n",
        tests=(f"{_BUDGET}[xcv200-backfill-icap]",),
    ),
    Mutant(
        name="blocker-key-row-band-only",
        path="src/repro/core/defrag.py",
        original="sets = (row_band[:, None] & col_band[None]).reshape(",
        mutated=("sets = (row_band[:, None] "
                 "| (col_band[None] & np.uint64(0))).reshape("),
        tests=("tests/test_defrag_screen.py::"
               "test_screen_verdicts_match_brute_force",
               "tests/test_defrag_screen.py::"
               "test_screen_past_one_word_of_residents",
               "tests/test_golden_campaign.py::"
               "test_golden_campaign_snapshot"),
    ),
    Mutant(
        name="negative-content-length-read",
        path="src/repro/service/api.py",
        original="    if not (raw.isascii() and raw.isdigit()):\n",
        mutated="    if not (raw.isascii() and raw.lstrip(\"-\").isdigit()):\n",
        tests=("tests/test_service_api.py::"
               "test_negative_content_length_is_a_400",),
    ),
    Mutant(
        name="content-length-parsed-with-int",
        path="src/repro/service/api.py",
        original='length = _decimal(value.strip(), "Content-Length")',
        mutated="length = int(value.strip())",
        tests=("tests/test_service_api.py::"
               "test_content_length_is_digits_only",),
    ),
    Mutant(
        name="body-size-uncapped",
        path="src/repro/service/api.py",
        original="                if length > MAX_BODY_BYTES:\n",
        mutated="                if False:\n",
        tests=("tests/test_service_api.py::"
               "test_oversized_content_length_is_a_413_before_any_body"
               "_is_read",),
    ),
    Mutant(
        name="read-never-times-out",
        path="src/repro/service/api.py",
        original="async with asyncio.timeout(READ_TIMEOUT_S):",
        mutated="async with asyncio.timeout(None):",
        tests=("tests/test_service_api.py::test_slow_request_is_a_408",),
    ),
    Mutant(
        name="task-listing-builds-every-view",
        path="src/repro/service/app.py",
        original="""\
        for task in reversed(self.engine.tasks.values()):
            if len(views) == limit:
                break
            if state is None or self._state(task).value == state:
                views.append(self.status(task.task_id))
""",
        mutated="""\
        for task in reversed(self.engine.tasks.values()):
            view = self.status(task.task_id)
            if len(views) != limit \\
                    and (state is None or view["state"] == state):
                views.append(view)
""",
        tests=("tests/test_service.py::"
               "test_task_listing_builds_views_only_up_to_the_limit",),
    ),
    Mutant(
        name="moves-leave-the-task-rect",
        path="src/repro/sched/kernel.py",
        original="            entry.item.rect = execution.move.dst\n",
        mutated="",
        tests=("tests/test_service.py::"
               "test_task_view_reports_the_region_a_rearrangement"
               "_moved_it_to",),
    ),
    # With the kernel keeping every running task's rect current, a
    # victim rule over task rects matches the faulty sites on the one
    # fabric the rects are read against; what only the sites know is
    # the member, so the rect rule displaces work on every member.
    Mutant(
        name="region-victims-from-task-rects",
        path="src/repro/faults/recovery.py",
        original="""\
        displaced = self._displace(sorted(
            owner for owner in map(int, np.unique(sites))
            if owner in kernel.running
        ))
""",
        mutated="""\
        displaced = self._displace(sorted(
            owner for owner, entry in kernel.running.items()
            if entry.item.rect.overlaps(rect)
        ))
""",
        tests=("tests/test_faults.py::"
               "test_stuck_at_fault_spares_other_members",),
    ),
    Mutant(
        name="fault-injected-without-a-fault-event",
        path="src/repro/service/app.py",
        original="event = FaultEvent(at=self.now, kind=kind, **fields)",
        mutated=("event = __import__('types').SimpleNamespace("
                 "at=self.now, kind=kind, **fields)"),
        tests=("tests/test_faults.py::"
               "test_non_positive_fault_duration_is_a_400_that_moves"
               "_nothing",),
    ),
    # The checkpoint keeps the fleet-wide sample and drops the
    # per-member readings, which is what snapshots once did.
    Mutant(
        name="member-sample-not-checkpointed",
        path="src/repro/service/checkpoint.py",
        original='        "metrics": asdict(kernel.metrics),\n',
        mutated=('        "metrics": dict(asdict(kernel.metrics),'
                 ' latest_sample=kernel.metrics.latest_sample[:2]'
                 ' + ((),)),\n'),
        tests=("tests/test_service.py::"
               "test_mid_run_snapshot_restore_snapshot_is_the_identity",),
    ),
    Mutant(
        name="stale-patience-timeout-unguarded",
        path="src/repro/sched/scheduler.py",
        original="        if queue_round != task.queue_round:\n",
        mutated="        if False:\n",
        tests=("tests/test_faults.py::"
               "test_stale_patience_timeout_cannot_reject_a_restarted_task",),
    ),
    Mutant(
        name="relocation-keeps-the-dead-member",
        path="src/repro/sched/scheduler.py",
        original=('task.device = outcome.device if fate == "relocated" '
                  'else None'),
        mutated=('task.device = task.device if fate == "relocated" '
                 'else None'),
        tests=("tests/test_faults.py::"
               "test_service_member_death_journals_the_relocation",),
    ),
    Mutant(
        name="spec-check-loop-skips-an-axis",
        path="src/repro/campaign/spec.py",
        original="        for axis in AXES:\n",
        mutated="        for axis in AXES[:-1]:\n",
        tests=("tests/test_campaign.py::"
               "test_spec_validation_covers_every_axis",),
    ),
    Mutant(
        name="boolean-counts-accepted",
        path="src/repro/stack.py",
        original=("    if isinstance(value, bool) "
                  "or not isinstance(value, numbers.Integral):\n"),
        mutated="    if not isinstance(value, numbers.Integral):\n",
        tests=("tests/test_service_api.py::"
               "test_malformed_restore_config_is_a_400_that_keeps_the"
               "_service[boolean-fleet-size]",),
    ),
    Mutant(
        name="sparse-column-at-its-default",
        path="src/repro/campaign/spec.py",
        original="            if not AXIS[name].sparse\n",
        mutated=('            if not AXIS[name].sparse '
                 'or name == "faults"\n'),
        tests=("tests/test_campaign_exports.py",),
    ),
    Mutant(
        name="restore-skips-the-task-cross-check",
        path="src/repro/service/checkpoint.py",
        original="            if _task_id(row) not in ids:\n",
        mutated="            if _task_id(row) is None:\n",
        tests=("tests/test_service_api.py::"
               "test_malformed_snapshot_is_a_400_that_keeps_the_service",),
    ),
    Mutant(
        name="sample-without-on-sample",
        path="src/repro/sched/kernel.py",
        original="            self.on_sample()\n",
        mutated="            pass\n",
        tests=("tests/test_faults.py::"
               "test_one_telemetry_entry_per_kernel_sample",),
    ),
)


def snippet_problems(mutants) -> list[str]:
    """Mutants whose original snippet is not in its file exactly once."""
    problems = []
    for mutant in mutants:
        text = (ROOT / mutant.path).read_text()
        count = text.count(mutant.original)
        if count != 1:
            problems.append(f"{mutant.name}: original snippet occurs "
                            f"{count} times in {mutant.path}")
    return problems


def _copy_tree(into: Path) -> None:
    """Copy the program, its tests and the pytest config to ``into``."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in _COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def run_tests(tree: Path, tests) -> int | None:
    """pytest's exit status for ``tests`` in ``tree`` (None on a hang)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=_RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    """Check every snippet, the baseline, then each mutant; 0 when all
    mutants were killed."""
    problems = snippet_problems(MUTANTS)
    if problems:
        print("\n".join(problems))
        return 1
    tests = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        status = run_tests(clean, tests)
        if status != 0:
            print(f"baseline: the listed tests do not pass unmutated "
                  f"(pytest exit status {status})")
            return 1
        survivors = []
        for mutant in MUTANTS:
            tree = Path(scratch) / mutant.name
            _copy_tree(tree)
            target = tree / mutant.path
            target.write_text(target.read_text().replace(
                mutant.original, mutant.mutated))
            status = run_tests(tree, mutant.tests)
            verdict = {1: "killed", None: "hung"}.get(
                status, f"not tested (pytest exit status {status})")
            print(f"{mutant.name}: {verdict}")
            if status != 1:
                survivors.append(mutant.name)
            shutil.rmtree(tree)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: "
              f"{', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
