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

MUTANTS = (
    Mutant(
        name="fleet-stamp-member-0",
        path="src/repro/sched/kernel.py",
        original="stamp = tuple(m.free_space.generation for m in members)",
        mutated="stamp = (members[0].free_space.generation,)",
        tests=tuple(f"{test}[{cell}]" for test in (_BUDGET, _ORACLE)
                    for cell in _FLEET_CELLS),
    ),
    Mutant(
        name="stamp-compared-once-per-drain",
        path="src/repro/sched/kernel.py",
        original="""\
        while len(self.queue):
            stamp = tuple(m.free_space.generation for m in members)
            if stamp != self._failed_stamp:
                self._failed_shapes.clear()
                self._failed_stamp = stamp
            self._prefetch()
""",
        mutated="""\
        stamp = tuple(m.free_space.generation for m in members)
        if stamp != self._failed_stamp:
            self._failed_shapes.clear()
            self._failed_stamp = stamp
        while len(self.queue):
            self._prefetch()
""",
        tests=(_BUDGET,),
    ),
    Mutant(
        name="failure-record-off",
        path="src/repro/sched/kernel.py",
        original="""\
                self._failed_shapes[item.height, item.width] = \\
                    outcome.dominant
""",
        mutated="""\
                pass
""",
        tests=(_BUDGET,),
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
        state["known"] = np.zeros(0, dtype=bool)
        state["extents"] = np.empty((0, 4), dtype=np.int64)
""",
        tests=(_BUDGET,),
    ),
    Mutant(
        name="negative-content-length-read",
        path="src/repro/service/api.py",
        original="                if length < 0:\n",
        mutated="                if False:\n",
        tests=("tests/test_service_api.py::"
               "test_negative_content_length_is_a_400",),
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
