"""The documentation dead-link gate, run as part of tier-1.

``tools/check_docstrings.py --check-doc-links`` verifies that every
dotted ``repro.*`` name and backticked repo path in the narrative docs
exists on disk, and ``--covers-packages`` that ``docs/paper_mapping.md``
mentions every top-level ``src/repro`` package.  CI runs the script;
this suite runs the same checks in-process so a renamed module or a
new package that the docs miss turns tier-1 red locally too.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
GATED_DOCS = ("docs/architecture.md", "docs/paper_mapping.md",
              "docs/service.md", "README.md", "examples/README.md",
              "benchmarks/README.md")


@pytest.fixture(scope="module")
def gate():
    """The checker module, loaded from tools/ (not a package)."""
    spec = importlib.util.spec_from_file_location(
        "check_docstrings", REPO_ROOT / "tools" / "check_docstrings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    """The gate resolves paths relative to the repo root, as in CI."""
    monkeypatch.chdir(REPO_ROOT)


def test_docs_name_only_modules_that_exist(gate):
    problems = gate.check_doc_links([str(REPO_ROOT / d)
                                     for d in GATED_DOCS])
    assert problems == []


def test_paper_mapping_covers_every_top_level_package(gate):
    problems = gate.check_package_coverage(
        str(REPO_ROOT / "docs" / "paper_mapping.md")
    )
    assert problems == []


def test_gate_detects_dead_references(gate, tmp_path):
    """The gate genuinely fails on rot (guards the guard)."""
    bad = tmp_path / "bad.md"
    bad.write_text(
        "uses `repro.sched.wormhole` and `tests/no_such_file.py` "
        "and `repro.teleport.Engine`\n"
    )
    problems = gate.check_doc_links([str(bad)])
    assert len(problems) == 3
    assert not gate.module_exists("repro.sched.wormhole")
    assert gate.module_exists("repro.sched.kernel.SchedulingKernel")
    # A lower-case function re-exported by a package __init__ is a
    # live link, not a dead one...
    assert gate.module_exists("repro.fleet.make_device_policy")
    assert gate.module_exists("repro.campaign.run_scenario")
    # ... but a word that merely appears in the __init__ prose is not:
    # resolution reads the bound names (AST), never the text.
    assert not gate.module_exists("repro.campaign.run")
    assert not gate.module_exists("repro.sched.the")
    assert not gate.module_exists("repro.fleet.devices")
    # A class renamed away from a surviving module rots the link too.
    assert gate.module_exists("repro.fleet.manager.FleetManager")
    assert not gate.module_exists("repro.fleet.manager.NoSuchClass")
    assert gate.module_exists(
        "repro.core.manager.LogicSpaceManager.maybe_defrag"
    )


def test_coverage_check_notices_a_missing_package(gate, tmp_path):
    partial = tmp_path / "partial.md"
    partial.write_text("only repro.device and repro.netlist here\n")
    problems = gate.check_package_coverage(str(partial))
    assert any("repro.fleet" in p for p in problems)
    assert any("repro.campaign" in p for p in problems)
