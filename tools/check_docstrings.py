#!/usr/bin/env python3
"""Docstring-coverage and documentation dead-link checks.

**Docstring mode** (the default) walks the given packages (default:
``repro.campaign``, ``repro.sched``, ``repro.fleet``,
``repro.service``, ``repro.faults`` and the axis table
``repro.stack``) and reports every public
module, class, function and method that lacks a docstring.  Exits
non-zero when anything is missing, so CI can gate on it::

    python tools/check_docstrings.py                 # default packages
    python tools/check_docstrings.py src/repro       # whole tree
    python tools/check_docstrings.py --min-coverage 100 src/repro/core

"Public" means the name does not start with an underscore (dunders other
than ``__init__`` are ignored; ``__init__`` inherits its class's
docstring requirement and is exempt itself).  Nested definitions inside
functions are skipped — they are implementation detail.

**Doc-link mode** (``--check-doc-links`` / ``--covers-packages``,
which replaces the docstring walk) keeps the narrative docs honest
against the tree::

    python tools/check_docstrings.py \\
        --check-doc-links docs/architecture.md docs/paper_mapping.md \\
        --covers-packages docs/paper_mapping.md

``--check-doc-links`` verifies that every dotted ``repro.*`` name
mentioned in the files resolves to a module/package on disk (trailing
``CamelCase``/attribute parts after a module are allowed), and that
every backticked repo path (a token with a ``/`` and a known extension,
or a root-level ``BENCH_*.json``) exists.  ``--covers-packages`` adds
the coverage direction: every top-level package under ``src/repro``
must be mentioned in the given file.  Run from the repo root.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

DEFAULT_TARGETS = ("src/repro/campaign", "src/repro/sched",
                   "src/repro/fleet", "src/repro/service",
                   "src/repro/faults", "src/repro/stack.py")

#: Dotted repro.* names in prose or backticks.
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
#: Backticked tokens that look like repo paths.
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]+\.(py|json|md|csv|ini|yml)$")


def is_public(name: str) -> bool:
    """True for names that belong to the public API surface."""
    return not name.startswith("_")


def iter_definitions(tree: ast.Module):
    """Yield ``(qualname, node)`` for every public def/class at module
    and class level (function bodies are not descended into)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            if not is_public(node.name):
                continue
            yield node.name, node
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    if is_public(child.name):
                        yield f"{node.name}.{child.name}", child


def check_file(path: Path) -> tuple[list[str], int]:
    """Return (missing entries, total checked) for one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing: list[str] = []
    total = 1  # the module itself
    if ast.get_docstring(tree) is None:
        missing.append(f"{path}:1 module")
    for qualname, node in iter_definitions(tree):
        total += 1
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "def"
            missing.append(f"{path}:{node.lineno} {kind} {qualname}")
    return missing, total


def collect_files(targets: list[str]) -> list[Path]:
    """Expand target files/directories into a sorted .py file list."""
    files: list[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise SystemExit(f"not a python file or directory: {target}")
    return files


def module_exists(dotted: str, src: Path = Path("src")) -> bool:
    """True when a dotted ``repro.*`` name resolves on disk.

    Walks the parts after ``repro`` through package directories.  When
    a part names a module file, the *next* part (if any) must be one of
    that module's top-level names — a renamed class rots the link even
    though the module survives; deeper parts (methods, attributes of
    attributes) are not checked.  A part that is neither a subpackage
    nor a module must be a top-level name of the package's
    ``__init__.py`` — a re-exported function like
    ``repro.fleet.make_device_policy`` is a live link, a word that
    merely appears in prose is not.
    """
    parts = dotted.split(".")
    base = src / parts[0]
    if not base.is_dir():
        return False
    for index, part in enumerate(parts[1:], start=1):
        if (base / part).is_dir():
            base = base / part
            continue
        module = base / f"{part}.py"
        if module.is_file():
            rest = parts[index + 1:]
            return not rest or rest[0] in _module_names(module)
        return part in _module_names(base / "__init__.py")
    return True


def _module_names(path: Path) -> set[str]:
    """Top-level names a module binds (defs, classes, assignments,
    imports) — the attribute surface a doc may link to.  An AST walk,
    not a text grep: a word appearing only in prose or a docstring
    must not validate a dead reference."""
    if not path.is_file():
        return set()
    names: set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets
                         if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0]
                for alias in node.names
            )
    return names


def doc_path_tokens(text: str) -> list[str]:
    """Backticked tokens of ``text`` that claim to be repo paths."""
    out = []
    for token in BACKTICK_RE.findall(text):
        if "*" in token or "<" in token or " " in token:
            continue
        if not PATH_RE.match(token):
            continue
        if "/" in token or token.startswith("BENCH_"):
            out.append(token)
    return out


def check_doc_links(paths: list[str]) -> list[str]:
    """Dead dotted names / missing paths in the given markdown files."""
    problems: list[str] = []
    for doc in paths:
        text = Path(doc).read_text()
        for dotted in sorted(set(DOTTED_RE.findall(text))):
            if not module_exists(dotted):
                problems.append(f"{doc}: dead module reference {dotted}")
        for token in sorted(set(doc_path_tokens(text))):
            if not Path(token).exists():
                problems.append(f"{doc}: missing path {token}")
    return problems


def check_package_coverage(doc: str, src: Path = Path("src")) -> list[str]:
    """Top-level ``src/repro`` packages the given file never mentions."""
    text = Path(doc).read_text()
    problems: list[str] = []
    for package in sorted(p.name for p in (src / "repro").iterdir()
                          if p.is_dir() and (p / "__init__.py").exists()):
        if f"repro.{package}" not in text:
            problems.append(
                f"{doc}: top-level package repro.{package} is not covered"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="*", default=list(DEFAULT_TARGETS),
                        help="files or package directories to check")
    parser.add_argument("--min-coverage", type=float, default=100.0,
                        metavar="PCT",
                        help="fail below this coverage percentage")
    parser.add_argument("--check-doc-links", nargs="+", metavar="DOC",
                        default=None,
                        help="markdown files whose repro.* names and "
                             "backticked paths must exist on disk "
                             "(replaces the docstring walk)")
    parser.add_argument("--covers-packages", metavar="DOC", default=None,
                        help="markdown file that must mention every "
                             "top-level src/repro package")
    args = parser.parse_args(argv)

    if args.check_doc_links or args.covers_packages:
        problems = check_doc_links(args.check_doc_links or [])
        if args.covers_packages:
            problems += check_package_coverage(args.covers_packages)
        for problem in problems:
            print(problem)
        checked = len(args.check_doc_links or [])
        print(f"doc-link gate: {checked} file(s) checked, "
              f"{len(problems)} problem(s)")
        return 1 if problems else 0

    all_missing: list[str] = []
    total = 0
    for path in collect_files(args.targets):
        missing, checked = check_file(path)
        all_missing.extend(missing)
        total += checked

    covered = total - len(all_missing)
    coverage = 100.0 * covered / total if total else 100.0
    for entry in all_missing:
        print(f"missing docstring: {entry}")
    print(f"docstring coverage: {covered}/{total} ({coverage:.1f} %)")
    if coverage < args.min_coverage:
        print(f"FAIL: below required {args.min_coverage:.1f} %")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
