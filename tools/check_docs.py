#!/usr/bin/env python3
"""Documentation gate: link check + executable doc examples + coverage.

Five checks over README.md, DESIGN.md and docs/*.md, all run by the CI
docs job:

1. **Relative links resolve.**  Every markdown link or inline-code
   reference to a repository path (``[text](docs/COMM.md)``,
   ```` `docs/RUNNER.md` ````) must point at an existing file or
   directory.  External ``http(s)://`` and anchor-only links are
   skipped.
2. **Fenced examples execute.**  Every ```` ```python ```` block whose
   body contains a ``>>>`` prompt is run through :mod:`doctest`, so the
   documented behaviour is re-verified on every commit.  Blocks without
   prompts are narrative and only checked for links.
3. **Every subsystem is documented.**  Each ``src/repro/<pkg>``
   subpackage must appear (as ``repro.<pkg>``) in README.md's
   Documentation index, so adding a package without a docs pointer
   fails the gate.
4. **The CLI reference matches the CLI.**  The fenced block following
   the ``<!-- cli-subcommands -->`` marker in docs/API.md must list
   exactly ``repro.experiments.cli.all_subcommands()`` (requires
   ``PYTHONPATH=src``), so the documented vocabulary cannot drift from
   the parser.
5. **Module references resolve.**  Every inline-code dotted reference
   into the package (```` `repro.perf.spans` ````, ```` `repro.perf.PERF`
   ````, optionally called) must import as a module or resolve as an
   attribute of one (requires ``PYTHONPATH=src``), so deleting or
   renaming a module cannot leave a stale pointer behind.

Exit status is non-zero on any failure.

Usage::

    PYTHONPATH=src python tools/check_docs.py [file.md ...]
"""

from __future__ import annotations

import doctest
import importlib
import pathlib
import re
import sys
from typing import Iterable, List, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``[text](target)`` markdown links.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: Inline code spans that look like repo-relative paths to checked docs.
CODE_PATH = re.compile(r"`((?:docs|examples|tools|src|tests|benchmarks)/[\w./-]+|"
                       r"[A-Z][A-Z_]+\.md)`")
#: Fenced code blocks: ```lang\n ... \n```
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)
#: Inline code spans naming a module or attribute: `repro.a.b` or `repro.a.f()`.
MODULE_REF = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")


def default_files() -> List[pathlib.Path]:
    files = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return files


def iter_link_targets(text: str) -> Iterable[str]:
    for match in MD_LINK.finditer(text):
        yield match.group(1)
    for match in CODE_PATH.finditer(text):
        yield match.group(1)


def check_links(path: pathlib.Path, text: str) -> List[str]:
    problems = []
    for target in iter_link_targets(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        in_repo = (REPO_ROOT / relative).resolve()
        if not (resolved.exists() or in_repo.exists()):
            problems.append(f"{path.relative_to(REPO_ROOT)}: broken link -> {target}")
    return problems


def doctest_blocks(path: pathlib.Path, text: str) -> Tuple[int, List[str]]:
    """Run every ``>>>``-bearing python fence; returns (blocks_run, problems)."""
    problems = []
    run = 0
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
    for index, match in enumerate(FENCE.finditer(text)):
        lang, body = match.group(1), match.group(2)
        if lang != "python" or ">>>" not in body:
            continue
        run += 1
        name = f"{path.name}[block {index}]"
        test = parser.get_doctest(body, {}, name, str(path), 0)
        result = runner.run(test, clear_globs=True)
        if result.failed:
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: {result.failed} doctest "
                f"failure(s) in fenced block {index}"
            )
    return run, problems


def resolves(reference: str) -> bool:
    """Whether ``reference`` is an importable module or an attribute path
    under the longest importable prefix of it."""
    parts = reference.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def check_module_references(path: pathlib.Path, text: str) -> List[str]:
    """Every inline-code ``repro.…`` reference names something real."""
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    return [
        f"{path.relative_to(REPO_ROOT)}: stale module reference -> {ref}"
        for ref in sorted({m.group(1) for m in MODULE_REF.finditer(text)})
        if not resolves(ref)
    ]


def check_subsystem_index() -> List[str]:
    """Every ``src/repro/*`` subpackage appears in README's docs index."""
    readme = (REPO_ROOT / "README.md").read_text()
    problems = []
    for init in sorted((REPO_ROOT / "src" / "repro").glob("*/__init__.py")):
        package = f"repro.{init.parent.name}"
        if f"`{package}`" not in readme:
            problems.append(
                f"README.md: subpackage {package} missing from the "
                f"Documentation index"
            )
    return problems


def check_cli_reference() -> List[str]:
    """docs/API.md's marked CLI block matches ``all_subcommands()``."""
    text = (REPO_ROOT / "docs" / "API.md").read_text()
    marker = "<!-- cli-subcommands -->"
    at = text.find(marker)
    if at < 0:
        return [f"docs/API.md: missing the {marker} marker"]
    fence = FENCE.search(text, at)
    if fence is None:
        return [f"docs/API.md: no fenced block after the {marker} marker"]
    documented = set(fence.group(2).split())
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.experiments.cli import all_subcommands
    except ImportError as exc:  # pragma: no cover - needs PYTHONPATH=src
        return [f"docs/API.md: cannot import repro to verify CLI list ({exc})"]
    actual = set(all_subcommands())
    problems = []
    for name in sorted(actual - documented):
        problems.append(f"docs/API.md: CLI subcommand {name!r} undocumented")
    for name in sorted(documented - actual):
        problems.append(
            f"docs/API.md: documented subcommand {name!r} does not exist"
        )
    return problems


def main(argv: List[str]) -> int:
    files = [pathlib.Path(a).resolve() for a in argv] or default_files()
    problems: List[str] = []
    total_blocks = 0
    for path in files:
        text = path.read_text()
        problems.extend(check_links(path, text))
        problems.extend(check_module_references(path, text))
        run, block_problems = doctest_blocks(path, text)
        total_blocks += run
        problems.extend(block_problems)
        status = "FAIL" if block_problems else "ok"
        print(f"{path.relative_to(REPO_ROOT)}: {run} doctest block(s) [{status}]")
    if not argv:  # repo-wide coverage checks only on the default file set
        problems.extend(check_subsystem_index())
        problems.extend(check_cli_reference())
    if problems:
        print()
        for problem in problems:
            print(f"ERROR: {problem}")
        return 1
    print(f"\nall links and module references resolve, {total_blocks} "
          f"doctest block(s) pass, docs index and CLI reference complete")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
