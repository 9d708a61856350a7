"""The runtime needs only the standard library.

The simulator, the service, the CLI and the benchmark's workloads must
import without any third-party package: importing networkx alone costs
a process about 20 MB of resident memory, more than the simulator's own
modules.  Tests may use third-party packages (pytest, hypothesis, and
networkx as a reference); ``src/`` may not.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Packages the runtime once imported, or that tests use as references.
_HEAVY = ("networkx", "numpy", "scipy")


def test_entry_points_import_no_third_party_package():
    script = (
        "import sys\n"
        "import repro, repro.service.server, repro.experiments.cli\n"
        "import perfbench.workloads\n"
        f"print(','.join(m for m in {_HEAVY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(REPO)]))
    out = subprocess.run([sys.executable, "-c", script], cwd=REPO, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == ""


def test_src_imports_only_the_standard_library():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, []).append(path.relative_to(REPO).as_posix())
    assert found == {}


def test_pyproject_lists_no_runtime_dependency():
    text = (REPO / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
