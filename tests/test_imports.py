"""What a rank and the API load: no scipy.

Every spawned rank imports :mod:`repro.dist.runtime` on every run, and
scipy is a third of that import; the arc grouping and the ghost layout are
compiled, so only flow refinement, ``connected_components``,
``from_scipy``/``to_scipy`` and the delaunay generator import scipy, inside
the function.  Two checks hold that: the import of the API and a rank,
and no module-level ``import scipy`` / ``from scipy`` line in the package.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: a line that imports scipy at module level
MODULE_SCIPY = re.compile(r"^(import|from) scipy")
#: the file the rule leaves out
SCIPY_EXEMPT = "generators/delaunay.py"


def module_level_scipy_imports(package: Path) -> list[str]:
    """``path:line`` of every module-level scipy import under ``package``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        if relative == SCIPY_EXEMPT:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if MODULE_SCIPY.match(line):
                found.append(f"{relative}:{number}")
    return found


def test_ranks_and_the_api_import_no_scipy():
    code = (
        "import sys, repro.api, repro.dist.runtime, repro.dist.dist_partitioner\n"
        "bad = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not bad, bad\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert done.returncode == 0, done.stderr


def test_no_module_level_scipy_import():
    assert module_level_scipy_imports(SRC) == []


@pytest.mark.parametrize("planted", [
    "import scipy.sparse as sp", "from scipy import sparse",
])
def test_a_planted_module_level_scipy_import_is_found(planted, tmp_path):
    copy = tmp_path / "repro"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "graph" / "ops.py"
    text = target.read_text()
    # the same line inside a function is what the package does: allowed
    target.write_text(f"{planted}\n{text}\n\ndef _planted():\n    {planted}\n")
    assert module_level_scipy_imports(copy) == ["graph/ops.py:1"]
