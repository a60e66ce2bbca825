"""What a rank and the API load: no scipy.

The fork server of the process ranks preloads :mod:`repro.dist.runtime`
and :mod:`repro.dist.dist_partitioner`, and scipy would be a third of
that import; the arc grouping and the ghost layout are
compiled, so only flow refinement, ``connected_components``,
``from_scipy``/``to_scipy`` and the delaunay generator import scipy, inside
the function.  The import of the API and a rank is checked here; that no
module-level ``import scipy`` / ``from scipy`` line is left in the package
is a rule of ``tests/test_structure.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys


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

