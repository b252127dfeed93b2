"""``epg`` starts without ``scipy.sparse.csgraph``.

Only the two reference oracles use csgraph
(:func:`~repro.algorithms.wcc.weakly_connected_components` and
:func:`~repro.algorithms.sssp.sssp_dijkstra`), and importing it also
imports ``scipy.sparse.linalg`` and ``scipy.linalg``.  Both functions
import it themselves, so a command that never validates against an
oracle (``epg serve``, ``epg parse``, ...) does not pay for it at
start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("scipy.sparse.csgraph", "scipy.linalg")


def test_cli_import_leaves_csgraph_and_linalg_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro.cli; "
         f"print(json.dumps([m for m in {list(HEAVY)!r} "
         "if m in sys.modules]))"],
        capture_output=True, env=env, timeout=120, check=True)
    assert json.loads(done.stdout) == []
