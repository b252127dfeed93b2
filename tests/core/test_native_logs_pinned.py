"""The native logs of the iterating and structural kernels are pinned.

``TestThreadSweepBuildsOnce`` pins the BFS/SSSP logs.  This digest
covers the rest of what the systems print: PageRank's iteration lines,
GraphMat's ``completed N iterations`` and phase block, and the five
structural kernels, for all five systems at two thread counts.  The
digests were computed at commit a1b4739, before the log writer and
parser were rebuilt from one table of formats per system.
"""

import hashlib

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment

RESULTS_SHA256 = (
    "c4270aff56b39c9a214cd63056080e24f754cf8e9f1514001dd27c5f74709976")
LOGS_SHA256 = (
    "93349b2908ca0909edd2e548f63d94174667acf7f2d57dfe86cd18acd244b007")


def test_structural_and_pagerank_logs_are_pinned(tmp_path):
    cfg = ExperimentConfig(
        output_dir=tmp_path, scale=8, n_roots=2, thread_counts=(1, 32),
        algorithms=("pagerank", "wcc", "cdlp", "lcc", "kcore", "mis",
                    "cc"))
    Experiment(cfg).run_all()
    logs = hashlib.sha256()
    for path in sorted((tmp_path / "logs").rglob("*.log")):
        logs.update(path.relative_to(tmp_path).as_posix().encode())
        logs.update(path.read_bytes())
    results = hashlib.sha256((tmp_path / "results.csv").read_bytes())
    assert (results.hexdigest(), logs.hexdigest()) == (RESULTS_SHA256,
                                                       LOGS_SHA256)
