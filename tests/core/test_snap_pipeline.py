"""End-to-end pipeline on a user-supplied SNAP file.

The paper's selling point: "any network in the SNAP data format can be
used in easy-parallel-graph-*" (Sec. III-B).  This test writes a SNAP
file from scratch and drives the full five phases over it.
"""

import numpy as np
import pytest

from repro.core.config import ExperimentConfig
from repro.core.experiment import Experiment
from repro.graph.edgelist import EdgeList
from tests.datasets.test_snap import write_snap


@pytest.fixture(scope="module")
def snap_file(tmp_path_factory):
    rng = np.random.default_rng(11)
    n, m = 300, 1800
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    el = EdgeList(src[keep], dst[keep], n, directed=True,
                  name="user-graph")
    return write_snap(el, tmp_path_factory.mktemp("snap")
                      / "user-graph.txt")


@pytest.fixture(scope="module")
def snap_analysis(snap_file, tmp_path_factory):
    cfg = ExperimentConfig(
        output_dir=tmp_path_factory.mktemp("snap-exp"),
        dataset="snap-file", snap_path=snap_file, n_roots=4,
        algorithms=("bfs", "sssp", "pagerank"))
    return Experiment(cfg).run_all()


def test_all_capable_systems_ran(snap_analysis):
    systems = snap_analysis.systems()
    # Graph500 refuses non-Kronecker datasets; everyone else runs.
    assert "graph500" not in systems
    assert {"gap", "graphbig", "graphmat", "powergraph"} <= set(systems)


def test_sssp_ran_via_generated_weights(snap_analysis):
    """The SNAP file is unweighted; EPG* homogenization attaches
    uniform weights so SSSP still runs (unlike Graphalytics)."""
    box = snap_analysis.box("time")
    assert any(k[1] == "sssp" for k in box)


def test_results_reference_the_user_dataset(snap_analysis):
    assert snap_analysis.datasets() == ["user-graph"]


def test_cross_system_agreement_on_user_graph(snap_file, tmp_path):
    """BFS levels agree across systems on the user's own graph."""
    from repro.datasets.homogenize import homogenize
    from repro.datasets.snap import read_snap
    from repro.systems import create_system

    el = read_snap(snap_file, directed=True)
    dataset = homogenize(el, tmp_path, n_roots=2)
    root = int(dataset.roots[0])
    levels = {}
    for name in ("gap", "graphbig", "graphmat"):
        s = create_system(name)
        loaded = s.load(dataset)
        levels[name] = s.run(loaded, "bfs", root=root).output["level"]
    assert np.array_equal(levels["gap"], levels["graphbig"])
    assert np.array_equal(levels["gap"], levels["graphmat"])


@pytest.mark.parametrize("stem, dataset", [("my graph", "my_graph"),
                                           ("a,b", "a_b")])
def test_file_name_the_logs_and_csv_cannot_carry(snap_file, tmp_path,
                                                 stem, dataset):
    """A space breaks the log header, a comma the CSV row: the dataset
    is named after the stem with such runs replaced, and every phase
    reads back what the run wrote."""
    path = tmp_path / f"{stem}.txt"
    path.write_bytes(snap_file.read_bytes())
    out = tmp_path / "out"
    cfg = ExperimentConfig(
        output_dir=out, dataset="snap-file", snap_path=path, n_roots=2,
        systems=("gap", "graphmat"), algorithms=("bfs", "pagerank"))
    exp = Experiment(cfg)
    assert exp.run_all().datasets() == [dataset]
    assert not exp.parse_problems
    records = Experiment.load_csv(out / "results.csv")
    assert {r.dataset for r in records} == {dataset}
    assert {r.system for r in records} == {"gap", "graphmat"}
