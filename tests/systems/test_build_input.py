"""GAP, GraphBIG and PowerGraph build from the ``.g500`` dump exactly
what they built when each parsed its own text file.

Each system's load is priced from its native file's byte count (the
``.wel``, the GraphBIG CSV pair, the PowerGraph TSV) and built from
``HomogenizedDataset.load_edges``.  Here every ``_build`` runs twice,
once on those edges and once on the edges the text file parses to
(the readers the systems used before, now oracles in
``tests/datasets/text_formats.py``), and the two builds must agree
byte for byte: every stored array, the scalar metadata and the
``WorkProfile`` the load is priced from.
"""

import numpy as np
import pytest

from repro.datasets.homogenize import homogenize
from repro.graph.edgelist import EdgeList
from repro.systems import create_system
from tests.datasets.text_formats import (read_el, read_graphbig_csv,
                                         read_powergraph_tsv)
from tests.systems.test_sssp_goldens import DIRECTED9, UNDIRECTED7

#: The parse each system's ``_read_input`` did before it read the dump.
TEXT_READS = {
    "gap": lambda ds: read_el(ds.path("wel"), n_vertices=ds.n_vertices,
                              directed=ds.directed, name=ds.name),
    "graphbig": lambda ds: read_graphbig_csv(
        ds.path("graphbig"), directed=ds.directed, name=ds.name),
    "powergraph": lambda ds: read_powergraph_tsv(
        ds.path("tsv"), n_vertices=ds.n_vertices, directed=ds.directed,
        name=ds.name),
}

SYSTEMS = [("gap", {}), ("gap", {"weight_dtype": "int32"}),
           ("graphbig", {}), ("powergraph", {})]
GRAPHS = ["kron10", "patents_small", "dota_small", "directed9",
          "undirected7"]


@pytest.fixture(scope="module")
def datasets(kron10_dataset, patents_dataset, dota_dataset,
             tmp_path_factory):
    out = {"kron10": kron10_dataset, "patents_small": patents_dataset,
           "dota_small": dota_dataset}
    for name, n, directed, (src, dst, w) in (
            ("directed9", 9, True, DIRECTED9),
            ("undirected7", 7, False, UNDIRECTED7)):
        el = EdgeList(np.array(src), np.array(dst), n, weights=np.array(w),
                      directed=directed, name=name)
        out[name] = homogenize(el, tmp_path_factory.mktemp(name))
    return out


def _same_edges(a: EdgeList, b: EdgeList) -> None:
    assert (a.n_vertices, a.directed, a.name) == \
        (b.n_vertices, b.directed, b.name)
    for x, y in ((a.src, b.src), (a.dst, b.dst), (a.weights, b.weights)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize(
    "name, knobs", SYSTEMS,
    ids=["gap-float64", "gap-int32", "graphbig", "powergraph"])
def test_build_from_dump_equals_build_from_text(name, knobs, graph,
                                                datasets):
    dataset = datasets[graph]
    system = create_system(name, **knobs)
    assert system.read_key == "g500"
    dump, text = system._read_input(dataset), TEXT_READS[name](dataset)
    _same_edges(dump, text)

    got_arrays, got_meta, got_profile = system._build(dump, dataset)
    want_arrays, want_meta, want_profile = system._build(text, dataset)
    assert got_arrays.keys() == want_arrays.keys()
    for key, want in want_arrays.items():
        got = got_arrays[key]
        assert got.dtype == want.dtype and got.shape == want.shape, key
        assert got.tobytes() == want.tobytes(), key
    assert got_meta == want_meta
    for key, want in want_profile.to_arrays().items():
        assert got_profile.to_arrays()[key].tobytes() == want.tobytes()
    assert got_profile.serial_units == want_profile.serial_units
