"""Byte goldens for every file ``homogenize`` writes.

The text writers format rows themselves (chunked ``fmt % row``) and
``homogenize`` re-delimits the ``.wel`` bytes into the TSV and the
GraphBIG CSV; the contract is that no byte differs from the
``np.savetxt`` output the digests below were pinned from (commit
2af891b, before the writers changed).  ``np.savetxt`` stays here, typed
out the way the old writers called it, as the oracle for generated
edge lists.
"""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import formats
from repro.datasets.homogenize import homogenize
from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.datasets.realworld import cit_patents
from repro.errors import DatasetError
from repro.graph.edgelist import EdgeList
from tests.datasets import text_formats
from tests.datasets.test_snap import write_snap

# 1e300 does not fit GraphMat's float32 record; the .mtxbin stores inf.
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered in cast:RuntimeWarning")

#: Weights whose shortest round-trip text needs all 17 digits, is
#: denormal, or is an integer stored as a float.
_STRESS_WEIGHTS = (0.1, 1e-320, 1e300, 5e-324, 3.0, 1e16, 123456789.0,
                   2.0 ** 53, 1.0 / 3.0, 0.30000000000000004)


def _ring(n, weights=None, directed=False, name="ring"):
    src = np.arange(n)
    return EdgeList(src, (src + 1) % n, n, weights=weights,
                    directed=directed, name=name)


def _cases():
    empty = np.zeros(0, dtype=np.int64)
    return {
        "kron8": generate_kronecker(KroneckerSpec(scale=8, weighted=True)),
        "patents": cit_patents(1.0 / 2048.0),
        "empty": EdgeList(empty, empty, 3, directed=False, name="empty"),
        "one_edge": EdgeList([0], [1], 2, weights=[0.5], directed=True,
                             name="one"),
        "stress": _ring(len(_STRESS_WEIGHTS),
                        weights=np.array(_STRESS_WEIGHTS), name="stress"),
    }


def _tree_digests(edges, out_dir):
    """``{relative path: sha256}`` of every file under the dataset dir.

    The two degenerate inputs have no vertex of degree > 1, so root
    selection refuses them -- after all five formats are on disk,
    which is the part pinned here.
    """
    try:
        homogenize(edges, out_dir, n_roots=4)
    except DatasetError:
        assert edges.n_edges <= 1
    ddir = out_dir / edges.name
    return {p.relative_to(ddir).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(ddir.rglob("*")) if p.is_file()}


#: Pinned from commit 2af891b (``np.savetxt`` writers, ``lexsort`` CSR).
#: The ``manifest.json`` rows were re-pinned when the unread ``.el`` and
#: ``.sg`` files left the tree, and again when the ``.wsg`` did: each is
#: the old manifest minus those ``files`` entries, byte for byte.
GOLDEN = {
    "empty": {
        "empty.g500":
            "dfaa8e303f6b4680f8720ceb98b66ab9e1bcfc93f19fdc34192e24cf2a475110",
        "empty.mtxbin":
            "2151b55db513cb1ef8e343aa3a3e25346ec0d1ce85b6868ee5ade2d546e5422e",
        "empty.tsv":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "empty.wel":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "graphbig/edge.csv":
            "79fba3dc264dd8355eb0ab135433439769fcd01a92b67b3afb15b66aab334810",
        "graphbig/vertex.csv":
            "361ac252fdbee0f8d170fc8af14cf4c03691d8c9e94a3872a4a2123c58d34f37",
    },
    "kron8": {
        "graphbig/edge.csv":
            "27016225bfe96b9af35be85a6c0a4ee184bbd174537c93579ff07363dffdf517",
        "graphbig/vertex.csv":
            "21fc72c684cc4fc6bbf9a699d94c47efedd1d3b4505af53d29d1a27f8d49c40c",
        "kron-scale8.g500":
            "ed4ea18308ee08780d940d7b450d20bf2937f4a7f3024acf996e94682d771bba",
        "kron-scale8.mtxbin":
            "e4395305aaeb3cf42a96deff7b27cec836859a8ce4a00a435b2a74a779c25f8f",
        "kron-scale8.tsv":
            "b26e89da3281e4fc4d5464dfb78e9ec423ee0de70a27556a534b8c4a72bd0239",
        "kron-scale8.wel":
            "73a0a9e4d3158fbd629cc766a058b3925594c62b0a2e4657b2a3993cf0b8f01d",
        "manifest.json":
            "0293c1c8b2f1a87b4f229276797174de3a280d373db97a1d2410d07218285c6d",
        "roots.txt":
            "81b6ea78e9277808ee919dd4e5c2958e8c7e5e719c7ed83992c24aff3b6b0675",
    },
    "one_edge": {
        "graphbig/edge.csv":
            "d51c64afbd142a1bdb12abd663b3921ca56908ec0bea77ac1870bbd8438cab05",
        "graphbig/vertex.csv":
            "71c12f00c9ddee9c92f283104eaf3f95bc0a19fe2747b8326daafddd04a8189a",
        "one.g500":
            "ceff0c1ddcfcbe6be5ddb9a99283f321bd744e6f96a2f8f6dfa51e1aea8072bf",
        "one.mtxbin":
            "38ede9a5712e1401c8a04989bd5a3e2c9497d903f22dbfae83b0fafe7881f1d6",
        "one.tsv":
            "380539a3bd70af7934826d8838040735f645ee7578ecc4813f9284b4c11d7e8a",
        "one.wel":
            "e4f3de5ab028859bac29cf7e71dbe43f1125bd3200deb7279454d071d7a4311f",
    },
    "patents": {
        "cit-Patents.g500":
            "240d405190abd25212eae053712375a2e631735c77e0602ab9723f53c9f6dc29",
        "cit-Patents.mtxbin":
            "695954f51b528d20e3c19462e1fd359b41d70b85e0ddbd591b5a269173115ead",
        "cit-Patents.tsv":
            "23c0c8f9b8e10d76c5c3730c0eb88bf1a158402a9a109deda6eb14891a866a67",
        "cit-Patents.wel":
            "fd39c77c267e2730ce1133c6253ceb95a31a836d53790d74ef3e62475bde2296",
        "graphbig/edge.csv":
            "bbfbb5937bd2a1516d7ba52a275755d6d686d212d13c4a67d66b39ad9703a768",
        "graphbig/vertex.csv":
            "fe05420141921fa49a0be1822a0f98b79339485db5ec95a118f8dd1259f0e9f0",
        "manifest.json":
            "bde5586e738068c37221b733bd1f8ed0a099ac043b7ea9e437d17615a09f97bd",
        "roots.txt":
            "dd297fcc47c1e5326cbcf1e24d983adf48d52bece441730ed7312b86cca8c1a5",
    },
    "stress": {
        "graphbig/edge.csv":
            "428d552a4fe6303685cac77bfd5ad5eed47ee8f387fd95d3efd3c4c0e3172922",
        "graphbig/vertex.csv":
            "84af90e34bf4397b70dcd44da60cf8fdfbf19ddeca86ecb2d3399bb2c06e0940",
        "manifest.json":
            "0a5930fb83d46378bac7e90247cb5fd52cf65e04a2f6cf08376b836d55ba5886",
        "roots.txt":
            "f576a94eabb7ebc0c5f09aa414b27e0e4c89dbd2970b1be72455f3f63878091e",
        "stress.g500":
            "d6185b1b2ddebe44140abb85f5f62410b4bdd87ad57534bc3f3cc623ca43032b",
        "stress.mtxbin":
            "df0b279bba7af1f40a3ab15ca363867399f83bee227373945744d132516dc7e4",
        "stress.tsv":
            "f35157cfd58ba0c23537bf2b52e81e17fa5dfa6607b145c6ad96dc7ff8a75903",
        "stress.wel":
            "23c1203a1b700596cb051fb7309b50842236fe3a497e15dd4f164b8066978447",
    },
}


@pytest.mark.parametrize("case", sorted(_cases()))
def test_homogenized_tree_matches_parent_digests(case, tmp_path):
    assert _tree_digests(_cases()[case], tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", ["kron8", "patents", "stress"])
def test_translation_crosses_block_and_chunk_boundaries(case, tmp_path,
                                                        monkeypatch):
    """Same digests when a row chunk is 3 rows and a translate block is
    7 bytes: no boundary may split or duplicate a byte."""
    monkeypatch.setattr(formats, "_ROW_CHUNK", 3)
    monkeypatch.setattr(formats, "_TRANSLATE_BLOCK", 7)
    assert _tree_digests(_cases()[case], tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("case", ["kron8", "patents", "stress"])
def test_standalone_writers_equal_homogenize_derived_files(case, tmp_path):
    """``write_powergraph_tsv`` / ``write_graphbig_csv`` called on their
    own (formatting, not translating) produce the files ``homogenize``
    derives from the ``.wel``."""
    edges = _cases()[case]
    ds = homogenize(edges, tmp_path / "h", n_roots=4)
    weighted = text_formats.read_el(ds.path("wel"), n_vertices=ds.n_vertices)
    tsv = formats.write_powergraph_tsv(weighted, tmp_path / "s" / "g.tsv")
    big = formats.write_graphbig_csv(weighted, tmp_path / "s" / "graphbig")
    assert tsv.read_bytes() == ds.path("tsv").read_bytes()
    for name in ("vertex.csv", "edge.csv"):
        assert ((big / name).read_bytes()
                == (ds.path("graphbig") / name).read_bytes())


def test_each_format_keeps_its_write_span_in_writer_order(tmp_path):
    from repro.observability import Tracer
    from repro.observability.export import read_events

    tracer = Tracer(tmp_path / "trace")
    ds = homogenize(_cases()["kron8"], tmp_path / "d", n_roots=4,
                    tracer=tracer)
    tracer.close()
    names = [ev["name"] for ev in read_events(tracer.path)
             if ev.get("type") == "span"]
    # The manifest lists the files in write order, roots.txt last.
    assert list(ds.files)[-1] == "roots"
    assert names == [f"write:{key}" for key in list(ds.files)[:-1]]


# ----------------------------------------------------------------------
# np.savetxt, called the way the parent's writers called it.
# ----------------------------------------------------------------------
def _savetxt_edges(edges, sep):
    buf = io.StringIO()
    if edges.weighted:
        cols = np.column_stack([
            edges.src.astype(np.float64), edges.dst.astype(np.float64),
            edges.weights])
        np.savetxt(buf, cols, fmt=sep.join(["%d", "%d", "%.17g"]))
    else:
        np.savetxt(buf, np.column_stack([edges.src, edges.dst]),
                   fmt=sep.join(["%d", "%d"]))
    return buf.getvalue().encode()


def _savetxt_vertices(n):
    buf = io.StringIO()
    np.savetxt(buf, np.arange(n, dtype=np.int64), fmt="%d")
    return b"id\n" + buf.getvalue().encode()


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 60))
    ids = st.integers(0, n - 1)
    src = draw(st.lists(ids, min_size=m, max_size=m))
    dst = draw(st.lists(ids, min_size=m, max_size=m))
    weights = None
    if draw(st.booleans()):
        weights = draw(st.lists(
            st.one_of(st.sampled_from(_STRESS_WEIGHTS),
                      st.floats()),
            min_size=m, max_size=m))
    return EdgeList(src, dst, n, weights=weights, name="h")


@given(edges=edge_lists(), chunk=st.integers(1, 70))
@settings(max_examples=60, deadline=None)
def test_text_writers_equal_savetxt(tmp_path_factory, edges, chunk):
    tmp = tmp_path_factory.mktemp("fmt")
    saved = formats._ROW_CHUNK
    formats._ROW_CHUNK = chunk
    try:
        el = formats.write_el(edges, tmp / "g.wel")
        tsv = formats.write_powergraph_tsv(edges, tmp / "g.tsv")
        tsv_t = formats.write_powergraph_tsv(edges, tmp / "t.tsv",
                                             from_el=el)
        big = formats.write_graphbig_csv(edges, tmp / "big")
        big_t = formats.write_graphbig_csv(edges, tmp / "big_t", from_el=el)
        snap = write_snap(edges, tmp / "snap.txt", comments=("\u00e9",))
    finally:
        formats._ROW_CHUNK = saved
    assert snap.read_bytes() == (
        f"# Nodes: {edges.n_vertices} Edges: {edges.n_edges}\n"
        "# Directed\n# \u00e9\n").encode() + _savetxt_edges(edges, "\t")
    header = b"src,dst,weight\n" if edges.weighted else b"src,dst\n"
    assert el.read_bytes() == _savetxt_edges(edges, " ")
    assert tsv.read_bytes() == tsv_t.read_bytes() \
        == _savetxt_edges(edges, "\t")
    for d in (big, big_t):
        assert (d / "edge.csv").read_bytes() \
            == header + _savetxt_edges(edges, ",")
        assert (d / "vertex.csv").read_bytes() \
            == _savetxt_vertices(edges.n_vertices)
