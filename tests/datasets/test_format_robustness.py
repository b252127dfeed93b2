"""Corrupted / truncated file handling for the binary formats.

``load_edges`` is a case of its own: it reads a homogenized dataset's
``.g500`` dump, the file GAP, GraphBIG and PowerGraph build from, and
also checks the dump's header against the dataset's manifest.
"""

import shutil

import pytest

from repro.datasets import formats
from repro.datasets.homogenize import load_manifest
from repro.errors import GraphFormatError
from repro.graph.edgelist import EdgeList


@pytest.fixture
def cases(tmp_path, kron10, kron10_dataset):
    """key -> (file, the reader that opens it)."""
    shutil.copytree(kron10_dataset.directory, tmp_path / "h")
    dataset = load_manifest(tmp_path / "h")
    return {
        "g500": (formats.write_g500(kron10, tmp_path / "g.g500"),
                 formats.read_g500),
        "mtxbin": (formats.write_graphmat_bin(kron10,
                                              tmp_path / "g.mtxbin"),
                   formats.read_graphmat_bin),
        "load_edges": (dataset.path("g500"),
                       lambda path: dataset.load_edges()),
    }


KEYS = ["g500", "load_edges", "mtxbin"]


@pytest.mark.parametrize("key", KEYS)
def test_truncated_body_detected(cases, key):
    path, read = cases[key]
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(GraphFormatError):
        read(path)


@pytest.mark.parametrize("key", KEYS)
def test_truncated_header_detected(cases, key):
    path, read = cases[key]
    path.write_bytes(path.read_bytes()[:12])
    with pytest.raises(GraphFormatError):
        read(path)


@pytest.mark.parametrize("key", KEYS)
def test_negative_counts_detected(cases, key):
    path, read = cases[key]
    data = bytearray(path.read_bytes())
    # Corrupt the n_vertices field (bytes 8..16) to a negative value.
    data[8:16] = (-5).to_bytes(8, "little", signed=True)
    path.write_bytes(bytes(data))
    with pytest.raises(GraphFormatError):
        read(path)


@pytest.mark.parametrize("extra", [1, 8, 100])
@pytest.mark.parametrize("key", KEYS)
def test_trailing_bytes_detected(cases, key, extra):
    path, read = cases[key]
    path.write_bytes(path.read_bytes() + b"\0" * extra)
    with pytest.raises(GraphFormatError, match="after the last"):
        read(path)


@pytest.mark.parametrize("field", ["n", "m"])
def test_dump_disagreeing_with_manifest_detected(cases, kron10, field):
    """A well-formed dump whose header is not the manifest's graph."""
    path, read = cases["load_edges"]
    if field == "n":
        other = EdgeList(kron10.src, kron10.dst, kron10.n_vertices + 1,
                         weights=kron10.weights)
    else:
        other = EdgeList(kron10.src[1:], kron10.dst[1:], kron10.n_vertices,
                         weights=kron10.weights[1:])
    formats.write_g500(other, path)
    formats.read_g500(path)  # the file itself is intact
    with pytest.raises(GraphFormatError, match="manifest"):
        read(path)


@pytest.mark.parametrize("key", KEYS)
def test_intact_files_still_read(cases, key):
    path, read = cases[key]
    assert read(path) is not None
