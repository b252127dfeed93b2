"""``CSRGraph`` is the one row-pointer type under ``src/repro``.

GraphMat's doubly-compressed rows are a CSR's ``pull_rows()``, the
simple undirected view k-core and MIS run on is a symmetric CSR, and a
shard's push slice is an unweighted CSR.  A second record holding a row
pointer and a column index would need its own slot expansion, pulls,
transposes and memo rules, and would drift from the first.

The check reads the source with :mod:`ast`: no class but ``CSRGraph``
may declare both a row-pointer field (``row_ptr`` / ``indptr``) and a
column-index field (``col_idx`` / ``indices``), as a class-body name or
as an attribute set on ``self``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ROW_POINTER = {"row_ptr", "indptr"}
COLUMN_INDEX = {"col_idx", "indices"}
ALLOWED = {"CSRGraph"}


def _declared_fields(cls: ast.ClassDef) -> set[str]:
    """Names the class body binds, plus every ``self.<name>`` its
    methods assign."""
    names = set()
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Assign):
            targets = stmt.targets
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(
                t.attr for t in targets
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name) and t.value.id == "self")
    return names


def adjacency_classes(root: Path) -> list[str]:
    """``module:Class`` of every class under ``root`` that declares
    both a row-pointer and a column-index field."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields = _declared_fields(node)
                if fields & ROW_POINTER and fields & COLUMN_INDEX:
                    found.append(f"{path.relative_to(root)}:{node.name}")
    return found


def test_only_csrgraph_holds_a_row_pointer():
    found = adjacency_classes(SRC)
    others = [f for f in found if f.rpartition(":")[2] not in ALLOWED]
    assert not others, (
        f"row-pointer records besides CSRGraph: {others}; hold a "
        "repro.graph.csr.CSRGraph instead")
    assert "graph/csr.py:CSRGraph" in found
