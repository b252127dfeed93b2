"""No function under ``src/repro/algorithms`` or ``src/repro/systems``
takes a parameter named ``inn`` or ``symmetric``.

In-arcs come from one place, :meth:`repro.graph.csr.CSRGraph.transposed`:
a CSR built from a symmetrized arc list is its own transpose, and a
stored transpose is attached to its CSR where the load reads it.  So a
body or kernel takes the out-arcs alone and never asks whether the
input was directed.  Only :func:`repro.graph.frontier.relax_round` and
:class:`repro.shard.engine.ShardEngine`, which live elsewhere, take an
explicit pull CSR.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROOTS = [REPO / "src" / "repro" / name for name in ("algorithms", "systems")]
BANNED = ("inn", "symmetric")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def offences(source: str, filename: str) -> list[str]:
    """``file:line: name(param)`` for each function or method in
    ``source`` that declares a banned parameter."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, FUNCTIONS):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, f"{filename}:{node.lineno}: {name}({p.arg})")
                for p in params if p.arg in BANNED]
    return [text for _, text in sorted(out)]


def test_the_rule_finds_every_kind_of_parameter():
    source = """
def body(out, inn, root):
    pass
class Engine:
    def __init__(self, inn: object, out):
        pass
    async def run(self, *, symmetric=False):
        pass
pull = lambda out, inn=None: out
def star(*inn, **symmetric):
    pass
def fine(out, root, inner=None, symmetrical=True):
    inn = out.transposed()
    return inn
"""
    assert offences(source, "x.py") == [
        "x.py:2: body(inn)", "x.py:5: __init__(inn)",
        "x.py:7: run(symmetric)", "x.py:9: <lambda>(inn)",
        "x.py:10: star(inn)", "x.py:10: star(symmetric)"]


def test_bodies_and_kernels_take_out_arcs_alone():
    found = []
    for root in ROOTS:
        for path in sorted(root.rglob("*.py")):
            found += offences(path.read_text(encoding="utf-8"),
                              str(path.relative_to(REPO)))
    assert not found, (
        "a parameter names the in-arcs or the input's symmetry (pull "
        "over out.transposed() instead):\n" + "\n".join(found))
