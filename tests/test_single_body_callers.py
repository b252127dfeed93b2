"""Each shared structural body has one caller in the systems.

Every platform's k-core, MIS, CDLP and LCC answer comes from one body
in :mod:`repro.algorithms`; the systems differ only in how they price
its per-round facts.  :class:`repro.systems.base.GraphSystem` makes the
one call to each body and hands the facts to the system's pricing, so
a per-answer step (a memo, a digest, a span) is added in one place.
Outside ``systems/base.py`` a body may be called only by the reference
function of its own module (``core_numbers``, ``maximal_independent_set``,
``cdlp``); ``clustering_blocks`` has no reference function.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
BASE = "src/repro/systems/base.py"

#: body -> (its module, the reference function there that may call it).
BODIES = {
    "peel_cores": ("src/repro/algorithms/kcore.py", "core_numbers"),
    "luby_rounds": ("src/repro/algorithms/mis.py",
                    "maximal_independent_set"),
    "propagate_labels": ("src/repro/algorithms/cdlp.py", "cdlp"),
    "clustering_blocks": ("src/repro/algorithms/lcc.py", None),
}


def body_calls(source: str, filename: str) -> list[tuple[str, int, str]]:
    """``(body, line, enclosing function)`` for each call of a body in
    ``source``, whether by bare name or as a module attribute."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name in BODIES:
                    found.append((name, child.lineno, scope))
            visit(child, scope)

    visit(ast.parse(source, filename), "<module>")
    return found


def offences(calls: dict[str, list[tuple[str, int, str]]]) -> list[str]:
    """``file:line: body`` for each call outside the allowed sites, and
    one line per body whose call count in ``systems/base.py`` is not 1."""
    out = []
    for filename, found in sorted(calls.items()):
        for body, line, scope in found:
            module, reference = BODIES[body]
            if filename == BASE or (filename == module
                                    and scope == reference):
                continue
            out.append(f"{filename}:{line}: {body} (in {scope})")
    in_base = [body for body, _, _ in calls.get(BASE, [])]
    for body in BODIES:
        if in_base.count(body) != 1:
            out.append(f"{BASE}: {body} called {in_base.count(body)} "
                       "times, not once")
    return out


def test_the_rule_tells_callers_apart():
    base = """
def _run_kcore(self):
    return peel_cores(view)
def _run_mis(self):
    return luby_rounds(view, p)
def _run_cdlp(self):
    return propagate_labels(s, d, n, k)
def _run_lcc(self):
    return lcc.clustering_blocks(s, d, n)
"""
    reference = """
def core_numbers(graph):
    return peel_cores(view)[0]
def helper(graph):
    return peel_cores(view)
ref = peel_cores  # a reference, not a call
"""
    calls = {BASE: body_calls(base, BASE),
             BODIES["peel_cores"][0]: body_calls(reference, "kcore.py"),
             "src/repro/systems/gap/structural.py": body_calls(
                 "x = luby_rounds(view, p)\n", "structural.py")}
    assert offences(calls) == [
        "src/repro/algorithms/kcore.py:5: peel_cores (in helper)",
        "src/repro/systems/gap/structural.py:1: luby_rounds (in <module>)"]
    del calls[BASE]
    assert offences(calls)[-1] == (
        f"{BASE}: clustering_blocks called 0 times, not once")


def test_each_body_has_one_caller_in_the_systems():
    calls = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(REPO).as_posix()
        calls[name] = body_calls(path.read_text(encoding="utf-8"), name)
    found = offences(calls)
    assert not found, (
        "a shared body called outside GraphSystem's one call site (price "
        "its facts through the system's `pricing` instead):\n"
        + "\n".join(found))
