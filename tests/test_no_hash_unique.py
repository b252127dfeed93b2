"""No plain ``np.unique`` and no ``np.union1d`` under ``src/repro``.

From NumPy 2.3 on, ``np.unique(x)`` of integers asking for no extra
output runs a hash table and then sorts its result anyway; on 100 to
65 536 ids that costs 3-17x :func:`repro.graph.frontier.sorted_unique`,
which returns the same array (``docs/kernels.md``).  ``np.union1d`` is
a plain ``np.unique`` of the concatenation.  So every dedup in the
package goes through ``sorted_unique``, or through
:func:`~repro.graph.frontier.dedup_ids` where a scratch mask is at hand.
A call that asks for ``return_index``, ``return_inverse`` or
``return_counts`` takes NumPy's sorting path and is left alone.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
EXTRA_OUTPUTS = ("return_index", "return_inverse", "return_counts")


def _numpy_attr(func: ast.expr) -> str | None:
    """``unique`` for ``np.unique`` / ``numpy.unique``, and so on."""
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")):
        return func.attr
    return None


def _is_false(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is False


def offences(source: str, filename: str) -> list[str]:
    """``file:line: call`` for each plain ``np.unique`` and each
    ``np.union1d`` in ``source``."""
    out = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        name = _numpy_attr(node.func)
        if name == "union1d":
            out.append(f"{filename}:{node.lineno}: np.union1d")
        elif name == "unique":
            # Positional flags follow the array: return_index, ...
            flags = [a for a in node.args[1:4] if not _is_false(a)]
            flags += [k for k in node.keywords
                      if k.arg in EXTRA_OUTPUTS and not _is_false(k.value)]
            if not flags:
                out.append(f"{filename}:{node.lineno}: np.unique")
    return out


def test_the_rule_tells_plain_calls_from_sorting_ones():
    plain = """
import numpy as np
a = np.unique(x)
b = np.unique(x, return_counts=False)
c = numpy.union1d(x, y)
d = np.unique(np.concatenate(parts), axis=None)
"""
    sorting = """
import numpy as np
a, i = np.unique(x, return_index=True)
b, c = np.unique(x, return_counts=True)
d, e = np.unique(x, False, True)
f = sorted_unique(x)
g = np.unique  # a reference, not a call
"""
    assert offences(plain, "plain.py") == [
        "plain.py:3: np.unique", "plain.py:4: np.unique",
        "plain.py:5: np.union1d", "plain.py:6: np.unique"]
    assert offences(sorting, "sorting.py") == []


def test_package_dedups_without_hashing():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += offences(path.read_text(encoding="utf-8"),
                          str(path.relative_to(REPO)))
    assert not found, (
        "plain np.unique / np.union1d (use repro.graph.frontier."
        "sorted_unique, or dedup_ids with a scratch mask):\n"
        + "\n".join(found))
