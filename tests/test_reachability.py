"""Every module under ``src/repro`` is reached from an entry point.

The roots are the ``epg`` CLI (``repro.cli``) and the scripts that
produce the paper's evidence (``benchmarks/bench_fig*.py``,
``bench_table*.py``, ``bench_ablation_*.py``).  The walk follows the
static import graph with :mod:`ast`: an import counts wherever it sits
in a file (function-local imports included), relative imports resolve
against their package, and importing a module also runs each parent
package's ``__init__``.  A module that only tests, examples or the
other benchmarks import is reached by no user of the reproduction:
connect it to a root or delete it.

The same rule holds per definition: every ``def`` and ``class`` under
``src/repro`` is named somewhere outside its own body, in the package,
a benchmark or an example -- never only in ``tests/``.  A name counts
as an ``ast.Name`` or ``ast.Attribute`` load, or as a part of a string
constant that is a whole dotted identifier (``getattr`` and
``bench/trace.py``'s span boundary reach code that way); prose such as
help text, ``__all__`` entries, imports, docstrings and f-string text
do not.  Exempt by rule, never by name: dunders, the
name-dispatched prefixes ``do_`` and ``_run_``, and methods overriding
an attribute of a base class from outside ``repro``.
"""

import ast
import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
CLI = "repro.cli"
EVIDENCE = ("bench_fig*.py", "bench_table*.py", "bench_ablation_*.py")


def _modules() -> dict[str, Path]:
    """Dotted name -> source file for every module under ``src/repro``."""
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


def _imports(path: Path, name: str, modules: dict[str, Path]) -> set[str]:
    """The modules of *modules* that importing *path* (named *name*)
    runs, parent packages included."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    targets = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0] \
                    if node.level > 1 else package
                base = f"{anchor}.{base}" if base else anchor
            targets.add(base)
            # ``from pkg import mod`` imports the submodule ``pkg.mod``.
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    reached = set()
    for target in targets:
        parts = target.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return reached & modules.keys()


def reached(scripts: list[Path]) -> set[str]:
    """Every module the CLI and *scripts* reach, transitively."""
    modules = _modules()
    todo = _imports(modules[CLI], CLI, modules)
    todo.add(CLI)
    for script in scripts:
        todo |= _imports(script, "__main__", modules)
    seen: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo |= _imports(modules[name], name, modules) - seen
    return seen


def _evidence_scripts() -> list[Path]:
    return sorted(path for pattern in EVIDENCE
                  for path in (REPO / "benchmarks").glob(pattern))


def test_every_module_is_reachable_from_an_entry_point():
    unreached = sorted(_modules().keys() - reached(_evidence_scripts()))
    assert not unreached, (
        "no entry point (repro.cli or a paper-evidence benchmark) "
        "reaches:\n  " + "\n  ".join(unreached))


def test_evidence_scripts_are_roots():
    # The delta-stepping and direction-optimizing ablations are the
    # only path to the GAP tuning module: without them as roots it
    # would be reported, so the walk is not vacuously complete.
    tuning = "repro.systems.gap.tuning"
    assert tuning not in reached([])
    assert tuning in reached(_evidence_scripts())


# -- per definition ---------------------------------------------------------

#: Files whose names keep a definition alive: the package itself and
#: every script that drives it.  ``tests/`` is deliberately absent.
CALLER_ROOTS = ("src/repro/**/*.py", "benchmarks/*.py", "bench/**/*.py",
                "examples/*.py")
#: Prefixes dispatched by name: ``http.server`` calls ``do_<VERB>``,
#: ``GraphSystem.run`` calls ``_run_<algorithm>``.
DISPATCHED = ("do_", "_run_")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", re.ASCII)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings in *tree*."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _all_entries(tree: ast.AST) -> set[int]:
    """ids of the string constants listed in ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets) and node.value is not None:
            out.update(id(c) for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant))
    return out


def _uses(tree: ast.AST) -> list[tuple[str, int]]:
    """(identifier, line) for every name *tree* uses.  Import statements
    bind names through ``ast.alias``, so they never appear here.  The
    literal text of an f-string is output, not a name looked up, and
    neither is a string that is not a dotted identifier."""
    skip = _docstrings(tree) | _all_entries(tree) | {
        id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
        for part in node.values}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and id(node) not in skip and \
                _DOTTED.fullmatch(node.value):
            out.extend((word, node.lineno)
                       for word in node.value.split("."))
    return out


def _definitions(tree: ast.Module):
    """(qualname, node, owning class or None) for every def and class."""
    def walk(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child, owner
                yield from walk(child, f"{qual}.", child if isinstance(
                    child, ast.ClassDef) else None)
            else:
                yield from walk(child, prefix, owner)
    yield from walk(tree, "", None)


def _overrides_foreign_base(module: str, owner: ast.ClassDef,
                            name: str) -> bool:
    """Whether class *owner* of *module* inherits *name* from a class
    defined outside ``repro`` (``log_message`` on a request handler).
    The class's MRO after itself is the union of its bases' MROs, and
    its bases resolve in the module's namespace even where the class
    itself is local to a function."""
    namespace = vars(importlib.import_module(module))
    for base in owner.bases:
        try:
            cls = eval(ast.unparse(base), namespace)
        except NameError:
            continue
        if isinstance(cls, type) and any(
                name in vars(c) for c in cls.__mro__
                if not c.__module__.startswith("repro")):
            return True
    return False


def unused_definitions() -> list[str]:
    """``path:qualname`` of every definition under ``src/repro`` that no
    caller root uses outside the definition's own body."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    files = sorted({p for pattern in CALLER_ROOTS for p in REPO.glob(pattern)})
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}
    for path, tree in trees.items():
        for word, line in _uses(tree):
            uses.setdefault(word, []).append((path, line))
    modules = {path: name for name, path in _modules().items()}
    unused = []
    for path, module in sorted(modules.items()):
        for qual, node, owner in _definitions(trees[path]):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or \
                    name.startswith(DISPATCHED):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if any(p != path or line not in own
                   for p, line in uses.get(name, ())):
                continue
            if owner is not None and \
                    _overrides_foreign_base(module, owner, name):
                continue
            unused.append(f"{path.relative_to(SRC / 'repro')}:{qual}")
    return unused


def test_every_definition_has_a_caller():
    unused = unused_definitions()
    assert not unused, (
        "only tests (or nothing) use these definitions; delete them, or "
        "move a test oracle into tests/:\n  " + "\n  ".join(unused))
