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
"""

import ast
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
