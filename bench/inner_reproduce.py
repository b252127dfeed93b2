"""``reproduce-cold`` under ``--trace 1``: one pass, one fresh interpreter.

Usage: ``inner_reproduce.py <0|1> <record.json> reproduce <cli args...>``

Enters the program through ``repro.cli.main`` exactly as ``epg
reproduce`` does, with ``run_paper_suite`` wrapped as the root span
``core.suite``.  With ``1`` every callable in ``trace.BOUNDARY`` is
wrapped too; with ``0`` the same modules are imported but left alone,
so the two modes differ by the wrappers and nothing else.  The record
holds the root span's wall time and all spans; process wall minus root
wall is what the interpreter, imports, argument parsing and exit cost
(``cli.startup_s``).
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    from bench.trace import Spans

    traced, record_path, cli_args = argv[0] == "1", argv[1], argv[2:]
    spans = Spans("reproduce-cold")
    spans.install()
    if not traced:
        spans.uninstall()

    import repro.cli
    import repro.core.suite as suite

    run_paper_suite = suite.run_paper_suite

    def rooted(*args, **kwargs):
        with spans.span("core.suite"):
            return run_paper_suite(*args, **kwargs)

    suite.run_paper_suite = rooted
    code = repro.cli.main(cli_args)
    root = next(r for r in spans.records if r[0] == "core.suite")
    Path(record_path).write_text(json.dumps(
        {"root_wall_s": root[2] - root[1], "records": spans.records}),
        encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
