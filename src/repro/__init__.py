"""easy-parallel-graph-* -- reproduction of Pollard & Norris (2017).

Top-level convenience exports; see the subpackages for the full API:

* :mod:`repro.core` -- the five-phase comparison harness
* :mod:`repro.systems` -- the five reimplemented graph systems
* :mod:`repro.datasets` -- generators, formats, homogenization
* :mod:`repro.algorithms` -- reference kernels (correctness oracles)
* :mod:`repro.machine` / :mod:`repro.power` -- the simulated platform
* :mod:`repro.graphalytics` -- the comparator (flaw included)
* :mod:`repro.viz` -- SVG figure rendering
"""

__version__ = "1.0.0"

#: The paper this repository reproduces.
PAPER = ("Pollard & Norris, 'A Comparison of Parallel Graph Processing "
         "Implementations', IEEE CLUSTER 2017 (arXiv:1704.02003)")


def run_comparison(*args, **kwargs):
    """Lazy alias for :func:`repro.core.api.run_comparison`."""
    from repro.core.api import run_comparison as _rc

    return _rc(*args, **kwargs)


__all__ = ["__version__", "PAPER", "run_comparison"]
