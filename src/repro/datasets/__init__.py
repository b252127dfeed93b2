"""Dataset generation, file formats, and homogenization (pipeline phase 2).

The paper's datasets:

* synthetic Kronecker graphs per the Graph500 spec
  (:mod:`~repro.datasets.kronecker`) -- "a graph with scale S has 2^S
  vertices" and an average of 16 edges per vertex;
* ``cit-Patents`` (SNAP) and ``dota-league`` (Game Trace Archive /
  Graphalytics) -- rebuilt here as synthetic generators matching their
  published shape statistics (:mod:`~repro.datasets.realworld`);
* any file in the SNAP edge-list text format
  (:mod:`~repro.datasets.snap`).

:mod:`~repro.datasets.homogenize` implements the paper's phase 2: given
one dataset, write the input files every system natively reads, so no
system pays a format-conversion penalty at run time.
"""

from repro.datasets.kronecker import KroneckerSpec, generate_kronecker
from repro.datasets.realworld import (
    CIT_PATENTS_FULL,
    DOTA_LEAGUE_FULL,
    DatasetSpec,
    cit_patents,
    dota_league,
)
from repro.datasets.snap import read_snap

__all__ = [
    "KroneckerSpec",
    "generate_kronecker",
    "DatasetSpec",
    "cit_patents",
    "dota_league",
    "CIT_PATENTS_FULL",
    "DOTA_LEAGUE_FULL",
    "read_snap",
]
