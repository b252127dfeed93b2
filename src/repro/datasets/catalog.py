"""Dataset catalog: every workload the harness knows, with metadata.

One registry mapping dataset names to their published statistics and
provenance notes -- the "datasets" face of the paper's Spack-packaging
direction (Sec. V).  ``epg datasets`` prints it; the datasets
themselves are made by :class:`~repro.core.experiment.Experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datasets.realworld import (
    CIT_PATENTS_FULL,
    DOTA_LEAGUE_FULL,
    DatasetSpec,
)

__all__ = ["CatalogEntry", "catalog"]


@dataclass(frozen=True)
class CatalogEntry:
    """One known dataset family."""

    name: str
    kind: str                  # "synthetic" | "real-world-standin"
    description: str
    directed: bool
    weighted: bool
    #: Published full size, if the family models a real network.
    full_vertices: int | None
    full_edges: int | None
    source: str


def _standin(name: str, full: DatasetSpec, description: str,
             source: str) -> CatalogEntry:
    """A real-world stand-in, sized and flagged by its published spec."""
    return CatalogEntry(
        name=name, kind="real-world-standin", description=description,
        directed=full.directed, weighted=full.weighted,
        full_vertices=full.n_vertices, full_edges=full.n_edges,
        source=source)


_CATALOG: dict[str, CatalogEntry] = {
    "kronecker": CatalogEntry(
        name="kronecker", kind="synthetic",
        description="Graph500 Kronecker generator (A=0.57, B=0.19, "
                    "C=0.19, D=0.05, edge factor 16); the paper's "
                    "scale-22/23 workload",
        directed=False, weighted=True,
        full_vertices=None, full_edges=None,
        source="Graph500 specification / paper Sec. III-B"),
    "cit-patents": _standin(
        "cit-patents", CIT_PATENTS_FULL,
        "NBER patent citation network stand-in: sparse directed "
        "unweighted DAG, heavy-tailed in-degree",
        "SNAP (Leskovec et al.); synthetic model in "
        "repro.datasets.realworld"),
    "dota-league": _standin(
        "dota-league", DOTA_LEAGUE_FULL,
        "Defense of the Ancients interaction graph stand-in: dense "
        "weighted undirected, avg out-degree ~824 at full size",
        "Game Trace Archive via Graphalytics; synthetic model in "
        "repro.datasets.realworld"),
}


def catalog() -> list[CatalogEntry]:
    """All known entries, name-sorted."""
    return [_CATALOG[k] for k in sorted(_CATALOG)]
