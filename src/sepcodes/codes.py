"""Signatures, the four separation properties, domination, and the eight
code kinds (LD, LTD, OD, OTD, ID, ITD, FD, FTD).

A code is a vertex set that separates vertices by their neighborhood
intersections with the set and at the same time dominates (or totally
dominates) the whole graph.
"""

from __future__ import annotations

import enum
from functools import cached_property

from .graphs import Graph


class Separation(enum.Enum):
    """Which signatures must be pairwise distinct, and over which vertices.

    LOCATION: open signatures, over the vertices outside the code.
    OPEN:     open signatures, over all vertices.
    CLOSED:   closed signatures, over all vertices.
    FULL:     both the OPEN and the CLOSED condition.
    """

    LOCATION = "L"
    OPEN = "O"
    CLOSED = "I"
    FULL = "F"


class CodeKind(enum.Enum):
    """One of the eight code types: a separation property paired with plain
    domination (D) or total domination (TD)."""

    LD = "LD"
    LTD = "LTD"
    OD = "OD"
    OTD = "OTD"
    ID = "ID"
    ITD = "ITD"
    FD = "FD"
    FTD = "FTD"

    @cached_property
    def separation(self) -> Separation:
        # cached: every is_code call reads it, and min_code once per graph
        return Separation(self.name[0])

    @property
    def total_domination(self) -> bool:
        return self.name.endswith("TD")

    @classmethod
    def parse(cls, text: str) -> "CodeKind":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            names = ", ".join(k.name for k in cls)
            raise ValueError(f"unknown code kind {text!r}; expected one of {names}") from None


ALL_KINDS = tuple(CodeKind)


def is_dominating(g: Graph, code: int) -> bool:
    """Every vertex has a nonempty closed signature."""
    return all((g.adj[v] | (1 << v)) & code for v in range(g.order))


def is_total_dominating(g: Graph, code: int) -> bool:
    """Every vertex has a nonempty open signature."""
    return all(g.adj[v] & code for v in range(g.order))


def is_separating(g: Graph, code: int, separation: Separation) -> bool:
    """Signature-distinctness test for one separation property, one loop for
    all four: open or closed signatures, location skipping the code's own
    vertices, and full separation the open and the closed test together.
    Pure distinctness: domination is checked separately."""
    if separation is Separation.FULL:
        return all(is_separating(g, code, sep) for sep in (Separation.OPEN, Separation.CLOSED))
    # N(v) & code (open) or N[v] & code (closed), read off g.adj as
    # is_dominating does
    closed = separation is Separation.CLOSED
    skip = code if separation is Separation.LOCATION else 0
    sigs = [(nb | closed << v) & code for v, nb in enumerate(g.adj) if not skip >> v & 1]
    return len(set(sigs)) == len(sigs)


def is_code(g: Graph, code: int, kind: CodeKind) -> bool:
    """True iff `code` is a kind-code: separating per kind.separation and
    (total-)dominating per kind."""
    if not is_separating(g, code, kind.separation):
        return False
    if kind.total_domination:
        return is_total_dominating(g, code)
    return is_dominating(g, code)


def is_admissible(g: Graph, kind: CodeKind) -> bool:
    """True iff g has a kind-code. A superset of a kind-code is one too, as
    more code vertices only refine the signatures and dominate more, so g
    has a kind-code exactly when its whole vertex set is one."""
    return is_code(g, g.vertex_mask, kind)
