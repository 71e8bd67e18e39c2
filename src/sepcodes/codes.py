"""Signatures, the four separation properties, domination, and the eight
code kinds (LD, LTD, OD, OTD, ID, ITD, FD, FTD).

A code is a vertex set that separates vertices by their neighborhood
intersections with the set and at the same time dominates (or totally
dominates) the whole graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, members


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
        # cached: min_code reads it twice per graph (is_admissible, separation_family)
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


def open_signature(g: Graph, v: int, code: int) -> int:
    """Open neighborhood of v intersected with the code."""
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range for order {g.order}")
    return g.adj[v] & code


def closed_signature(g: Graph, v: int, code: int) -> int:
    """Closed neighborhood of v intersected with the code."""
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range for order {g.order}")
    return (g.adj[v] | (1 << v)) & code


@dataclass(frozen=True)
class SignatureFamilies:
    """Deduplicated signature families of the code vertices themselves:
    the open family {N(v) & C}, the closed family {N[v] & C}, and their
    union, for v ranging over C."""

    open_family: frozenset[int]
    closed_family: frozenset[int]
    combined: frozenset[int]


def signature_families(g: Graph, code: int) -> SignatureFamilies:
    if code == 0:
        raise ValueError("signature families require a nonempty code")
    opens = frozenset(g.adj[v] & code for v in members(code))
    closeds = frozenset((g.adj[v] | (1 << v)) & code for v in members(code))
    return SignatureFamilies(opens, closeds, opens | closeds)


def is_dominating(g: Graph, code: int) -> bool:
    """Every vertex has a nonempty closed signature."""
    return all((g.adj[v] | (1 << v)) & code for v in range(g.order))


def is_total_dominating(g: Graph, code: int) -> bool:
    """Every vertex has a nonempty open signature."""
    return all(g.adj[v] & code for v in range(g.order))


def is_separating(g: Graph, code: int, separation: Separation) -> bool:
    """Signature-distinctness test for one separation property. Pure
    distinctness: domination is checked separately."""
    if separation is Separation.LOCATION:
        seen = set()
        for v in range(g.order):
            if code >> v & 1:
                continue
            s = g.adj[v] & code
            if s in seen:
                return False
            seen.add(s)
        return True
    if separation is Separation.OPEN:
        seen = set()
        for v in range(g.order):
            s = g.adj[v] & code
            if s in seen:
                return False
            seen.add(s)
        return True
    if separation is Separation.CLOSED:
        seen = set()
        for v in range(g.order):
            s = (g.adj[v] | (1 << v)) & code
            if s in seen:
                return False
            seen.add(s)
        return True
    return is_separating(g, code, Separation.OPEN) and is_separating(
        g, code, Separation.CLOSED
    )


def is_code(g: Graph, code: int, kind: CodeKind) -> bool:
    """True iff `code` is a kind-code: separating per kind.separation and
    (total-)dominating per kind."""
    if not is_separating(g, code, kind.separation):
        return False
    if kind.total_domination:
        return is_total_dominating(g, code)
    return is_dominating(g, code)


def is_admissible(g: Graph, kind: CodeKind) -> bool:
    """Structural admissibility: a graph has a kind-code iff it avoids the
    kind's blockers (isolated vertices for TD, open twins for open
    separation, closed twins for closed separation)."""
    n = g.order
    adj = g.adj
    if kind.total_domination and any(nb == 0 for nb in adj):
        return False
    sep = kind.separation
    if sep in (Separation.OPEN, Separation.FULL):
        for u in range(n):
            au = adj[u]
            for v in range(u + 1, n):
                if not au >> v & 1 and au == adj[v]:
                    return False
    if sep in (Separation.CLOSED, Separation.FULL):
        for u in range(n):
            au = adj[u]
            cu = au | (1 << u)
            for v in range(u + 1, n):
                if au >> v & 1 and cu == (adj[v] | (1 << v)):
                    return False
    return True
