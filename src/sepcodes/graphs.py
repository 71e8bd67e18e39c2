"""Immutable bitmask-backed simple graphs and exact small-graph utilities.

Vertex sets are plain ints throughout: bit v set means vertex v belongs to
the set. With at most MAX_VERTICES vertices every set fits in one machine
word, so union/intersection/difference are single int ops and every derived
value is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import GuardError

MAX_VERTICES = 62
ENUMERATION_GUARD = 7
ISOMORPHISM_GUARD = 10
PARTITION_GUARD = 20


def vset(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into ascending vertex indices."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..order-1.

    adj[v] is the open-neighborhood bitmask of v. Instances are immutable
    and validated on construction: no self-loops, symmetric adjacency, no
    bits outside the vertex range.
    """

    order: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.order <= MAX_VERTICES:
            raise ValueError(f"order must be in [1, {MAX_VERTICES}], got {self.order}")
        if len(self.adj) != self.order:
            raise ValueError("adjacency table length does not match order")
        full = (1 << self.order) - 1
        for v, nb in enumerate(self.adj):
            if nb & ~full:
                raise ValueError(f"vertex {v} has a neighbor outside the graph")
            if nb >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            rest = nb
            while rest:
                u = (rest & -rest).bit_length() - 1
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                rest &= rest - 1

    @property
    def vertex_mask(self) -> int:
        return (1 << self.order) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for v in range(self.order):
            rest = self.adj[v] >> (v + 1) << (v + 1)
            while rest:
                u = (rest & -rest).bit_length() - 1
                out.append((v, u))
                rest &= rest - 1
        return tuple(sorted(out))

    def edge_count(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={list(self.edges())})"


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    if not 1 <= order <= MAX_VERTICES:
        raise ValueError(f"order must be in [1, {MAX_VERTICES}], got {order}")
    adj = [0] * order
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {order})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, tuple(adj))


def empty_graph(order: int) -> Graph:
    return Graph(order, (0,) * order)


def complete_graph(order: int) -> Graph:
    full = (1 << order) - 1
    return Graph(order, tuple(full ^ (1 << v) for v in range(order)))


def path_graph(order: int) -> Graph:
    return build_graph(order, [(v, v + 1) for v in range(order - 1)])


def cycle_graph(order: int) -> Graph:
    if order < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return build_graph(order, [(v, (v + 1) % order) for v in range(order)])


def matching_graph(order: int) -> Graph:
    """Disjoint edges (2v, 2v+1); a final odd vertex stays isolated."""
    return build_graph(order, [(v, v + 1) for v in range(0, order - 1, 2)])


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.order, tuple(full ^ nb ^ (1 << v) for v, nb in enumerate(g.adj)))


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range for order {g.order}")


def open_neighborhood(g: Graph, v: int) -> int:
    """Neighbors of v, never including v itself."""
    _check_vertex(g, v)
    return g.adj[v]


def closed_neighborhood(g: Graph, v: int) -> int:
    """Neighbors of v together with v itself."""
    _check_vertex(g, v)
    return g.adj[v] | (1 << v)


@dataclass(frozen=True)
class TwinReport:
    """Open twins (non-adjacent, equal open neighborhoods), closed twins
    (adjacent, equal closed neighborhoods), and isolated vertices."""

    open_twins: tuple[tuple[int, int], ...]
    closed_twins: tuple[tuple[int, int], ...]
    isolated: int


def twin_report(g: Graph) -> TwinReport:
    open_pairs = []
    closed_pairs = []
    iso = 0
    for v in range(g.order):
        if g.adj[v] == 0:
            iso |= 1 << v
    for u in range(g.order):
        au = g.adj[u]
        cu = au | (1 << u)
        for v in range(u + 1, g.order):
            if au >> v & 1:
                if cu == (g.adj[v] | (1 << v)):
                    closed_pairs.append((u, v))
            elif au == g.adj[v]:
                open_pairs.append((u, v))
    return TwinReport(tuple(open_pairs), tuple(closed_pairs), iso)


def induced_subgraph(g: Graph, keep: int) -> Graph:
    """Subgraph induced by the vertex set `keep`, relabeled by ascending
    original index."""
    if keep == 0:
        raise ValueError("cannot induce on the empty vertex set")
    if keep & ~g.vertex_mask:
        raise ValueError("induced vertex set contains vertices outside the graph")
    old = members(keep)
    index = {v: i for i, v in enumerate(old)}
    adj = [0] * len(old)
    for v in old:
        rest = g.adj[v] & keep
        while rest:
            u = (rest & -rest).bit_length() - 1
            adj[index[v]] |= 1 << index[u]
            rest &= rest - 1
    return Graph(len(old), tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.order."""
    order = g.order + h.order
    if order > MAX_VERTICES:
        raise ValueError(f"union order {order} exceeds capacity {MAX_VERTICES}")
    adj = list(g.adj) + [nb << g.order for nb in h.adj]
    return Graph(order, tuple(adj))


@lru_cache(maxsize=None)
def edge_bit_pairs(order: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle vertex pairs in column-major order: (0,1), (0,2),
    (1,2), (0,3), ...; pair t corresponds to bit t of a graph code."""
    return tuple((i, j) for j in range(1, order) for i in range(j))


def labeled_graph_count(order: int) -> int:
    return 1 << comb(order, 2)


def decode_edges(order: int, code: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Adjacency masks on `order` vertices holding edge pairs[t] for each bit
    t set in `code`; unchecked, for the scans that decode every code."""
    adj = [0] * order
    t = 0
    while code:
        if code & 1:
            i, j = pairs[t]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        code >>= 1
        t += 1
    return adj


def graph_from_code(order: int, code: int) -> Graph:
    """Graph whose edge set is given by the upper-triangle bit encoding."""
    pairs = edge_bit_pairs(order)
    if code < 0 or code >> len(pairs):
        raise ValueError(f"code {code} out of range for order {order}")
    return Graph(order, tuple(decode_edges(order, code, pairs)))


def graph_code(g: Graph) -> int:
    """Inverse of graph_from_code for the same vertex labeling."""
    code = 0
    for t, (i, j) in enumerate(edge_bit_pairs(g.order)):
        if g.adj[i] >> j & 1:
            code |= 1 << t
    return code


def enumerate_labeled_graphs(order: int, allow_large: bool = False) -> Iterator[Graph]:
    """Yield every labeled graph on `order` vertices exactly once, ascending
    by edge code. Guarded at ENUMERATION_GUARD vertices unless overridden."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > ENUMERATION_GUARD and not allow_large:
        raise GuardError(
            f"exhaustive enumeration is guarded at order {ENUMERATION_GUARD}; "
            f"pass allow_large=True to override"
        )
    for code in range(labeled_graph_count(order)):
        yield graph_from_code(order, code)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by degree-pruned permutation search."""
    if g.order > ISOMORPHISM_GUARD or h.order > ISOMORPHISM_GUARD:
        raise GuardError(f"isomorphism search is guarded at order {ISOMORPHISM_GUARD}")
    if g.order != h.order or g.edge_count() != h.edge_count():
        return False
    n = g.order
    dg = [nb.bit_count() for nb in g.adj]
    dh = [nb.bit_count() for nb in h.adj]
    if sorted(dg) != sorted(dh):
        return False
    # high-degree vertices first: fewer candidates, earlier conflicts
    verts = sorted(range(n), key=lambda v: (-dg[v], v))
    image = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        u = verts[i]
        au = g.adj[u]
        for v in range(n):
            if used[v] or dh[v] != dg[u]:
                continue
            ok = True
            for j in range(i):
                w = verts[j]
                if (au >> w & 1) != (h.adj[v] >> image[w] & 1):
                    ok = False
                    break
            if ok:
                image[u] = v
                used[v] = True
                if place(i + 1):
                    return True
                used[v] = False
        return False

    return place(0)


@dataclass(frozen=True)
class FamilyMembership:
    bipartite: bool
    cobipartite: bool
    split: bool


def _is_bipartite(g: Graph) -> bool:
    color = [-1] * g.order
    for start in range(g.order):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            rest = g.adj[v]
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def _is_split(g: Graph) -> bool:
    # Hammer-Simeone degree criterion: with degrees sorted non-increasingly
    # and m = max{i : d_i >= i-1}, the graph is split iff
    # sum_{i<=m} d_i == m(m-1) + sum_{i>m} min(d_i, m).
    d = sorted((nb.bit_count() for nb in g.adj), reverse=True)
    n = g.order
    m = 0
    for i in range(1, n + 1):
        if d[i - 1] >= i - 1:
            m = i
    left = sum(d[:m])
    right = m * (m - 1) + sum(min(di, m) for di in d[m:])
    return left == right


def family_membership(g: Graph) -> FamilyMembership:
    """Bipartite / cobipartite / split membership flags."""
    if g.order > PARTITION_GUARD:
        raise GuardError(f"family membership is guarded at order {PARTITION_GUARD}")
    return FamilyMembership(
        bipartite=_is_bipartite(g),
        cobipartite=_is_bipartite(complement(g)),
        split=_is_split(g),
    )
