"""Immutable bitmask-backed simple graphs and exact small-graph utilities.

Vertex sets are plain ints throughout: bit v set means vertex v belongs to
the set. With at most MAX_VERTICES vertices every set fits in one machine
word, so union/intersection/difference are single int ops and every derived
value is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterable, Iterator, Sequence

from .errors import GuardError

MAX_VERTICES = 62
# census and the class routes stop at order 8 for run time and memory.
# graph_classes(9) would build 274668 classes (about 18 s). Census at order
# 9 builds the 12346 classes on 8 vertices (0.7-0.8 s) and decides their
# 605107 least-degree children: 1.8-1.9 s at jobs 1, in chunks of at most
# 2048 parents whose masks, one bit per child, peak at 68 MB RSS, and 1.4 s
# at jobs 2 (50 MB per worker). A child's edge code fits a 64-bit word up to order 11, so
# the packing sets no limit here
CENSUS_GUARD = 8
ISOMORPHISM_GUARD = 10


def vset(vertices: Iterable[int]) -> int:
    """Pack vertex indices into a bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def members(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into ascending vertex indices."""
    if mask < 0:
        # a negative int has infinitely many set bits
        raise ValueError(f"mask must be nonnegative, got {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
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
            for u in members(nb):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def _unchecked(cls, order: int, adj: tuple[int, ...]) -> Graph:
        """A Graph on an adjacency table its caller built valid, without
        the checks of __post_init__."""
        g = object.__new__(cls)
        object.__setattr__(g, "order", order)
        object.__setattr__(g, "adj", adj)
        return g

    @property
    def vertex_mask(self) -> int:
        return (1 << self.order) - 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return tuple(
            (v, u) for v, nb in enumerate(self.adj) for u in members(nb >> (v + 1) << (v + 1))
        )

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


# The presets hand build_graph lazy edges, so it checks the order before
# anything of that size is built.
def empty_graph(order: int) -> Graph:
    return build_graph(order, ())


def complete_graph(order: int) -> Graph:
    return build_graph(order, ((u, v) for v in range(order) for u in range(v)))


def path_graph(order: int) -> Graph:
    return build_graph(order, ((v, v + 1) for v in range(order - 1)))


def cycle_graph(order: int) -> Graph:
    if order < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return build_graph(order, ((v, (v + 1) % order) for v in range(order)))


def matching_graph(order: int) -> Graph:
    """Disjoint edges (2v, 2v+1); a final odd vertex stays isolated."""
    return build_graph(order, ((v, v + 1) for v in range(0, order - 1, 2)))


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return Graph(g.order, tuple(full ^ nb ^ (1 << v) for v, nb in enumerate(g.adj)))


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
        for u in members(g.adj[v] & keep):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(old), tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are shifted up by g.order."""
    order = g.order + h.order
    if order > MAX_VERTICES:
        raise ValueError(f"union order {order} exceeds capacity {MAX_VERTICES}")
    adj = list(g.adj) + [nb << g.order for nb in h.adj]
    return Graph(order, tuple(adj))


def labeled_graph_count(order: int) -> int:
    return 1 << comb(order, 2)


def decode_edges(order: int, code: int) -> list[int]:
    """Adjacency masks on `order` vertices of the edge code `code` (see
    graph_code); unchecked, for the scans that decode every code."""
    adj = [0] * order
    for j in range(1, order):
        if not code:
            break
        below = code & ((1 << j) - 1)
        code >>= j
        adj[j] = below
        top = 1 << j
        while below:
            low = below & -below
            adj[low.bit_length() - 1] |= top
            below ^= low
    return adj


def graph_from_code(order: int, code: int) -> Graph:
    """Graph whose edge set is given by the edge code `code` (see
    graph_code). Every code in range decodes to a valid adjacency table, so
    only the order and the code are checked, before any work."""
    if not 1 <= order <= MAX_VERTICES:
        raise ValueError(f"order must be in [1, {MAX_VERTICES}], got {order}")
    if code < 0 or code >> comb(order, 2):
        raise ValueError(f"code {code} out of range for order {order}")
    return Graph._unchecked(order, tuple(decode_edges(order, code)))


def graph_code(g: Graph) -> int:
    """The edge code of g, inverse of graph_from_code for the same vertex
    labeling. Its bits are the vertex pairs i < j in column-major order,
    (0,1), (0,2), (1,2), (0,3), ...: bits C(j, 2) .. C(j, 2) + j - 1 are
    column j, the neighbours of j below j, with bit C(j, 2) + i set when i
    and j are adjacent."""
    code = 0
    for j, nb in enumerate(g.adj):
        code |= (nb & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return code


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by degree-pruned permutation search, guarded
    at ISOMORPHISM_GUARD; graphs of unequal order are never isomorphic."""
    if g.order != h.order:
        return False
    if g.order > ISOMORPHISM_GUARD:
        raise GuardError(f"isomorphism search is guarded at order {ISOMORPHISM_GUARD}")
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


def _refine(adj: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Split the ordered partition `cells` (vertex masks) until it is
    equitable: the vertices of each cell have equally many neighbours in
    every cell. `cells` must be equitable except with respect to the
    splitters. A cell that splits is replaced in place by its parts in
    ascending neighbour count, and each part becomes a splitter, so the
    result does not depend on the labeling. A one-vertex splitter {x} cuts
    each cell into cell & ~N(x) and cell & N(x) with no per-vertex count;
    a larger one counts each vertex's neighbours in it, in every cell but
    the singletons, which cannot split."""
    n = len(adj)
    queue = list(splitters)
    while queue and len(cells) < n:
        w = queue.pop()
        out = []
        if w & (w - 1):
            for cell in cells:
                if not cell & (cell - 1):
                    out.append(cell)
                    continue
                parts: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    key = (adj[low.bit_length() - 1] & w).bit_count()
                    parts[key] = parts.get(key, 0) | low
                    rest ^= low
                if len(parts) > 1:
                    split = [parts[key] for key in sorted(parts)]
                    out += split
                    queue += split
                else:
                    out.append(cell)
        else:
            row = adj[w.bit_length() - 1]
            for cell in cells:
                if cell & row and cell & ~row:
                    out += (cell & ~row, cell & row)
                    queue += (cell & ~row, cell & row)
                else:
                    out.append(cell)
        cells = out
    return cells


def _equitable(adj: Sequence[int]) -> list[int]:
    """The equitable partition _refine reaches from the unit partition: the
    root of every canonical search, as _canonical takes it. It starts from
    the cells of equal degree, the unit partition's first split."""
    parts: dict[int, int] = {}
    for v, row in enumerate(adj):
        d = row.bit_count()
        parts[d] = parts.get(d, 0) | 1 << v
    cells = [parts[d] for d in sorted(parts)]
    return _refine(adj, cells, cells) if len(cells) > 1 else cells


def _find(root: list[int], v: int) -> int:
    """The root of v's orbit in the union-find forest `root`."""
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


def _join(root: list[int], image: Sequence[int]) -> None:
    """Merge the orbits in `root` that the permutation `image` connects,
    keeping the least vertex of each orbit as its root; a fixed point
    connects nothing and is passed over."""
    for v, w in enumerate(image):
        if v != w:
            a, b = _find(root, v), _find(root, w)
            if a != b:
                root[max(a, b)] = min(a, b)


def _canonical(n: int, adj: Sequence[int], cells: list[int]) -> Canonical:
    """canonical_form on an adjacency table, unguarded, searched from `cells`,
    its root equitable partition (_equitable(adj)), together with the
    automorphisms the search found, written in the canonical labeling: p
    maps to a[p] in graph_from_code(n, certificate). They generate the
    automorphism group. Then the canonical labeling: vertex v is vertex
    label[v] of graph_from_code(n, certificate). Last, the union-find forest
    the search joined each automorphism into, in the input's own labels and
    read with _find: the orbit partition of Aut, as they generate it; only
    that partition is fixed, not the forest's links (_join passes over
    fixed points, so they are not path-halved). Class
    generation (extend_classes) calls it for every class it emits, and
    reads the labeling and orbits only when the new vertex ties with
    another on the augmentation invariant; census calls it for none of
    the graphs it decides."""
    shifts = [j * (j - 1) // 2 for j in range(n)]
    best = first_code = -1
    best_order: list[int] = []
    first_order: list[int] = []
    # vertex images, first_order[p] -> order[p] of a leaf with the first
    # leaf's code; one found below a first-path node fixes the vertices
    # individualized above it, so all those found by the time the node
    # searches its other children lie in the node's stabilizer. root is the
    # union-find of their orbits, joined as each one is found
    autos: list[list[int]] = []
    root = list(range(n))

    def child(cells: list[int], i: int, low: int) -> list[int]:
        cell = cells[i]
        return _refine(adj, cells[:i] + [low, cell ^ low] + cells[i + 1:], [low])

    def target(cells: list[int]) -> int:
        """Index of the first non-singleton cell, -1 at a leaf."""
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                return i
        return -1

    def leaf(cells: list[int]) -> list[int] | None:
        """Score a leaf, whose cell p holds the vertex that gets label p; if
        its code equals the first leaf's, return the automorphism."""
        nonlocal best, best_order
        order = [c.bit_length() - 1 for c in cells]
        code = 0
        for j in range(1, n):
            row = adj[order[j]]
            for p in range(j):
                if row & cells[p]:
                    code |= 1 << shifts[j] + p
        if code > best:
            best, best_order = code, order
        if code != first_code:
            return None
        image = [0] * n
        for v, w in zip(first_order, order):
            image[v] = w
        return image

    def explore(cells: list[int]) -> list[int] | None:
        """Search a subtree off the first path until a leaf equivalent to
        the first leaf; the rest of the subtree is then an automorphic image
        of the first path's subtree and is abandoned."""
        i = target(cells)
        if i < 0:
            return leaf(cells)
        rest = cells[i]
        while rest:
            low = rest & -rest
            image = explore(child(cells, i, low))
            if image is not None:
                return image
            rest ^= low
        return None

    def first_path(cells: list[int]) -> int:
        """Search the subtree of a first-path node, first child first, and
        return the order of the stabilizer of the vertices individualized
        above it: the orbit of its first child times the child's own."""
        nonlocal first_code, first_order
        i = target(cells)
        if i < 0:
            leaf(cells)
            first_code, first_order = best, best_order
            return 1
        cell = cells[i]
        low = cell & -cell
        below = first_path(child(cells, i, low))
        rest = cell ^ low
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            # a smaller root means the orbit holds a child already explored
            if _find(root, w) == w:
                image = explore(child(cells, i, bit))
                if image is not None:
                    autos.append(image)
                    _join(root, image)
        v = _find(root, low.bit_length() - 1)
        return below * sum(_find(root, w) == v for w in members(cell))

    try:
        aut = first_path(cells)
    finally:
        # explore and first_path hold themselves through their closures:
        # break those cycles, so that the search is freed on return, not at
        # a later garbage collection
        explore = first_path = None  # noqa: F841
    label = [0] * n
    for p, v in enumerate(best_order):
        label[v] = p
    found = tuple(tuple(label[image[v]] for v in best_order) for image in autos)
    return best, aut, found, label, root


def _check_census_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > CENSUS_GUARD:
        raise GuardError(
            f"census and isomorphism classes are guarded at order {CENSUS_GUARD}, got {order}"
        )


def canonical_form(g: Graph) -> tuple[int, int]:
    """(certificate, |Aut(g)|) by equitable refinement and individualization
    (McKay 1981). The search refines the unit partition to an equitable one,
    then individualizes each vertex of the first non-singleton cell in turn
    and refines again, down to discrete partitions. Each leaf orders the
    vertices; the certificate is the largest edge code (graph_code
    numbering) over the leaves, so two graphs are isomorphic exactly when
    their certificates are equal, and graph_from_code(order, certificate) is
    a canonical representative. The search is pruned by the automorphisms
    it finds (McKay and Piperno 2014): a leaf with the first leaf's code
    gives one; at a node on the first path, a child in the orbit of an
    explored child is skipped; and a subtree off the first path is left at
    its first leaf equivalent to the first leaf. What is skipped or left is
    an automorphic image of what was searched, so the certificate is that of
    the full search. |Aut(g)| is the product, along the first path, of the
    orbit sizes of the first child. Guarded at CENSUS_GUARD."""
    _check_census_order(g.order)
    return _canonical(g.order, g.adj, _equitable(g.adj))[:2]


def _subset_orbits(subsets: Sequence[int], automorphisms: Sequence[tuple[int, ...]]) -> list[int]:
    """The least member of each orbit of the group the automorphisms
    generate on `subsets`, vertex subsets (as masks) in ascending order and
    closed under the group, ascending."""
    seen = set()
    reps = []
    for s in subsets:
        if s in seen:
            continue
        seen.add(s)
        stack = [s]
        while stack:
            t = stack.pop()
            for a in automorphisms:
                u = vset(map(a.__getitem__, members(t)))
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        reps.append(s)
    return reps


def _least_degree_children(adj: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(s, m) in ascending s for each neighbourhood s of a new vertex,
    vertex len(adj), added to the graph with adjacency masks adj, under
    which the new vertex has the least degree of the child, and m the
    child's number of vertices of least degree. With low the graph's least
    degree (0 with no vertex), s is kept when |s| <= low, or |s| = low + 1
    and s holds every vertex of degree low; m counts the new vertex, the
    vertices of degree |s| outside s and those of degree |s| - 1 in s. The
    one statement of the rule, for class generation (extend_classes) and
    census (solver._rows)."""
    k = len(adj)
    low = min(map(int.bit_count, adj), default=0)
    # at[d]: the vertices of degree d; at[k] is empty, as no vertex has
    # degree k, and so is at[-1], read at |s| = 0
    at = [0] * (k + 1)
    for v, row in enumerate(adj):
        at[row.bit_count()] |= 1 << v
    for s in range(1 << k):
        d = s.bit_count()
        if d > low + 1 or d > low and at[low] & ~s:
            continue
        yield s, 1 + (at[d] & ~s).bit_count() + (at[d - 1] & s).bit_count()


# A class record: (certificate, |Aut|, automorphisms in the canonical
# labeling). Generation starts from the graph on no vertices.
ClassRecord = tuple[int, int, tuple[tuple[int, ...], ...]]
_ROOT: ClassRecord = (0, 1, ())
# What _canonical returns: certificate, |Aut|, automorphisms, labeling, orbits.
Canonical = tuple[int, int, tuple[tuple[int, ...], ...], list[int], list[int]]


def extend_classes(m: int, parents: Iterable[ClassRecord]) -> Iterator[ClassRecord]:
    """The class records on m vertices that canonical augmentation accepts
    from `parents`, classes on m - 1 vertices: given all of them, each class
    on m vertices comes out exactly once; see graph_classes. Each child is
    the parent's canonical labeling with the new vertex m - 1 added, with
    one neighbourhood per orbit of the parent's automorphisms on those that
    leave it at least degree (_least_degree_children)."""
    new = m - 1
    top = 1 << new
    for code, _, automorphisms in parents:
        base = decode_edges(new, code)
        # the new vertex must have the least degree; that set of
        # neighbourhoods is closed under Aut, which keeps degrees
        subsets = [s for s, _ in _least_degree_children(base)]
        for s in _subset_orbits(subsets, automorphisms):
            d = s.bit_count()
            adj = [a | top if s >> v & 1 else a for v, a in enumerate(base)] + [s]
            degree = [a.bit_count() for a in adj]
            # among the vertices of least degree, the new one must have the
            # least sum of neighbour degrees; ties go to the orbit test
            rank = [0] * m
            for v in range(m):
                if degree[v] == d:
                    rest = adj[v]
                    while rest:
                        low_bit = rest & -rest
                        rank[v] += degree[low_bit.bit_length() - 1]
                        rest ^= low_bit
            mine = rank[new]
            tied = [v for v in range(new) if degree[v] == d and rank[v] <= mine]
            if any(rank[v] < mine for v in tied):
                continue
            canon = _canonical(m, adj, _equitable(adj))
            if tied:
                # the canonical deletion: the tied vertex, the new one
                # included, of largest canonical label, up to automorphism;
                # orbits is the orbit partition of Aut(child) the search joined
                _, _, _, label, orbits = canon
                pick = max(tied, key=label.__getitem__)
                if label[pick] > label[new] and _find(orbits, pick) != _find(orbits, new):
                    continue
            yield canon[:3]


@cache
def _level(m: int) -> tuple[ClassRecord, ...]:
    """The class records on m vertices, in the order extend_classes emits
    them, each level extended from the one below; built once per process
    (about 0.4 MB for the levels on 0..7 vertices, 3.5 MB for the one on 8)."""
    return tuple(extend_classes(m, _level(m - 1))) if m else (_ROOT,)


def class_parents(order: int) -> tuple[ClassRecord, ...]:
    """The class records on order - 1 vertices, which extend_classes(order,
    ...) extends to every class on `order` vertices, and from which census
    counts every labeled graph on `order` vertices, built once per process
    (_level). Guarded at CENSUS_GUARD, checked for `order` before any
    work."""
    _check_census_order(order)
    return _level(order - 1)


def graph_classes(order: int) -> dict[int, int]:
    """{certificate: |Aut|} for every isomorphism class of graphs on `order`
    vertices, by canonical augmentation (McKay 1998, "Isomorph-free
    exhaustive generation"). Each class on m - 1 vertices is extended by a
    new vertex with one neighbourhood from each orbit of its automorphism
    group on the neighbourhoods that leave the new vertex at least degree,
    as automorphic neighbourhoods give isomorphic extensions. An extension is accepted only when the new vertex lies in
    the orbit of its canonical deletion: among the vertices that minimise
    (degree, sum of neighbour degrees), the one of largest canonical label.
    That orbit depends only on the class, so each class on m vertices is
    accepted exactly once, from the class of the graph it leaves when the
    canonical deletion is removed, and no certificates are compared. No
    other neighbourhood is walked, and a new vertex that does not minimise
    the invariant is rejected before any canonical form is computed; every
    accepted class gets its certificate
    from one canonical search, whose labeling and orbits the orbit test
    reads when the new vertex ties (extend_classes). The records are built
    once per process (_level).
    The class of a graph holds order!/|Aut| labeled graphs. Guarded at
    CENSUS_GUARD, checked before any work."""
    _check_census_order(order)
    return {cert: aut for cert, aut, _ in _level(order)}


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
            for u in members(g.adj[v]):
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
    return FamilyMembership(
        bipartite=_is_bipartite(g),
        cobipartite=_is_bipartite(complement(g)),
        split=_is_split(g),
    )
