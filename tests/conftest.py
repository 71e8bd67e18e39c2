"""Shared helpers: named small graphs and seeded random graphs."""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from functools import cache
from math import comb, factorial

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from sepcodes import (
    ALL_KINDS,
    BudgetError,
    CodeKind,
    Graph,
    Separation,
    build_graph,
    graph_classes,
    graph_code,
    graph_from_code,
    is_admissible,
    is_code,
    lower_bound,
    members,
)
from sepcodes.extremal import (
    _attaining_patterns,
    _free_edge_codes,
    eligible_outer_labels,
)
from sepcodes.graphs import _children, _level, class_rows, decode_edges

# Property tests draw the same examples on every run and stay bounded, so
# the suite is deterministic and fast; no example database is written.
settings.register_profile(
    "tier1", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("tier1")


def k1() -> Graph:
    return build_graph(1, [])


def k2() -> Graph:
    return build_graph(2, [(0, 1)])


def k3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def p3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


def p4() -> Graph:
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


def two_k1() -> Graph:
    return build_graph(2, [])


def own_signature_families(g: Graph, code: int) -> tuple[frozenset[int], frozenset[int]]:
    """The signatures of the code's own vertices, by definition: the open
    family {N(v) & C} and the closed family {N[v] & C}, v in C."""
    opens = frozenset(g.adj[v] & code for v in members(code))
    closeds = frozenset((g.adj[v] | 1 << v) & code for v in members(code))
    return opens, closeds


def edge_bit_pairs(order: int) -> list[tuple[int, int]]:
    """Upper-triangle vertex pairs in column-major order: (0,1), (0,2),
    (1,2), (0,3), ...; pair t is bit t of an edge code."""
    return [(i, j) for j in range(1, order) for i in range(j)]


def reference_graph_code(g: Graph) -> int:
    """Oracle for graph_code: one pair of edge_bit_pairs at a time."""
    code = 0
    for t, (i, j) in enumerate(edge_bit_pairs(g.order)):
        if g.adj[i] >> j & 1:
            code |= 1 << t
    return code


def reference_decode_edges(order: int, code: int) -> list[int]:
    """Oracle for decode_edges: one bit of the code at a time, bit t adding
    the edge edge_bit_pairs(order)[t]."""
    pairs = edge_bit_pairs(order)
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


def labeled_graphs(order: int):
    """Every labeled graph on `order` vertices, ascending by edge code: the
    labeled oracle that the class-based routes are checked against."""
    return (graph_from_code(order, code) for code in range(1 << comb(order, 2)))


def class_graphs(order: int, lo: int = 0, hi: int | None = None) -> list[tuple[Graph, int]]:
    """(graph, |Aut|) for each child graphs.class_rows(order, lo, hi)
    packs: by default one graph of every class on `order` vertices, in the
    labeling augmentation gives it."""
    rows, auts = class_rows(order, lo, hi)
    return [
        (Graph(order, tuple(rows[c * order : (c + 1) * order])), aut) for c, aut in enumerate(auts)
    ]


def class_fold(key, order: int) -> Counter:
    """How many labeled graphs on `order` vertices have each value of
    key(g), for a key that does not depend on the labeling: the one graph
    of each class (class_graphs) adds order!/|Aut| to its key, serially in
    this process. The tests' route to labeled counts through the classes
    census decides, for keys that census's kernel does not compute."""
    labelings = factorial(order)
    weights: Counter = Counter()
    for g, aut in class_graphs(order):
        weights[key(g)] += labelings // aut
    return weights


def random_graph(rng: random.Random, n: int) -> Graph:
    return graph_from_code(n, rng.getrandbits(comb(n, 2)))


@st.composite
def edge_codes(draw, max_order=62) -> tuple[int, int]:
    """(order, edge code) for any order 1..max_order, with any code in
    range for it."""
    n = draw(st.integers(1, max_order))
    return n, draw(st.integers(0, (1 << comb(n, 2)) - 1))


@st.composite
def graphs(draw, max_order=12):
    return graph_from_code(*draw(edge_codes(max_order)))


@st.composite
def sparse_graphs(draw, max_order=62) -> Graph:
    """Graphs of any order 1..max_order with at most twice as many edges."""
    n = draw(st.integers(1, max_order))
    if n == 1:
        return build_graph(1, ())
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    return build_graph(n, draw(st.lists(pairs, max_size=2 * n)))


@st.composite
def connected_sparse_graphs(draw, min_order=10, max_order=20) -> Graph:
    """A random spanning tree, path or cycle on min_order..max_order
    vertices, randomly labeled, plus 0-3 chords. Being connected, these are
    admissible more often than sparse_graphs' draws, and their searches are
    longer. The order is drawn down from max_order, so the examples
    Hypothesis favours are the largest."""
    n = max_order - draw(st.integers(0, max_order - min_order))
    shape = draw(st.sampled_from(("tree", "path", "cycle")))
    if shape == "tree":
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    else:
        edges = [(v - 1, v) for v in range(1, n)] + [(n - 1, 0)] * (shape == "cycle")
    label = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    chords = draw(st.lists(pairs, max_size=3))
    return build_graph(n, [(label[u], label[v]) for u, v in edges + chords])


def admissibility(g: Graph) -> tuple[bool, ...]:
    """The definitional admissibility key: is_admissible for each kind of
    ALL_KINDS, in that order. Folded over the classes (class_fold) it is
    the route to the admitting counts that does not read census's twin
    rules."""
    return tuple(is_admissible(g, kind) for kind in ALL_KINDS)


def twin_free_for(g: Graph, kind: CodeKind) -> bool:
    """Structural oracle for is_admissible, stated pairwise: no isolated
    vertex for a TD kind, no two non-adjacent vertices with equal open
    neighbourhoods for open and full separation, and no two adjacent
    vertices with equal closed neighbourhoods for closed and full
    separation."""
    sep = kind.separation
    if kind.total_domination and 0 in g.adj:
        return False
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if g.adj[u] >> v & 1:
                twins = g.adj[u] | 1 << u == g.adj[v] | 1 << v
                if twins and sep in (Separation.CLOSED, Separation.FULL):
                    return False
            elif g.adj[u] == g.adj[v] and sep in (Separation.OPEN, Separation.FULL):
                return False
    return True


def reference_separation_family(g: Graph, kind: CodeKind) -> list[int]:
    """The kind's separation family, built pair by pair from the adjacency:
    N[v] for D kinds or N(v) for TD kinds, and for each pair u, v
    (N(u) ^ N(v)) | {u, v} for location, N(u) ^ N(v) for open and
    N[u] ^ N[v] for closed separation (both for full). A vertex set is a
    kind-code exactly when it hits every set. It is cut to the
    inclusion-minimal sets by testing each one, smallest first, against
    every set kept so far, and ordered by largest vertex, then size, then
    value; it is [0] exactly when g is inadmissible. It shares no code with
    solver._candidates, whose minimal members the tests compare with it."""
    adj = g.adj
    closed = [nb | (1 << v) for v, nb in enumerate(adj)]
    sep = kind.separation
    sets = set(adj if kind.total_domination else closed)
    for u in range(g.order):
        for v in range(u + 1, g.order):
            if sep is Separation.LOCATION:
                sets.add(adj[u] ^ adj[v] | 1 << u | 1 << v)
            if sep in (Separation.OPEN, Separation.FULL):
                sets.add(adj[u] ^ adj[v])
            if sep in (Separation.CLOSED, Separation.FULL):
                sets.add(closed[u] ^ closed[v])
    minimal: list[int] = []
    for s in sorted(sets, key=lambda s: (s.bit_count(), s)):
        if all(m & s != m for m in minimal):
            minimal.append(s)
    return sorted(minimal, key=int.bit_length)


def reference_min_code(
    g: Graph, kind: CodeKind, budget: int
) -> tuple[int | None, int | None, int]:
    """Oracle for solver.min_code's search: the same lex-first hitting-set
    search over reference_separation_family, holding the unhit sets as a
    list and packing greedily by testing each one against the vertices used
    so far. Of sepcodes.solver it calls only lower_bound. Returns (number,
    witness, nodes); raises BudgetError past `budget` nodes, naming the
    cardinality it was searching, as min_code does."""
    if not is_admissible(g, kind):
        return None, None, 0
    n = g.order
    full = (1 << n) - 1
    nodes = 0

    def search(unhit: list[int], start: int, left: int) -> int | None:
        nonlocal nodes
        last = n - left
        if unhit:
            last = min(last, unhit[0].bit_length() - 1)
        for x in range(start, last + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"budget exhausted at cardinality {size}", subsets_tested=nodes
                )
            bit = 1 << x
            rest = [s for s in unhit if not s & bit]
            if left == 1:
                if not rest:
                    return bit
                continue
            above = full ^ ((bit << 1) - 1)
            used = packed = 0
            for s in rest:
                if not s & used:
                    used |= s & above
                    packed += 1
                    if packed == left:
                        break
            else:
                found = search(rest, x + 1, left - 1)
                if found is not None:
                    return found | bit
        return None

    family = reference_separation_family(g, kind)
    for size in range(max(1, lower_bound(kind, n)), n + 1):
        witness = search(family, 0, size)
        if witness is not None:
            return size, witness, nodes
    raise AssertionError("admissible graph has no code")


def window_number(g: Graph, kind: CodeKind) -> int | None:
    """Oracle for the kind-number of a path or cycle, by dynamic programming
    over the vertices in label order, with no separation family and no
    search. Two vertices can have equal nonempty signatures only if their
    closed neighbourhoods meet (a shared vertex is in both signatures), so
    the definition is the conjunction of one check per vertex, that it is
    dominated, and one per such pair, that their signatures differ, plus
    one global rule: for open and full separation at most one vertex has
    an empty open signature (for location separation every compared vertex
    is dominated outside the code, and closed signatures are never empty).

    A check runs once every bit it reads is decided; the state keeps only
    the bits some later check reads, and whether an empty open signature
    was seen. On a path those are the last four bits; a cycle keeps its
    first four too, read by the checks that wrap around, so no state has
    more than eight bits. Returns the least size of a code, or None when
    there is none."""
    n, adj = g.order, g.adj
    closed = [nb | 1 << v for v, nb in enumerate(adj)]
    sep = kind.separation
    location = sep is Separation.LOCATION
    opens = sep in (Separation.OPEN, Separation.FULL)
    closes = sep in (Separation.CLOSED, Separation.FULL)
    dom = adj if kind.total_domination else closed
    # checks by the vertex whose bit is the last they read
    due_vertices: list[list[int]] = [[] for _ in range(n)]
    due_pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    reads_after = [0] * n  # the bits read by the checks due after each vertex
    for v in range(n):
        due_vertices[closed[v].bit_length() - 1].append(v)
    for u, v in itertools.combinations(range(n), 2):
        if closed[u] & closed[v]:
            due_pairs[(closed[u] | closed[v]).bit_length() - 1].append((u, v))
    for i in range(n):
        for v in due_vertices[i]:
            for j in range(i):
                reads_after[j] |= closed[v]
        for u, v in due_pairs[i]:
            for j in range(i):
                reads_after[j] |= closed[u] | closed[v]

    def separated(c: int, u: int, v: int) -> bool:
        if location and (c >> u & 1 or c >> v & 1):
            return True
        if (opens or location) and adj[u] & c == adj[v] & c:
            return False
        return not closes or closed[u] & c != closed[v] & c

    best = {(0, False): 0}  # (kept bits, empty open signature seen): least size
    for i in range(n):
        keep = reads_after[i] & ((1 << (i + 1)) - 1)
        after: dict[tuple[int, bool], int] = {}
        for (c, empty), size in best.items():
            for bit in (0, 1):
                code = c | bit << i
                state_empty = empty
                ok = True
                for v in due_vertices[i]:
                    if not dom[v] & code:
                        ok = False
                    elif opens and not adj[v] & code:
                        ok = not state_empty
                        state_empty = True
                    if not ok:
                        break
                if not ok or not all(separated(code, u, v) for u, v in due_pairs[i]):
                    continue
                state = (code & keep, state_empty)
                if after.get(state, n + 1) > size + bit:
                    after[state] = size + bit
        best = after
    return min(best.values(), default=None)


def c0_edges(n: int, k: int) -> list[int]:
    """The single-bit edge codes of the edges meeting C0 = {0..k-1}: a
    C0-pattern (see extremal._attaining_patterns) is an edge code of order
    n made of these bits only."""
    return [1 << t for t, (i, _) in enumerate(edge_bit_pairs(n)) if i < k]


def outer_signatures(pattern: int, n: int, k: int) -> list[int]:
    """The signature on C0 of each outer vertex k..n-1 of a C0-pattern, read
    from the graph the pattern decodes to."""
    adj = decode_edges(n, pattern)
    return [nb & ((1 << k) - 1) for nb in adj[k:]]


def ascending(patterns, n: int, k: int) -> set[int]:
    """The members of `patterns` whose outer signatures ascend."""
    return {
        p for p in patterns
        if all(a < b for a, b in itertools.pairwise(outer_signatures(p, n, k)))
    }


def full_c0_patterns(kind: CodeKind, n: int, k: int) -> set[int]:
    """Oracle for extremal._attaining_patterns: every one of the
    2^|c0_edges(n, k)| C0-patterns, each decoded as a graph of order n and
    tested with the definitional codes.is_code, not with the mask test the
    scan uses, with no filter on the outer signatures. No k-set fits in
    fewer than k vertices, so there are none when n < k."""
    if n < k:
        return set()
    c0 = (1 << k) - 1
    return {
        pattern
        for pattern in _free_edge_codes(c0_edges(n, k))
        if is_code(graph_from_code(n, pattern), c0, kind)
    }


def full_family_patterns(kind: CodeKind, n: int, k: int) -> set[int]:
    """Oracle for extremal._family_patterns: for every admissible inner graph
    on C0, every ordered choice of n - k of its eligible labels as the
    signatures of the outer vertices k..n-1."""
    patterns = set()
    for inner_code in range(1 << comb(k, 2)):
        inner = graph_from_code(k, inner_code)
        if not is_admissible(inner, kind):
            continue
        for kept in itertools.permutations(eligible_outer_labels(kind.separation, inner), n - k):
            adj = list(inner.adj) + list(kept)
            for j, label in enumerate(kept, k):
                for u in members(label):
                    adj[u] |= 1 << j
            patterns.add(graph_code(Graph(n, tuple(adj))))
    return patterns


def relabel_codes(codes, perm, n: int) -> list[int]:
    """The edge codes `codes` of order n with each vertex v renamed perm[v]."""
    bit_of = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(edge_bit_pairs(n)):
        bit_of[i][j] = bit_of[j][i] = 1 << t
    images = [bit_of[perm[i]][perm[j]] for i, j in edge_bit_pairs(n)]
    # the images are distinct single bits, so their sum is their union
    return [sum(map(images.__getitem__, members(code))) for code in codes]


def outer_closure(patterns, n: int, k: int) -> set[int]:
    """`patterns` closed under every permutation of the outer vertices."""
    patterns = list(patterns)
    return {
        code
        for outer in itertools.permutations(range(k, n))
        for code in relabel_codes(patterns, tuple(range(k)) + outer, n)
    }


def label_closure(patterns, n: int, k: int) -> set[int]:
    """Labeled oracle for the audit's class weights: the edge codes of the
    labeled graphs of order n that carry a C0-pattern of the outer closure
    of `patterns` on some k-set C. Each such pattern is moved to C by the
    relabeling that maps C0 onto C and the rest onto the rest, both in
    ascending order, with every setting of the edges among the other n - k
    vertices. Any relabeling is one of these after one within C0 and one
    within the rest, so for patterns whose outer closure is closed under
    relabeling within C0 this is the closure under all n!."""
    every_order = outer_closure(patterns, n, k)
    closure: set[int] = set()
    for code_set in itertools.combinations(range(n), k):
        rest = [v for v in range(n) if v not in code_set]
        moved = relabel_codes(every_order, code_set + tuple(rest), n)
        free = [1 << t for t, (i, j) in enumerate(edge_bit_pairs(n)) if i in rest and j in rest]
        for f in _free_edge_codes(free):
            closure.update([code | f for code in moved])
    return closure


def attaining_codes(kind: CodeKind, n: int, k: int) -> set[int]:
    """Edge codes of every labeled graph of order n that has a kind-code of
    size k: the label closure of the attaining C0-patterns."""
    return label_closure(_attaining_patterns(kind, n, k), n, k)


def without_last_label(monkeypatch):
    """Make the family side drop each inner graph's last eligible label, and
    return the replacement; the attaining side reads no label, so the two
    sides then differ."""
    eligible = eligible_outer_labels

    def short(separation, inner):
        return eligible(separation, inner)[:-1]

    monkeypatch.setattr("sepcodes.extremal.eligible_outer_labels", short)
    return short


def relabeled(g: Graph, perm: list[int]) -> Graph:
    adj = [0] * g.order
    for u, v in g.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    return Graph(g.order, tuple(adj))


def reference_refine(adj, cells: list[int], splitters: list[int]) -> list[int]:
    """graphs._refine without its shortcuts: every cell is split by each
    of its vertices' neighbour count in the splitter, one vertex at a time,
    and replaced by its parts in ascending count, each a new splitter."""
    n = len(adj)
    queue = list(splitters)
    while queue and len(cells) < n:
        w = queue.pop()
        out = []
        for cell in cells:
            if cell & (cell - 1):
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
                    continue
            out.append(cell)
        cells = out
    return cells


def unpruned_canonical_form(g: Graph) -> tuple[int, int]:
    """canonical_form by the search tree with no automorphism pruning: every
    leaf is visited, the certificate is the largest leaf code, and |Aut| is
    the number of leaves that reach it. An oracle for the pruned search,
    which must give the same pair; n! leaves on the empty graph."""
    n, adj = g.order, g.adj
    best = -1
    count = 0
    shifts = [j * (j - 1) // 2 for j in range(n)]

    def visit(cells: list[int]) -> None:
        nonlocal best, count
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            order = [c.bit_length() - 1 for c in cells]
            code = 0
            for j in range(1, n):
                row = adj[order[j]]
                for p in range(j):
                    if row >> order[p] & 1:
                        code |= 1 << (shifts[j] + p)
            if code > best:
                best, count = code, 1
            elif code == best:
                count += 1
            return
        rest = cell
        while rest:
            low = rest & -rest
            visit(reference_refine(adj, cells[:i] + [low, cell ^ low] + cells[i + 1:], [low]))
            rest ^= low

    full = (1 << n) - 1
    visit(reference_refine(adj, [full], [full]))
    return best, count


@pytest.fixture(scope="session")
def classes_by_order() -> dict[int, dict[int, int]]:
    """graph_classes(n) for n = 1..7, built once per test run."""
    return {n: graph_classes(n) for n in range(1, 8)}


@pytest.fixture
def cold_classes(monkeypatch):
    """Empty class level and children caches, as in a fresh process; the
    warm ones come back after the test."""
    monkeypatch.setattr("sepcodes.graphs._level", cache(_level.__wrapped__))
    monkeypatch.setattr("sepcodes.graphs._children", cache(_children.__wrapped__))


@pytest.fixture
def spy_pools(monkeypatch):
    """Put a stand-in for ProcessPoolExecutor in the solver module, whose
    `scan` is the one fan-out, and in the extremal module, which keeps the
    name bound, and report 4 CPUs. Each stand-in pool
    records its worker count and tasks and runs them in this process, so
    no process is started. Returns the list of pools made."""
    pools = []

    class SpyPool:
        def __init__(self, max_workers=None):
            self.max_workers = max_workers
            self.tasks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            self.tasks += len(tasks)
            return [fn(*args) for args in tasks]

    monkeypatch.setattr("sepcodes.solver.ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr("sepcodes.extremal.ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return pools
