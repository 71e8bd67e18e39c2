"""Extremal constructions: graphs of maximum order among those whose
minimum code has a given cardinality k.

The construction takes an inner graph on k code vertices, attaches one
outer vertex per eligible nonempty subset of the code (its prescribed open
signature), and leaves the edges among outer vertices free. Deleting a
bounded number of outer vertices yields exactly the graphs attaining the
logarithmic lower bounds, which the audit verifies by exhaustive
enumeration at small orders.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
# not used here: kept bound because bench/tracer.py patches this name
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Sequence

from .codes import CodeKind, Separation, is_admissible, is_code
from .errors import BlueprintError, FormatError, GuardError
from .graphs import (
    ENUMERATION_GUARD,
    MAX_VERTICES,
    Graph,
    build_graph,
    complete_graph,
    disjoint_union,
    edge_bit_pairs,
    empty_graph,
    enumerate_labeled_graphs,
    graph_code,
    graph_from_code,
    induced_subgraph,
    is_isomorphic,
    labeled_graph_count,
    matching_graph,
    members,
    path_graph,
)
from .serialize import emit_graph6, parse_graph6
from .solver import (
    DEFAULT_BUDGET,
    SolveReport,
    lower_bound,
    make_mask_checker,
    min_code,
    scan,
)

AUDIT_EXHAUSTIVE_GUARD = ENUMERATION_GUARD
AUDIT_SAMPLED_GUARD = 10

INNER_PRESETS = {
    "empty": empty_graph,
    "complete": complete_graph,
    "path": path_graph,
    "matching": matching_graph,
}


@dataclass(frozen=True)
class OuterPolicy:
    """Edge policy for the subgraph induced by the outer vertices."""

    mode: str  # empty | complete | explicit | random
    graph: Graph | None = None
    seed: int | None = None
    probability: float | None = None

    @classmethod
    def empty(cls) -> "OuterPolicy":
        return cls("empty")

    @classmethod
    def complete(cls) -> "OuterPolicy":
        return cls("complete")

    @classmethod
    def explicit(cls, graph: Graph) -> "OuterPolicy":
        return cls("explicit", graph=graph)

    @classmethod
    def random(cls, seed: int, probability: float = 0.5) -> "OuterPolicy":
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")
        return cls("random", seed=seed, probability=probability)

    def describe(self) -> str:
        if self.mode == "explicit":
            return f"explicit:{emit_graph6(self.graph).decode('ascii')}"
        if self.mode == "random":
            return f"random:{self.seed}:{self.probability}"
        return self.mode


@dataclass(frozen=True)
class ExtremalBlueprint:
    """Declarative recipe: separation flavor, code size k, inner graph on
    the k code vertices, outer edge policy, and outer-label removals."""

    separation: Separation
    k: int
    inner: Graph
    outer: OuterPolicy = field(default_factory=OuterPolicy.empty)
    removals: tuple[int, ...] = ()


@dataclass(frozen=True)
class MaterializedExtremal:
    """A realized construction: the graph, its designated code (vertices
    0..k-1), and each outer vertex's signature label."""

    separation: Separation
    k: int
    graph: Graph
    code: int
    outer_labels: tuple[tuple[int, int], ...]

    @property
    def label_map(self) -> dict[int, int]:
        return dict(self.outer_labels)

    def inner(self) -> Graph:
        return induced_subgraph(self.graph, self.code)


def inner_has_isolated(inner: Graph) -> bool:
    return any(nb == 0 for nb in inner.adj)


def eligible_outer_labels(separation: Separation, inner: Graph) -> tuple[int, ...]:
    """Nonempty code subsets available as outer signatures: those colliding
    with no inner open signature (open sep.), closed signature (closed
    sep.), or either (full sep.); all nonempty subsets for location."""
    k = inner.order
    if separation is Separation.LOCATION:
        excluded: set[int] = set()
    elif separation is Separation.OPEN:
        excluded = set(inner.adj)
    elif separation is Separation.CLOSED:
        excluded = {nb | (1 << v) for v, nb in enumerate(inner.adj)}
    else:
        excluded = set(inner.adj) | {nb | (1 << v) for v, nb in enumerate(inner.adj)}
    return tuple(m for m in range(1, 1 << k) if m not in excluded)


def expected_order(separation: Separation, k: int, inner_isolated: bool) -> int:
    """Order of the construction before removals."""
    if separation is Separation.LOCATION:
        return (1 << k) - 1 + k
    if separation is Separation.OPEN:
        return (1 << k) if inner_isolated else (1 << k) - 1
    if separation is Separation.CLOSED:
        return (1 << k) - 1
    return (1 << k) - k if inner_isolated else (1 << k) - 1 - k


def removal_cap(kind: CodeKind, k: int, inner: Graph) -> int:
    """Largest number of outer vertices whose removal keeps the code
    minimum at the logarithmic bound."""
    isolated = inner_has_isolated(inner)
    if kind in (CodeKind.LD, CodeKind.LTD):
        return k - 1
    if kind is CodeKind.OD:
        return (1 << (k - 1)) - 1 if isolated else (1 << (k - 1)) - 2
    if kind in (CodeKind.OTD, CodeKind.ID, CodeKind.ITD):
        return (1 << (k - 1)) - 1
    if kind is CodeKind.FD:
        return (1 << (k - 1)) - k if isolated else (1 << (k - 1)) - 1 - k
    return (1 << (k - 1)) - k  # FTD


def _validate_blueprint(bp: ExtremalBlueprint) -> tuple[int, ...]:
    minimum_k = 4 if bp.separation is Separation.FULL else 2
    if bp.k < minimum_k:
        raise BlueprintError(
            f"separation {bp.separation.value} requires k >= {minimum_k}, got {bp.k}"
        )
    if bp.inner.order != bp.k:
        raise BlueprintError(
            f"inner graph has order {bp.inner.order}, expected k = {bp.k}"
        )
    if bp.separation is not Separation.LOCATION:
        if not is_admissible(bp.inner, CodeKind(bp.separation.value + "D")):
            condition = {
                Separation.OPEN: "open-twin-free",
                Separation.CLOSED: "closed-twin-free",
                Separation.FULL: "twin-free",
            }[bp.separation]
            raise BlueprintError(f"inner graph must be {condition}")
    labels = eligible_outer_labels(bp.separation, bp.inner)
    order0 = bp.k + len(labels)
    if order0 > MAX_VERTICES:
        raise BlueprintError(
            f"construction order {order0} exceeds capacity {MAX_VERTICES}"
        )
    if bp.outer.mode == "explicit" and bp.outer.graph.order != len(labels):
        raise BlueprintError(
            f"explicit outer graph has order {bp.outer.graph.order}, "
            f"expected {len(labels)} outer vertices"
        )
    seen: set[int] = set()
    for label in bp.removals:
        if label in seen:
            raise BlueprintError(f"duplicate removal label {label}")
        seen.add(label)
        if label not in labels:
            raise BlueprintError(f"removal label {label} names no eligible outer vertex")
    return labels


def _outer_edges(policy: OuterPolicy, count: int) -> list[tuple[int, int]]:
    if policy.mode == "empty":
        return []
    if policy.mode == "complete":
        return [(a, b) for a in range(count) for b in range(a + 1, count)]
    if policy.mode == "explicit":
        return list(policy.graph.edges())
    rng = random.Random(policy.seed)
    out = []
    for a in range(count):
        for b in range(a + 1, count):
            if rng.random() < policy.probability:
                out.append((a, b))
    return out


def _attach_outer(inner: Graph, labels: Sequence[int]) -> list[int]:
    """Adjacency of `inner` on vertices 0..k-1 plus one outer vertex k + idx
    per label, adjacent to exactly the members of its label."""
    k = inner.order
    adj = list(inner.adj) + list(labels)
    for idx, label in enumerate(labels):
        for u in members(label):
            adj[u] |= 1 << (k + idx)
    return adj


def materialize(bp: ExtremalBlueprint) -> MaterializedExtremal:
    """Build the construction: code vertices 0..k-1 carry the inner graph,
    outer vertices follow in ascending label order, each adjacent to exactly
    the members of its label; outer-outer edges follow the policy; removal
    labels are deleted last."""
    labels = _validate_blueprint(bp)
    k = bp.k
    pool = len(labels)
    adj = _attach_outer(bp.inner, labels)
    for a, b in _outer_edges(bp.outer, pool):
        adj[k + a] |= 1 << (k + b)
        adj[k + b] |= 1 << (k + a)
    graph = Graph(k + pool, tuple(adj))
    kept = [m for m in labels if m not in set(bp.removals)]
    if bp.removals:
        removed_vertices = {k + labels.index(m) for m in bp.removals}
        keep_mask = graph.vertex_mask
        for v in removed_vertices:
            keep_mask ^= 1 << v
        graph = induced_subgraph(graph, keep_mask)
    outer_labels = tuple((k + idx, label) for idx, label in enumerate(kept))
    return MaterializedExtremal(bp.separation, k, graph, (1 << k) - 1, outer_labels)


@dataclass(frozen=True)
class ExtremalCheck:
    """verify_extremal result: the designated code must be a kind-code and
    the solved kind-number must equal k."""

    kind: CodeKind
    k: int
    code_is_valid: bool
    number: int | None
    solve: SolveReport

    @property
    def passed(self) -> bool:
        return self.code_is_valid and self.number == self.k


def verify_extremal(
    me: MaterializedExtremal, kind: CodeKind, budget: int = DEFAULT_BUDGET
) -> ExtremalCheck:
    if kind.separation is not me.separation:
        raise BlueprintError(
            f"kind {kind.name} does not match construction separation "
            f"{me.separation.value}"
        )
    if kind.total_domination and any(
        (me.graph.adj[v] & me.code) == 0 for v in members(me.code)
    ):
        raise BlueprintError(
            f"{kind.name} requires an isolate-free inner graph"
        )
    valid = is_code(me.graph, me.code, kind)
    report = min_code(me.graph, kind, budget)
    return ExtremalCheck(kind, me.k, valid, report.number, report)


def characterization_family(
    kind: CodeKind,
    k: int,
    inner: Graph,
    outer: OuterPolicy | None = None,
):
    """Yield every materialization reachable by deleting an allowed-size
    subset of outer vertices, smallest deletions first, labels in
    lexicographic order."""
    outer = outer or OuterPolicy.empty()
    if not is_admissible(inner, kind):
        raise BlueprintError(f"inner graph is not {kind.name}-admissible")
    labels = eligible_outer_labels(kind.separation, inner)
    cap = min(removal_cap(kind, k, inner), len(labels))
    for r in range(cap + 1):
        for removed in itertools.combinations(labels, r):
            yield materialize(
                ExtremalBlueprint(kind.separation, k, inner, outer, removed)
            )


@dataclass(frozen=True)
class StructureCheck:
    """Does a graph, relative to one of its codes, exhibit the construction
    structure (distinct nonempty eligible outer signatures, admissible inner
    graph, removal count within the cap)?"""

    ok: bool
    reason: str = ""


def extremal_structure_check(g: Graph, code: int, kind: CodeKind) -> StructureCheck:
    k = code.bit_count()
    inner = induced_subgraph(g, code) if code else None
    if inner is None or not is_admissible(inner, kind):
        return StructureCheck(False, "inner graph is not admissible for this kind")
    # labels number the code's vertices 0..k-1 in ascending order, as the
    # inner graph does; signatures keep the numbering of g
    index = {v: i for i, v in enumerate(members(code))}
    eligible = set(eligible_outer_labels(kind.separation, inner))
    seen: set[int] = set()
    for v in range(g.order):
        if code >> v & 1:
            continue
        sig = g.adj[v] & code
        if sig == 0:
            return StructureCheck(False, f"vertex {v} has an empty outer signature")
        if sig in seen:
            return StructureCheck(False, f"duplicate outer signature {members(sig)}")
        if sum(1 << index[u] for u in members(sig)) not in eligible:
            return StructureCheck(
                False, f"outer signature {members(sig)} collides with the code's own"
            )
        seen.add(sig)
    removed = (k + len(eligible)) - g.order
    cap = removal_cap(kind, k, inner)
    if removed > cap:
        return StructureCheck(
            False, f"{removed} outer labels unused, cap is {cap}"
        )
    return StructureCheck(True)


# ---------------------------------------------------------------------------
# exhaustive / sampled audits of the characterizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    kind: CodeKind
    n: int
    k: int
    mode: str
    passed: bool
    attaining_count: int | None = None
    family_count: int | None = None
    family_class_count: int | None = None
    missing: tuple[str, ...] = ()
    unexpected: tuple[str, ...] = ()
    trials: int | None = None
    attained: int | None = None
    failures: tuple[str, ...] = ()


def _family_labeled_codes(kind: CodeKind, n: int, k: int) -> set[int]:
    """All fixed-partition labeled graphs of order n in the characterization
    family: every admissible inner graph, every allowed removal set, every
    edge set on the surviving outer vertices."""
    out: set[int] = set()
    free = _free_edge_codes(n, k)
    for inner in enumerate_labeled_graphs(k):
        if not is_admissible(inner, kind):
            continue
        labels = eligible_outer_labels(kind.separation, inner)
        pool = len(labels)
        r = (k + pool) - n
        if r < 0 or r > min(removal_cap(kind, k, inner), pool):
            continue
        for removed in itertools.combinations(labels, r):
            kept = [m for m in labels if m not in removed]
            base = graph_code(Graph(n, tuple(_attach_outer(inner, kept))))
            out.update([base | f for f in free])
    return out


def _free_edge_codes(n: int, k: int, perm: Sequence[int] = ()) -> list[int]:
    """Edge codes of every setting of the edges among vertices k..n-1, which
    no code test of {0..k-1} reads; with `perm`, of those edges carried to
    (perm[i], perm[j])."""
    pairs = edge_bit_pairs(n)
    bit = {pair: 1 << t for t, pair in enumerate(pairs)}
    perm = perm or range(n)
    free = [0]
    for i, j in pairs:
        if i >= k:
            edge = bit[min(perm[i], perm[j]), max(perm[i], perm[j])]
            free += [f | edge for f in free]
    return free


def _invariant_key(g: Graph) -> tuple:
    degs = [nb.bit_count() for nb in g.adj]
    profile = sorted(
        (degs[v], tuple(sorted(degs[u] for u in members(g.adj[v]))))
        for v in range(g.order)
    )
    return (tuple(sorted(degs)), tuple(profile))


def _iso_class_reps(codes: list[int], n: int) -> list[Graph]:
    buckets: dict[tuple, list[Graph]] = defaultdict(list)
    for code in sorted(codes):
        g = graph_from_code(n, code)
        bucket = buckets[_invariant_key(g)]
        if not any(is_isomorphic(g, rep) for rep in bucket):
            bucket.append(g)
    return [rep for _, bucket in sorted(buckets.items()) for rep in bucket]


def _expand_labelings(reps: list[Graph], n: int) -> set[int]:
    pos = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(edge_bit_pairs(n)):
        pos[i][j] = pos[j][i] = t
    out: set[int] = set()
    for rep in reps:
        edges = rep.edges()
        for perm in itertools.permutations(range(n)):
            code = 0
            for i, j in edges:
                code |= 1 << pos[perm[i]][perm[j]]
            out.add(code)
    return out


def _c0_patterns(kind_name: str, n: int, k: int, lo: int, hi: int) -> list[int]:
    """Patterns in [lo, hi) of the edges meeting C0 = {0..k-1} under which
    C0 is a kind-code. Bit s of a pattern is the s-th such edge in edge-code
    order; the edges among the other vertices are left out, as no code test
    reads them."""
    kind = CodeKind[kind_name]
    incident = [(i, j) for i, j in edge_bit_pairs(n) if i < k]
    bits = [1 << v for v in range(n)]
    c0 = (1 << k) - 1
    empty = [0] * n
    adj = empty.copy()
    closed = bits.copy()
    # the checker reads adj and closed when called; each pattern refills them
    check = make_mask_checker(n, adj, closed, kind)
    out: list[int] = []
    for pattern in range(lo, hi):
        # decode_edges fused with the refill of closed (the ID n = 7 audit ran 5% slower unfused)
        adj[:] = empty
        closed[:] = bits
        p = pattern
        s = 0
        while p:
            if p & 1:
                i, j = incident[s]
                adj[i] |= bits[j]
                adj[j] |= bits[i]
                closed[i] |= bits[j]
                closed[j] |= bits[i]
            p >>= 1
            s += 1
        if check(c0):
            out.append(pattern)
    return out


def _attaining_codes(kind: CodeKind, n: int, k: int, jobs: int = 1) -> set[int]:
    """Edge codes of every labeled graph of order n that has a kind-code of
    size k: for each k-set C, the good patterns of C0 = {0..k-1} carried to
    C by the relabeling that maps C0 onto C and the rest onto the rest, both
    in ascending order, each with every setting of the edges among the
    other n - k vertices, which no code test of C reads."""
    pairs = edge_bit_pairs(n)
    incident = [(i, j) for i, j in pairs if i < k]
    parts = scan(partial(_c0_patterns, kind.name, n, k), 1 << len(incident), jobs)
    patterns = [p for part in parts for p in part]
    bit_of = [[0] * n for _ in range(n)]
    for t, (i, j) in enumerate(pairs):
        bit_of[i][j] = bit_of[j][i] = 1 << t
    attaining: set[int] = set()
    for code_set in itertools.combinations(range(n), k):
        perm = code_set + tuple(v for v in range(n) if v not in code_set)
        images = [bit_of[perm[i]][perm[j]] for i, j in incident]
        moved = []
        for pattern in patterns:
            code = 0
            s = 0
            while pattern:
                if pattern & 1:
                    code |= images[s]
                pattern >>= 1
                s += 1
            moved.append(code)
        for f in _free_edge_codes(n, k, perm):
            attaining.update([code | f for code in moved])
    return attaining


def audit_characterization(
    kind: CodeKind,
    n: int,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = 200,
    jobs: int = 1,
) -> AuditReport:
    """Check the extremal characterization at order n.

    Exhaustive mode collects every labeled graph whose kind-number attains
    the logarithmic bound k and verifies exact equality with the
    label-closure of the characterization family (both directions, up to
    isomorphism). As no code is smaller than k, a graph attains k exactly
    when some k-set is a code. A code test reads only the edges meeting the
    candidate set, so the attaining graphs are found by projection
    (_attaining_codes): the patterns of the edges meeting {0..k-1} are
    tested once with the definitional mask test, moved to every other k-set
    by relabeling, and combined with every setting of the edges the test
    never reads. This is exact, not a sample: it yields the same set as
    testing every k-set on each of the 2^(n(n-1)/2) labeled graphs, and it
    uses nothing of the construction, so the two sides stay independent.
    `jobs` (clamped to [1, os.cpu_count()]) shards the pattern scan; the
    result does not depend on it. Sampled mode solves seeded random graphs
    and structurally checks every attaining one against the
    construction."""
    k = lower_bound(kind, n)
    if k < 1:
        raise GuardError(f"no attainment theory at order {n} (bound is {k})")
    if mode == "exhaustive":
        if n > AUDIT_EXHAUSTIVE_GUARD:
            raise GuardError(
                f"exhaustive audit is guarded at order {AUDIT_EXHAUSTIVE_GUARD}"
            )
        # before the family side, so that a pool forks a small process
        attaining = _attaining_codes(kind, n, k, jobs)
        family = _family_labeled_codes(kind, n, k)
        reps = _iso_class_reps(sorted(family), n)
        closure = _expand_labelings(reps, n)
        missing = sorted(closure - attaining)
        unexpected = sorted(attaining - closure)

        def sample(codes: list[int]) -> tuple[str, ...]:
            return tuple(
                emit_graph6(graph_from_code(n, c)).decode("ascii") for c in codes[:5]
            )

        return AuditReport(
            kind,
            n,
            k,
            mode,
            passed=not missing and not unexpected,
            attaining_count=len(attaining),
            family_count=len(closure),
            family_class_count=len(reps),
            missing=sample(missing),
            unexpected=sample(unexpected),
        )
    if mode == "sampled":
        if n > AUDIT_SAMPLED_GUARD:
            raise GuardError(f"sampled audit is guarded at order {AUDIT_SAMPLED_GUARD}")
        rng = random.Random(seed)
        nbits = comb(n, 2)
        attained = 0
        failures: list[str] = []
        for _ in range(trials):
            g = graph_from_code(n, rng.getrandbits(nbits))
            report = min_code(g, kind)
            if report.number != k:
                continue
            attained += 1
            structure = extremal_structure_check(g, report.witness, kind)
            if not structure.ok:
                failures.append(emit_graph6(g).decode("ascii"))
        return AuditReport(
            kind,
            n,
            k,
            mode,
            passed=not failures,
            trials=trials,
            attained=attained,
            failures=tuple(failures[:5]),
        )
    raise ValueError(f"unknown audit mode {mode!r}")


# ---------------------------------------------------------------------------
# the disconnected minimum-OD case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisconnectionReport:
    k: int
    materialized: MaterializedExtremal
    removed_count: int
    expected: Graph
    isomorphic: bool | None
    od_number: int | None

    @property
    def passed(self) -> bool:
        return self.isomorphic is not False and self.od_number == self.k


def od_disconnection_case(k: int, inner: Graph | None = None) -> DisconnectionReport:
    """Build the open construction over an inner graph with one isolated
    vertex u, then delete every outer vertex whose label contains u except
    the one labeled {u}. The result splits into an edge plus the one-size-
    smaller construction and still has OD-number k."""
    if k < 3:
        raise BlueprintError(f"the disconnection case requires k >= 3, got {k}")
    if inner is None:
        clique = complete_graph(k - 1)
        inner = Graph(k, tuple(clique.adj) + (0,))
    isolated = [v for v in range(inner.order) if inner.adj[v] == 0]
    if len(isolated) != 1:
        raise BlueprintError(
            f"inner graph must have exactly one isolated vertex, found {len(isolated)}"
        )
    u = isolated[0]
    labels = eligible_outer_labels(Separation.OPEN, inner)
    removals = tuple(m for m in labels if m >> u & 1 and m != 1 << u)
    me = materialize(
        ExtremalBlueprint(Separation.OPEN, k, inner, OuterPolicy.empty(), removals)
    )
    rest_inner = induced_subgraph(inner, inner.vertex_mask ^ (1 << u))
    smaller = materialize(ExtremalBlueprint(Separation.OPEN, k - 1, rest_inner))
    expected = disjoint_union(build_graph(2, [(0, 1)]), smaller.graph)
    isomorphic: bool | None
    if me.graph.order <= 10 and expected.order <= 10:
        isomorphic = is_isomorphic(me.graph, expected)
    else:
        isomorphic = None
    number = min_code(me.graph, CodeKind.OD).number
    return DisconnectionReport(k, me, len(removals), expected, isomorphic, number)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


@dataclass
class CountReport:
    """Enumerated counts of k-vertex graphs admitting each separation flavor
    (all labeled / isolate-free labeled), plus the closed-form construction
    counts built from them."""

    k: int
    eta: int
    eta_by_sep: dict[Separation, int]
    eta_bar_by_sep: dict[Separation, int]
    family_counts: dict[Separation, int]


def _sep_admitting_counts(m: int) -> tuple[dict[Separation, int], dict[Separation, int]]:
    totals = {sep: 0 for sep in Separation}
    isolate_free = {sep: 0 for sep in Separation}
    if m == 0:
        return totals, isolate_free
    for g in enumerate_labeled_graphs(m):
        iso_free = all(nb != 0 for nb in g.adj)
        open_ok = is_admissible(g, CodeKind.OD)
        closed_ok = is_admissible(g, CodeKind.ID)
        flags = {
            Separation.LOCATION: True,
            Separation.OPEN: open_ok,
            Separation.CLOSED: closed_ok,
            Separation.FULL: open_ok and closed_ok,
        }
        for sep, ok in flags.items():
            if ok:
                totals[sep] += 1
                if iso_free:
                    isolate_free[sep] += 1
    return totals, isolate_free


def _product(factor: int, graph_order: int) -> int:
    if graph_order < 0:
        if factor != 0:
            raise AssertionError("negative free-part order with nonzero inner count")
        return 0
    return factor * labeled_graph_count(graph_order)


def counting(k: int) -> CountReport:
    """Exhaustively enumerated admitting-graph counts at size k together
    with the construction-count formulas (free parts counted by formula,
    never enumerated)."""
    if not 2 <= k <= 5:
        raise GuardError(f"counting is supported for 2 <= k <= 5, got {k}")
    eta = labeled_graph_count(k)
    totals, iso_free = _sep_admitting_counts(k)
    _, iso_free_prev = _sep_admitting_counts(k - 1)
    two_k = 1 << k
    family_counts = {
        Separation.LOCATION: _product(eta, two_k - 1),
        Separation.OPEN: _product(iso_free[Separation.OPEN], two_k - 1 - k)
        + _product(iso_free_prev[Separation.OPEN], two_k - k),
        Separation.CLOSED: _product(totals[Separation.CLOSED], two_k - 1 - k),
        Separation.FULL: _product(iso_free[Separation.FULL], two_k - 1 - 2 * k)
        + _product(iso_free_prev[Separation.FULL], two_k - 2 * k),
    }
    return CountReport(k, eta, totals, iso_free, family_counts)


# ---------------------------------------------------------------------------
# tight presets for the bipartite / cobipartite / split families
# ---------------------------------------------------------------------------

_TIGHT_RECIPES: dict[CodeKind, tuple[tuple[str, str, str], ...]] = {
    CodeKind.LD: (
        ("bipartite", "empty", "empty"),
        ("cobipartite", "complete", "complete"),
        ("split", "complete", "empty"),
    ),
    CodeKind.LTD: (
        ("cobipartite", "complete", "complete"),
        ("split", "complete", "empty"),
    ),
    CodeKind.ID: (
        ("bipartite", "empty", "empty"),
        ("split", "empty", "complete"),
    ),
    CodeKind.OD: (
        ("cobipartite", "complete", "complete"),
        ("split", "complete", "empty"),
    ),
    CodeKind.OTD: (
        ("cobipartite", "complete", "complete"),
        ("split", "complete", "empty"),
    ),
}


@dataclass(frozen=True)
class TightPreset:
    kind: CodeKind
    k: int
    family: str
    inner_policy: str
    outer_policy: str
    materialized: MaterializedExtremal
    in_family: bool
    number: int | None
    bound: int

    @property
    def passed(self) -> bool:
        return self.in_family and self.number == self.k == self.bound


def tight_family_presets(kind: CodeKind, k: int) -> list[TightPreset]:
    """The named bipartite / cobipartite / split constructions whose
    kind-number attains the logarithmic bound, each verified for family
    membership and tightness."""
    if kind not in _TIGHT_RECIPES:
        allowed = ", ".join(kd.name for kd in _TIGHT_RECIPES)
        raise ValueError(f"no tight presets for {kind.name}; available for {allowed}")
    from .graphs import family_membership  # deferred: only needed here

    out = []
    for family, inner_name, outer_name in _TIGHT_RECIPES[kind]:
        inner = INNER_PRESETS[inner_name](k)
        outer = OuterPolicy.complete() if outer_name == "complete" else OuterPolicy.empty()
        me = materialize(ExtremalBlueprint(kind.separation, k, inner, outer))
        membership = family_membership(me.graph)
        in_family = getattr(membership, family)
        check = verify_extremal(me, kind)
        bound = lower_bound(kind, me.graph.order)
        out.append(
            TightPreset(
                kind, k, family, inner_name, outer_name, me, in_family, check.number, bound
            )
        )
    return out


# ---------------------------------------------------------------------------
# blueprint text format
# ---------------------------------------------------------------------------


def parse_blueprint(text: str) -> ExtremalBlueprint:
    """Parse the blueprint file format: lines sep=<L|O|I|F>, k=<int>,
    inner=<graph6|empty|complete|path|matching>,
    outer=<empty|complete|graph6|random:seed:prob>, remove=<labels>."""
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in fields:
            raise FormatError(f"duplicate blueprint key {key!r}")
        fields[key] = value.strip()
    for required in ("sep", "k", "inner"):
        if required not in fields:
            raise FormatError(f"blueprint is missing the {required}= line")
    unknown = set(fields) - {"sep", "k", "inner", "outer", "remove"}
    if unknown:
        raise FormatError(f"unknown blueprint keys: {sorted(unknown)}")
    try:
        separation = Separation(fields["sep"].upper())
    except ValueError:
        raise FormatError(f"sep must be one of L, O, I, F, got {fields['sep']!r}") from None
    try:
        k = int(fields["k"])
    except ValueError:
        raise FormatError(f"k must be an integer, got {fields['k']!r}") from None
    inner_text = fields["inner"]
    if inner_text.lower() in INNER_PRESETS:
        inner = INNER_PRESETS[inner_text.lower()](k)
    else:
        inner = parse_graph6(inner_text)
    outer_text = fields.get("outer", "empty").strip()
    if outer_text.lower() == "empty" or not outer_text:
        outer = OuterPolicy.empty()
    elif outer_text.lower() == "complete":
        outer = OuterPolicy.complete()
    elif outer_text.lower().startswith("random:"):
        parts = outer_text.split(":")
        if len(parts) != 3:
            raise FormatError("random outer policy must be random:<seed>:<prob>")
        try:
            outer = OuterPolicy.random(int(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise FormatError(f"bad random outer policy: {exc}") from None
    else:
        outer = OuterPolicy.explicit(parse_graph6(outer_text))
    removals: tuple[int, ...] = ()
    if fields.get("remove"):
        try:
            removals = tuple(int(tok) for tok in fields["remove"].split(","))
        except ValueError:
            raise FormatError(f"remove labels must be integers, got {fields['remove']!r}") from None
    return ExtremalBlueprint(separation, k, inner, outer, removals)
