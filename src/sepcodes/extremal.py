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
# not used here: kept bound because bench/tracer.py patches this name
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Iterable, Iterator

from .codes import ALL_KINDS, CodeKind, Separation, is_admissible, is_code
from .errors import BlueprintError, FormatError, GuardError
from .graphs import (
    MAX_VERTICES,
    Graph,
    _canonical,
    _equitable,
    build_graph,
    complete_graph,
    decode_edges,
    disjoint_union,
    empty_graph,
    family_membership,
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
    census_kinds,
    expected_order,
    lower_bound,
    make_mask_checker,
    min_code,
    smallest_k,
)

# at n = 8 the ID scan makes 43744 mask checks in 0.17-0.28 s; the 10560
# patterns that pass, one graph per orbit of Sym(C0), make 29740 graphs, which
# `_classes` sorts into 5843 classes with 24397 isomorphism tests in 1.9-2.8 s
# (the audit 2.0-3.6 s, all eight kinds 9-12 s, 2-vCPU shared host); `_classes`
# runs the canonical search unguarded, so this stays at most CENSUS_GUARD
AUDIT_EXHAUSTIVE_GUARD = 8
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

    def inner(self) -> Graph:
        return induced_subgraph(self.graph, self.code)


def inner_has_isolated(inner: Graph) -> bool:
    return any(nb == 0 for nb in inner.adj)


def _own_signatures(separation: Separation, g: Graph, code: int) -> frozenset[int]:
    """The code's own signatures, which no outer vertex may carry, read off
    g.adj as codes.is_separating reads them: of each member v, the open
    signature N(v) & C (O), the closed one N[v] & C (I), both (F), none (L)."""
    sides = {"O": (0,), "I": (1,), "F": (0, 1)}.get(separation.value, ())
    return frozenset((g.adj[v] | closed << v) & code for v in members(code) for closed in sides)


def eligible_outer_labels(separation: Separation, inner: Graph) -> tuple[int, ...]:
    """Nonempty code subsets available as outer signatures: those that are
    not the inner graph's own signatures (see _own_signatures)."""
    excluded = _own_signatures(separation, inner, inner.vertex_mask)
    return tuple(m for m in range(1, 1 << inner.order) if m not in excluded)


def _validate_blueprint(bp: ExtremalBlueprint) -> tuple[int, ...]:
    minimum_k = smallest_k(CodeKind(bp.separation.value + "D"))
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
    # from the formula, before the up to 2^k - 1 labels are listed; removed
    # labels are never built, so the capacity bounds the final order
    order0 = expected_order(bp.separation, bp.k, inner_has_isolated(bp.inner))
    order = order0 - len(set(bp.removals))
    if order > MAX_VERTICES:
        raise BlueprintError(
            f"construction order {order} exceeds capacity {MAX_VERTICES}"
        )
    labels = eligible_outer_labels(bp.separation, bp.inner)
    assert bp.k + len(labels) == order0, "expected_order disagrees with the eligible labels"
    if bp.outer.mode == "explicit" and bp.outer.graph.order != len(labels):
        raise BlueprintError(
            f"explicit outer graph has order {bp.outer.graph.order}, "
            f"expected {len(labels)} outer vertices"
        )
    eligible = frozenset(labels)
    seen: set[int] = set()
    for label in bp.removals:
        if label in seen:
            raise BlueprintError(f"duplicate removal label {label}")
        seen.add(label)
        if label not in eligible:
            raise BlueprintError(f"removal label {label} names no eligible outer vertex")
    return labels


def _outer_edges(policy: OuterPolicy, count: int) -> Iterator[tuple[int, int]]:
    if policy.mode == "explicit":
        yield from policy.graph.edges()
    elif policy.mode != "empty":
        rng = random.Random(policy.seed)
        for a, b in itertools.combinations(range(count), 2):
            if policy.mode == "complete" or rng.random() < policy.probability:
                yield a, b


def materialize(bp: ExtremalBlueprint) -> MaterializedExtremal:
    """Build the construction: code vertices 0..k-1 carry the inner graph,
    and the outer vertices of the labels not removed follow in ascending
    label order, each adjacent to exactly the members of its label; removed
    labels are never built. Outer-outer edges follow the policy, drawn over
    all eligible labels (an explicit outer graph has one vertex per eligible
    label); an edge is kept when both of its ends are built."""
    labels = _validate_blueprint(bp)
    k = bp.k
    removed = set(bp.removals)
    kept = [idx for idx, label in enumerate(labels) if label not in removed]
    vertex = {idx: k + j for j, idx in enumerate(kept)}  # eligible index -> vertex
    outer_labels = tuple((vertex[idx], labels[idx]) for idx in kept)
    adj = list(bp.inner.adj) + [label for _, label in outer_labels]
    for v, label in outer_labels:
        for u in members(label):
            adj[u] |= 1 << v
    for a, b in _outer_edges(bp.outer, len(labels)):
        if a in vertex and b in vertex:
            adj[vertex[a]] |= 1 << vertex[b]
            adj[vertex[b]] |= 1 << vertex[a]
    graph = Graph(len(adj), tuple(adj))
    return MaterializedExtremal(bp.separation, k, graph, (1 << k) - 1, outer_labels)


@dataclass(frozen=True)
class ExtremalCheck:
    """verify_extremal result: the designated code must be a kind-code and
    the solved kind-number must equal k."""

    kind: CodeKind
    k: int
    code_is_valid: bool
    solve: SolveReport

    @property
    def number(self) -> int | None:
        return self.solve.number

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
    if kind.total_domination and inner_has_isolated(me.inner()):
        raise BlueprintError(
            f"{kind.name} requires an isolate-free inner graph"
        )
    valid = is_code(me.graph, me.code, kind)
    return ExtremalCheck(kind, me.k, valid, min_code(me.graph, kind, budget))


@dataclass(frozen=True)
class StructureCheck:
    """Does a graph, relative to one of its codes, exhibit the construction
    structure (distinct nonempty eligible outer signatures, admissible inner
    graph, an order whose bound is k)?"""

    ok: bool
    reason: str = ""


def extremal_structure_check(g: Graph, code: int, kind: CodeKind) -> StructureCheck:
    k = code.bit_count()
    inner = induced_subgraph(g, code) if code else None
    if inner is None or not is_admissible(inner, kind):
        return StructureCheck(False, "inner graph is not admissible for this kind")
    excluded = _own_signatures(kind.separation, g, code)
    seen: set[int] = set()
    for v in range(g.order):
        if code >> v & 1:
            continue
        sig = g.adj[v] & code
        if sig == 0:
            return StructureCheck(False, f"vertex {v} has an empty outer signature")
        if sig in seen:
            return StructureCheck(False, f"duplicate outer signature {members(sig)}")
        if sig in excluded:
            return StructureCheck(
                False, f"outer signature {members(sig)} collides with the code's own"
            )
        seen.add(sig)
    bound = lower_bound(kind, g.order)
    if bound < k:
        return StructureCheck(False, f"order {g.order} has bound {bound}, below k = {k}")
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


def _family_patterns(kind: CodeKind, n: int, k: int) -> set[int]:
    """C0-patterns of the characterization family at order n, for every
    admissible inner graph on C0 and every choice of n - k of its eligible
    labels, ascending on the outer vertices k..n-1."""
    shifts = [comb(j, 2) for j in range(k, n)]
    patterns: set[int] = set()
    for inner_code in range(1 << comb(k, 2)):
        inner = graph_from_code(k, inner_code)
        if not is_admissible(inner, kind):
            continue
        # n has bound k by definition, so every such choice attains k
        labels = eligible_outer_labels(kind.separation, inner)
        for kept in itertools.combinations(labels, n - k):
            patterns.add(inner_code | sum(label << s for label, s in zip(kept, shifts)))
    return patterns


def _free_edge_codes(bits: Iterable[int]) -> list[int]:
    """Every union of the single-bit edge codes `bits`: given the edges among
    the vertices outside a k-set, every setting of them, which no code test
    of the k-set reads."""
    free = [0]
    for bit in bits:
        free += [f | bit for f in free]
    return free


def _c0_image(pattern: int, sigma: tuple[int, ...], n: int, k: int) -> tuple[int, list[int]]:
    """A C0-pattern with its distinct outer signatures relabeled: the code
    vertices 0..k-1 by `sigma`, then the outer vertices k..n-1 re-sorted so
    that their new signatures ascend. Returns the image pattern and the
    images of the single-bit codes of the edges ij among the outer vertices,
    listed by j, then i, as `_c0_orbit_codes` lists them, so `_free_edge_codes`
    of the images holds each setting's image at the setting's index."""
    shift = [j * (j - 1) // 2 for j in range(n)]
    # a pattern has no edges among the outer vertices: their rows are the signatures
    adj = decode_edges(n, pattern)
    image = 0
    for j in range(1, k):
        for i in range(j):
            if adj[j] >> i & 1:
                a, b = sigma[i], sigma[j]
                image |= 1 << shift[b] + a if a < b else 1 << shift[a] + b
    sigs = []
    for row in adj[k:]:
        sig = 0
        for v in range(k):
            if row >> v & 1:
                sig |= 1 << sigma[v]
        sigs.append(sig)
    place = [0] * (n - k)
    for r, j in enumerate(sorted(range(n - k), key=sigs.__getitem__)):
        place[j] = k + r
        image |= sigs[j] << shift[k + r]
    bits = []
    for j in range(n - k):
        for i in range(j):
            a, b = place[i], place[j]
            bits.append(1 << shift[b] + a if a < b else 1 << shift[a] + b)
    return image, bits


def _c0_orbit_codes(patterns: Iterable[int], n: int, k: int) -> list[int]:
    """One edge code per orbit of Sym(C0) among the patterns joined with
    every setting of the edges among the outer vertices. σ maps each graph
    to an isomorphic one (`_c0_image`), so the kept codes meet every
    isomorphism class the full list meets, whether or not `patterns` is
    closed under σ. A pattern in the orbit of an earlier one is skipped, as
    each of its graphs is an image of one of the earlier pattern's; within
    a pattern only the σ that fix it map its settings among themselves, so
    a setting is kept unless it is such an image of a kept one."""
    free = _free_edge_codes(1 << (comb(j, 2) + i) for j in range(k, n) for i in range(k, j))
    sigmas = list(itertools.permutations(range(k)))
    done: set[int] = set()
    kept = []
    for p in sorted(patterns):
        if p in done:
            continue
        images = [_c0_image(p, sigma, n, k) for sigma in sigmas]
        done.update(q for q, _ in images)
        fixing = [_free_edge_codes(bits) for q, bits in images if q == p]
        seen: set[int] = set()
        for t, f in enumerate(free):
            if f not in seen:
                kept.append(p | f)
                seen.update(settings[t] for settings in fixing)
    return kept


def _quotient(adj: tuple[int, ...], cells: list[int]) -> tuple[int, ...]:
    """The quotient of the equitable partition `cells`, flat: the cells'
    sizes, then row by row how many neighbours a vertex of each cell has in
    each cell, in the cells' order. Its length, k + k^2 for k cells, fixes
    k, so two quotients are equal exactly when their sizes and counts are.
    On the root partition (`_equitable`) it does not depend on the
    labeling."""
    rows = [adj[c.bit_length() - 1] for c in cells]
    return (*map(int.bit_count, cells), *[(row & d).bit_count() for row in rows for d in cells])


def _classes(codes: Iterable[int], n: int) -> dict[int, int]:
    """{certificate: |Aut|} of the isomorphism classes of the graphs with
    these edge codes: one representative per class, found by bucketing on
    the `_quotient` of the root equitable partition and testing
    `is_isomorphic` within a bucket, and its canonical form, searched from
    the root partition the bucketing refined."""
    buckets: dict[tuple[int, ...], list[tuple[Graph, list[int]]]] = {}
    for code in sorted(codes):
        g = graph_from_code(n, code)
        cells = _equitable(g.adj)
        bucket = buckets.setdefault(_quotient(g.adj, cells), [])
        if not any(is_isomorphic(g, rep) for rep, _ in bucket):
            bucket.append((g, cells))
    return dict(_canonical(n, g.adj, cells)[:2] for g, cells in itertools.chain(*buckets.values()))


def _attaining_patterns(kind: CodeKind, n: int, k: int) -> set[int]:
    """C0-patterns under which C0 = {0..k-1} is a kind-code, none when
    n < k. A C0-pattern is the edge code of a graph with no edges among the
    outer vertices k..n-1: its low C(k, 2) bits are the inner graph on C0,
    and outer vertex j has its signature on C0 at bit C(j, 2). The edges
    among the outer vertices are left out, as no code test of C0 reads
    them. Each outer vertex lies outside C0, so under every kind a code
    gives it a nonempty signature on C0 (domination) and any two of them
    different signatures (separation): no other pattern can pass.
    Relabeling the outer vertices keeps C0 a code, so only signatures that
    ascend on k..n-1 are scanned, and `make_mask_checker` decides each.
    The sets of the code vertices alone (their neighbourhoods and their
    pairs) read only the inner rows, so they are sets of every pattern on
    that inner graph: an inner graph on which C0 misses one of them is
    skipped with all its signature choices."""
    if n < k:
        return set()
    c0 = (1 << k) - 1
    shifts = [comb(j, 2) for j in range(k, n)]
    # the checker reads only the bits of the adjacency in C0: the inner
    # code's rows for the code vertices, the signatures for the outer ones
    check = make_mask_checker(kind)
    out: set[int] = set()
    for inner in range(1 << comb(k, 2)):
        base = tuple(decode_edges(k, inner))
        if not check(base, c0):
            continue
        for sigs in itertools.combinations(range(1, c0 + 1), n - k):
            if check(base + sigs, c0):
                out.add(inner | sum(sig << s for sig, s in zip(sigs, shifts)))
    return out


def audit_characterization(
    kind: CodeKind,
    n: int,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = 200,
) -> AuditReport:
    """Check the extremal characterization at order n.

    Exhaustive mode checks that the labeled graphs whose kind-number attains
    the logarithmic bound k are exactly the relabelings of the
    characterization family. Each side is a set of C0-patterns (see
    `_attaining_patterns`) whose outer signatures ascend. Both full sets are
    closed under relabeling of the outer vertices k..n-1, so every labeled
    graph with a pattern of either on some k-set is isomorphic to a pattern
    of the side joined with a setting of the edges among the outer
    vertices, which no code test of the k-set reads. `_classes` sorts one of
    those per orbit of Sym(C0) (`_c0_orbit_codes`) into isomorphism
    classes, {certificate: |Aut|}, and a class stands for n!/|Aut| labeled
    graphs. The attaining side keeps the patterns under which C0 is a
    code; as no code is smaller than k, a graph attains k
    exactly when some k-set is a code. It uses nothing of the construction,
    so the two sides stay independent. The family side takes every
    admissible inner graph and every choice of n - k of its eligible outer
    labels. The classes depend only on the pattern set, so when the two
    sets are equal one class dict serves both sides. The counts are the
    summed class weights, and `missing` and `unexpected` hold the canonical
    representatives of the classes on one side only. Sampled mode solves
    seeded random graphs and structurally checks every attaining one
    against the construction."""
    k = lower_bound(kind, n)
    if k < 1:
        raise GuardError(f"no attainment theory at order {n} (bound is {k})")
    if mode == "exhaustive":
        if n > AUDIT_EXHAUSTIVE_GUARD:
            raise GuardError(
                f"exhaustive audit is guarded at order {AUDIT_EXHAUSTIVE_GUARD}"
            )
        attaining_patterns = _attaining_patterns(kind, n, k)
        patterns = _family_patterns(kind, n, k)

        def side_classes(side: set[int]) -> dict[int, int]:
            return _classes(_c0_orbit_codes(side, n, k), n)

        family = side_classes(patterns)
        attaining = family if attaining_patterns == patterns else side_classes(attaining_patterns)
        missing = sorted(family.keys() - attaining.keys())
        unexpected = sorted(attaining.keys() - family.keys())

        def count(classes: dict[int, int]) -> int:
            return sum(factorial(n) // aut for aut in classes.values())

        def sample(certificates: list[int]) -> tuple[str, ...]:
            return tuple(
                emit_graph6(graph_from_code(n, c)).decode("ascii") for c in certificates[:5]
            )

        return AuditReport(
            kind,
            n,
            k,
            mode,
            passed=not missing and not unexpected,
            attaining_count=count(attaining),
            family_count=count(family),
            family_class_count=len(family),
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
    isomorphic: bool
    od_number: int | None

    @property
    def passed(self) -> bool:
        return self.isomorphic and self.od_number == self.k


def od_disconnection_case(k: int, inner: Graph | None = None) -> DisconnectionReport:
    """Build the open construction over an inner graph with one isolated
    vertex u, then delete every outer vertex whose label contains u except
    the one labeled {u}. The result splits into an edge plus the one-size-
    smaller construction and still has OD-number k."""
    if k < 3:
        raise BlueprintError(f"the disconnection case requires k >= 3, got {k}")
    # an edge plus the isolate-free smaller construction, before any label is listed
    order = 2 + expected_order(Separation.OPEN, k - 1, False)
    if order > MAX_VERTICES:
        raise BlueprintError(f"construction order {order} exceeds capacity {MAX_VERTICES}")
    if inner is None:
        clique = complete_graph(k - 1)
        inner = Graph(k, tuple(clique.adj) + (0,))
    if inner.order != k:
        raise BlueprintError(f"inner graph has order {inner.order}, expected k = {k}")
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
    mine, theirs = ((h.order, _canonical(h.order, h.adj, _equitable(h.adj))[0])
                    for h in (me.graph, expected))
    number = min_code(me.graph, CodeKind.OD).number
    return DisconnectionReport(k, me, len(removals), expected, mine == theirs, number)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


@dataclass
class CountReport:
    """Counts of the labeled k-vertex graphs admitting each separation
    flavor (all / isolate-free), plus the closed-form construction counts
    built from them."""

    k: int
    eta: int
    eta_by_sep: dict[Separation, int]
    eta_bar_by_sep: dict[Separation, int]
    family_counts: dict[Separation, int]


def _product(factor: int, graph_order: int) -> int:
    if graph_order < 0:
        if factor != 0:
            raise AssertionError("negative free-part order with nonzero inner count")
        return 0
    return factor * labeled_graph_count(graph_order)


def counting(k: int) -> CountReport:
    """Admitting-graph counts at size k, each all labeled graphs but the
    inadmissible ones of one census_kinds pass, with the construction-count
    formulas (free parts counted by formula, never enumerated)."""
    # at k = 8 every construction count has more than 4300 digits, Python's
    # default limit for converting an int to str, so no output could print
    # it; at k = 7 the longest has 2415
    if not 2 <= k <= 7:
        raise GuardError(f"counting is supported for 2 <= k <= 7, got {k}")
    eta = labeled_graph_count(k)
    totals = dict.fromkeys(Separation, 0)
    iso_free = dict.fromkeys(Separation, 0)
    for report in census_kinds(ALL_KINDS, k):
        by_sep = iso_free if report.kind.total_domination else totals
        by_sep[report.kind.separation] = eta - report.inadmissible
    # an inner graph admissible for the D kind but not the TD kind has an
    # isolated vertex, which frees one more outer label where the
    # separation lets it
    family_counts = {
        sep: _product(iso_free[sep], expected_order(sep, k, False) - k)
        + _product(totals[sep] - iso_free[sep], expected_order(sep, k, True) - k)
        for sep in Separation
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
    outer=<empty|complete|graph6|explicit:graph6|random:seed:prob>,
    remove=<labels>; OuterPolicy.describe() reads back as its outer=."""
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
        if outer_text.lower().startswith("explicit:"):
            outer_text = outer_text[len("explicit:"):]
        outer = OuterPolicy.explicit(parse_graph6(outer_text))
    removals: tuple[int, ...] = ()
    if fields.get("remove"):
        try:
            removals = tuple(int(tok) for tok in fields["remove"].split(","))
        except ValueError:
            raise FormatError(f"remove labels must be integers, got {fields['remove']!r}") from None
    return ExtremalBlueprint(separation, k, inner, outer, removals)
