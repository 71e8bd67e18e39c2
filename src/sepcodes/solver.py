"""Exact minimum-code computation, the brute-force cross-check oracle,
the logarithmic lower bounds, the construction's order and the maximum
orders read off it, and the relation checks between the eight numbers."""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, starmap
from math import factorial
from operator import or_, xor
from typing import Callable, Iterable, Sequence, TypeVar

# min_code reads admissibility off the separation family; is_admissible
# stays bound here because bench/tracer.py patches it
from .codes import ALL_KINDS, CodeKind, Separation, is_admissible, is_code  # noqa: F401
from .errors import BudgetError, GuardError
from .graphs import MAX_VERTICES, Graph, class_children, class_parents, members

DEFAULT_BUDGET = 5_000_000
ORACLE_GUARD = 20

T = TypeVar("T")

# Each part of the separation family as (twin rule, candidate sets), both
# read off the open and closed neighbourhoods (adj, closed); the twin rule
# says, before any set is built, whether the part holds an empty set.
# separation_family, census's _numbers and make_mask_checker read each kind's
# parts, by index, from _KIND_PARTS: N(v) for TD kinds or N[v] for D kinds,
# then the pairs of its separation.
_Part = tuple[
    Callable[[Sequence[int], list[int]], bool], Callable[[Sequence[int], list[int]], Iterable[int]]
]
_PARTS: tuple[_Part, ...] = (
    # N(v), empty at an isolated vertex
    (lambda adj, closed: 0 in adj, lambda adj, closed: adj),
    # N[v], never empty
    (lambda adj, closed: False, lambda adj, closed: closed),
    # the location pairs (N(u) ^ N(v)) | {u, v}, never empty
    (
        lambda adj, closed: False,
        lambda adj, closed: map(or_, starmap(xor, combinations(adj, 2)), _units(len(adj))[1]),
    ),
    # the open xors N(u) ^ N(v), empty at two open twins
    (
        lambda adj, closed: len(set(adj)) < len(adj),
        lambda adj, closed: starmap(xor, combinations(adj, 2)),
    ),
    # the closed xors N[u] ^ N[v], empty at two closed twins
    (
        lambda adj, closed: len(set(closed)) < len(closed),
        lambda adj, closed: starmap(xor, combinations(closed, 2)),
    ),
)
_KIND_PARTS = {
    kind: (0 if kind.total_domination else 1,)
    + {"L": (2,), "O": (3,), "I": (4,), "F": (3, 4)}[kind.separation.value]
    for kind in CodeKind
}


@cache
def _units(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The singletons {v} and the pairs {u, v} of order n as masks, in
    combinations order, built once per order."""
    units = tuple(1 << v for v in range(n))
    return units, tuple(starmap(or_, combinations(units, 2)))


# (a, b) with lower_bound(kind, n) = (n + a).bit_length() + b
_BOUND_TERMS = {
    CodeKind.LD: (0, -1),  # floor(log n)
    CodeKind.LTD: (0, -1),  # floor(log n)
    CodeKind.OD: (-1, 0),  # ceil(log n)
    CodeKind.OTD: (0, 0),  # ceil(log (n+1))
    CodeKind.ID: (0, 0),  # ceil(log (n+1))
    CodeKind.ITD: (0, 0),  # ceil(log (n+1))
    CodeKind.FD: (0, 0),  # 1 + floor(log n)
    CodeKind.FTD: (1, 0),  # 1 + floor(log (n+1))
}


def lower_bound(kind: CodeKind, n: int) -> int:
    """Logarithmic lower bound on the kind-number of any admissible graph
    of order n (exact integer arithmetic, logs base 2)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    a, b = _BOUND_TERMS[kind]
    return (n + a).bit_length() + b


def expected_order(separation: Separation, k: int, inner_isolated: bool) -> int:
    """Order of the extremal construction on k code vertices before
    removals: k plus one outer vertex per eligible label."""
    if separation is Separation.LOCATION:
        return (1 << k) - 1 + k
    if separation is Separation.OPEN:
        return (1 << k) if inner_isolated else (1 << k) - 1
    if separation is Separation.CLOSED:
        return (1 << k) - 1
    return (1 << k) - k if inner_isolated else (1 << k) - 1 - k


def smallest_k(kind: CodeKind) -> int:
    """Smallest k the construction takes: the least k >= 2 with a
    kind-admissible graph on k vertices. That is 4 for full separation, as
    no graph on 2 or 3 vertices is twin-free, and 3 for ITD, as K2 has
    closed twins and 2K1 isolated vertices; 2 otherwise."""
    if kind.separation is Separation.FULL:
        return 4
    return 3 if kind is CodeKind.ITD else 2


def max_order(kind: CodeKind, k: int) -> int:
    """Largest order an admissible graph with kind-number k can have: the
    order of the construction on the kind-admissible inner graph with the
    most eligible outer labels. An isolated inner vertex frees one more
    label; a D kind may have one exactly when the other k - 1 inner
    vertices can form a graph admissible for the TD kind of the same
    separation, which exists for k - 1 >= that kind's smallest_k."""
    minimum = smallest_k(kind)
    if k < minimum:
        raise ValueError(f"{kind.name} requires k >= {minimum}, got {k}")
    if k > MAX_VERTICES:  # no graph holds a larger code
        raise ValueError(f"{kind.name} requires k <= {MAX_VERTICES}, got {k}")
    total = CodeKind(kind.separation.value + "TD")
    isolated = not kind.total_domination and k > smallest_k(total)
    return expected_order(kind.separation, k, isolated)


def make_mask_checker(n: int, adj: list[int], kind: CodeKind) -> Callable[[int], bool]:
    """Fused separation+domination test of a code mask c; agrees with
    codes.is_code on every vertex set of the graph (property-tested
    exhaustively). Each vertex v reads s = N(v) & c once and fails c when s
    is empty and the kind is total or v lies outside c, when its open
    signature s repeats (L, O, F; for L only outside c), or when its closed
    signature s | ({v} & c) repeats (I, F), as the kind's parts say. adj is
    read when called, so a caller may refill it in place."""
    parts = _KIND_PARTS[kind]
    total, closed = 0 in parts, 4 in parts
    # v's open signature is tested when c >> v & 1 < opens: never for I,
    # only outside c for L, always for O and F
    opens = 2 if 3 in parts else int(2 in parts)

    def check(c: int) -> bool:
        oseen = set()
        cseen = set()
        for v in range(n):
            s = adj[v] & c
            inside = c >> v & 1
            if not s and (total or not inside):
                return False
            if inside < opens:
                if s in oseen:
                    return False
                oseen.add(s)
            if closed:
                s |= inside << v
                if s in cseen:
                    return False
                cseen.add(s)
        return True

    return check


@dataclass(frozen=True)
class SolveReport:
    """Result of one minimum-code computation. number is None when the
    graph admits no code of this kind at all."""

    kind: CodeKind
    number: int | None
    witness: int | None
    subsets_tested: int
    lower_bound: int

    @property
    def inadmissible(self) -> bool:
        return self.number is None


def separation_family(g: Graph, kind: CodeKind) -> list[int]:
    """The kind's separation hypergraph: a vertex set C is a kind-code
    exactly when it hits every set in the family. It holds N[v] for D kinds
    or N(v) for TD kinds, and for each pair u, v:

    - LOCATION: (N(u) ^ N(v)) | {u, v};
    - OPEN: N(u) ^ N(v);
    - CLOSED: N[u] ^ N[v];
    - FULL: both of the above.

    The family is deduplicated, reduced to its inclusion-minimal sets and
    sorted by largest vertex, then size, then value. It is [0] exactly
    when some set is empty, that is when g is inadmissible: a TD kind and
    an isolated vertex, or two open twins (N(u) = N(v)) for O and F, or two
    closed twins (N[u] = N[v]) for I and F. These twin rules are tested
    first, so an inadmissible graph builds no pair set; each kind's parts
    and their twin rules are read from _PARTS, as census reads them.

    The sets are taken smallest first, and one is kept unless it contains a
    kept set. The singletons come first and are all kept; forced, their
    union, drops every later set that meets it with one AND. The kept sets
    also sit in (n+1)-bit fields of one int, each field topped by a guard
    bit, so that one candidate is tested against all of them at once: a
    field of kept & ~(s * ones) is zero exactly when its set lies inside s,
    and adding fill (all n low bits of every field) carries into the guard
    bit of every field that is not zero."""
    n = g.order
    adj = g.adj
    closed = [nb | (1 << v) for v, nb in enumerate(adj)]
    parts = _KIND_PARTS[kind]
    for p in parts:
        if _PARTS[p][0](adj, closed):
            return [0]
    sets: set[int] = set()
    for p in parts:
        sets.update(_PARTS[p][1](adj, closed))
    minimal: list[int] = []
    forced = kept = ones = fill = guards = 0
    low = (1 << n) - 1
    # a set of one size cannot contain another of that size, so the order
    # within a size changes only the order of `minimal`, sorted below
    for s in sorted(sets, key=int.bit_count):
        if s & forced or ((kept & ~(s * ones)) + fill) & guards != guards:
            continue  # s contains a kept set
        if not s & (s - 1):
            forced |= s
        shift = len(minimal) * (n + 1)
        minimal.append(s)
        kept |= s << shift
        ones |= 1 << shift
        fill |= low << shift
        guards |= 1 << (shift + n)
    minimal.sort()
    minimal.sort(key=int.bit_count)
    minimal.sort(key=int.bit_length)  # stable: by largest vertex, size, value
    return minimal


def min_code(g: Graph, kind: CodeKind, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Exact kind-number with a deterministic witness: cardinalities are
    tried from the lower-bound floor upward, and the witness is the
    lexicographically first set of that cardinality that hits every set of
    the separation family, which is what testing the k-sets in
    itertools.combinations order would return. subsets_tested counts search
    nodes, and budget caps them.

    The search holds the unhit sets as a bitmask over family indices.
    Three tables are built once: miss[y] has bit i set when family[i] lacks
    vertex y, tops[i] is the largest vertex of family[i], and cut[i][j] is
    the AND of miss over the j largest vertices of family[i]. Choosing x
    then leaves unhit & miss[x] unhit, one AND per node, and the packing
    bound takes each set i in one AND with its cut row. The last level
    (one vertex left) is a scan for the first x that hits every set left,
    whose nodes are counted, and tested against the budget, at once: the
    same nodes and the same BudgetError as one at a time. A family of [0]
    means g is inadmissible (no is_admissible pass), and no node is
    searched."""
    lb = lower_bound(kind, g.order)
    family = separation_family(g, kind)
    if family[0] == 0:
        return SolveReport(kind, None, None, 0, lb)
    n = g.order
    every = (1 << len(family)) - 1
    miss = [every] * n
    verts = []  # the vertices of each set, largest first
    bit = 1
    for s in family:
        vs = []
        while s:
            y = s.bit_length() - 1
            vs.append(y)
            miss[y] ^= bit
            s ^= 1 << y
        verts.append(vs)
        bit <<= 1
    tops = [vs[0] for vs in verts]
    cut = []
    for vs in verts:
        row = [every]
        for y in vs:
            row.append(row[-1] & miss[y])
        cut.append(row)
    nodes = 0

    def search(unhit: int, start: int, left: int) -> int | None:
        """First set of `left` vertices from start.. that hits every set
        whose bit is in unhit (each such set has a vertex >= start)."""
        nonlocal nodes
        last = n - left
        if unhit:
            # vertices after x are larger, so x may not pass the largest
            # vertex of the first set not yet hit (the family is sorted by
            # largest vertex, so the lowest bit of unhit has the smallest)
            top = tops[(unhit & -unhit).bit_length() - 1]
            if top < last:
                last = top
        if left == 1:
            # the last level: x is a node for each x from start up to the
            # first that hits every set left, or up to last; they are
            # counted at once, and the budget runs out inside them exactly
            # when the count passes it
            for x in range(start, last + 1):
                if not unhit & miss[x]:
                    found = 1 << x
                    break
            else:
                found = None
                x = last
            nodes += x + 1 - start
            if nodes > budget:
                raise BudgetError(
                    f"budget of {budget} search nodes exhausted at cardinality {size}",
                    subsets_tested=budget + 1,
                )
            return found
        for x in range(start, last + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"budget of {budget} search nodes exhausted at cardinality {size}",
                    subsets_tested=nodes,
                )
            rest = unhit & miss[x]
            # greedy packing: sets not yet hit, disjoint above x, each need
            # their own vertex after x, and left - 1 slots remain. The sets
            # are taken in family order; free holds those not yet taken that
            # miss every vertex above x of the ones taken so far, and packed
            # counts the lowest of them as taken. The vertices of set i above
            # x are its largest ones, and there is one (x is not in i and
            # does not pass its largest vertex), so its cut row drops i and
            # every set meeting them
            free = rest
            packed = 1
            while free:
                if packed == left:
                    break
                i = (free & -free).bit_length() - 1
                packed += 1
                free &= cut[i][(family[i] >> (x + 1)).bit_count()]
            else:
                found = search(rest, x + 1, left - 1)
                if found is not None:
                    return found | 1 << x
        return None

    try:
        for size in range(max(1, lb), n + 1):
            witness = search(every, 0, size)
            if witness is not None:
                return SolveReport(kind, size, witness, nodes, lb)
    finally:
        # search holds itself through its closure: break that cycle, so that
        # the tables are freed on return, not at a later garbage collection
        search = None  # noqa: F841
    raise AssertionError("admissible graph has no code; admissibility test is wrong")


def oracle_min_code(g: Graph, kind: CodeKind) -> SolveReport:
    """Independent brute force: test every one of the 2^n subsets with the
    definitional predicate, no cardinality shortcut, no pruning."""
    if g.order > ORACLE_GUARD:
        raise GuardError(f"oracle enumeration is guarded at order {ORACLE_GUARD}")
    lb = lower_bound(kind, g.order)
    best: int | None = None
    best_size = g.order + 1
    tested = 0
    for mask in range(1 << g.order):
        tested += 1
        if not is_code(g, mask, kind):
            continue
        size = mask.bit_count()
        if size < best_size:
            best, best_size = mask, size
        elif size == best_size and best is not None and members(mask) < members(best):
            best = mask
    if best is None:
        return SolveReport(kind, None, None, tested, lb)
    return SolveReport(kind, best_size, best, tested, lb)


@dataclass(frozen=True)
class RelationReport:
    """All eight code numbers of one graph plus the pairwise relations that
    hold between admissible kinds: the LD-number is a floor for every other
    number, the FTD-number a ceiling, and the OD/OTD and FD/FTD numbers
    differ by at most one."""

    numbers: dict[CodeKind, int | None]
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def relation_check(g: Graph, budget: int = DEFAULT_BUDGET) -> RelationReport:
    numbers = {kind: min_code(g, kind, budget).number for kind in ALL_KINDS}
    ld = numbers[CodeKind.LD]
    ftd = numbers[CodeKind.FTD]
    checks = {
        "ld_is_floor": all(x is None or ld <= x for x in numbers.values()),
        "ftd_is_ceiling": ftd is None
        or all(x is None or x <= ftd for x in numbers.values()),
        "od_otd_gap_at_most_one": numbers[CodeKind.OTD] is None
        or abs(numbers[CodeKind.OD] - numbers[CodeKind.OTD]) <= 1,
        "fd_ftd_gap_at_most_one": ftd is None
        or abs(numbers[CodeKind.FD] - ftd) <= 1,
    }
    return RelationReport(numbers, checks)


@dataclass(frozen=True)
class CensusReport:
    """Distribution of the kind-number over all labeled graphs of one order."""

    kind: CodeKind
    n: int
    histogram: dict[int, int]
    inadmissible: int


def class_pass(key: Callable[[Graph], T], n: int, jobs: int = 1) -> Counter[T]:
    """How many labeled graphs on n vertices have each value of key(g), for
    a key that does not depend on the labeling. Each isomorphism class is
    built once, and its one graph adds n!/|Aut| to its key. The classes on
    n - 1 vertices (graphs.class_parents) are built in the calling process;
    `scan` shards them, and each chunk walks its parents' accepted children
    on n vertices (graphs.class_children), as no two parents share a class.
    A worker reads class_parents itself: forked, it inherits the levels;
    spawned, it builds them once. Only `(key, n, lo, hi)` is pickled, so
    with jobs > 1 key must pickle.

    The levels and, when this process builds all of them, the children on
    n vertices are kept for the life of the process, so a later pass at
    the same order in the same process only evaluates key."""
    return sum(scan(partial(_class_chunk, key, n), len(class_parents(n)), jobs), Counter())


def _class_chunk(key: Callable[[Graph], T], n: int, lo: int, hi: int) -> Counter[T]:
    labelings = factorial(n)
    weights: Counter[T] = Counter()
    for g, aut in class_children(n, lo, hi):
        weights[key(g)] += labelings // aut
    return weights


@cache
def _lattice(n: int) -> tuple[list[int], list[int]]:
    """(away, layers) on n vertices. An int of 2^n bits stands for a
    collection of vertex sets, bit C for set C: away[s] holds every set
    disjoint from s, and layers[k] every set of k vertices. With vertex v
    added, a set without v is disjoint also from its disjoint sets plus v
    (d << (1 << v)), and a set with v from those of the set without v. Kept
    per order: at most 4^n/8 bytes (14 KB at n = 8, 36 KB at n = 9 as Python
    ints), and only census builds it, after the CENSUS_GUARD check."""
    away = [1]
    for v in range(n):
        away = [d | d << (1 << v) for d in away] + away
    layers = [0] * (n + 1)
    for c in range(1 << n):
        layers[c.bit_count()] |= 1 << c
    return away, layers


def _numbers(plan: tuple[tuple[int, ...], ...], g: Graph) -> tuple[int | None, ...]:
    """The number of g for each kind's parts in `plan`, as min_code gives
    it, read off the subset lattice. C is a code exactly when it hits every
    candidate set s of the parts, so the OR of away[s] over them holds
    exactly the sets that are not codes. The number is the least k >= 1
    with a k-set outside that OR: census assumes no lower bound, so it
    checks them. A kind whose twin rules find an empty set is inadmissible
    (None), and its ORs are not taken. Each part's twin rule and OR are
    taken once per class and shared by the kinds that read it; an OR is
    never 0, as it holds the empty set."""
    n = g.order
    adj = g.adj
    closed = tuple(map(or_, adj, _units(n)[0]))
    away, layers = _lattice(n)
    empty: list[bool | None] = [None] * len(_PARTS)
    missed = [0] * len(_PARTS)
    numbers: list[int | None] = []
    for parts in plan:
        for p in parts:
            if empty[p] is None:
                empty[p] = _PARTS[p][0](adj, closed)
            if empty[p]:
                numbers.append(None)
                break
        else:
            union = 0
            for p in parts:
                if not missed[p]:
                    part = 0
                    for s in _PARTS[p][1](adj, closed):
                        part |= away[s]
                    missed[p] = part
                union |= missed[p]
            k = 1
            while not layers[k] & ~union:
                k += 1
            numbers.append(k)
    return tuple(numbers)


def census_kinds(kinds: Iterable[CodeKind], n: int, jobs: int = 1) -> list[CensusReport]:
    """census for each of `kinds`, in that order, from one class_pass that
    reads every kind's number of each class off the subset lattice
    (_numbers). Guarded at CENSUS_GUARD."""
    kinds = tuple(kinds)
    weights = class_pass(partial(_numbers, tuple(_KIND_PARTS[kind] for kind in kinds)), n, jobs)
    reports = []
    for i, kind in enumerate(kinds):
        hist: Counter[int | None] = Counter()
        for numbers, weight in weights.items():
            hist[numbers[i]] += weight
        inadmissible = hist.pop(None, 0)
        reports.append(CensusReport(kind, n, dict(sorted(hist.items())), inadmissible))
    return reports


def census(kind: CodeKind, n: int, jobs: int = 1) -> CensusReport:
    """Kind-number histogram over every labeled graph on n vertices, read
    off class_pass: the number of one graph per isomorphism class is read
    off the subset lattice (_numbers; it equals min_code's), and all
    n!/|Aut| labelings of it have the same kind-number. census_kinds
    shares one pass among several kinds. Guarded at CENSUS_GUARD."""
    return census_kinds((kind,), n, jobs)[0]


def resolve_jobs(jobs: int) -> int:
    """Worker count actually used for `jobs`: clamped to [1, os.cpu_count()],
    as a process pool starts all of its workers on the first task."""
    return max(1, min(jobs, os.cpu_count() or 1))


def scan(fn: Callable[[int, int], T], total: int, jobs: int) -> list[T]:
    """The results of fn(lo, hi) over chunks of [0, total), in order. With `jobs`
    resolved to 1, or fewer than two items per worker, the one chunk is the
    whole range and runs in this process; otherwise a pool of `jobs`
    workers maps fn over four chunks per worker, so fn must pickle."""
    jobs = resolve_jobs(jobs)
    if jobs == 1 or total < 2 * jobs:
        return [fn(0, total)]
    step = -(-total // (jobs * 4))
    los = range(0, total, step)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, los, [min(lo + step, total) for lo in los]))
