"""Exact minimum-code computation, the brute-force cross-check oracle,
the logarithmic lower bounds, the construction's order and the maximum
orders read off it, and the relation checks between the eight numbers."""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable, Iterable, TypeVar

from .codes import ALL_KINDS, CodeKind, Separation, is_admissible, is_code
from .errors import BudgetError, GuardError
from .graphs import MAX_VERTICES, Graph, class_children, class_parents, members

DEFAULT_BUDGET = 5_000_000
ORACLE_GUARD = 20

T = TypeVar("T")


def lower_bound(kind: CodeKind, n: int) -> int:
    """Logarithmic lower bound on the kind-number of any admissible graph
    of order n (exact integer arithmetic, logs base 2)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if kind in (CodeKind.LD, CodeKind.LTD):
        return n.bit_length() - 1  # floor(log n)
    if kind is CodeKind.OD:
        return (n - 1).bit_length()  # ceil(log n)
    if kind in (CodeKind.OTD, CodeKind.ID, CodeKind.ITD):
        return n.bit_length()  # ceil(log (n+1))
    if kind is CodeKind.FD:
        return n.bit_length()  # 1 + floor(log n)
    return (n + 1).bit_length()  # FTD: 1 + floor(log (n+1))


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
    codes.is_code on every input (property-tested exhaustively). Each vertex
    v reads s = N(v) & c once and fails c when s is empty and the kind is
    total or v lies outside c, when its open signature s repeats (L, O, F;
    for L only outside c), or when its closed signature s | ({v} & c) repeats
    (I, F). adj is read when called, so a caller may refill it in place."""
    total = kind.total_domination
    sep = kind.separation
    # v's open signature is tested when c >> v & 1 < opens: never for I,
    # only outside c for L, always for O and F
    opens = {Separation.CLOSED: 0, Separation.LOCATION: 1}.get(sep, 2)
    closed = sep in (Separation.CLOSED, Separation.FULL)

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
    sorted by largest vertex. It is [0] exactly when g is inadmissible.

    The sets are taken smallest first, and one is kept unless it contains a
    kept set. The kept sets sit in (n+1)-bit fields of one int, each field
    topped by a guard bit, so that one candidate is tested against all of
    them at once: a field of kept & ~(s * ones) is zero exactly when its set
    lies inside s, and adding fill (all n low bits of every field) carries
    into the guard bit of every field that is not zero."""
    n = g.order
    adj = g.adj
    closed = [nb | (1 << v) for v, nb in enumerate(adj)]
    sep = kind.separation
    sets = set(adj if kind.total_domination else closed)
    if sep is Separation.LOCATION:
        sets.update(adj[u] ^ adj[v] | 1 << u | 1 << v for v in range(n) for u in range(v))
    if sep in (Separation.OPEN, Separation.FULL):
        sets.update(adj[u] ^ adj[v] for v in range(n) for u in range(v))
    if sep in (Separation.CLOSED, Separation.FULL):
        sets.update(closed[u] ^ closed[v] for v in range(n) for u in range(v))
    minimal: list[int] = []
    kept = ones = fill = guards = 0
    low = (1 << n) - 1
    ordered = sorted(sets)
    ordered.sort(key=int.bit_count)  # stable: by size, then by value
    for s in ordered:
        if ((kept & ~(s * ones)) + fill) & guards != guards:
            continue  # s contains a kept set
        shift = len(minimal) * (n + 1)
        minimal.append(s)
        kept |= s << shift
        ones |= 1 << shift
        fill |= low << shift
        guards |= 1 << (shift + n)
    return sorted(minimal, key=int.bit_length)


def min_code(g: Graph, kind: CodeKind, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Exact kind-number with a deterministic witness: cardinalities are
    tried from the lower-bound floor upward, and the witness is the
    lexicographically first set of that cardinality that hits every set of
    the separation family, which is what testing the k-sets in
    itertools.combinations order would return. subsets_tested counts search
    nodes, and budget caps them.

    The search holds the unhit sets as a bitmask over family indices. Two
    tables are built once: miss[y] has bit i set when family[i] lacks
    vertex y, and tops[i] is the largest vertex of family[i]. Choosing x
    then leaves unhit & miss[x] unhit, one AND per node."""
    lb = lower_bound(kind, g.order)
    if not is_admissible(g, kind):
        return SolveReport(kind, None, None, 0, lb)
    family = separation_family(g, kind)
    n = g.order
    every = (1 << len(family)) - 1
    miss = [every] * n
    tops = []
    for i, s in enumerate(family):
        tops.append(s.bit_length() - 1)
        while s:
            low = s & -s
            miss[low.bit_length() - 1] ^= 1 << i
            s ^= low
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
            last = min(last, tops[(unhit & -unhit).bit_length() - 1])
        for x in range(start, last + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"budget of {budget} search nodes exhausted at cardinality {size}",
                    subsets_tested=nodes,
                )
            rest = unhit & miss[x]
            if left == 1:
                if not rest:
                    return 1 << x
                continue
            # greedy packing: sets not yet hit, disjoint above x, each need
            # their own vertex after x, and left - 1 slots remain. The sets
            # are taken in family order; free holds those not yet taken that
            # miss every vertex above x of the ones taken so far
            free = rest
            packed = 0
            while free:
                low = free & -free
                free ^= low
                packed += 1
                if packed == left:
                    break
                above = family[low.bit_length() - 1] >> (x + 1)
                while above:
                    y = above & -above
                    free &= miss[x + y.bit_length()]
                    above ^= y
            else:
                found = search(rest, x + 1, left - 1)
                if found is not None:
                    return found | 1 << x
        return None

    for size in range(max(1, lb), n + 1):
        witness = search(every, 0, size)
        if witness is not None:
            return SolveReport(kind, size, witness, nodes, lb)
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


def _census_chunk(
    kinds: tuple[CodeKind, ...], n: int, lo: int, hi: int
) -> list[tuple[dict[int, int], int]]:
    """(histogram, inadmissible count) for each of `kinds` over the labeled
    graphs of the classes that graphs.class_children(n, lo, hi) gives: each
    class is built once and solved for every kind, and counts n!/|Aut|
    labeled graphs, as the kind-number does not depend on the labeling."""
    labelings = factorial(n)
    hists: list[Counter[int]] = [Counter() for _ in kinds]
    inadmissible = [0] * len(kinds)
    for g, aut in class_children(n, lo, hi):
        weight = labelings // aut
        for i, kind in enumerate(kinds):
            number = min_code(g, kind).number
            if number is None:
                inadmissible[i] += weight
            else:
                hists[i][number] += weight
    return [(dict(hist), inadm) for hist, inadm in zip(hists, inadmissible)]


def census_kinds(kinds: Iterable[CodeKind], n: int, jobs: int = 1) -> list[CensusReport]:
    """census for each of `kinds`, in that order, from one pass over the
    classes: each class is built once and solved for every kind, also
    within a pool worker. Guarded at CENSUS_GUARD."""
    kinds = tuple(kinds)
    total = len(class_parents(n))
    results = scan(partial(_census_chunk, kinds, n), total, jobs)
    reports = []
    for i, kind in enumerate(kinds):
        hist: Counter[int] = Counter()
        inadmissible = 0
        for part in results:
            hist.update(part[i][0])
            inadmissible += part[i][1]
        reports.append(CensusReport(kind, n, dict(sorted(hist.items())), inadmissible))
    return reports


def census(kind: CodeKind, n: int, jobs: int = 1) -> CensusReport:
    """Kind-number histogram over every labeled graph on n vertices. The
    graphs are taken one isomorphism class at a time (graphs.graph_classes):
    min_code solves one graph of the class, in the labeling augmentation
    gives it, and the class counts n!/|Aut| labeled graphs, all with the
    same kind-number. The classes on n - 1 vertices (graphs.class_parents)
    are built in the calling process; `scan` shards them, and each chunk
    solves its parents' accepted children on n vertices
    (graphs.class_children), as no two parents share a class. A worker
    reads class_parents itself: forked, it inherits the levels; spawned, it
    builds them once. No certificate is read, so a child gets a canonical
    form only when the acceptance test needs one; otherwise |Aut| comes
    from the parent's group by orbit-stabilizer.

    Both the levels and, when this process builds all of them, the
    children on n vertices are kept for the life of the process, so a
    later census at the same order in the same process, of any kind, only
    solves. That pays only when one process makes several census calls at
    one order; census_kinds shares one pass within a call. Guarded at
    CENSUS_GUARD."""
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
