"""Exact minimum-code computation, the brute-force cross-check oracle,
the logarithmic lower bounds, the construction's order and the maximum
orders read off it, and the relation checks between the eight numbers."""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import combinations, starmap
from math import factorial
from operator import and_, or_, xor
from typing import Callable, Iterable, Sequence, TypeVar

# min_code reads admissibility off _candidates's twin rules; is_admissible
# stays bound here because bench/tracer.py patches it
from .codes import ALL_KINDS, CodeKind, Separation, is_admissible, is_code  # noqa: F401
from .errors import BudgetError, GuardError
from .graphs import MAX_VERTICES, Graph, class_children, class_parents, class_rows, members

DEFAULT_BUDGET = 5_000_000
ORACLE_GUARD = 20

T = TypeVar("T")

# Each part of the separation family as (twin rule, candidate sets), both
# read off the open and closed neighbourhoods (adj, closed); the twin rule
# says, before any set is built, whether the part holds an empty set.
# A vertex set is a code exactly when it hits every set of the kind's parts:
# _candidates, census's _class_numbers and make_mask_checker (the audit's
# code test) read them, by index, from _KIND_PARTS: N(v) for TD kinds or
# N[v] for D kinds, then the pairs of its separation. The sets are built
# from adj and closed by OR and XOR alone, so census feeds the same
# generators, for each vertex w, column w of a whole batch of graphs (one
# bit per graph, _columns) and gets back, per set, the graphs whose set
# contains w.
_Part = tuple[
    Callable[[Sequence[int], Sequence[int]], bool],
    Callable[[Sequence[int], Sequence[int]], Iterable[int]],
]
_PARTS: tuple[_Part, ...] = (
    # N(v), empty at an isolated vertex
    (lambda adj, closed: 0 in adj, lambda adj, closed: adj),
    # N[v], never empty
    (lambda adj, closed: False, lambda adj, closed: closed),
    # the location pairs (N(u) ^ N(v)) | {u, v}, never empty, read as
    # (N(u) ^ N(v)) | (N[u] ^ N[v]): off u and v the two xors agree; N[u] ^
    # N[v] holds u and v when they are not adjacent, N(u) ^ N(v) when they are
    (
        lambda adj, closed: False,
        lambda adj, closed: map(
            or_, starmap(xor, combinations(adj, 2)), starmap(xor, combinations(closed, 2))
        ),
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
def _units(n: int) -> tuple[int, ...]:
    """The singletons {v} of order n as masks, built once per order."""
    return tuple(1 << v for v in range(n))


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


def make_mask_checker(kind: CodeKind) -> Callable[[Sequence[int], int], bool]:
    """Code test check(adj, c) of a code mask c on the graph with adjacency
    masks adj: c hits every set of the kind's parts (_PARTS), read off adj
    as _candidates reads them. No twin rule is needed, as c hits no empty
    set. Each set is read only through its bits in c, so check reads only
    the bits of adj in c; agrees with codes.is_code on every vertex set of
    every graph (property-tested exhaustively)."""
    parts = [_PARTS[p][1] for p in _KIND_PARTS[kind]]

    def check(adj: Sequence[int], c: int) -> bool:
        closed = tuple(map(or_, adj, _units(len(adj))))
        for sets in parts:
            if not all(map(c.__and__, sets(adj, closed))):
                return False
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


def _candidates(g: Graph, kind: CodeKind) -> list[int]:
    """Every candidate set of the kind's separation family once, sorted by
    largest vertex, then size, then value; [0] when some set is empty, that
    is when g is inadmissible: a TD kind and an isolated vertex, or two open
    twins (N(u) = N(v)) for O and F, or two closed twins (N[u] = N[v]) for
    I and F. These twin rules are tested first, so an inadmissible graph
    builds no pair set; each kind's parts and their twin rules are read
    from _PARTS, as census reads them.

    A vertex set is a kind-code exactly when it hits every candidate set.
    In this order every set comes after each set it strictly contains: a
    subset has no larger largest vertex, and with the same one it is
    smaller."""
    adj = g.adj
    closed = tuple(map(or_, adj, _units(g.order)))
    parts = _KIND_PARTS[kind]
    for p in parts:
        if _PARTS[p][0](adj, closed):
            return [0]
    sets: set[int] = set()
    for p in parts:
        sets.update(_PARTS[p][1](adj, closed))
    candidates = sorted(sets)
    candidates.sort(key=int.bit_count)
    candidates.sort(key=int.bit_length)  # stable: by largest vertex, size, value
    return candidates


# _BITS[b] translates a byte to the digit b"1" when its bit b is set and to
# b"0" otherwise: bit b of 0..255 runs 2^b zeros, then 2^b ones, and repeats
_BITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


def min_code(g: Graph, kind: CodeKind, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Exact kind-number with a deterministic witness: cardinalities are
    tried from the lower-bound floor upward, and the witness is the
    lexicographically first set of that cardinality that hits every set of
    the separation family, which is what testing the k-sets in
    itertools.combinations order would return. subsets_tested counts search
    nodes, and budget caps them.

    The search runs over every candidate set (_candidates), not only the
    inclusion-minimal ones, and takes the same nodes: in that order every
    set comes after each set it strictly contains, so the first set not yet
    hit is always minimal, the packing below never takes a set that is not
    (a subset before it drops it), and a vertex hits every set left exactly
    when it hits every minimal one.

    The search holds the unhit sets as a bitmask with the first set at
    the highest bit: bit i stands for family[~i]. Three tables are built:
    miss[y] has bit i set when family[~i] lacks vertex y, tops[i] is the
    largest vertex of family[~i], and cut[i][x] is the AND of miss over
    the vertices of family[~i] above x, for each x below its largest.
    miss is one transposition: the sets are packed by one array("Q")
    call, eight little-endian bytes each (MAX_VERTICES is 62), first set
    first, and vertex y's column of them is read as a binary numeral. A
    cut row is built the first time the packing takes its set. Choosing x
    then leaves unhit & miss[x] unhit, one AND per node, and the packing
    bound takes each set i in one AND with cut[i][x]. The last level (one
    vertex left) is a scan for the first x that hits every set left,
    whose nodes are counted, and tested against the budget, at once: the
    same nodes and the same BudgetError as one at a time. A family of [0]
    means g is inadmissible (no is_admissible pass), and no node is
    searched."""
    lb = lower_bound(kind, g.order)
    family = _candidates(g, kind)
    if family[0] == 0:
        return SolveReport(kind, None, None, 0, lb)
    n = g.order
    every = (1 << len(family)) - 1
    sets = array("Q", family)
    if sys.byteorder == "big":
        sets.byteswap()
    data = sets.tobytes()
    miss = [every ^ int(data[y >> 3 :: 8].translate(_BITS[y & 7]), 2) for y in range(n)]
    tops = [s.bit_length() - 1 for s in reversed(family)]
    cut: list[list[int] | None] = [None] * len(family)
    nodes = 0

    def search(unhit: int, start: int, left: int) -> int | None:
        """First set of `left` vertices from start.. that hits every set
        whose bit is in unhit (each such set has a vertex >= start)."""
        nonlocal nodes
        last = n - left
        if unhit:
            # vertices after x are larger, so x may not pass the largest
            # vertex of the first set not yet hit (the family is sorted by
            # largest vertex, so the highest bit of unhit has the smallest)
            top = tops[unhit.bit_length() - 1]
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
            if nodes <= budget:
                return found
        else:
            for x in range(start, last + 1):
                nodes += 1
                if nodes > budget:
                    break
                rest = unhit & miss[x]
                # greedy packing: sets not yet hit, disjoint above x, each need
                # their own vertex after x, and left - 1 slots remain. The sets
                # are taken in family order; free holds those not yet taken that
                # miss every vertex above x of the ones taken so far, and packed
                # counts the highest of them as taken. Set i has a vertex above
                # x (x is not in it and does not pass its largest vertex), so
                # its cut row drops i and every set meeting its vertices above x
                free = rest
                packed = 1
                while free:
                    if packed == left:
                        break
                    i = free.bit_length() - 1
                    packed += 1
                    row = cut[i]
                    if row is None:
                        s = family[~i]
                        y = s.bit_length() - 1
                        row = cut[i] = [0] * y
                        acc = every
                        while s:
                            acc &= miss[y]
                            s ^= 1 << y
                            # for x from the next vertex down (or 0) to y - 1,
                            # the vertices above x are y and those above it
                            z = (s.bit_length() or 1) - 1
                            row[z:y] = [acc] * (y - z)
                            y = z
                    free &= row[x]
                else:
                    found = search(rest, x + 1, left - 1)
                    if found is not None:
                        return found | 1 << x
            else:
                return None
        # the budget ran out at node budget + 1
        raise BudgetError(
            f"budget of {budget} search nodes exhausted at cardinality {size}",
            subsets_tested=budget + 1,
        )

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


def relation_check(g: Graph) -> RelationReport:
    numbers = {kind: min_code(g, kind).number for kind in ALL_KINDS}
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
    with jobs > 1 key must pickle. census shards the same parents but
    decides each chunk's children packed, all at once (_census_chunk), so
    no package route takes this pass; the tests key it with their oracles.

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


def _columns(n: int, rows: array[int]) -> list[list[int]]:
    """A batch of m graphs on n vertices, packed as graphs.class_rows packs
    them, transposed: entry [w][v] has bit m - 1 - c set when graph c has
    the edge vw (the first graph at the highest bit, as in min_code's miss),
    so entry [w] is an adjacency table of m-bit masks. Each entry below the
    diagonal is one transposition, as min_code builds miss: byte w >> 3 of
    v's row in every graph, translated to the digits of bit w & 7; [v][w]
    is the same entry, and the diagonal is 0."""
    if sys.byteorder == "big":
        rows = array("H", rows)  # a copy, as the rows may be kept
        rows.byteswap()
    data = rows.tobytes()
    step = 2 * n
    columns = [[0] * n for _ in range(n)]
    for w in range(n):
        for v in range(w):
            columns[w][v] = columns[v][w] = int(
                data[2 * v + (w >> 3) :: step].translate(_BITS[w & 7]), 2
            )
    return columns


def _class_numbers(plan: tuple[tuple[int, ...], ...], n: int, rows: array[int]) -> list[list[int]]:
    """For each kind's parts in `plan`, the numbers of a batch of m >= 1
    graphs on n vertices (rows as _columns reads them), all at once: entry
    k of the kind's list has bit m - 1 - c set when graph c has number k,
    as min_code gives it, and entry 0 when graph c is inadmissible.

    _PARTS's generators, fed the column table of each vertex w, give per
    set the graphs whose set contains w; nin[w] holds the complements. A
    graph is inadmissible when one of its sets lacks every vertex (the twin
    rules). The vertex sets C are walked once, depth first in ascending
    vertex order, carrying per set the graphs whose set C misses: one AND
    with nin[w] per set as w is added. C is a code of a graph exactly when
    it misses none of its sets, so the graph's number is the least |C| at
    which it drops out of the OR over its kind's sets; no lower bound is
    assumed, so census checks them. When C misses no admissible graph of
    any kind, no set above C does, and the walk stops there."""
    m = len(rows) // n
    full = (1 << m) - 1
    # the parts read by the same kinds are ORed as one block
    blocks: dict[frozenset[int], list[int]] = {}
    for p in sorted(set().union(*plan)):
        blocks.setdefault(frozenset(i for i, parts in enumerate(plan) if p in parts), []).append(p)
    reads = [[b for b, kinds in enumerate(blocks) if i in kinds] for i in range(len(plan))]
    nin = []
    for w, adj in enumerate(_columns(n, rows)):
        closed = adj.copy()
        closed[w] = full  # adj[w] is 0: no graph has the edge ww
        lacks: list[int] = []
        spans = []
        for parts in blocks.values():
            start = len(lacks)
            for p in parts:
                lacks.extend(full ^ s for s in _PARTS[p][1](adj, closed))
            spans.append((start, len(lacks)))
        nin.append(lacks)
    empty = [reduce(and_, column) for column in zip(*nin)]
    bad = [reduce(or_, empty[a:b], 0) for a, b in spans]
    inadmissible = [reduce(or_, map(bad.__getitem__, parts), 0) for parts in reads]
    admissible = [full ^ x for x in inadmissible]
    # coded[i][k]: the graphs some visited k-set is a kind-i code of
    coded = [[0] * (n + 1) for _ in plan]
    # (what C - {w} misses per set, or None at C = {w}; w, the largest
    # vertex of C; |C|) for each C still to visit
    stack: list[tuple[list[int] | None, int, int]] = [(None, w, 1) for w in reversed(range(n))]
    while stack:
        below, w, size = stack.pop()
        miss = nin[w] if below is None else list(map(and_, below, nin[w]))
        missed = [reduce(or_, miss[a:b], 0) for a, b in spans]
        alive = 0
        for i, parts in enumerate(reads):
            union = reduce(or_, map(missed.__getitem__, parts), 0)
            coded[i][size] |= full ^ union
            alive |= union & admissible[i]
        if alive:
            stack += [(miss, x, size + 1) for x in reversed(range(w + 1, n))]
    numbers = []
    for seen, hits in zip(inadmissible, coded):
        masks = [seen]
        for hit in hits[1:]:
            masks.append(hit & ~seen)
            seen |= hit
        numbers.append(masks)
    return numbers


def _census_chunk(
    plan: tuple[tuple[int, ...], ...], n: int, lo: int, hi: int
) -> Counter[tuple[int, int | None]]:
    """Labeled graphs on n vertices by (index in `plan`, number or None when
    inadmissible), over the classes accepted from class_parents(n)[lo:hi]
    (graphs.class_rows), whose numbers _class_numbers decides at once. The
    classes are grouped by |Aut|, one mask per value, and each bin sums
    n!/|Aut| times its mask's classes in each group. A chunk whose parents
    accept no child has no bins."""
    rows, auts = class_rows(n, lo, hi)
    weights: Counter[tuple[int, int | None]] = Counter()
    if not auts:
        return weights
    marks = {aut: bytearray(b"0") * len(auts) for aut in set(auts)}
    for c, aut in enumerate(auts):
        marks[aut][c] = 49  # the digit 1, so class c is bit m - 1 - c
    labelings = factorial(n)
    groups = [(labelings // aut, int(mark, 2)) for aut, mark in marks.items()]
    for i, masks in enumerate(_class_numbers(plan, n, rows)):
        for k, mask in enumerate(masks):
            if mask:
                weights[i, k or None] = sum(
                    labeled * (mask & group).bit_count() for labeled, group in groups
                )
    return weights


def census_kinds(kinds: Iterable[CodeKind], n: int, jobs: int = 1) -> list[CensusReport]:
    """census for each of `kinds`, in that order, from one pass over the
    classes on n vertices: `scan` shards the parent classes (jobs as
    class_pass takes it), and each chunk decides every kind's number of all
    its classes at once (_census_chunk). Guarded at CENSUS_GUARD, checked
    before any work."""
    kinds = tuple(kinds)
    chunk = partial(_census_chunk, tuple(_KIND_PARTS[kind] for kind in kinds), n)
    weights = sum(scan(chunk, len(class_parents(n)), jobs), Counter())
    return [
        CensusReport(
            kind, n, {k: weights[i, k] for k in range(1, n + 1) if weights[i, k]}, weights[i, None]
        )
        for i, kind in enumerate(kinds)
    ]


def census(kind: CodeKind, n: int, jobs: int = 1) -> CensusReport:
    """Kind-number histogram over every labeled graph on n vertices: the
    number of one graph per isomorphism class, as min_code gives it, is
    read off census's class-parallel kernel (_class_numbers), and all
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
