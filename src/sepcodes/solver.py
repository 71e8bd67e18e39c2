"""Exact minimum-code computation, the brute-force cross-check oracle,
the logarithmic lower bounds, the maximum-order formulas, and the relation
checks between the eight code numbers."""

from __future__ import annotations

import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, TypeVar

from .codes import ALL_KINDS, CodeKind, Separation, is_admissible, is_code
from .errors import BudgetError, GuardError
from .graphs import (
    ENUMERATION_GUARD,
    Graph,
    decode_edges,
    edge_bit_pairs,
    labeled_graph_count,
    members,
)

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


def max_order(kind: CodeKind, k: int) -> int:
    """Largest order an admissible graph with kind-number k can have."""
    minimum = 4 if kind in (CodeKind.FD, CodeKind.FTD) else 2
    if k < minimum:
        raise ValueError(f"{kind.name} requires k >= {minimum}, got {k}")
    if kind in (CodeKind.LD, CodeKind.LTD):
        return (1 << k) + k - 1
    if kind is CodeKind.OD:
        return 1 << k
    if kind in (CodeKind.OTD, CodeKind.ID, CodeKind.ITD):
        return (1 << k) - 1
    if kind is CodeKind.FD:
        return (1 << k) - k
    return (1 << k) - k - 1  # FTD


def make_mask_checker(
    n: int, adj: list[int] | tuple[int, ...], closed: list[int] | tuple[int, ...], kind: CodeKind
) -> Callable[[int], bool]:
    """Fused separation+domination test over a candidate code mask.

    Specialized per kind for the solver's hot loops; agrees with
    codes.is_code on every input (property-tested exhaustively). The
    checker reads adj and closed when called, so a caller may refill them
    in place and keep the checker."""
    total = kind.total_domination
    sep = kind.separation
    rng = range(n)

    if sep is Separation.LOCATION:

        def check(c: int) -> bool:
            seen = set()
            for v in rng:
                s = adj[v] & c
                if c >> v & 1:
                    if total and not s:
                        return False
                elif not s or s in seen:
                    return False
                else:
                    seen.add(s)
            return True

    elif sep is Separation.OPEN:

        def check(c: int) -> bool:
            seen = set()
            for v in rng:
                s = adj[v] & c
                if not s and (total or not c >> v & 1):
                    return False
                if s in seen:
                    return False
                seen.add(s)
            return True

    elif sep is Separation.CLOSED:

        def check(c: int) -> bool:
            seen = set()
            for v in rng:
                s = closed[v] & c
                if not s or s in seen:
                    return False
                seen.add(s)
                if total and not adj[v] & c:
                    return False
            return True

    else:  # FULL

        def check(c: int) -> bool:
            oseen = set()
            cseen = set()
            for v in rng:
                s = adj[v] & c
                if not s and (total or not c >> v & 1):
                    return False
                if s in oseen:
                    return False
                oseen.add(s)
                sc = closed[v] & c
                if sc in cseen:
                    return False
                cseen.add(sc)
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
    sorted by largest vertex. It is [0] exactly when g is inadmissible."""
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


def min_code(g: Graph, kind: CodeKind, budget: int = DEFAULT_BUDGET) -> SolveReport:
    """Exact kind-number with a deterministic witness: cardinalities are
    tried from the lower-bound floor upward, and the witness is the
    lexicographically first set of that cardinality that hits every set of
    the separation family, which is what testing the k-sets in
    itertools.combinations order would return. subsets_tested counts search
    nodes, and budget caps them."""
    lb = lower_bound(kind, g.order)
    if not is_admissible(g, kind):
        return SolveReport(kind, None, None, 0, lb)
    family = separation_family(g, kind)
    n = g.order
    full = (1 << n) - 1
    nodes = 0

    def search(unhit: list[int], start: int, left: int) -> int | None:
        """First set of `left` vertices from start.. that hits every set
        in unhit (each cut to vertices >= start, sorted by largest vertex)."""
        nonlocal nodes
        last = n - left
        if unhit:
            # vertices after x are larger, so x may not pass the largest
            # vertex of the first set not yet hit (the smallest such vertex)
            last = min(last, unhit[0].bit_length() - 1)
        for x in range(start, last + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetError(
                    f"budget of {budget} search nodes exhausted at cardinality {size}",
                    subsets_tested=nodes,
                )
            bit = 1 << x
            above = full ^ ((bit << 1) - 1)
            rest = [s & above for s in unhit if not s & bit]
            if left == 1:
                if not rest:
                    return bit
                continue
            # greedy packing: disjoint sets not yet hit each need their own
            # vertex, and left - 1 slots remain
            used = packed = 0
            for s in rest:
                if not s & used:
                    used |= s
                    packed += 1
                    if not s or packed == left:
                        break
            else:
                found = search(rest, x + 1, left - 1)
                if found is not None:
                    return found | bit
        return None

    for size in range(max(1, lb), n + 1):
        witness = search(family, 0, size)
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


def _census_range(kind_name: str, n: int, lo: int, hi: int) -> tuple[dict[int, int], int]:
    kind = CodeKind[kind_name]
    pairs = edge_bit_pairs(n)
    bits = [1 << v for v in range(n)]
    masks_by_size = [
        [sum(bits[v] for v in combo) for combo in itertools.combinations(range(n), size)]
        for size in range(n + 1)
    ]
    full = (1 << n) - 1
    lb = max(1, lower_bound(kind, n))
    hist: Counter[int] = Counter()
    inadmissible = 0
    for code in range(lo, hi):
        adj = decode_edges(n, code, pairs)
        closed = [adj[v] | bits[v] for v in range(n)]
        check = make_mask_checker(n, adj, closed, kind)
        # every superset of a code is a code, so a graph has one exactly
        # when its whole vertex set is one
        if not check(full):
            inadmissible += 1
            continue
        number = None
        for size in range(lb, n + 1):
            if any(check(m) for m in masks_by_size[size]):
                number = size
                break
        hist[number] += 1
    return dict(hist), inadmissible


def census(
    kind: CodeKind, n: int, jobs: int = 1, allow_large: bool = False
) -> CensusReport:
    """Kind-number histogram over every labeled graph on n vertices."""
    if n < 1:
        raise ValueError("order must be at least 1")
    if n > ENUMERATION_GUARD and not allow_large:
        raise GuardError(
            f"census enumeration is guarded at order {ENUMERATION_GUARD}; "
            f"pass allow_large=True to override"
        )
    results = scan(partial(_census_range, kind.name, n), labeled_graph_count(n), jobs)
    hist: Counter[int] = Counter()
    inadmissible = 0
    for part_hist, part_inadm in results:
        hist.update(part_hist)
        inadmissible += part_inadm
    return CensusReport(kind, n, dict(sorted(hist.items())), inadmissible)


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
