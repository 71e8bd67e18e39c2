"""Minimum-code solver versus the brute-force oracle, bound formulas,
relation checks, and the census."""

from __future__ import annotations

import multiprocessing
import os
import random
import re
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import cache, partial
from itertools import chain, combinations
from math import comb, factorial

import pytest
from conftest import (
    connected_sparse_graphs,
    graphs,
    k1,
    k2,
    k3,
    labeled_graphs,
    p3,
    p4,
    random_graph,
    reference_min_code,
    reference_separation_family,
    relabeled,
    sparse_graphs,
    two_k1,
    window_number,
)
from hypothesis import given
from hypothesis import strategies as st

import sepcodes.graphs
import sepcodes.solver
from sepcodes import (
    ALL_KINDS,
    BudgetError,
    CodeKind,
    GuardError,
    build_graph,
    census,
    census_kinds,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_from_code,
    is_admissible,
    is_code,
    labeled_graph_count,
    lower_bound,
    max_order,
    min_code,
    oracle_min_code,
    path_graph,
    relation_check,
    vset,
)
from sepcodes.graphs import _children, class_children, class_parents, class_rows
from sepcodes.solver import (
    DEFAULT_BUDGET,
    _KIND_PARTS,
    _candidates,
    _census_chunk,
    _class_numbers,
    _columns,
    class_pass,
    make_mask_checker,
    resolve_jobs,
    smallest_k,
)


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        (CodeKind.LD, 5, 2),
        (CodeKind.OTD, 7, 3),
        (CodeKind.FTD, 11, 4),
        (CodeKind.FD, 16, 5),
        (CodeKind.OD, 1, 0),
        (CodeKind.ID, 1, 1),
    ],
)
def test_lower_bound(kind, n, expected):
    assert lower_bound(kind, n) == expected


def test_lower_bound_rejects_zero():
    with pytest.raises(ValueError):
        lower_bound(CodeKind.LD, 0)


def floor_log2(m: int) -> int:
    """Largest e with 2**e <= m, by comparing with powers of two."""
    e = 0
    while 2 ** (e + 1) <= m:
        e += 1
    return e


def ceil_log2(m: int) -> int:
    """Least e with 2**e >= m, by comparing with powers of two."""
    e = 0
    while 2**e < m:
        e += 1
    return e


LOG_FORMULAS = {
    CodeKind.LD: floor_log2,
    CodeKind.LTD: floor_log2,
    CodeKind.OD: ceil_log2,
    CodeKind.OTD: lambda n: ceil_log2(n + 1),
    CodeKind.ID: lambda n: ceil_log2(n + 1),
    CodeKind.ITD: lambda n: ceil_log2(n + 1),
    CodeKind.FD: lambda n: 1 + floor_log2(n),
    CodeKind.FTD: lambda n: 1 + floor_log2(n + 1),
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.name)
def test_lower_bound_matches_the_log_formulas(kind):
    formula = LOG_FORMULAS[kind]
    assert [lower_bound(kind, n) for n in range(1, 4097)] == [
        formula(n) for n in range(1, 4097)
    ]


@pytest.mark.parametrize(
    "kind,k,expected",
    [
        (CodeKind.LD, 2, 5),
        (CodeKind.OD, 2, 3),
        (CodeKind.FD, 4, 11),
        (CodeKind.ID, 3, 7),
        (CodeKind.FTD, 4, 11),
        (CodeKind.OD, 5, 32),
        (CodeKind.FD, 5, 27),
        (CodeKind.LTD, 3, 10),
        (CodeKind.OTD, 4, 15),
        (CodeKind.ITD, 5, 31),
    ],
)
def test_max_order(kind, k, expected):
    assert max_order(kind, k) == expected


def test_max_order_guards():
    with pytest.raises(ValueError, match="k >= 2"):
        max_order(CodeKind.LD, 1)
    with pytest.raises(ValueError, match="k >= 4"):
        max_order(CodeKind.FD, 3)
    with pytest.raises(ValueError, match="k >= 3"):
        max_order(CodeKind.ITD, 2)
    with pytest.raises(ValueError, match="k <= 62"):
        max_order(CodeKind.LD, 20000)


def test_min_code_point_values():
    assert min_code(k3(), CodeKind.OD).number == 2
    assert min_code(p3(), CodeKind.ID).number == 2
    assert min_code(disjoint_union(k2(), k2()), CodeKind.OD).number == 3
    assert min_code(disjoint_union(k2(), p4()), CodeKind.OD).number == 5
    assert min_code(disjoint_union(p4(), p4()), CodeKind.OD).number == 7


def test_min_code_inadmissible():
    report = min_code(k2(), CodeKind.ID)
    assert report.inadmissible and report.number is None and report.witness is None
    assert report.subsets_tested == 0


def test_min_code_witness_is_lexicographic_least():
    report = min_code(p3(), CodeKind.LD)
    assert report.number == 2
    assert report.witness == vset([0, 1])


def test_oracle_point_values():
    # all eight subsets of P3 enumerated: no single vertex both dominates
    # and location-separates, so the LD-number is 2
    report = oracle_min_code(p3(), CodeKind.LD)
    assert report.number == 2
    assert report.subsets_tested == 8
    assert oracle_min_code(k3(), CodeKind.OD).number == 2
    assert oracle_min_code(k1(), CodeKind.LD).number == 1
    assert oracle_min_code(k2(), CodeKind.ID).number is None


def test_oracle_guard():
    with pytest.raises(GuardError):
        oracle_min_code(empty_graph(21), CodeKind.LD)


def test_solver_matches_oracle_exhaustively():
    for n in range(1, 5):
        for g in labeled_graphs(n):
            for kind in ALL_KINDS:
                fast = min_code(g, kind)
                slow = oracle_min_code(g, kind)
                assert fast.number == slow.number
                assert fast.witness == slow.witness


def test_witness_validity_and_bounds_on_samples():
    rng = random.Random(20250809)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 8))
        for kind in ALL_KINDS:
            report = min_code(g, kind)
            if report.number is None:
                continue
            assert is_code(g, report.witness, kind)
            assert report.witness.bit_count() == report.number
            assert report.number >= report.lower_bound
            if report.number >= smallest_k(kind):
                assert g.order <= max_order(kind, report.number)


def test_mask_checker_agrees_with_is_code_exhaustively():
    # one checker per kind, called on every labeled graph of every order, so
    # a checker that kept any state between graphs or orders would fail; its
    # answer is also the solver's, that the mask hits every set of
    # _candidates ([0] on an inadmissible graph, which no mask hits)
    checks = {kind: make_mask_checker(kind) for kind in ALL_KINDS}
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for kind, check in checks.items():
                family = _candidates(g, kind)
                for mask in range(1 << n):
                    answer = check(g.adj, mask)
                    assert answer == is_code(g, mask, kind), (g, mask, kind)
                    assert answer == all(s & mask for s in family), (g, mask, kind)


@given(graphs(max_order=20), st.data())
def test_mask_checker_agrees_with_is_code_on_random_graphs(g, data):
    # past the exhaustive orders: the whole vertex set is a code of every
    # admissible kind, so the test sees codes as well as non-codes
    full = (1 << g.order) - 1
    for kind in ALL_KINDS:
        check = make_mask_checker(kind)
        for mask in (full, full ^ 1, data.draw(st.integers(0, full))):
            assert check(g.adj, mask) == is_code(g, mask, kind), (mask, kind)


def test_solver_is_deterministic():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, 6)
        for kind in ALL_KINDS:
            assert min_code(g, kind) == min_code(g, kind)


def test_budget_is_enforced():
    with pytest.raises(BudgetError):
        min_code(p3(), CodeKind.LD, budget=1)


MAKERS = {"path": path_graph, "cycle": cycle_graph}
# Search nodes (subsets_tested) per kind, in ALL_KINDS order. The search
# order and its prunes decide them, so a rework of the search that should
# visit the same nodes must leave them as they are.
SEARCH_NODES = {
    ("path", 10): (28, 15, 39, 34, 17, 13, 26, 17),
    ("path", 15): (84, 24, 161, 87, 31, 27, 84, 47),
    ("path", 20): (236, 31, 450, 191, 96, 52, 248, 91),
    ("cycle", 10): (17, 20, 72, 62, 24, 20, 76, 50),
    ("cycle", 15): (59, 31, 277, 115, 116, 51, 317, 139),
    ("cycle", 20): (150, 36, 1225, 405, 116, 100, 963, 276),
    ("path", 30): (1763, 53, 16522, 1416, 390, 271, 3003, 407),
    ("cycle", 30): (1134, 67, 41890, 2434, 466, 592, 11529, 1339),
}


@pytest.mark.parametrize("family,n", SEARCH_NODES)
def test_search_nodes_are_pinned_and_are_the_least_budget(family, n):
    g = MAKERS[family](n)
    pinned = SEARCH_NODES[family, n]
    assert tuple(min_code(g, kind).subsets_tested for kind in ALL_KINDS) == pinned
    for kind, nodes in zip(ALL_KINDS, pinned):
        assert min_code(g, kind, budget=nodes).number is not None
        budget = nodes - 1
        with pytest.raises(BudgetError) as exc:
            min_code(g, kind, budget=budget)
        assert exc.value.subsets_tested == budget + 1


def test_the_reference_search_reads_nothing_of_the_candidates(monkeypatch):
    # reference_min_code builds its own family, so a fault in _candidates
    # cannot reach both sides of a comparison with it: with _candidates
    # patched to raise, it still gives the pinned nodes and min_code's
    # number and witness
    cases = [(family, n) for family in MAKERS for n in (10, 15)]
    solved = {
        (family, n): [min_code(MAKERS[family](n), kind) for kind in ALL_KINDS]
        for family, n in cases
    }

    def no_candidates(*args):
        raise AssertionError("the reference search read _candidates")

    monkeypatch.setattr(sepcodes.solver, "_candidates", no_candidates)
    for family, n in cases:
        g = MAKERS[family](n)
        for kind, report, nodes in zip(ALL_KINDS, solved[family, n], SEARCH_NODES[family, n]):
            want = (report.number, report.witness, nodes)
            assert reference_min_code(g, kind, DEFAULT_BUDGET) == want, (family, n, kind)


def assert_search_matches_the_reference(g):
    """min_code gives the reference search's number, witness and node
    count for every kind, and one node less of budget raises BudgetError
    at that node."""
    for kind in ALL_KINDS:
        number, witness, nodes = reference_min_code(g, kind, DEFAULT_BUDGET)
        report = min_code(g, kind)
        assert (report.number, report.witness, report.subsets_tested) == (number, witness, nodes)
        if nodes:
            with pytest.raises(BudgetError) as exc:
                min_code(g, kind, budget=nodes - 1)
            assert exc.value.subsets_tested == nodes


@given(graphs(max_order=20))
def test_search_matches_the_reference_search(g):
    assert_search_matches_the_reference(g)


@given(sparse_graphs(max_order=24))
def test_search_matches_the_reference_search_on_sparse_graphs(g):
    assert_search_matches_the_reference(g)


@given(connected_sparse_graphs())
def test_search_matches_the_reference_search_on_connected_sparse_graphs(g):
    # sparse_graphs mostly draws inadmissible graphs and short searches;
    # these reach searches of a thousand nodes and more
    assert_search_matches_the_reference(g)


@pytest.mark.parametrize("family", MAKERS)
@pytest.mark.parametrize("n", (33, 48, 57, 62))
def test_search_matches_the_reference_search_on_long_paths_and_cycles(family, n):
    # min_code packs each set in eight bytes, and the comparisons above stop
    # at order 24, where only the low three hold a vertex; these orders end
    # in the fifth, sixth and eighth byte, and the reference search packs none
    g = MAKERS[family](n)
    number, witness, nodes = reference_min_code(g, CodeKind.ID, DEFAULT_BUDGET)
    report = min_code(g, CodeKind.ID)
    assert (report.number, report.witness, report.subsets_tested) == (number, witness, nodes)
    with pytest.raises(BudgetError) as exc:
        min_code(g, CodeKind.ID, budget=nodes - 1)
    assert exc.value.subsets_tested == nodes


def search_outcome(search, g, kind, budget):
    """(number, witness, nodes) of a search run with `budget`, or, when it
    raises BudgetError, ("budget", subsets_tested, the cardinality its
    message names)."""
    try:
        return search(g, kind, budget)
    except BudgetError as exc:
        cardinality = int(re.search(r"at cardinality (\d+)", str(exc)).group(1))
        return "budget", exc.subsets_tested, cardinality


def budget_edge_graphs():
    rng = random.Random(7)
    yield from (make(n) for make in MAKERS.values() for n in range(4, 13))
    for _ in range(25):
        n = rng.randint(5, 12)
        yield build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])


def test_every_budget_gives_the_reference_outcome():
    # the last level counts its nodes at once, so a budget that runs out
    # inside it must still stop at the same node and cardinality as the
    # one-node-at-a-time reference
    def solve(g, kind, budget):
        report = min_code(g, kind, budget)
        return report.number, report.witness, report.subsets_tested

    for g in budget_edge_graphs():
        for kind in ALL_KINDS:
            nodes = reference_min_code(g, kind, DEFAULT_BUDGET)[2]
            for budget in range(1, nodes + 2):
                want = search_outcome(reference_min_code, g, kind, budget)
                assert search_outcome(solve, g, kind, budget) == want, (g, kind, budget)


@pytest.mark.parametrize("family", MAKERS)
def test_window_number_matches_the_oracle(family):
    for n in range(2 if family == "path" else 3, 15):
        g = MAKERS[family](n)
        for kind in ALL_KINDS:
            assert window_number(g, kind) == oracle_min_code(g, kind).number, (family, n, kind)


@pytest.mark.parametrize("family", MAKERS)
def test_numbers_of_paths_and_cycles_equal_the_window_number(family):
    # the sparse graphs whose searches are the longest, checked against a
    # route with no separation family and no search
    for n in range(2 if family == "path" else 3, 31):
        g = MAKERS[family](n)
        for kind in ALL_KINDS:
            assert min_code(g, kind).number == window_number(g, kind), (family, n, kind)


def minimal_candidates(g, kind):
    """The inclusion-minimal members of _candidates, in its order."""
    candidates = _candidates(g, kind)
    return [s for s in candidates if all(t & s != t or t == s for t in candidates)]


def test_family_matches_the_reference_filter_exhaustively():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for kind in ALL_KINDS:
                assert minimal_candidates(g, kind) == reference_separation_family(g, kind)


@pytest.mark.parametrize("n", [6, 7])
def test_family_matches_the_reference_filter_on_every_class(n):
    for g, _ in class_children(n, 0, len(class_parents(n))):
        for kind in ALL_KINDS:
            family = minimal_candidates(g, kind)
            assert family == reference_separation_family(g, kind)
            assert (family == [0]) == (not is_admissible(g, kind))


def assert_candidates_put_subsets_first(g):
    # the lemma min_code's search rests on: _candidates lists each set once
    # and puts every set after each set it strictly contains, and its
    # inclusion-minimal members, in its order, are the separation family
    for kind in ALL_KINDS:
        candidates = _candidates(g, kind)
        assert len(set(candidates)) == len(candidates), kind
        for j, s in enumerate(candidates):
            assert all(t & s != s for t in candidates[:j]), (kind, s)
        assert minimal_candidates(g, kind) == reference_separation_family(g, kind), kind


def test_candidates_put_subsets_first_on_every_class():
    for n in range(1, 7):
        for g, _ in class_children(n, 0, len(class_parents(n))):
            assert_candidates_put_subsets_first(g)


@given(graphs(max_order=20))
def test_candidates_put_subsets_first_on_random_graphs(g):
    assert_candidates_put_subsets_first(g)


def test_inadmissible_graphs_build_no_pair_set(monkeypatch):
    # the twin rule decides admissibility before any pair set is built, so
    # _candidates is [0] and min_code searches no node with combinations
    # patched to raise
    def no_pairs(*args):
        raise AssertionError("pair sets built for an inadmissible graph")

    monkeypatch.setattr(sepcodes.solver, "combinations", no_pairs)
    inadmissible = 0
    for n in range(1, 7):
        for g, _ in class_children(n, 0, len(class_parents(n))):
            for kind in ALL_KINDS:
                if not is_admissible(g, kind):
                    assert _candidates(g, kind) == [0]
                    report = min_code(g, kind)
                    assert (report.number, report.subsets_tested) == (None, 0)
                    inadmissible += 1
    assert inadmissible > 600


def star_graph(m: int):
    return build_graph(m + 1, [(0, leaf) for leaf in range(1, m + 1)])


def test_search_matches_the_reference_where_vertices_are_forced():
    # a singleton {x} in the family forces x into every code, and every
    # larger set meeting x is hit with it. Stars and paths force the
    # neighbours of their leaves for the TD kinds, and an isolated vertex
    # forces itself for the D kinds
    rng = random.Random(5)
    isolate = empty_graph(1)
    totals = [kind for kind in ALL_KINDS if kind.total_domination]
    plains = [kind for kind in ALL_KINDS if not kind.total_domination]
    cases = [(star_graph(m), totals) for m in range(1, 9)]
    cases += [(path_graph(n), totals) for n in range(2, 13)]
    cases += [
        (disjoint_union(isolate, h), plains)
        for h in [path_graph(n) for n in range(1, 11)]
        + [cycle_graph(n) for n in range(3, 11)]
        + [star_graph(m) for m in range(1, 8)]
    ]
    singletons = 0
    for g, kinds in cases:
        perm = list(range(g.order))
        rng.shuffle(perm)
        for h in (g, relabeled(g, perm)):
            for kind in kinds:
                family = reference_separation_family(h, kind)
                singletons += any(s.bit_count() == 1 for s in family)
                report = min_code(h, kind)
                assert (report.number, report.witness, report.subsets_tested) == (
                    reference_min_code(h, kind, DEFAULT_BUDGET)
                )
    assert singletons > 100


@given(connected_sparse_graphs())
def test_family_matches_the_reference_filter_on_random_graphs(g):
    for kind in ALL_KINDS:
        assert minimal_candidates(g, kind) == reference_separation_family(g, kind)


def assert_inadmissible_exactly_when_the_family_holds_the_empty_set(g):
    # min_code reads admissibility off _candidates alone: it is [0] exactly
    # when g has no kind-code, and then no node is searched
    for kind in ALL_KINDS:
        inadmissible = not is_admissible(g, kind)
        assert (_candidates(g, kind) == [0]) == inadmissible
        report = min_code(g, kind)
        assert (report.number is None) == inadmissible
        if inadmissible:
            assert (report.witness, report.subsets_tested) == (None, 0)


def test_inadmissible_exactly_when_the_family_holds_the_empty_set_exhaustively():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            assert_inadmissible_exactly_when_the_family_holds_the_empty_set(g)


@given(graphs(max_order=20))
def test_inadmissible_exactly_when_the_family_holds_the_empty_set_on_random_graphs(g):
    assert_inadmissible_exactly_when_the_family_holds_the_empty_set(g)


@given(graphs())
def test_solver_matches_oracle_on_random_graphs(g):
    for kind in ALL_KINDS:
        fast = min_code(g, kind)
        slow = oracle_min_code(g, kind)
        assert (fast.number, fast.witness) == (slow.number, slow.witness)


@given(graphs(), st.data())
def test_family_hitting_agrees_with_is_code(g, data):
    # the statement min_code rests on: C hits every candidate set exactly
    # when it is a code
    for kind in ALL_KINDS:
        family = _candidates(g, kind)
        assert (family == [0]) == (not is_admissible(g, kind))
        for _ in range(8):
            mask = data.draw(st.integers(0, (1 << g.order) - 1))
            assert all(s & mask for s in family) == is_code(g, mask, kind)


@given(graphs(max_order=10), st.data())
def test_number_is_unchanged_under_relabeling(g, data):
    h = relabeled(g, data.draw(st.permutations(range(g.order))))
    for kind in ALL_KINDS:
        assert min_code(h, kind).number == min_code(g, kind).number


def _assert_solved(g, kind, number):
    report = min_code(g, kind)
    assert report.number == number
    assert is_code(g, report.witness, kind) and report.witness.bit_count() == number


# Closed forms (Slater; Bertrand, Charon, Hudry and Lobstein 2004), checked
# past the oracle's order guard.
@pytest.mark.parametrize("n", range(3, 31))
def test_id_number_of_paths(n):
    _assert_solved(path_graph(n), CodeKind.ID, -(-(n + 1) // 2))


@pytest.mark.parametrize("n", range(6, 41))
def test_id_number_of_even_cycles(n):
    # n/2 for even n >= 6, (n + 3)/2 for odd n >= 7 (Bertrand, Charon,
    # Hudry and Lobstein 2004); the name predates the odd orders
    _assert_solved(cycle_graph(n), CodeKind.ID, n // 2 if n % 2 == 0 else (n + 3) // 2)


@pytest.mark.parametrize("n", range(4, 31))
def test_ld_number_of_paths_and_cycles(n):
    _assert_solved(path_graph(n), CodeKind.LD, -(-2 * n // 5))
    _assert_solved(cycle_graph(n), CodeKind.LD, -(-2 * n // 5))


# The eight numbers of P_n and then of C_n, n = 1..62, in ALL_KINDS order
# (LD LTD OD OTD ID ITD FD FTD), as window_number gives them: "-" where the
# graph admits no code of the kind, "." where there is no cycle.
PATHS_AND_CYCLES = """
 1   1  -  1  -  1  -  1  -    .  .  .  .  .  .  .  .
 2   1  2  1  2  -  -  -  -    .  .  .  .  .  .  .  .
 3   2  2  -  -  2  3  -  -    2  2  2  2  -  -  -  -
 4   2  2  3  4  3  3  4  4    2  2  -  -  3  3  -  -
 5   2  3  3  4  3  3  4  4    2  3  3  4  3  3  4  4
 6   3  4  4  4  4  4  4  4    3  4  4  4  3  4  4  4
 7   3  4  5  5  4  5  5  5    3  4  5  5  5  5  5  5
 8   4  4  5  6  5  6  6  6    4  4  5  6  4  6  6  6
 9   4  5  6  7  5  6  7  7    4  5  6  6  6  6  7  7
10   4  6  7  8  6  6  8  8    4  6  7  8  5  6  8  8
11   5  6  7  8  6  7  8  8    5  6  7  8  7  7  8  8
12   5  6  8  8  7  8  8  8    5  6  8  8  6  8  8  8
13   6  7  9  9  7  9  9  9    6  7  9  9  8  9  9  9
14   6  8  9 10  8  9 10 10    6  8  9 10  7  9 10 10
15   6  8 10 11  8  9 11 11    6  8 10 10  9  9 11 11
16   7  8 11 12  9 10 12 12    7  8 11 12  8 10 12 12
17   7  9 11 12  9 11 12 12    7  9 11 12 10 11 12 12
18   8 10 12 12 10 12 12 12    8 10 12 12  9 12 12 12
19   8 10 13 13 10 12 13 13    8 10 13 13 11 12 13 13
20   8 10 13 14 11 12 14 14    8 10 13 14 10 12 14 14
21   9 11 14 15 11 13 15 15    9 11 14 14 12 13 15 15
22   9 12 15 16 12 14 16 16    9 12 15 16 11 14 16 16
23  10 12 15 16 12 15 16 16   10 12 15 16 13 15 16 16
24  10 12 16 16 13 15 16 16   10 12 16 16 12 15 16 16
25  10 13 17 17 13 15 17 17   10 13 17 17 14 15 17 17
26  11 14 17 18 14 16 18 18   11 14 17 18 13 16 18 18
27  11 14 18 19 14 17 19 19   11 14 18 18 15 17 19 19
28  12 14 19 20 15 18 20 20   12 14 19 20 14 18 20 20
29  12 15 19 20 15 18 20 20   12 15 19 20 16 18 20 20
30  12 16 20 20 16 18 20 20   12 16 20 20 15 18 20 20
31  13 16 21 21 16 19 21 21   13 16 21 21 17 19 21 21
32  13 16 21 22 17 20 22 22   13 16 21 22 16 20 22 22
33  14 17 22 23 17 21 23 23   14 17 22 22 18 21 23 23
34  14 18 23 24 18 21 24 24   14 18 23 24 17 21 24 24
35  14 18 23 24 18 21 24 24   14 18 23 24 19 21 24 24
36  15 18 24 24 19 22 24 24   15 18 24 24 18 22 24 24
37  15 19 25 25 19 23 25 25   15 19 25 25 20 23 25 25
38  16 20 25 26 20 24 26 26   16 20 25 26 19 24 26 26
39  16 20 26 27 20 24 27 27   16 20 26 26 21 24 27 27
40  16 20 27 28 21 24 28 28   16 20 27 28 20 24 28 28
41  17 21 27 28 21 25 28 28   17 21 27 28 22 25 28 28
42  17 22 28 28 22 26 28 28   17 22 28 28 21 26 28 28
43  18 22 29 29 22 27 29 29   18 22 29 29 23 27 29 29
44  18 22 29 30 23 27 30 30   18 22 29 30 22 27 30 30
45  18 23 30 31 23 27 31 31   18 23 30 30 24 27 31 31
46  19 24 31 32 24 28 32 32   19 24 31 32 23 28 32 32
47  19 24 31 32 24 29 32 32   19 24 31 32 25 29 32 32
48  20 24 32 32 25 30 32 32   20 24 32 32 24 30 32 32
49  20 25 33 33 25 30 33 33   20 25 33 33 26 30 33 33
50  20 26 33 34 26 30 34 34   20 26 33 34 25 30 34 34
51  21 26 34 35 26 31 35 35   21 26 34 34 27 31 35 35
52  21 26 35 36 27 32 36 36   21 26 35 36 26 32 36 36
53  22 27 35 36 27 33 36 36   22 27 35 36 28 33 36 36
54  22 28 36 36 28 33 36 36   22 28 36 36 27 33 36 36
55  22 28 37 37 28 33 37 37   22 28 37 37 29 33 37 37
56  23 28 37 38 29 34 38 38   23 28 37 38 28 34 38 38
57  23 29 38 39 29 35 39 39   23 29 38 38 30 35 39 39
58  24 30 39 40 30 36 40 40   24 30 39 40 29 36 40 40
59  24 30 39 40 30 36 40 40   24 30 39 40 31 36 40 40
60  24 30 40 40 31 36 40 40   24 30 40 40 30 36 40 40
61  25 31 41 41 31 37 41 41   25 31 41 41 32 37 41 41
62  25 32 41 42 32 38 42 42   25 32 41 42 31 38 42 42
"""


def _pinned_paths_and_cycles() -> dict[tuple[str, int], list[int | None]]:
    table = {}
    for line in PATHS_AND_CYCLES.strip().splitlines():
        n, *numbers = line.split()
        numbers = [None if x == "-" else x if x == "." else int(x) for x in numbers]
        table["path", int(n)], table["cycle", int(n)] = numbers[:8], numbers[8:]
    return table


def test_numbers_of_paths_and_cycles_match_the_pinned_table():
    table = _pinned_paths_and_cycles()
    assert sorted({n for _, n in table}) == list(range(1, sepcodes.graphs.MAX_VERTICES + 1))
    for (family, n), pinned in table.items():
        if family == "cycle" and n < 3:
            assert pinned == ["."] * 8
            continue
        g = MAKERS[family](n)
        assert [window_number(g, kind) for kind in ALL_KINDS] == pinned, (family, n)


def test_closed_forms_hold_on_the_pinned_table():
    # the closed forms bench/workloads.py checks solve against (Slater;
    # Bertrand, Charon, Hudry and Lobstein 2004), the odd cycles' ID number
    # from the same paper, and OTD(C_n) = ceil(2n/3) (Seo and Slater's OLD),
    # which the table exceeds by one exactly at the orders listed, as
    # measured up to 62
    table = _pinned_paths_and_cycles()
    ld, otd, id_ = (ALL_KINDS.index(kind) for kind in (CodeKind.LD, CodeKind.OTD, CodeKind.ID))
    above = []
    for n in range(3, sepcodes.graphs.MAX_VERTICES + 1):
        path, cycle = table["path", n], table["cycle", n]
        assert path[id_] == (n + 2) // 2, n
        if n >= 6:
            assert cycle[id_] == (n // 2 if n % 2 == 0 else (n + 3) // 2), n
        if n >= 4:
            assert path[ld] == cycle[ld] == -(-2 * n // 5), n
        if n != 4:  # C_4 has two open twins
            assert cycle[otd] - -(-2 * n // 3) in (0, 1), n
            if cycle[otd] > -(-2 * n // 3):
                above.append(n)
    assert table["cycle", 4][otd] is None
    assert above == [10, 16, 22, 28, 34, 40, 46, 52, 58]


def test_relation_check_p4():
    report = relation_check(p4())
    numbers = {kind.name: report.numbers[kind] for kind in ALL_KINDS}
    # frozen from the brute-force oracle
    assert numbers == {
        "LD": 2, "LTD": 2, "OD": 3, "OTD": 4, "ID": 3, "ITD": 3, "FD": 4, "FTD": 4,
    }
    assert report.passed


def test_relation_check_respects_admissibility():
    report = relation_check(k3())
    assert report.numbers[CodeKind.ID] is None
    assert report.numbers[CodeKind.FTD] is None
    assert report.numbers[CodeKind.OD] == 2
    assert report.passed

    report = relation_check(two_k1())
    assert report.numbers[CodeKind.LD] == 2
    assert report.numbers[CodeKind.OD] is None
    assert report.numbers[CodeKind.FD] is None
    assert report.passed


def test_relations_hold_exhaustively_small():
    for n in range(1, 5):
        for g in labeled_graphs(n):
            assert relation_check(g).passed


@pytest.mark.parametrize("n", range(1, 8))
def test_relations_hold_on_every_class(n):
    assert class_pass(lambda g: relation_check(g).passed, n) == Counter({True: 2 ** comb(n, 2)})


def test_census_ld_three_vertices():
    report = census(CodeKind.LD, 3)
    assert report.histogram == {2: 7, 3: 1}
    assert report.inadmissible == 0


def test_census_matches_oracle():
    for kind in ALL_KINDS:
        report = census(kind, 4)
        hist: dict[int, int] = {}
        inadmissible = 0
        for g in labeled_graphs(4):
            number = oracle_min_code(g, kind).number
            if number is None:
                inadmissible += 1
            else:
                hist[number] = hist.get(number, 0) + 1
        assert report.histogram == dict(sorted(hist.items()))
        assert report.inadmissible == inadmissible


def test_census_parallel_matches_serial():
    # the workers solve the children in the labeling augmentation gives them
    assert census(CodeKind.LD, 4, jobs=2) == census(CodeKind.LD, 4, jobs=1)
    for kind in ALL_KINDS:
        assert census(kind, 6, jobs=2) == census(kind, 6, jobs=1)
    assert census(CodeKind.FTD, 7, jobs=2) == census(CodeKind.FTD, 7, jobs=1)


# (histogram, inadmissible) at order 6, as the labeled scan of all 2^15
# graphs gave them before census went over isomorphism classes
CENSUS_ORDER_SIX = {
    CodeKind.LD: ({3: 28644, 4: 3910, 5: 213, 6: 1}, 0),
    CodeKind.LTD: ({3: 23952, 4: 3400, 5: 82, 6: 15}, 5319),
    CodeKind.OD: ({3: 10422, 4: 8020, 5: 3034}, 11292),
    CodeKind.OTD: ({3: 2700, 4: 13807, 5: 1726, 6: 555}, 13980),
    CodeKind.ID: ({3: 7470, 4: 12619, 5: 1386, 6: 1}, 11292),
    CodeKind.ITD: ({3: 4770, 4: 12187, 5: 1311, 6: 90}, 14410),
    CodeKind.FD: ({4: 7872, 5: 5952}, 18944),
    CodeKind.FTD: ({4: 7872, 5: 4080, 6: 360}, 20456),
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_census_order_six_matches_the_labeled_scan(kind):
    report = census(kind, 6)
    assert (report.histogram, report.inadmissible) == CENSUS_ORDER_SIX[kind]


# (histogram, inadmissible) at order 7, as census gave them with the
# unpruned canonical search
CENSUS_ORDER_SEVEN = {
    CodeKind.LD: ({3: 1690380, 4: 383866, 5: 22386, 6: 519, 7: 1}, 0),
    CodeKind.LTD: ({3: 1467168, 4: 404470, 5: 15092, 6: 554}, 209868),
    CodeKind.OD: ({3: 351960, 4: 909247, 5: 274193, 6: 12083, 7: 3885}, 545784),
    CodeKind.OTD: ({3: 43260, 4: 1104022, 5: 239011, 6: 33559}, 677300),
    CodeKind.ID: ({3: 137130, 4: 1209904, 5: 194064, 6: 10269, 7: 1}, 545784),
    CodeKind.ITD: ({3: 93030, 4: 1087180, 5: 221042, 6: 11137}, 684763),
    CodeKind.FD: ({4: 395160, 5: 716208, 6: 33600, 7: 2520}, 949664),
    CodeKind.FTD: ({4: 395160, 5: 621624, 6: 44520}, 1035848),
}

# attaining_count of the exhaustive audit at order 7 (test_extremal pins the
# same figures, from the audit's own pattern scan)
AUDIT_ORDER_SEVEN = {
    CodeKind.LD: 0,
    CodeKind.LTD: 0,
    CodeKind.OD: 351960,
    CodeKind.OTD: 43260,
    CodeKind.ID: 137130,
    CodeKind.ITD: 93030,
    CodeKind.FD: 0,
    CodeKind.FTD: 395160,
}


# the parts of every kind, in ALL_KINDS order, as census_kinds hands them on
ALL_PARTS = tuple(_KIND_PARTS[kind] for kind in ALL_KINDS)


def _packed(batch) -> array:
    """The adjacency rows of graphs of one order, packed as class_rows packs them."""
    return array("H", chain.from_iterable(g.adj for g in batch))


@pytest.mark.parametrize("n", range(1, 13))
def test_census_columns_hold_each_graph_edge(n):
    # entry [w][v] has bit m - 1 - c set exactly when graph c has the edge
    # vw; from n = 9 the rows take a second byte
    rng = random.Random(n)
    batch = list(labeled_graphs(n)) if n <= 4 else [random_graph(rng, n) for _ in range(41)]
    m = len(batch)
    assert _columns(n, _packed(batch)) == [
        [sum(1 << m - 1 - c for c, g in enumerate(batch) if g.adj[v] >> w & 1) for v in range(n)]
        for w in range(n)
    ]


def _kernel_numbers(batch) -> list[tuple[int | None, ...]]:
    """The numbers of every kind, in ALL_KINDS order, of each graph of a
    batch of one order, read off the masks of one _class_numbers call."""
    n, m = batch[0].order, len(batch)
    rows = _packed(batch)
    masks = _class_numbers(ALL_PARTS, n, rows)
    # the kinds share their parts' ORs, in whatever order they come
    assert _class_numbers(ALL_PARTS[::-1], n, rows) == masks[::-1]
    assert all(len(kind) == n + 1 and not any(mask >> m for mask in kind) for kind in masks)
    numbers = []
    for c in range(m):
        # each graph is in exactly one of each kind's masks: entry 0 when
        # inadmissible, else entry k for number k
        found = [[k for k, mask in enumerate(kind) if mask >> m - 1 - c & 1] for kind in masks]
        assert all(len(entries) == 1 for entries in found)
        numbers.append(tuple(entries[0] or None for entries in found))
    return numbers


def _numbers_agree(g, numbers) -> bool:
    return all(
        number == min_code(g, kind).number and (number is None) == (not is_admissible(g, kind))
        for kind, number in zip(ALL_KINDS, numbers)
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_census_numbers_equal_min_code_on_every_class(n):
    # one batch holds every class of the order, as a serial census reads it
    classes = list(class_children(n))
    numbers = _kernel_numbers([g for g, _ in classes])
    assert all(_numbers_agree(g, row) for (g, _), row in zip(classes, numbers))
    # census's bins are those numbers, each class weighted n!/|Aut|, and
    # they hold every labeled graph once per kind
    weights: Counter = Counter()
    for (_, aut), row in zip(classes, numbers):
        for i, number in enumerate(row):
            weights[i, number] += factorial(n) // aut
    assert _census_chunk(ALL_PARTS, n, 0, len(class_parents(n))) == weights
    for i in range(len(ALL_KINDS)):
        assert sum(w for (j, _), w in weights.items() if j == i) == 2 ** comb(n, 2)


@st.composite
def batches(draw, max_order=8, max_size=8):
    """1..max_size labeled graphs of one order 1..max_order."""
    n = draw(st.integers(1, max_order))
    codes = draw(st.lists(st.integers(0, (1 << comb(n, 2)) - 1), min_size=1, max_size=max_size))
    return [graph_from_code(n, code) for code in codes]


@given(batches())
def test_census_numbers_equal_min_code_on_labeled_graphs(batch):
    # a bit that leaked between the graphs of a batch would give one of
    # them another graph's number
    assert all(map(_numbers_agree, batch, _kernel_numbers(batch)))


@pytest.mark.parametrize("n", [6, 7])
def test_census_chunks_at_every_split_sum_to_the_whole_order(n, monkeypatch):
    total = len(class_parents(n))
    whole = _census_chunk(ALL_PARTS, n, 0, total)
    # an empty chunk, whose parents accept no child, has no bins
    assert _census_chunk(ALL_PARTS, n, total, total) == Counter()
    # each parent's children packed alone: a range of parents packs their
    # concatenation, so the splits below need no class generation
    pieces = [class_rows(n, lo, lo + 1) for lo in range(total)]

    def rows(order, lo=0, hi=None):
        chosen = pieces[lo:hi]
        return (
            array("H", chain.from_iterable(r for r, _ in chosen)),
            array("L", chain.from_iterable(a for _, a in chosen)),
        )

    assert rows(n) == class_rows(n)
    monkeypatch.setattr("sepcodes.solver.class_rows", rows)
    for m in range(total + 1):
        assert _census_chunk(ALL_PARTS, n, 0, m) + _census_chunk(ALL_PARTS, n, m, total) == whole


def test_census_kinds_at_two_jobs_equal_one_job(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for n in (6, 7):
        assert census_kinds(ALL_KINDS, n, jobs=2) == census_kinds(ALL_KINDS, n, jobs=1)


def test_census_workers_transpose_the_slices_they_pack(cold_classes, spy_pools, monkeypatch):
    packed = []

    def pack(order, lo=0, hi=None):
        packed.append((lo, hi))
        return _children.__wrapped__(order, lo, hi)

    # class_rows keeps the whole order through _children and packs a
    # slice through _children.__wrapped__, pack itself
    monkeypatch.setattr("sepcodes.graphs._children", cache(pack))
    reports = census_kinds(ALL_KINDS, 6, jobs=4)
    assert spy_pools[0].tasks == len(packed) > 1
    # the workers' slices tile the 34 parents; no whole order was packed or kept
    assert packed[0][0] == 0 and packed[-1][1] == 34
    assert all(a[1] == b[0] for a, b in zip(packed, packed[1:]))
    assert sepcodes.graphs._children.cache_info().currsize == 0
    assert {r.kind: (r.histogram, r.inadmissible) for r in reports} == CENSUS_ORDER_SIX


def test_census_calls_no_min_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("census called min_code")

    monkeypatch.setattr("sepcodes.solver.min_code", refuse)
    reports = census_kinds(ALL_KINDS, 6)
    assert {r.kind: (r.histogram, r.inadmissible) for r in reports} == CENSUS_ORDER_SIX


def test_census_calls_no_lower_bound(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("census called lower_bound")

    monkeypatch.setattr("sepcodes.solver.lower_bound", refuse)
    reports = census_kinds(ALL_KINDS, 7)
    assert {r.kind: (r.histogram, r.inadmissible) for r in reports} == CENSUS_ORDER_SEVEN


@pytest.mark.parametrize("n", range(1, 8))
def test_census_checks_the_lower_bounds_on_every_labeled_graph(n):
    # census searches every number from k = 1, so its histograms check the
    # logarithmic lower bound on every labeled graph on n vertices; from
    # n = 4 the least number is the exact bound: the least k the
    # construction takes whose largest admissible order reaches n
    for report in census_kinds(ALL_KINDS, n):
        assert all(number >= lower_bound(report.kind, n) for number in report.histogram)
        if n >= 4:
            k = smallest_k(report.kind)
            while max_order(report.kind, k) < n:
                k += 1
            assert min(report.histogram) == k


def test_census_order_seven_counts_the_audit_attaining_graphs():
    for kind, attaining in AUDIT_ORDER_SEVEN.items():
        report = census(kind, 7)
        hist, inadmissible = report.histogram, report.inadmissible
        assert (hist, inadmissible) == CENSUS_ORDER_SEVEN[kind]
        assert hist.get(lower_bound(kind, 7), 0) == attaining
        assert sum(hist.values()) + inadmissible == labeled_graph_count(7)


def test_resolve_jobs_clamps_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [resolve_jobs(j) for j in (-3, 0, 1, 3, 4, 5, 100_000)] == [1, 1, 1, 3, 4, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
    assert resolve_jobs(8) == 1


def test_census_jobs_are_clamped(spy_pools):
    # the 11 parent classes on 4 vertices are enough to shard over 4 workers
    report = census(CodeKind.LD, 5, jobs=100_000)
    assert [pool.max_workers for pool in spy_pools] == [4]
    assert spy_pools[0].tasks > 1
    assert report == census(CodeKind.LD, 5, jobs=1)
    assert len(spy_pools) == 1  # the serial call made no pool


def test_census_guard(cold_classes, monkeypatch):
    def refuse(*args):
        raise AssertionError("census ran a chunk")

    monkeypatch.setattr("sepcodes.solver._census_chunk", refuse)
    with pytest.raises(GuardError):
        census(CodeKind.LD, 9)
    # rejected before any class level is built or any chunk runs
    assert sepcodes.graphs._level.cache_info().currsize == 0
    assert sepcodes.graphs._children.cache_info().currsize == 0


@pytest.mark.parametrize("jobs", [(2, 1), (1, 2)], ids=["pool-first", "serial-first"])
def test_census_from_cold_does_not_depend_on_jobs(cold_classes, jobs, monkeypatch):
    # the first call builds the class levels; the pool's workers read
    # class_parents(6) themselves, and only the serial call, which builds
    # every child on 6 vertices, keeps them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for kind in (CodeKind.LD, CodeKind.OTD, CodeKind.FTD):
        kept = sepcodes.graphs._children.cache_info().currsize == 1
        first = census(kind, 6, jobs=jobs[0])
        assert (sepcodes.graphs._children.cache_info().currsize == 1) == (kept or jobs[0] == 1)
        second = census(kind, 6, jobs=jobs[1])
        assert first == second
        assert (first.histogram, first.inadmissible) == CENSUS_ORDER_SIX[kind]
    assert sepcodes.graphs._level.cache_info().currsize == 6
    assert sepcodes.graphs._children.cache_info().currsize == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_kinds_solve_one_pass_for_every_kind(cold_classes, jobs, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    passes = []
    rows = sepcodes.solver.class_rows

    def counted(n, lo, hi):
        passes.append((lo, hi))
        return rows(n, lo, hi)

    monkeypatch.setattr("sepcodes.solver.class_rows", counted)
    reports = census_kinds(ALL_KINDS, 6, jobs=jobs)
    assert [report.kind for report in reports] == list(ALL_KINDS)
    for report in reports:
        assert report.n == 6
        assert (report.histogram, report.inadmissible) == CENSUS_ORDER_SIX[report.kind]
    if jobs == 1:
        # one pass over the 34 parents serves all eight kinds
        assert passes == [(0, 34)]
    assert census_kinds([CodeKind.FTD, CodeKind.LD], 6, jobs=jobs) == [
        census(CodeKind.FTD, 6),
        census(CodeKind.LD, 6),
    ]


def test_census_spawned_workers_build_the_levels_themselves(monkeypatch):
    # a spawned worker starts with only the root level and reads
    # class_parents itself, as nothing but (plan, n, lo, hi) is pickled
    spawn = partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr("sepcodes.solver.ProcessPoolExecutor", spawn)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = census(CodeKind.FTD, 6, jobs=2)
    assert (report.histogram, report.inadmissible) == CENSUS_ORDER_SIX[CodeKind.FTD]
