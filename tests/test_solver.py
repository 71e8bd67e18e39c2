"""Minimum-code solver versus the brute-force oracle, bound formulas,
relation checks, and the census."""

from __future__ import annotations

import multiprocessing
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from math import comb

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
    census,
    census_kinds,
    cycle_graph,
    disjoint_union,
    empty_graph,
    is_admissible,
    is_code,
    labeled_graph_count,
    lower_bound,
    max_order,
    min_code,
    oracle_min_code,
    path_graph,
    relation_check,
    separation_family,
    vset,
)
from sepcodes.graphs import _ROOT
from sepcodes.solver import (
    DEFAULT_BUDGET,
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
    # one checker per (n, kind), kept while its adjacency list is refilled
    # in place with each labeled graph, as extremal._attaining_patterns does
    for n in range(1, 6):
        adj = [0] * n
        checks = {kind: make_mask_checker(n, adj, kind) for kind in ALL_KINDS}
        for g in labeled_graphs(n):
            adj[:] = g.adj
            for kind, check in checks.items():
                for mask in range(1 << n):
                    assert check(mask) == is_code(g, mask, kind), (g, mask, kind)


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


def test_family_matches_the_reference_filter_exhaustively():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for kind in ALL_KINDS:
                assert separation_family(g, kind) == reference_separation_family(g, kind)


@given(graphs(max_order=20))
def test_family_matches_the_reference_filter_on_random_graphs(g):
    for kind in ALL_KINDS:
        assert separation_family(g, kind) == reference_separation_family(g, kind)


def assert_inadmissible_exactly_when_the_family_holds_the_empty_set(g):
    # min_code reads admissibility off the family alone: it is [0] exactly
    # when g has no kind-code, and then no node is searched
    for kind in ALL_KINDS:
        inadmissible = not is_admissible(g, kind)
        assert (separation_family(g, kind) == [0]) == inadmissible
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
    for kind in ALL_KINDS:
        family = separation_family(g, kind)
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


def test_census_guard(cold_classes):
    with pytest.raises(GuardError):
        census(CodeKind.LD, 9)
    # rejected before any class level is built
    assert sepcodes.graphs._LEVELS == [(_ROOT,)]
    assert sepcodes.graphs._CHILDREN == {}


@pytest.mark.parametrize("jobs", [(2, 1), (1, 2)], ids=["pool-first", "serial-first"])
def test_census_from_cold_does_not_depend_on_jobs(cold_classes, jobs, monkeypatch):
    # the first call builds the class levels; the pool's workers read
    # class_parents(6) themselves, and only the serial call, which builds
    # every child on 6 vertices, keeps them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for kind in (CodeKind.LD, CodeKind.OTD, CodeKind.FTD):
        kept = 6 in sepcodes.graphs._CHILDREN
        first = census(kind, 6, jobs=jobs[0])
        assert (6 in sepcodes.graphs._CHILDREN) == (kept or jobs[0] == 1)
        second = census(kind, 6, jobs=jobs[1])
        assert first == second
        assert (first.histogram, first.inadmissible) == CENSUS_ORDER_SIX[kind]
    assert len(sepcodes.graphs._LEVELS) == 6
    assert list(sepcodes.graphs._CHILDREN) == [6]


@pytest.mark.parametrize("jobs", [1, 2])
def test_census_kinds_solve_one_pass_for_every_kind(cold_classes, jobs, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    passes = []
    children = sepcodes.solver.class_children

    def counted(n, lo, hi):
        passes.append((lo, hi))
        return children(n, lo, hi)

    monkeypatch.setattr("sepcodes.solver.class_children", counted)
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
    # class_parents itself, as nothing but (key, n, lo, hi) is pickled
    spawn = partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr("sepcodes.solver.ProcessPoolExecutor", spawn)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = census(CodeKind.FTD, 6, jobs=2)
    assert (report.histogram, report.inadmissible) == CENSUS_ORDER_SIX[CodeKind.FTD]
