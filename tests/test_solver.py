"""Minimum-code solver versus the brute-force oracle, bound formulas,
relation checks, and the census."""

from __future__ import annotations

import os
import random
from math import comb

import pytest
from conftest import k1, k2, k3, p3, p4, random_graph, two_k1
from hypothesis import given
from hypothesis import strategies as st

from sepcodes import (
    ALL_KINDS,
    BudgetError,
    CodeKind,
    GuardError,
    census,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_labeled_graphs,
    graph_from_code,
    is_admissible,
    is_code,
    lower_bound,
    max_order,
    min_code,
    oracle_min_code,
    path_graph,
    relation_check,
    separation_family,
    vset,
)
from sepcodes.solver import make_mask_checker, resolve_jobs


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    return graph_from_code(n, draw(st.integers(0, (1 << comb(n, 2)) - 1)))


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
        (CodeKind.ID, 3, 7),
        (CodeKind.FTD, 4, 11),
        (CodeKind.OD, 5, 32),
        (CodeKind.FD, 5, 27),
    ],
)
def test_max_order(kind, k, expected):
    assert max_order(kind, k) == expected


def test_max_order_guards():
    with pytest.raises(ValueError, match="k >= 2"):
        max_order(CodeKind.LD, 1)
    with pytest.raises(ValueError, match="k >= 4"):
        max_order(CodeKind.FD, 3)


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
        for g in enumerate_labeled_graphs(n):
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
            minimum_k = 4 if kind in (CodeKind.FD, CodeKind.FTD) else 2
            if report.number >= minimum_k:
                assert g.order <= max_order(kind, report.number)


def test_mask_checker_agrees_with_is_code_exhaustively():
    for n in range(1, 6):
        for g in enumerate_labeled_graphs(n):
            closed = [nb | 1 << v for v, nb in enumerate(g.adj)]
            for kind in ALL_KINDS:
                check = make_mask_checker(n, g.adj, closed, kind)
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


def _assert_solved(g, kind, number):
    report = min_code(g, kind)
    assert report.number == number
    assert is_code(g, report.witness, kind) and report.witness.bit_count() == number


# Closed forms (Slater; Bertrand, Charon, Hudry and Lobstein 2004), checked
# past the oracle's order guard.
@pytest.mark.parametrize("n", range(3, 31))
def test_id_number_of_paths(n):
    _assert_solved(path_graph(n), CodeKind.ID, -(-(n + 1) // 2))


@pytest.mark.parametrize("n", range(6, 41, 2))
def test_id_number_of_even_cycles(n):
    _assert_solved(cycle_graph(n), CodeKind.ID, n // 2)


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
        for g in enumerate_labeled_graphs(n):
            assert relation_check(g).passed


def test_census_ld_three_vertices():
    report = census(CodeKind.LD, 3)
    assert report.histogram == {2: 7, 3: 1}
    assert report.inadmissible == 0


def test_census_matches_oracle():
    for kind in ALL_KINDS:
        report = census(kind, 4)
        hist: dict[int, int] = {}
        inadmissible = 0
        for g in enumerate_labeled_graphs(4):
            number = oracle_min_code(g, kind).number
            if number is None:
                inadmissible += 1
            else:
                hist[number] = hist.get(number, 0) + 1
        assert report.histogram == dict(sorted(hist.items()))
        assert report.inadmissible == inadmissible


def test_census_parallel_matches_serial():
    assert census(CodeKind.LD, 4, jobs=2) == census(CodeKind.LD, 4, jobs=1)


def test_resolve_jobs_clamps_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert [resolve_jobs(j) for j in (-3, 0, 1, 3, 4, 5, 100_000)] == [1, 1, 1, 3, 4, 4, 4]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
    assert resolve_jobs(8) == 1


def test_census_jobs_are_clamped(spy_pools):
    report = census(CodeKind.LD, 4, jobs=100_000)
    assert [pool.max_workers for pool in spy_pools] == [4]
    assert spy_pools[0].tasks > 1
    assert report == census(CodeKind.LD, 4, jobs=1)
    assert len(spy_pools) == 1  # the serial call made no pool


def test_census_guard():
    with pytest.raises(GuardError):
        census(CodeKind.LD, 8)
