"""Acceptance gate: one test per criterion, each printing a pass line with
its measured time (run with -s to see them). Every expected value is either
a point value verified upstream or computed by an independent route."""

from __future__ import annotations

import random
import time
from math import comb

from conftest import k2, k3, labeled_graphs, p3, p4, random_graph

from sepcodes import (
    ALL_KINDS,
    CodeKind,
    ExtremalBlueprint,
    Graph,
    OuterPolicy,
    Separation,
    audit_characterization,
    complete_graph,
    counting,
    disjoint_union,
    empty_graph,
    expected_order,
    graph_code,
    is_admissible,
    is_isomorphic,
    materialize,
    min_code,
    od_disconnection_case,
    oracle_min_code,
    path_graph,
    relation_check,
    signature_families,
    tight_family_presets,
    verify_extremal,
)

SEED = 20250809


def _report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {number:02d} PASS ({elapsed:.2f}s < {limit:.0f}s): {label}")


def test_criterion_01_point_values():
    t0 = time.perf_counter()
    assert min_code(k3(), CodeKind.OD).number == 2
    assert min_code(p3(), CodeKind.ID).number == 2
    assert min_code(disjoint_union(k2(), k2()), CodeKind.OD).number == 3
    assert min_code(disjoint_union(k2(), p4()), CodeKind.OD).number == 5
    assert min_code(disjoint_union(p4(), p4()), CodeKind.OD).number == 7
    _report(1, "disconnected and single-component OD/ID point values", t0, 1.0)


def test_criterion_02_order_formulas():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    probes = {
        Separation.LOCATION: CodeKind.LD,
        Separation.OPEN: CodeKind.OD,
        Separation.CLOSED: CodeKind.ID,
        Separation.FULL: CodeKind.FD,
    }
    cases = [(sep, k) for sep in (Separation.LOCATION, Separation.OPEN, Separation.CLOSED) for k in range(2, 6)]
    cases += [(Separation.FULL, k) for k in (4, 5)]
    for sep, k in cases:
        done = 0
        while done < 20:
            inner = random_graph(rng, k)
            if not is_admissible(inner, probes[sep]):
                continue
            outer = rng.choice(
                [OuterPolicy.empty(), OuterPolicy.complete(), OuterPolicy.random(rng.randrange(10**6))]
            )
            me = materialize(ExtremalBlueprint(sep, k, inner, outer))
            isolated = any(inner.adj[v] == 0 for v in range(k))
            assert me.graph.order == expected_order(sep, k, isolated), (sep, k)
            done += 1
    _report(2, "construction orders match the formulas over seeded policies", t0, 5.0)


def _minimality_cases() -> list[tuple[CodeKind, int, Graph]]:
    clique_plus_isolate = lambda k: Graph(k, tuple(complete_graph(k - 1).adj) + (0,))
    path_plus_isolate = lambda k: Graph(k, tuple(path_graph(k - 1).adj) + (0,))
    cases: list[tuple[CodeKind, int, Graph]] = []
    for k in range(2, 6):
        cases.append((CodeKind.LD, k, empty_graph(k)))
        cases.append((CodeKind.LTD, k, path_graph(k)))
        cases.append((CodeKind.OD, k, complete_graph(2) if k == 2 else clique_plus_isolate(k)))
        cases.append((CodeKind.OTD, k, complete_graph(k)))
        cases.append((CodeKind.ID, k, empty_graph(k)))
        if k >= 3:
            cases.append((CodeKind.ITD, k, path_graph(k)))
    cases.append((CodeKind.FD, 4, path_graph(4)))
    cases.append((CodeKind.FD, 5, path_plus_isolate(5)))
    cases.append((CodeKind.FTD, 4, path_graph(4)))
    cases.append((CodeKind.FTD, 5, path_graph(5)))
    return cases


def test_criterion_03_minimality():
    t0 = time.perf_counter()
    for kind, k, inner in _minimality_cases():
        for outer in (OuterPolicy.empty(), OuterPolicy.complete()):
            me = materialize(ExtremalBlueprint(kind.separation, k, inner, outer))
            check = verify_extremal(me, kind)
            assert check.passed, (kind, k, outer.mode, check)
    _report(3, "designated codes are minimum for every kind and k in range", t0, 120.0)


def test_criterion_04_audit_ld_order_five():
    t0 = time.perf_counter()
    report = audit_characterization(CodeKind.LD, 5)
    assert report.passed
    assert not report.missing and not report.unexpected
    _report(
        4,
        f"LD attainment at order 5 = construction family "
        f"({report.attaining_count} labeled graphs, {report.family_class_count} classes)",
        t0,
        10.0,
    )


def test_criterion_05_audit_id_order_seven():
    t0 = time.perf_counter()
    report = audit_characterization(CodeKind.ID, 7)
    assert report.passed
    assert not report.missing and not report.unexpected
    assert (report.attaining_count, report.family_count, report.family_class_count) == (
        137130,
        137130,
        50,
    )
    assert audit_characterization(CodeKind.ID, 7) == report
    _report(
        5,
        f"ID attainment at order 7 = construction family "
        f"({report.attaining_count} labeled graphs, {report.family_class_count} classes)",
        t0,
        600.0,
    )


def test_criterion_06_od_disconnection():
    t0 = time.perf_counter()
    report = od_disconnection_case(3)
    assert report.isomorphic is True
    assert report.od_number == 3
    assert is_isomorphic(report.expected, disjoint_union(k2(), k3()))
    _report(6, "removing the isolated vertex's outer labels yields K2 + K3", t0, 1.0)


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    for g in labeled_graphs(5):
        for kind in ALL_KINDS:
            fast = min_code(g, kind)
            slow = oracle_min_code(g, kind)
            assert fast.number == slow.number, (graph_code(g), kind)
            assert fast.witness == slow.witness, (graph_code(g), kind)
    _report(7, "solver = oracle on all 1024 labeled 5-vertex graphs, all kinds", t0, 60.0)


def test_criterion_08_full_separation_families():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    checked = 0
    for _ in range(1000):
        g = random_graph(rng, rng.randint(4, 9))
        for kind in (CodeKind.FD, CodeKind.FTD):
            report = min_code(g, kind)
            if report.number is None:
                continue
            fam = signature_families(g, report.witness)
            assert not fam.open_family & fam.closed_family
            assert len(fam.open_family) == len(fam.closed_family) == report.number
            assert len(fam.combined) == 2 * report.number
            checked += 1
    assert checked > 0
    _report(8, f"open/closed families disjoint for {checked} solved full-separation witnesses", t0, 60.0)


def test_criterion_09_relation_suite():
    t0 = time.perf_counter()
    for n in range(1, 6):
        for g in labeled_graphs(n):
            assert relation_check(g).passed
    rng = random.Random(SEED)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(6, 9))
        assert relation_check(g).passed
    _report(9, "LD floor, FTD ceiling, OD/OTD and FD/FTD gaps on 2099 graphs", t0, 300.0)


def test_criterion_10_counting():
    t0 = time.perf_counter()
    seen = set()
    for inner in labeled_graphs(2):
        for outer in labeled_graphs(3):
            me = materialize(
                ExtremalBlueprint(Separation.LOCATION, 2, inner, OuterPolicy.explicit(outer))
            )
            seen.add(graph_code(me.graph))
            assert min_code(me.graph, CodeKind.LD).number == 2
    assert len(seen) == 16
    report = counting(2)
    assert report.eta_by_sep[Separation.OPEN] == 1
    assert report.eta_by_sep[Separation.CLOSED] == 1
    assert report.eta_by_sep[Separation.FULL] == 0
    assert counting(4).eta_by_sep[Separation.FULL] >= 1  # the paths witness it
    _report(10, "16 distinct fixed-partition variants at k=2 and the small counts", t0, 10.0)


def test_criterion_11_tight_families():
    t0 = time.perf_counter()
    cells = 0
    for kind in (CodeKind.LD, CodeKind.LTD, CodeKind.ID, CodeKind.OD, CodeKind.OTD):
        for preset in tight_family_presets(kind, 3):
            assert preset.passed, (kind, preset.family)
            cells += 1
    assert cells == 11
    _report(11, "all 11 tight preset cells verified at k=3", t0, 30.0)
