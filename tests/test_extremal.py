"""Extremal constructions: orders, signatures, minimality, characterization
families, audits, counting, tight presets, and the blueprint format."""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from conftest import p4, random_graph, relabeled

from sepcodes import (
    BlueprintError,
    CodeKind,
    ExtremalBlueprint,
    FormatError,
    Graph,
    GuardError,
    OuterPolicy,
    Separation,
    audit_characterization,
    build_graph,
    characterization_family,
    complete_graph,
    counting,
    eligible_outer_labels,
    emit_graph6,
    empty_graph,
    enumerate_labeled_graphs,
    expected_order,
    extremal_structure_check,
    graph_code,
    graph_from_code,
    is_admissible,
    is_code,
    lower_bound,
    materialize,
    matching_graph,
    min_code,
    od_disconnection_case,
    open_signature,
    parse_blueprint,
    parse_graph6,
    path_graph,
    removal_cap,
    tight_family_presets,
    verify_extremal,
    vset,
)
from sepcodes.extremal import _attaining_codes

PATH_PLUS_ISOLATE_5 = Graph(5, tuple(path_graph(4).adj) + (0,))


def test_eligible_outer_labels():
    assert eligible_outer_labels(Separation.LOCATION, empty_graph(2)) == (1, 2, 3)
    # the two open signatures {1} and {0} of an edge are excluded
    assert eligible_outer_labels(Separation.OPEN, build_graph(2, [(0, 1)])) == (3,)
    assert eligible_outer_labels(Separation.CLOSED, empty_graph(3)) == (3, 5, 6, 7)


@pytest.mark.parametrize(
    "sep,k,inner,order",
    [
        (Separation.LOCATION, 2, empty_graph(2), 5),
        (Separation.OPEN, 3, complete_graph(3), 7),
        (Separation.CLOSED, 3, empty_graph(3), 7),
        (Separation.FULL, 4, path_graph(4), 11),
    ],
)
def test_materialize_orders(sep, k, inner, order):
    me = materialize(ExtremalBlueprint(sep, k, inner))
    assert me.graph.order == order


def test_materialize_signatures_match_labels():
    me = materialize(ExtremalBlueprint(Separation.CLOSED, 3, empty_graph(3)))
    labels = [label for _, label in me.outer_labels]
    assert labels == sorted(labels)
    seen = set()
    for v, label in me.outer_labels:
        assert open_signature(me.graph, v, me.code) == label
        assert label not in seen
        seen.add(label)


def test_materialize_eligibility_invariant():
    rng = random.Random(17)
    for sep, k in [(Separation.OPEN, 3), (Separation.CLOSED, 3), (Separation.FULL, 4)]:
        probe = {
            Separation.OPEN: CodeKind.OD,
            Separation.CLOSED: CodeKind.ID,
            Separation.FULL: CodeKind.FD,
        }[sep]
        inner = random_graph(rng, k)
        while not is_admissible(inner, probe):
            inner = random_graph(rng, k)
        me = materialize(ExtremalBlueprint(sep, k, inner))
        opens = {me.graph.adj[u] & me.code for u in range(k)}
        closeds = {(me.graph.adj[u] | 1 << u) & me.code for u in range(k)}
        for _, label in me.outer_labels:
            if sep in (Separation.OPEN, Separation.FULL):
                assert label not in opens
            if sep in (Separation.CLOSED, Separation.FULL):
                assert label not in closeds


def test_order_formulas_over_random_policies():
    rng = random.Random(20250809)
    cases = [(sep, k) for sep in (Separation.LOCATION, Separation.OPEN, Separation.CLOSED) for k in (2, 3, 4)]
    cases += [(Separation.FULL, 4)]
    probes = {
        Separation.LOCATION: CodeKind.LD,
        Separation.OPEN: CodeKind.OD,
        Separation.CLOSED: CodeKind.ID,
        Separation.FULL: CodeKind.FD,
    }
    for sep, k in cases:
        done = 0
        while done < 50:
            inner = random_graph(rng, k)
            if not is_admissible(inner, probes[sep]):
                continue
            outer = rng.choice(
                [OuterPolicy.empty(), OuterPolicy.complete(), OuterPolicy.random(rng.randrange(10**6))]
            )
            me = materialize(ExtremalBlueprint(sep, k, inner, outer))
            isolated = any(inner.adj[v] == 0 for v in range(k))
            assert me.graph.order == expected_order(sep, k, isolated)
            done += 1


def test_blueprint_validation_errors():
    with pytest.raises(BlueprintError, match="k >= 4"):
        materialize(ExtremalBlueprint(Separation.FULL, 3, empty_graph(3)))
    with pytest.raises(BlueprintError, match="k >= 2"):
        materialize(ExtremalBlueprint(Separation.LOCATION, 1, empty_graph(1)))
    with pytest.raises(BlueprintError, match="open-twin-free"):
        materialize(ExtremalBlueprint(Separation.OPEN, 3, empty_graph(3)))
    with pytest.raises(BlueprintError, match="closed-twin-free"):
        materialize(ExtremalBlueprint(Separation.CLOSED, 2, build_graph(2, [(0, 1)])))
    with pytest.raises(BlueprintError, match="twin-free"):
        materialize(ExtremalBlueprint(Separation.FULL, 4, matching_graph(4)))
    with pytest.raises(BlueprintError, match="order"):
        materialize(ExtremalBlueprint(Separation.LOCATION, 3, empty_graph(2)))
    with pytest.raises(BlueprintError, match="capacity"):
        materialize(ExtremalBlueprint(Separation.LOCATION, 6, empty_graph(6)))
    with pytest.raises(BlueprintError, match="eligible"):
        materialize(ExtremalBlueprint(Separation.LOCATION, 2, empty_graph(2), removals=(4,)))
    with pytest.raises(BlueprintError, match="duplicate"):
        materialize(ExtremalBlueprint(Separation.LOCATION, 2, empty_graph(2), removals=(1, 1)))
    with pytest.raises(BlueprintError, match="explicit outer"):
        materialize(
            ExtremalBlueprint(
                Separation.LOCATION, 2, empty_graph(2), OuterPolicy.explicit(empty_graph(2))
            )
        )


def test_materialize_removals():
    me = materialize(ExtremalBlueprint(Separation.LOCATION, 2, empty_graph(2), removals=(1,)))
    assert me.graph.order == 4
    assert [label for _, label in me.outer_labels] == [2, 3]


def test_random_outer_policy_is_deterministic():
    bp = ExtremalBlueprint(Separation.LOCATION, 3, empty_graph(3), OuterPolicy.random(42, 0.5))
    assert materialize(bp).graph == materialize(bp).graph


def test_verify_extremal():
    me = materialize(ExtremalBlueprint(Separation.LOCATION, 2, empty_graph(2)))
    check = verify_extremal(me, CodeKind.LD)
    assert check.passed and check.number == 2

    me = materialize(ExtremalBlueprint(Separation.CLOSED, 3, empty_graph(3)))
    check = verify_extremal(me, CodeKind.ID)
    assert check.passed and check.number == 3

    me = materialize(ExtremalBlueprint(Separation.FULL, 4, path_graph(4)))
    check = verify_extremal(me, CodeKind.FTD)
    assert check.passed and check.number == 4


def test_verify_extremal_guards():
    me = materialize(ExtremalBlueprint(Separation.LOCATION, 2, empty_graph(2)))
    with pytest.raises(BlueprintError, match="does not match"):
        verify_extremal(me, CodeKind.OD)
    with pytest.raises(BlueprintError, match="isolate-free"):
        verify_extremal(me, CodeKind.LTD)


def test_characterization_family_counts():
    fam = list(characterization_family(CodeKind.LD, 2, empty_graph(2)))
    assert len(fam) == 4  # C(3,0) + C(3,1) removals
    fam = list(characterization_family(CodeKind.ID, 3, empty_graph(3)))
    assert len(fam) == 15  # 4 removable outers, cap 3


def test_characterization_family_members_attain_k():
    for kind, k, inner in [
        (CodeKind.LD, 2, empty_graph(2)),
        (CodeKind.ID, 3, empty_graph(3)),
        (CodeKind.OTD, 3, complete_graph(3)),
    ]:
        for me in characterization_family(kind, k, inner):
            assert min_code(me.graph, kind).number == k


def test_removal_caps():
    assert removal_cap(CodeKind.LD, 4, empty_graph(4)) == 3
    assert removal_cap(CodeKind.OD, 3, build_graph(3, [(0, 1)])) == 3
    assert removal_cap(CodeKind.OD, 3, complete_graph(3)) == 2
    assert removal_cap(CodeKind.ID, 3, empty_graph(3)) == 3
    assert removal_cap(CodeKind.FD, 5, PATH_PLUS_ISOLATE_5) == 11
    assert removal_cap(CodeKind.FTD, 5, path_graph(5)) == 11


def test_structure_check_negative():
    # {0,1} is not even an ID-code of P3; its inner graph is an edge, which
    # has closed twins
    check = extremal_structure_check(path_graph(3), vset([0, 1]), CodeKind.ID)
    assert not check.ok


def test_structure_check_code_not_at_front():
    # the minimum ID-code {0, 3, 5} is not {0, 1, 2}: outer labels number the
    # code's own vertices, signatures the graph's
    g = parse_graph6(b"Eiyo")
    report = min_code(g, CodeKind.ID)
    assert report.number == 3 and report.witness == vset([0, 3, 5])
    assert extremal_structure_check(g, report.witness, CodeKind.ID).ok


def test_od_disconnection_case():
    report = od_disconnection_case(3)
    assert report.removed_count == 3
    assert report.isomorphic is True
    assert report.od_number == 3
    assert report.passed

    report = od_disconnection_case(4)
    assert report.removed_count == 7
    assert report.materialized.graph.order == 9
    assert report.isomorphic is True
    assert report.od_number == 4


def test_od_disconnection_guards():
    with pytest.raises(BlueprintError, match="k >= 3"):
        od_disconnection_case(2)
    with pytest.raises(BlueprintError, match="exactly one isolated"):
        od_disconnection_case(4, inner=Graph(4, (2, 1, 0, 0)))


def test_counting_two():
    report = counting(2)
    assert report.eta == 2
    assert report.eta_by_sep[Separation.LOCATION] == 2
    assert report.eta_by_sep[Separation.OPEN] == 1
    assert report.eta_by_sep[Separation.CLOSED] == 1
    assert report.eta_by_sep[Separation.FULL] == 0
    assert report.family_counts[Separation.LOCATION] == 16  # eta(2) * eta(3)
    assert report.family_counts[Separation.OPEN] == 1  # K3 alone
    assert report.family_counts[Separation.FULL] == 0


def test_counting_three():
    report = counting(3)
    assert report.eta == 8
    # hand count: the empty graph and the three labeled paths have no
    # closed twins; the three single-edge graphs and K3 do
    assert report.eta_by_sep[Separation.CLOSED] == 4
    # hand count: the three single-edge graphs and K3 have no open twins
    assert report.eta_by_sep[Separation.OPEN] == 4
    assert report.eta_bar_by_sep[Separation.OPEN] == 1  # K3 alone is isolate-free
    assert report.eta_by_sep[Separation.FULL] == 0


def test_counting_four_full():
    report = counting(4)
    # the path is the only twin-free graph on four vertices: 12 labelings
    assert report.eta_by_sep[Separation.FULL] == 12
    assert report.eta_bar_by_sep[Separation.FULL] == 12


def test_counting_guard():
    with pytest.raises(GuardError):
        counting(6)
    with pytest.raises(GuardError):
        counting(1)


def test_tight_presets_k3():
    expected_families = {
        CodeKind.LD: {"bipartite", "cobipartite", "split"},
        CodeKind.LTD: {"cobipartite", "split"},
        CodeKind.ID: {"bipartite", "split"},
        CodeKind.OD: {"cobipartite", "split"},
        CodeKind.OTD: {"cobipartite", "split"},
    }
    for kind, families in expected_families.items():
        presets = tight_family_presets(kind, 3)
        assert {p.family for p in presets} == families
        for preset in presets:
            assert preset.passed, (kind, preset.family)


def test_tight_presets_rejects_full_kinds():
    with pytest.raises(ValueError, match="no tight presets"):
        tight_family_presets(CodeKind.FD, 3)


def test_audit_exhaustive_small():
    report = audit_characterization(CodeKind.ID, 3)
    assert report.passed
    assert report.attaining_count == 3  # the three labeled paths
    assert report.family_class_count == 1

    report = audit_characterization(CodeKind.LD, 4)
    assert report.passed and report.attaining_count == 36

    # no 4-vertex graph can have OD-number 2: the family is empty and the
    # sweep must agree
    report = audit_characterization(CodeKind.OD, 4)
    assert report.passed and report.attaining_count == 0 and report.family_count == 0

    # no FTD-code of size 3 exists at all (its inner graph would be a
    # twin-free graph on three vertices)
    report = audit_characterization(CodeKind.FTD, 6)
    assert report.passed and report.attaining_count == 0


@pytest.mark.parametrize(
    "kind,n,attaining,classes",
    [
        (CodeKind.LTD, 4, 33, 4),
        (CodeKind.LTD, 5, 285, 6),
        (CodeKind.OTD, 5, 170, 4),
        (CodeKind.ITD, 5, 262, 6),
        (CodeKind.ID, 5, 382, 8),
        # order 7, confirmed against the labeled scan of all 2^21 graphs; ID
        # at order 7 is acceptance criterion 05
        (CodeKind.OD, 7, 351960, 122),
        (CodeKind.OTD, 7, 43260, 20),
        (CodeKind.ITD, 7, 93030, 35),
        (CodeKind.FTD, 7, 395160, 111),
        (CodeKind.LD, 7, 0, 0),
        (CodeKind.LTD, 7, 0, 0),
        (CodeKind.FD, 7, 0, 0),
    ],
)
def test_audit_exhaustive_other_kinds(kind, n, attaining, classes):
    # counts frozen from the first verified run; the pass assertion is the
    # substance, the counts pin determinism
    report = audit_characterization(kind, n)
    assert report.passed
    assert report.attaining_count == attaining
    assert report.family_class_count == classes


ATTAINING_CASES = [(kind, n) for kind in CodeKind for n in range(1, 6)] + [(CodeKind.ID, 6)]


@pytest.mark.parametrize("kind,n", ATTAINING_CASES)
def test_attaining_codes_match_definitional_scan(kind, n):
    # the projection against the plain definition: every labeled graph, every
    # k-subset, codes.is_code
    k = lower_bound(kind, n)
    expected = {
        graph_code(g)
        for g in enumerate_labeled_graphs(n)
        if any(is_code(g, vset(c), kind) for c in itertools.combinations(range(n), k))
    }
    assert _attaining_codes(kind, n, k) == expected


@pytest.mark.parametrize("kind,n", ATTAINING_CASES)
def test_structure_check_accepts_every_attaining_graph(kind, n):
    # what the sampled audit asks of each graph it draws, over all of them
    k = lower_bound(kind, n)
    for code in _attaining_codes(kind, n, k):
        g = graph_from_code(n, code)
        check = extremal_structure_check(g, min_code(g, kind).witness, kind)
        assert check.ok, (emit_graph6(g), check.reason)


def test_audit_parallel_matches_serial(monkeypatch):
    submitted = []

    class CountingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr("sepcodes.solver.ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = audit_characterization(CodeKind.LD, 5, jobs=1)
    assert not submitted
    parallel = audit_characterization(CodeKind.LD, 5, jobs=2)
    assert len(submitted) > 1
    assert serial == parallel


def test_audit_jobs_are_clamped(spy_pools):
    report = audit_characterization(CodeKind.ID, 5, jobs=100_000)
    assert [pool.max_workers for pool in spy_pools] == [4]
    assert spy_pools[0].tasks > 1
    assert report == audit_characterization(CodeKind.ID, 5, jobs=1)


def test_audit_sampled():
    report = audit_characterization(CodeKind.OD, 8, mode="sampled", seed=7, trials=150)
    assert report.passed
    assert report.attained is not None and report.attained > 0


def test_audit_sampled_accepts_planted_family_members():
    rng = random.Random(99)
    inner = Graph(3, (2, 1, 0))  # an edge plus an isolated vertex
    me = materialize(ExtremalBlueprint(Separation.OPEN, 3, inner))
    for _ in range(10):
        perm = list(range(me.graph.order))
        rng.shuffle(perm)
        g = relabeled(me.graph, perm)
        report = min_code(g, CodeKind.OD)
        assert report.number == 3
        assert extremal_structure_check(g, report.witness, CodeKind.OD).ok


def test_audit_guards():
    with pytest.raises(GuardError):
        audit_characterization(CodeKind.LD, 8)
    with pytest.raises(GuardError):
        audit_characterization(CodeKind.LD, 1)
    with pytest.raises(GuardError):
        audit_characterization(CodeKind.LD, 11, mode="sampled")
    with pytest.raises(ValueError, match="unknown audit mode"):
        audit_characterization(CodeKind.LD, 4, mode="fuzzy")


def test_parse_blueprint():
    bp = parse_blueprint("sep=I\nk=3\ninner=empty\nouter=empty\n")
    assert bp.separation is Separation.CLOSED
    assert bp.k == 3 and bp.inner == empty_graph(3)

    bp = parse_blueprint("sep=O\nk=3\ninner=complete\nouter=random:11:0.25\nremove=7\n")
    assert bp.outer.mode == "random" and bp.outer.seed == 11
    assert bp.removals == (7,)

    bp = parse_blueprint(f"sep=F\nk=4\ninner={emit_graph6(p4()).decode()}\nouter=complete\n")
    assert bp.inner == p4()


def test_parse_blueprint_errors():
    with pytest.raises(FormatError, match="missing"):
        parse_blueprint("sep=L\nk=2\n")
    with pytest.raises(FormatError, match="sep must be"):
        parse_blueprint("sep=Q\nk=2\ninner=empty\n")
    with pytest.raises(FormatError, match="unknown blueprint keys"):
        parse_blueprint("sep=L\nk=2\ninner=empty\nextra=1\n")
    with pytest.raises(FormatError, match="integers"):
        parse_blueprint("sep=L\nk=2\ninner=empty\nremove=a,b\n")
    with pytest.raises(FormatError, match="random outer"):
        parse_blueprint("sep=L\nk=2\ninner=empty\nouter=random:5\n")
    with pytest.raises(FormatError, match="duplicate"):
        parse_blueprint("sep=L\nsep=O\nk=2\ninner=empty\n")
