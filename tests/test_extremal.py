"""Extremal constructions: orders, signatures, minimality, characterization
families, audits, counting, tight presets, and the blueprint format."""

from __future__ import annotations

import itertools
import os
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from math import comb, factorial, perm

import pytest
from conftest import (
    admissibility,
    ascending,
    attaining_codes,
    c0_edges,
    edge_bit_pairs,
    full_c0_patterns,
    full_family_patterns,
    graphs,
    label_closure,
    labeled_graphs,
    outer_closure,
    outer_signatures,
    own_signature_families,
    p4,
    random_graph,
    relabel_codes,
    relabeled,
    without_last_label,
)
from hypothesis import assume, given
from hypothesis import strategies as st

from sepcodes import (
    ALL_KINDS,
    AuditReport,
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
    complete_graph,
    counting,
    eligible_outer_labels,
    emit_graph6,
    empty_graph,
    expected_order,
    extremal_structure_check,
    family_membership,
    graph_code,
    graph_from_code,
    induced_subgraph,
    is_admissible,
    is_code,
    lower_bound,
    materialize,
    matching_graph,
    max_order,
    members,
    min_code,
    od_disconnection_case,
    parse_blueprint,
    parse_graph6,
    path_graph,
    tight_family_presets,
    verify_extremal,
    vset,
)
from sepcodes.cli import main
from sepcodes.extremal import (
    _TIGHT_RECIPES,
    AUDIT_EXHAUSTIVE_GUARD,
    StructureCheck,
    _attaining_patterns,
    _c0_image,
    _c0_orbit_codes,
    _classes,
    _family_patterns,
    _free_edge_codes,
    _own_signatures,
    _quotient,
    inner_has_isolated,
)
from sepcodes.graphs import CENSUS_GUARD, _equitable, canonical_form, is_isomorphic
from sepcodes.solver import _candidates, class_pass, make_mask_checker, smallest_k


def test_eligible_outer_labels():
    assert eligible_outer_labels(Separation.LOCATION, empty_graph(2)) == (1, 2, 3)
    # the two open signatures {1} and {0} of an edge are excluded
    assert eligible_outer_labels(Separation.OPEN, build_graph(2, [(0, 1)])) == (3,)
    assert eligible_outer_labels(Separation.CLOSED, empty_graph(3)) == (3, 5, 6, 7)
    # the label rule reads its one family off the adjacency; the families
    # of the code's own signatures, by definition, are its oracle
    for n in range(1, 5):
        for g in labeled_graphs(n):
            for code in range(1, 1 << n):
                opens, closeds = own_signature_families(g, code)
                expected = {
                    Separation.LOCATION: frozenset(),
                    Separation.OPEN: opens,
                    Separation.CLOSED: closeds,
                    Separation.FULL: opens | closeds,
                }
                for sep in Separation:
                    assert _own_signatures(sep, g, code) == expected[sep], (g, code, sep)


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
        assert me.graph.adj[v] & me.code == label
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


def test_expected_order_agrees_with_the_eligible_labels(classes_by_order):
    # _validate_blueprint rejects an oversized order from the formula and only
    # then lists the labels. Both sides depend only on the isomorphism class
    # of the inner graph, so one representative per class covers every inner
    # graph of order k.
    for k in range(1, 7):
        for cert in classes_by_order[k]:
            inner = graph_from_code(k, cert)
            isolated = inner_has_isolated(inner)
            for sep in Separation:
                if sep is Separation.LOCATION or is_admissible(inner, CodeKind(sep.value + "D")):
                    labels = eligible_outer_labels(sep, inner)
                    assert k + len(labels) == expected_order(sep, k, isolated)


def test_max_order_is_the_largest_construction_on_an_admissible_inner_graph():
    # max_order comes from the formula; here it is k plus the most eligible
    # labels over every kind-admissible labeled inner graph on k vertices,
    # and smallest_k is the least k >= 2 with such a graph
    for kind in ALL_KINDS:
        for k in range(2, 6):
            orders = [
                k + len(eligible_outer_labels(kind.separation, inner))
                for inner in labeled_graphs(k)
                if is_admissible(inner, kind)
            ]
            if k < smallest_k(kind):
                assert not orders, (kind, k)
            else:
                assert max_order(kind, k) == max(orders), (kind, k)


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
    # removed labels are never built, and the outer policy is drawn over all
    # eligible labels: the result is the full construction with the removed
    # labels' vertices deleted
    rng = random.Random(27)
    for sep, k, inner in [
        (Separation.LOCATION, 3, empty_graph(3)),
        (Separation.OPEN, 3, complete_graph(3)),
        (Separation.CLOSED, 4, path_graph(4)),
        (Separation.FULL, 4, path_graph(4)),
    ]:
        labels = eligible_outer_labels(sep, inner)
        for outer in (
            OuterPolicy.random(rng.randrange(1000), 0.5),
            OuterPolicy.complete(),
            OuterPolicy.explicit(random_graph(rng, len(labels))),
        ):
            full = materialize(ExtremalBlueprint(sep, k, inner, outer))
            for _ in range(3):
                removals = tuple(rng.sample(labels, rng.randint(1, len(labels))))
                me = materialize(ExtremalBlueprint(sep, k, inner, outer, removals))
                keep = full.graph.vertex_mask
                for v, label in full.outer_labels:
                    if label in removals:
                        keep ^= 1 << v
                assert me.graph == induced_subgraph(full.graph, keep), (sep, outer, removals)
                kept = [label for label in labels if label not in removals]
                assert me.outer_labels == tuple(enumerate(kept, start=k))


def test_random_outer_policy_rejects_a_probability_outside_the_unit_interval():
    for probability in (-0.1, 1.5):
        with pytest.raises(ValueError, match="probability must lie in"):
            OuterPolicy.random(1, probability)


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


def construction_family(kind, k, inner):
    """Every materialization of the construction with some of its eligible
    outer vertices removed, smallest removals first, while the order still
    has bound k."""
    labels = eligible_outer_labels(kind.separation, inner)
    for r in range(len(labels) + 1):
        if lower_bound(kind, k + len(labels) - r) < k:
            break
        for removed in itertools.combinations(labels, r):
            yield materialize(ExtremalBlueprint(kind.separation, k, inner, removals=removed))


def test_characterization_family_counts():
    fam = list(construction_family(CodeKind.LD, 2, empty_graph(2)))
    assert len(fam) == 4  # C(3,0) + C(3,1) removals
    fam = list(construction_family(CodeKind.ID, 3, empty_graph(3)))
    assert len(fam) == 15  # 4 removable outers; order 4 is the least with bound 3


def test_characterization_family_members_attain_k():
    for kind, k, inner in [
        (CodeKind.LD, 2, empty_graph(2)),
        (CodeKind.ID, 3, empty_graph(3)),
        (CodeKind.OTD, 3, complete_graph(3)),
    ]:
        for me in construction_family(kind, k, inner):
            assert min_code(me.graph, kind).number == k


def test_structure_check_reasons():
    for g, code, kind, reason in [
        (empty_graph(3), vset([0, 1]), CodeKind.LD, "vertex 2 has an empty outer signature"),
        (build_graph(4, [(0, 2), (0, 3)]), vset([0, 1]), CodeKind.LD,
         "duplicate outer signature (0,)"),
        # the inner edge gives 0 the open signature {1} and 1 the signature {0}
        (build_graph(3, [(0, 1), (0, 2)]), vset([0, 1]), CodeKind.OD,
         "outer signature (0,) collides with the code's own"),
        # the code {1, 2} is not at the front: 2's open signature is {1}
        (build_graph(3, [(1, 2), (0, 2)]), vset([1, 2]), CodeKind.OD,
         "outer signature (2,) collides with the code's own"),
        # four eligible labels, none used: order 3 has bound 2
        (empty_graph(3), vset([0, 1, 2]), CodeKind.ID, "order 3 has bound 2, below k = 3"),
    ]:
        assert extremal_structure_check(g, code, kind) == StructureCheck(False, reason)


def assert_structure_check_decides_the_code(g: Graph, code: int) -> None:
    # the locality lemma, per graph: g has the construction structure over C
    # exactly when C is a kind-code and g's order has bound at least |C|
    k = code.bit_count()
    for kind in ALL_KINDS:
        check = extremal_structure_check(g, code, kind)
        expected = is_code(g, code, kind) and lower_bound(kind, g.order) >= k
        assert check.ok == expected, (g, code, kind, check)


def test_structure_check_decides_codes_up_to_the_removal_cap(classes_by_order):
    small = [g for n in range(1, 5) for g in labeled_graphs(n)]
    small += [graph_from_code(n, cert) for n in (5, 6) for cert in classes_by_order[n]]
    for g in small:
        for code in range(1, 1 << g.order):
            assert_structure_check_decides_the_code(g, code)


@given(graphs(max_order=20), st.data())
def test_structure_check_decides_codes_on_random_graphs(g, data):
    # a random C, and a minimum code of g for one kind, so that codes and
    # non-codes both occur
    codes = [data.draw(st.integers(1, g.vertex_mask), label="code")]
    kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
    witness = min_code(g, kind).witness
    if witness is not None:
        codes.append(witness)
    for code in codes:
        assert_structure_check_decides_the_code(g, code)


@given(st.data())
def test_structure_check_reads_attainment_off_the_bound(data):
    # relabeled construction members up to order 62: with every signature
    # eligible, the structure check accepts exactly when the member's order
    # has bound k, however many outer labels it leaves unused
    kind = data.draw(st.sampled_from(ALL_KINDS), label="kind")
    # k and the count of kept labels are drawn down from their largest, so
    # that the examples Hypothesis favours are the largest members
    k = 6 - data.draw(st.integers(0, 6 - smallest_k(kind)), label="k")
    inner = graph_from_code(k, data.draw(st.integers(0, (1 << comb(k, 2)) - 1), label="inner"))
    assume(is_admissible(inner, kind))
    labels = eligible_outer_labels(kind.separation, inner)
    most = min(len(labels), 62 - k)
    count = most - data.draw(st.integers(0, most), label="count")
    removals = tuple(data.draw(st.permutations(labels), label="labels")[count:])
    outer = OuterPolicy.random(data.draw(st.integers(0, 2**32 - 1), label="seed"), 0.5)
    me = materialize(ExtremalBlueprint(kind.separation, k, inner, outer, removals))
    labeling = data.draw(st.permutations(range(me.graph.order)), label="labeling")
    h = relabeled(me.graph, labeling)
    code = vset(labeling[v] for v in members(me.code))
    assert extremal_structure_check(h, code, kind).ok == (lower_bound(kind, h.order) >= k)


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

    # k = 5 gives order 17
    report = od_disconnection_case(5)
    assert report.isomorphic is True
    assert report.passed

    # k = 6 builds order 33 only: the full construction would have order 64
    report = od_disconnection_case(6)
    assert report.materialized.graph.order == 33
    assert report.removed_count == 31
    assert report.isomorphic is True
    assert report.od_number == 6
    assert report.passed

    with pytest.raises(BlueprintError, match="construction order 65 exceeds capacity 62"):
        od_disconnection_case(7)


def test_od_disconnection_guards():
    with pytest.raises(BlueprintError, match="k >= 3"):
        od_disconnection_case(2)
    with pytest.raises(BlueprintError, match="exactly one isolated"):
        od_disconnection_case(4, inner=Graph(4, (2, 1, 0, 0)))


def test_od_disconnection_checks_order_and_capacity_before_listing_labels(monkeypatch):
    def refuse(*args):
        raise AssertionError("listed the outer labels")

    monkeypatch.setattr("sepcodes.extremal.eligible_outer_labels", refuse)
    # 2^39 + 1 vertices: listing 2^40 - 1 labels first would exhaust memory
    with pytest.raises(BlueprintError, match=r"construction order \d+ exceeds capacity 62"):
        od_disconnection_case(40)
    # an order-40 inner graph with one isolated vertex, given for k = 3
    inner = Graph(40, tuple(complete_graph(39).adj) + (0,))
    with pytest.raises(BlueprintError, match="inner graph has order 40, expected k = 3"):
        od_disconnection_case(3, inner=inner)


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


# admitting / isolate-free counts, in Separation order L, O, I, F
PINNED_COUNTS = {
    5: ((1024, 588, 588, 312), (768, 448, 462, 252)),
    6: ((32768, 21476, 21476, 13824), (27449, 18788, 18358, 12312)),
    7: ((2097152, 1551368, 1551368, 1147488), (1887284, 1419852, 1412389, 1061304)),
}


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_counting_matches_census(k):
    """counting reads census's twin rules; the definitional key, summed
    over one class pass, is the independent route to the same counts: the
    admitting graphs of a separation are those admissible for its D kind,
    the isolate-free ones those admissible for its TD kind."""
    report = counting(k)
    weights = class_pass(admissibility, k)
    for i, kind in enumerate(ALL_KINDS):
        by_sep = report.eta_bar_by_sep if kind.total_domination else report.eta_by_sep
        assert by_sep[kind.separation] == sum(w for key, w in weights.items() if key[i]), kind
    # complementation swaps open and closed twins
    assert report.eta_by_sep[Separation.OPEN] == report.eta_by_sep[Separation.CLOSED]
    if k in PINNED_COUNTS:
        assert (
            tuple(report.eta_by_sep.values()),
            tuple(report.eta_bar_by_sep.values()),
        ) == PINNED_COUNTS[k]


def test_isolate_free_location_counts_are_a006129():
    """Every graph is location-admissible, so the isolate-free ones are all
    labeled graphs without an isolated vertex: OEIS A006129, which inclusion-
    exclusion over the isolated vertices also gives."""
    a006129 = [1, 4, 41, 768, 27449, 1887284]
    counts = [counting(k).eta_bar_by_sep[Separation.LOCATION] for k in range(2, 8)]
    assert counts == a006129
    assert counts == [
        sum((-1) ** (m - j) * comb(m, j) * 2 ** comb(j, 2) for j in range(m + 1))
        for m in range(2, 8)
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_class_sums_equal_the_labeled_counts(m, monkeypatch):
    weights = class_pass(admissibility, m)
    assert sum(weights.values()) == 2 ** comb(m, 2)
    assert weights == Counter(map(admissibility, labeled_graphs(m)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert class_pass(admissibility, m, jobs=2) == weights


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_construction_counts_match_the_labeled_inner_graphs(k):
    """Each construction count is the number of pairs (labeled inner graph
    on the code vertices, admissible for the separation's D kind; graph on
    its m eligible outer labels), so an inner graph adds 2^C(m, 2)."""
    report = counting(k)
    for sep in Separation:
        kind = CodeKind(sep.value + "D")
        assert report.family_counts[sep] == sum(
            2 ** comb(len(eligible_outer_labels(sep, inner)), 2)
            for inner in labeled_graphs(k)
            if is_admissible(inner, kind)
        ), sep
    if k == 3:
        # K3 with 2^C(4, 2) outer graphs, and each of the three labeled
        # single edges plus an isolated vertex with 2^C(5, 2)
        assert report.family_counts[Separation.OPEN] == 64 + 3 * 1024 == 3136


COUNTING_LEMMA_CASES = [
    (kind, n, k) for kind in ALL_KINDS for n in range(1, 6) for k in range(1, n + 1)
] + [(kind, n, lower_bound(kind, n)) for kind in ALL_KINDS for n in (6, 7)]


@pytest.mark.parametrize("kind,n,k", COUNTING_LEMMA_CASES)
def test_k_codes_count_as_the_lemma_says(kind, n, k):
    """The lemma in counting form, with no removal bound on either side: a
    k-set C of a labeled graph on n vertices is a kind-code exactly when its
    inner graph I is admissible and the n - k vertices outside C carry
    distinct labels of U(I), the eligible outer labels, with any edges among
    them. So summed over the graphs, the k-codes number C(n, k) choices of C
    times 2^C(n - k, 2) outer graphs times, summed over I, the
    P(|U(I)|, n - k) ways to label the outer vertices. The left side counts
    the k-sets that hit every set of the separation family, and reads
    nothing of the construction."""

    def k_codes(g):
        family = _candidates(g, kind)
        return sum(
            all(s & vset(c) for s in family) for c in itertools.combinations(range(n), k)
        )

    left = sum(count * weight for count, weight in class_pass(k_codes, n).items())
    labelings = sum(
        perm(len(eligible_outer_labels(kind.separation, inner)), n - k)
        for inner in labeled_graphs(k)
        if is_admissible(inner, kind)
    )
    assert left == comb(n, k) * 2 ** comb(n - k, 2) * labelings


def test_counting_guard():
    with pytest.raises(GuardError):
        counting(8)
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


@pytest.mark.parametrize("kind", list(_TIGHT_RECIPES))
def test_tight_presets_up_to_capacity(kind):
    # orders 31-36 at k = 5; at k = 6 every recipe's construction exceeds 62
    for k in (4, 5):
        presets = tight_family_presets(kind, k)
        assert len(presets) == len(_TIGHT_RECIPES[kind])
        for preset in presets:
            assert preset.passed, (kind, k, preset.family)
    with pytest.raises(BlueprintError, match="exceeds capacity 62"):
        tight_family_presets(kind, 6)


def test_tight_presets_rejects_full_kinds():
    with pytest.raises(ValueError, match="no tight presets"):
        tight_family_presets(CodeKind.FD, 3)


def test_itd_bipartite_construction_has_no_tight_preset():
    # the presets cover only the named recipes: this construction is
    # bipartite and attains the ITD bound, yet ITD has no recipe
    me = materialize(parse_blueprint("sep=I\nk=3\ninner=path\nouter=empty\n"))
    assert (me.graph.order, emit_graph6(me.graph)) == (7, b"FkOd?")
    assert family_membership(me.graph).bipartite
    assert min_code(me.graph, CodeKind.ITD).number == 3 == lower_bound(CodeKind.ITD, 7)
    with pytest.raises(ValueError, match="no tight presets"):
        tight_family_presets(CodeKind.ITD, 3)


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


def outer_settings(n, k):
    """Every setting of the edges among the outer vertices k..n-1."""
    return _free_edge_codes(1 << t for t, (i, _) in enumerate(edge_bit_pairs(n)) if i >= k)


def every_setting_classes(patterns, n, k):
    """Oracle for the audit's route: the classes of every pattern joined
    with every setting of the edges among the outer vertices."""
    return _classes([p | f for p in patterns for f in outer_settings(n, k)], n)


def pattern_classes(patterns, n, k):
    """The audit's route: the classes of one graph per orbit of Sym(C0) on
    the patterns joined with every outer setting."""
    return _classes(_c0_orbit_codes(patterns, n, k), n)


def class_weight(patterns, n, k):
    """Labeled graphs counted by the audit's route: n!/|Aut| summed over
    the classes of the patterns."""
    return sum(factorial(n) // aut for aut in pattern_classes(patterns, n, k).values())


ORBIT_CASES = [
    (kind, n) for kind in CodeKind for n in range(1, 8) if 1 <= lower_bound(kind, n) <= n
]


@pytest.mark.parametrize("kind,n", ORBIT_CASES)
def test_orbit_codes_meet_every_class(kind, n):
    # one graph per orbit of Sym(C0) gives the classes of every graph, on
    # both sides and on half of the family patterns, a set that relabeling
    # C0 need not keep
    k = lower_bound(kind, n)
    family = _family_patterns(kind, n, k)
    sample = set(random.Random(n).sample(sorted(family), len(family) // 2))
    for patterns in (family, _attaining_patterns(kind, n, k), sample):
        assert pattern_classes(patterns, n, k) == every_setting_classes(patterns, n, k)


@pytest.mark.parametrize("kind,n", ORBIT_CASES)
def test_c0_image_is_a_relabeling(kind, n):
    # the image of a pattern under σ, with every outer setting, against the
    # whole vertex map: σ on C0, and each outer vertex to its rank among
    # the relabeled signatures
    k = lower_bound(kind, n)
    rng = random.Random(n)
    settings = outer_settings(n, k)
    sigmas = list(itertools.permutations(range(k)))
    patterns = sorted(_family_patterns(kind, n, k))
    for p in rng.sample(patterns, min(4, len(patterns))):
        for sigma in rng.sample(sigmas, min(6, len(sigmas))):
            (moved,) = relabel_codes([p], sigma + tuple(range(k, n)), n)
            sigs = outer_signatures(moved, n, k)
            perm = list(sigma) + [0] * (n - k)
            for r, j in enumerate(sorted(range(k, n), key=lambda j: sigs[j - k])):
                perm[j] = k + r
            image, bits = _c0_image(p, sigma, n, k)
            assert ascending([image], n, k) == {image}
            assert [image | f for f in _free_edge_codes(bits)] == relabel_codes(
                [p | f for f in settings], perm, n
            )


def test_audit_classes_one_graph_per_c0_orbit(monkeypatch):
    # ID at n = 7: both sides are the same 4 patterns with 64 outer settings
    # each, 256 graphs, in 60 orbits of Sym(C0) and 50 classes
    handed = []

    def counted(codes, n):
        handed.append(len(codes))
        return _classes(codes, n)

    monkeypatch.setattr("sepcodes.extremal._classes", counted)
    # the 60 graphs fall into 50 classes, so 10 isomorphism tests are the
    # matches that merge them: the quotient key leaves no test that fails
    tests = []

    def counted_test(g, h):
        tests.append(is_isomorphic(g, h))
        return tests[-1]

    monkeypatch.setattr("sepcodes.extremal.is_isomorphic", counted_test)
    report = audit_characterization(CodeKind.ID, 7)
    assert report.passed and report.family_class_count == 50
    assert handed == [60]
    assert tests == [True] * 10


@given(graphs(max_order=10), st.data())
def test_quotient_key_ignores_the_labeling(g, data):
    h = relabeled(g, data.draw(st.permutations(range(g.order)), label="perm"))
    assert _quotient(g.adj, _equitable(g.adj)) == _quotient(h.adj, _equitable(h.adj))


@pytest.mark.parametrize(
    "kind,count,classes",
    [(CodeKind.OD, 12269040, 438), (CodeKind.FD, 29796480, 870), (CodeKind.FTD, 29796480, 870)],
)
def test_exhaustive_audit_at_order_eight(kind, count, classes):
    # the cheap ones; the CI smoke step pins all eight against census
    report = audit_characterization(kind, 8)
    assert report.passed and report.k == lower_bound(kind, 8)
    assert report.attaining_count == report.family_count == count
    assert report.family_class_count == classes


ATTAINING_CASES = [(kind, n) for kind in CodeKind for n in range(1, 6)] + [(CodeKind.ID, 6)]


@pytest.mark.parametrize("kind,n", ATTAINING_CASES)
def test_attaining_codes_match_definitional_scan(kind, n):
    # the projection against the plain definition: every labeled graph, every
    # k-subset, codes.is_code
    k = lower_bound(kind, n)
    expected = {
        graph_code(g)
        for g in labeled_graphs(n)
        if any(is_code(g, vset(c), kind) for c in itertools.combinations(range(n), k))
    }
    assert attaining_codes(kind, n, k) == expected
    assert class_weight(_attaining_patterns(kind, n, k), n, k) == len(expected)


@pytest.mark.parametrize("kind,n", ATTAINING_CASES)
def test_structure_check_accepts_every_attaining_graph(kind, n):
    # what the sampled audit asks of each graph it draws, over all of them
    k = lower_bound(kind, n)
    attaining = attaining_codes(kind, n, k)
    for code in attaining:
        g = graph_from_code(n, code)
        check = extremal_structure_check(g, min_code(g, kind).witness, kind)
        assert check.ok, (emit_graph6(g), check.reason)
    assert class_weight(_attaining_patterns(kind, n, k), n, k) == len(attaining)


def _fixed_partition_family(kind, n, k, labels=eligible_outer_labels):
    """Every family graph of order n with the code on 0..k-1, the kept outer
    labels (as `labels` lists them) in ascending order on k..n-1, and every
    setting of the edges among the outer vertices."""
    outer_pairs = list(itertools.combinations(range(k, n), 2))
    out = []
    for inner in labeled_graphs(k):
        if not is_admissible(inner, kind):
            continue
        eligible = labels(kind.separation, inner)
        if len(eligible) < n - k:
            continue
        for kept in itertools.combinations(eligible, n - k):
            edges = list(inner.edges())
            edges += [(u, k + idx) for idx, label in enumerate(kept) for u in members(label)]
            for chosen in range(1 << len(outer_pairs)):
                extra = [pair for t, pair in enumerate(outer_pairs) if chosen >> t & 1]
                out.append(build_graph(n, edges + extra))
    return out


def _relabeling_closure(graphs, n):
    """Edge codes of the graphs relabeled by all n! permutations."""
    return {
        graph_code(relabeled(g, perm))
        for g in graphs
        for perm in itertools.permutations(range(n))
    }


FAMILY_CASES = [
    (kind, n) for kind in CodeKind for n in range(1, 7) if lower_bound(kind, n) >= 1
]


@pytest.mark.parametrize("kind,n", FAMILY_CASES)
def test_family_closure_matches_relabeling(kind, n):
    # the projected closure against every family graph relabeled by all n!
    # permutations; the outer orders are what make the projection complete
    k = lower_bound(kind, n)
    expected = _relabeling_closure(_fixed_partition_family(kind, n, k), n)
    patterns = _family_patterns(kind, n, k)
    assert label_closure(patterns, n, k) == expected
    assert class_weight(patterns, n, k) == len(expected)


@pytest.mark.parametrize("kind,n", FAMILY_CASES + [(CodeKind.ID, 7), (CodeKind.OTD, 7)])
def test_classes_match_the_labeled_closure(kind, n):
    # one class per certificate in the labeled closure, weighted by how many
    # labeled graphs it holds; at n = 7 only the counts, as a canonical form
    # of each of the 137130 ID graphs would take seconds
    k = lower_bound(kind, n)
    patterns = _family_patterns(kind, n, k)
    closure = label_closure(patterns, n, k)
    assert class_weight(patterns, n, k) == len(closure)
    if n < 7:
        certificates = {canonical_form(graph_from_code(n, c))[0] for c in closure}
        assert pattern_classes(patterns, n, k).keys() == certificates


def test_c0_pattern_layout():
    # a C0-pattern is the edge code of a graph with no edges among the outer
    # vertices: the inner graph's edge code in the low C(k, 2) bits, and
    # outer vertex j's signature on C0 at bit C(j, 2)
    rng = random.Random(19)
    for n in range(2, 9):
        for k in range(1, n):
            c0 = (1 << k) - 1
            full = ((1 << comb(k, 2)) - 1) | sum(c0 << comb(j, 2) for j in range(k, n))
            assert full == sum(c0_edges(n, k))
            inner = rng.getrandbits(comb(k, 2))
            sigs = [rng.randrange(1 << k) for _ in range(k, n)]
            g = graph_from_code(n, inner | sum(sig << comb(j, 2) for j, sig in enumerate(sigs, k)))
            assert graph_code(induced_subgraph(g, c0)) == inner
            assert list(g.adj[k:]) == sigs


PATTERN_CASES = FAMILY_CASES + [(CodeKind.ID, 7)]


@pytest.mark.parametrize("kind,n", PATTERN_CASES)
def test_family_patterns_equal_attaining_patterns(kind, n):
    # the audit's claim before any relabeling: the family writes exactly the
    # C0-patterns under which the scan finds C0 a code
    k = lower_bound(kind, n)
    attaining = _attaining_patterns(kind, n, k)
    patterns = _family_patterns(kind, n, k)
    assert patterns == attaining
    if (kind, n) == (CodeKind.ID, 7):
        assert len(patterns) == 4


@pytest.mark.parametrize("kind,n", PATTERN_CASES)
def test_family_patterns_are_the_ascending_ordered_choices(kind, n):
    # the family side writes each choice of labels once, ascending; every
    # order of it is an outer relabeling of that one
    k = lower_bound(kind, n)
    patterns = _family_patterns(kind, n, k)
    full = full_family_patterns(kind, n, k)
    assert patterns == ascending(full, n, k)
    assert outer_closure(patterns, n, k) == full


FULL_SCAN_CASES = [
    (kind, n) for kind in CodeKind for n in range(1, 8) if lower_bound(kind, n) >= 1
]


@pytest.mark.parametrize("kind,n", FULL_SCAN_CASES)
def test_attaining_patterns_equal_the_full_scan(kind, n):
    # the scan tests only ascending nonempty outer signatures; the full scan
    # tests every setting of every edge meeting C0, and is closed under
    # relabeling of the outer vertices, so the ascending members stand for it
    k = lower_bound(kind, n)
    attaining = _attaining_patterns(kind, n, k)
    full = full_c0_patterns(kind, n, k)
    assert attaining == ascending(full, n, k)
    assert outer_closure(attaining, n, k) == full


@pytest.mark.parametrize("kind,n,inner,passing,checks", [
    (CodeKind.ID, 7, 8, 4, 148),
    (CodeKind.FTD, 7, 64, 12, 5524),
])
def test_attaining_scan_skips_inner_graphs_c0_fails(monkeypatch, kind, n, inner, passing, checks):
    # one check per inner graph on C0, and C(2^k - 1, n - k) signature
    # choices checked only on the inner graphs that pass it
    made = []

    def counted(kind):
        check = make_mask_checker(kind)

        def counting(adj, c):
            made.append(len(adj))
            return check(adj, c)

        return counting

    monkeypatch.setattr("sepcodes.extremal.make_mask_checker", counted)
    k = lower_bound(kind, n)
    _attaining_patterns(kind, n, k)
    assert Counter(made) == {k: inner, n: passing * comb((1 << k) - 1, n - k)}
    assert len(made) == checks


def test_audit_exhaustive_reports_a_family_short_of_the_attaining_graphs(monkeypatch):
    short = without_last_label(monkeypatch)
    report = audit_characterization(CodeKind.ID, 5)
    assert report == AuditReport(
        CodeKind.ID,
        5,
        3,
        "exhaustive",
        passed=False,
        attaining_count=382,
        family_count=312,
        family_class_count=6,
        missing=(),
        unexpected=("DFw", "DB{"),
    )
    # the family short of its last labels, relabeled by all 5!: this family
    # is not closed under relabeling within the code, so only the brute force
    # says how many labeled graphs its relabelings make
    family = _relabeling_closure(_fixed_partition_family(CodeKind.ID, 5, 3, short), 5)
    certificates = {canonical_form(graph_from_code(5, c))[0] for c in family}
    assert (len(family), len(certificates)) == (312, 6)
    for text in report.unexpected:
        g = parse_graph6(text)
        assert any(
            is_code(g, vset(c), CodeKind.ID) for c in itertools.combinations(range(5), 3)
        )
        assert canonical_form(g)[0] not in certificates


def _cli_audit_reports(monkeypatch, argv):
    """Run `sepcodes audit` with argv and return its exit code and the
    reports that audit_characterization handed back to the command line."""
    reports = []

    def recording(*args, **kwargs):
        reports.append(audit_characterization(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("sepcodes.cli.audit_characterization", recording)
    return main(["audit", *argv]), reports


def test_audit_parallel_matches_serial(monkeypatch, capsys):
    # ID at n = 6 has k = 3 and 8 inner edge codes, which a pool once
    # sharded: --jobs 2 now submits nothing and gives the in-process report
    submitted = []

    class CountingPool(ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr("sepcodes.solver.ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr("sepcodes.extremal.ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["--kind", "id", "--n", "6", "--jobs", "2"]
    status, reports = _cli_audit_reports(monkeypatch, argv)
    assert not submitted
    assert status == 0 and reports == [audit_characterization(CodeKind.ID, 6)]
    capsys.readouterr()


@pytest.mark.parametrize(
    "kind", [kind for kind in CodeKind if lower_bound(kind, 6) >= 3], ids=lambda kd: kd.name
)
def test_audit_jobs_do_not_change_the_report(monkeypatch, capsys, kind):
    # at k >= 3 there are at least 8 inner edge codes, as many as a pool
    # once split; the report at --jobs 2 is the one at --jobs 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["--kind", kind.name.lower(), "--n", "6"]
    one = _cli_audit_reports(monkeypatch, argv + ["--jobs", "1"])
    two = _cli_audit_reports(monkeypatch, argv + ["--jobs", "2"])
    assert one == two == (0 if one[1][0].passed else 1, [audit_characterization(kind, 6)])
    capsys.readouterr()


def test_audit_jobs_are_clamped(monkeypatch, capsys, spy_pools):
    # a --jobs far above the CPU count is accepted and starts no pool
    argv = ["--kind", "id", "--n", "5", "--jobs", "100000"]
    status, reports = _cli_audit_reports(monkeypatch, argv)
    assert not spy_pools
    assert status == 0 and reports == [audit_characterization(CodeKind.ID, 5)]
    capsys.readouterr()


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
    # _classes runs the canonical search unguarded, so the audit stays
    # within the census guard
    assert AUDIT_EXHAUSTIVE_GUARD <= CENSUS_GUARD
    with pytest.raises(GuardError):
        audit_characterization(CodeKind.LD, 9)
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

    # comment and blank lines are skipped; a graph6 outer policy is explicit
    bp = parse_blueprint("# LD\n\nsep=L\n  \n  # next: k\nk=2\ninner=empty\nouter=Bg")
    assert (bp.separation, bp.k, bp.inner) == (Separation.LOCATION, 2, empty_graph(2))
    assert bp.outer == OuterPolicy.explicit(path_graph(3))


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
    with pytest.raises(FormatError, match="expected key=value, got 'k 2'"):
        parse_blueprint("sep=L\nk 2\ninner=empty\n")
    with pytest.raises(FormatError, match="k must be an integer, got 'two'"):
        parse_blueprint("sep=L\nk=two\ninner=empty\n")
    for outer in ("random:x:0.5", "random:1:y"):
        with pytest.raises(FormatError, match="bad random outer policy"):
            parse_blueprint(f"sep=L\nk=2\ninner=empty\nouter={outer}\n")
    with pytest.raises(FormatError, match="probability must lie in"):
        parse_blueprint("sep=L\nk=2\ninner=empty\nouter=random:1:1.5\n")
