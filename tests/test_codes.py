"""Signatures, separation/domination predicates, the eight code kinds, and
structural admissibility."""

from __future__ import annotations

import pytest
from conftest import (
    graphs,
    k1,
    k2,
    k3,
    labeled_graphs,
    own_signature_families,
    p3,
    p4,
    twin_free_for,
    two_k1,
)
from hypothesis import given

from sepcodes import (
    ALL_KINDS,
    CodeKind,
    Separation,
    is_admissible,
    is_code,
    is_dominating,
    is_separating,
    is_total_dominating,
    vset,
)


def test_exactly_eight_kinds():
    assert len(ALL_KINDS) == 8
    assert [k.name for k in ALL_KINDS] == ["LD", "LTD", "OD", "OTD", "ID", "ITD", "FD", "FTD"]


def test_kind_attributes():
    assert CodeKind.LD.separation is Separation.LOCATION
    assert CodeKind.ITD.separation is Separation.CLOSED
    assert CodeKind.FD.separation is Separation.FULL
    assert not CodeKind.OD.total_domination
    assert CodeKind.OTD.total_domination


def test_kind_parse():
    assert CodeKind.parse("od") is CodeKind.OD
    assert CodeKind.parse(" Ftd ") is CodeKind.FTD
    with pytest.raises(ValueError, match="unknown code kind"):
        CodeKind.parse("XD")


def test_domination_predicates():
    assert is_dominating(k3(), vset([0]))
    assert not is_total_dominating(k3(), vset([0]))
    assert is_dominating(p3(), vset([1]))
    assert not is_total_dominating(p3(), vset([1]))
    assert is_total_dominating(p3(), vset([0, 1]))


def test_is_separating_examples():
    # closed signatures of P3 under {0,1} collide on vertices 0 and 1
    assert not is_separating(p3(), vset([0, 1]), Separation.CLOSED)
    assert is_separating(p3(), vset([0, 2]), Separation.CLOSED)
    assert is_separating(k3(), vset([0, 1]), Separation.OPEN)
    for mask in range(4):
        assert not is_separating(two_k1(), mask, Separation.OPEN)


def test_location_separation_is_vacuous_on_full_sets():
    for n in range(1, 5):
        for g in labeled_graphs(n):
            assert is_separating(g, g.vertex_mask, Separation.LOCATION)


def test_is_code_examples():
    assert is_code(k3(), vset([0, 1]), CodeKind.OD)
    assert is_code(p3(), vset([0, 2]), CodeKind.ID)
    assert not is_code(k2(), vset([0, 1]), CodeKind.ID)


def test_is_admissible_examples():
    assert is_admissible(k1(), CodeKind.LD)
    assert not is_admissible(k1(), CodeKind.LTD)
    assert not is_admissible(k2(), CodeKind.ID)
    assert is_admissible(k2(), CodeKind.OD)
    for kind in ALL_KINDS:
        assert is_admissible(p4(), kind)


def test_is_admissible_matches_the_twin_oracle():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for kind in ALL_KINDS:
                assert is_admissible(g, kind) == twin_free_for(g, kind)


@given(graphs(max_order=10))
def test_is_admissible_matches_the_twin_oracle_on_random_graphs(g):
    for kind in ALL_KINDS:
        assert is_admissible(g, kind) == twin_free_for(g, kind)


def test_full_separation_equals_open_and_closed():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for mask in range(1 << n):
                full = is_separating(g, mask, Separation.FULL)
                both = is_separating(g, mask, Separation.OPEN) and is_separating(
                    g, mask, Separation.CLOSED
                )
                assert full == both


def test_full_separating_families_are_disjoint():
    # every full-separating set has disjoint open/closed families covering
    # exactly twice the code size
    for n in range(1, 5):
        for g in labeled_graphs(n):
            for mask in range(1, 1 << n):
                if not is_separating(g, mask, Separation.FULL):
                    continue
                opens, closeds = own_signature_families(g, mask)
                assert not opens & closeds
                assert len(opens) == len(closeds) == mask.bit_count()


def test_admissibility_matches_exhaustive_code_search():
    for n in range(1, 5):
        for g in labeled_graphs(n):
            for kind in ALL_KINDS:
                exists = any(is_code(g, mask, kind) for mask in range(1 << n))
                assert exists == is_admissible(g, kind)


def test_code_gives_outer_vertices_distinct_nonempty_signatures():
    # what the audit's C0-pattern scan relies on: under every kind a vertex
    # outside a code is dominated by it, and separated from any other such
    # vertex by a code vertex adjacent to exactly one of the two
    for n in range(1, 6):
        for g in labeled_graphs(n):
            for kind in ALL_KINDS:
                for mask in range(1, 1 << n):
                    if not is_code(g, mask, kind):
                        continue
                    outer = [g.adj[v] & mask for v in range(n) if not mask >> v & 1]
                    assert 0 not in outer and len(set(outer)) == len(outer)


def test_empty_code_is_never_a_code():
    for n in range(1, 5):
        for g in labeled_graphs(n):
            for kind in ALL_KINDS:
                assert not is_code(g, 0, kind)
