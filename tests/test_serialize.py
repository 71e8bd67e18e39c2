"""graph6 bit-exactness and the edge-list text format."""

from __future__ import annotations

import random

import pytest
from conftest import (
    edge_codes,
    k1,
    k2,
    k3,
    labeled_graphs,
    random_graph,
    reference_decode_edges,
    sparse_graphs,
)
from hypothesis import given

from sepcodes import (
    FormatError,
    Graph,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)


def test_parse_known_strings():
    # decoded by hand per the format: 'A'=65 -> n=2, '_'=95 -> bits 100000
    assert parse_graph6(b"A_") == k2()
    assert parse_graph6("A_") == k2()
    assert parse_graph6(b"Bw") == k3()


def test_emit_known_strings():
    assert emit_graph6(k1()) == b"@"
    assert emit_graph6(k2()) == b"A_"
    assert emit_graph6(k3()) == b"Bw"


def test_parse_truncated_payload():
    with pytest.raises(FormatError, match="payload"):
        parse_graph6(b"A")


def test_parse_rejects_malformed():
    with pytest.raises(FormatError, match="empty"):
        parse_graph6(b"")
    with pytest.raises(FormatError, match="multi-byte"):
        parse_graph6(b"~~~")
    with pytest.raises(FormatError, match="order 0"):
        parse_graph6(b"?")
    # headers on either side of [63, 125], other than 126
    with pytest.raises(FormatError, match="invalid graph6 header byte 33"):
        parse_graph6(b"!")
    with pytest.raises(FormatError, match="invalid graph6 header byte 127"):
        parse_graph6(b"\x7f")
    with pytest.raises(FormatError, match="outside"):
        parse_graph6(b"A!")
    with pytest.raises(FormatError, match="padding"):
        parse_graph6(b"AO")  # order 2: only bit 0 may be set, 'O' sets bit 4
    with pytest.raises(FormatError, match="ASCII"):
        parse_graph6("Ä")


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_roundtrip_order_six_full_and_seven_sampled():
    for g in labeled_graphs(6):
        assert parse_graph6(emit_graph6(g)) == g
    rng = random.Random(20250809)
    for _ in range(3000):
        g = random_graph(rng, 7)
        assert parse_graph6(emit_graph6(g)) == g


def test_emit_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12))
        G = nx.Graph()
        G.add_nodes_from(range(g.order))
        G.add_edges_from(g.edges())
        assert emit_graph6(g) == nx.to_graph6_bytes(G, header=False).strip()


@given(edge_codes())
def test_graph6_matches_networkx_up_to_order_62(order_code):
    # both directions against networkx, on a graph built pair by pair
    nx = pytest.importorskip("networkx")
    n, code = order_code
    g = Graph(n, tuple(reference_decode_edges(n, code)))
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(g.edges())
    data = nx.to_graph6_bytes(G, header=False).strip()
    assert emit_graph6(g) == data
    assert parse_graph6(data) == g


def test_edge_list_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10))
        assert parse_edge_list(emit_edge_list(g)) == g


@given(sparse_graphs())
def test_graph6_roundtrip_property(g):
    assert parse_graph6(emit_graph6(g)) == g


@given(sparse_graphs())
def test_edge_list_roundtrip_property(g):
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_format():
    assert emit_edge_list(k2()) == "2 1\n0 1\n"
    assert parse_edge_list("3 2\n0 1\n1 2\n").edges() == ((0, 1), (1, 2))


def test_edge_list_errors():
    with pytest.raises(FormatError, match="empty"):
        parse_edge_list("")
    with pytest.raises(FormatError, match="header"):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(FormatError, match="announces"):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(FormatError, match="non-integer"):
        parse_edge_list("3 one\n")
    with pytest.raises(FormatError, match="expected edge line 'u v', got '0 1 2'"):
        parse_edge_list("3 1\n0 1 2\n")
    with pytest.raises(FormatError, match="expected edge line 'u v', got '0'"):
        parse_edge_list("3 1\n0\n")
    with pytest.raises(FormatError, match="non-integer edge line '0 x'"):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(FormatError, match="self-loop"):
        parse_edge_list("2 1\n1 1\n")
