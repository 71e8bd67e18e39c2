"""Graph construction, neighborhoods, twins, enumeration, isomorphism, and
partition-family membership."""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import random
import sys
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, permutations
from math import comb, factorial

import pytest
from conftest import (
    edge_codes,
    graphs,
    k1,
    k2,
    k3,
    labeled_graphs,
    p3,
    p4,
    random_graph,
    reference_decode_edges,
    reference_graph_code,
    reference_refine,
    relabeled,
    unpruned_canonical_form,
)
from hypothesis import given
from hypothesis import strategies as st

import sepcodes.graphs
from sepcodes import (
    CodeKind,
    Graph,
    GuardError,
    build_graph,
    census,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    family_membership,
    graph_classes,
    graph_code,
    graph_from_code,
    induced_subgraph,
    is_isomorphic,
    labeled_graph_count,
    matching_graph,
    members,
    path_graph,
    vset,
)
from sepcodes.graphs import (
    _ROOT,
    CENSUS_GUARD,
    _canonical,
    _equitable,
    _find,
    _least_degree_children,
    _level,
    _refine,
    _subset_orbits,
    class_parents,
    decode_edges,
    extend_classes,
)
from sepcodes.solver import _rows


def test_vset_members_roundtrip():
    assert vset([0, 3, 5]) == 0b101001
    assert members(0b101001) == (0, 3, 5)
    assert vset([]) == 0
    assert members(0) == ()
    for mask in (-1, -0b101001):
        with pytest.raises(ValueError, match="nonnegative"):
            members(mask)


def test_build_graph_path_and_clique():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.edges() == ((0, 1), (1, 2))
    assert build_graph(3, [(0, 1), (1, 2), (0, 2)]).edge_count() == 3


def test_build_graph_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(2, [(0, 0)])


def test_build_graph_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(0, [])
    with pytest.raises(ValueError):
        build_graph(63, [])
    with pytest.raises(ValueError, match="a cycle needs at least 3 vertices"):
        cycle_graph(2)


def test_graph_validates_symmetry():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0b00))


@pytest.mark.parametrize(
    "order,adj,message",
    [
        (0, (), r"order must be in \[1, 62\], got 0"),
        (63, (0,) * 63, r"order must be in \[1, 62\], got 63"),
        (2, (0,), "adjacency table length does not match order"),
        (2, (0b100, 0), "vertex 0 has a neighbor outside the graph"),
        (2, (0, 0b10), "self-loop at vertex 1"),
    ],
)
def test_graph_rejects_malformed_tables(order, adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(order, adj)


def test_induced_subgraph():
    assert induced_subgraph(k3(), vset([0, 1])).edges() == ((0, 1),)
    assert induced_subgraph(p4(), vset([0, 3])).edges() == ()
    assert induced_subgraph(p4(), vset([0, 1, 2])).edges() == ((0, 1), (1, 2))
    with pytest.raises(ValueError, match="empty"):
        induced_subgraph(k3(), 0)
    with pytest.raises(ValueError, match="vertices outside the graph"):
        induced_subgraph(k3(), vset([1, 3]))


def test_induced_subgraph_relabels_ascending():
    g = build_graph(5, [(1, 3), (3, 4)])
    h = induced_subgraph(g, vset([1, 3, 4]))
    assert h.edges() == ((0, 1), (1, 2))


def test_disjoint_union():
    g = disjoint_union(k2(), k2())
    assert g.order == 4 and g.edges() == ((0, 1), (2, 3))
    assert disjoint_union(k1(), k1()).edges() == ()
    g = disjoint_union(p4(), p4())
    assert g.order == 8 and g.edge_count() == 6
    with pytest.raises(ValueError, match="capacity"):
        disjoint_union(empty_graph(32), empty_graph(31))


@pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (5, 1024)])
def test_enumeration_counts(n, count):
    assert labeled_graph_count(n) == count
    graphs = list(labeled_graphs(n))
    assert len(graphs) == count
    assert len({graph_code(g) for g in graphs}) == count


def test_enumeration_order_is_ascending_code():
    codes = [graph_code(g) for g in labeled_graphs(4)]
    assert codes == list(range(64))


def test_generated_graphs_are_well_formed():
    for n in range(1, 5):
        for g in labeled_graphs(n):
            for v, nb in enumerate(g.adj):
                assert not nb >> v & 1
                assert nb & ~g.vertex_mask == 0


def test_graph_code_roundtrip():
    rng = random.Random(4)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 9))
        assert graph_from_code(g.order, graph_code(g)) == g


def check_codec(order: int, code: int) -> None:
    """The column-wise codec against the pair-by-pair oracle on one code;
    the graph is built through Graph's checks, not graph_from_code."""
    adj = reference_decode_edges(order, code)
    g = Graph(order, tuple(adj))
    assert decode_edges(order, code) == adj
    assert graph_from_code(order, code) == g
    assert graph_code(g) == reference_graph_code(g) == code


def test_codec_matches_pair_walk_on_every_small_graph():
    for n in range(1, 7):
        for code in range(1 << comb(n, 2)):
            check_codec(n, code)


@given(edge_codes())
def test_codec_matches_pair_walk_up_to_order_62(order_code):
    check_codec(*order_code)


@pytest.mark.parametrize(
    "order,code",
    [(0, 0), (63, 0), (-1, 0), (4, -1), (4, 1 << 6), (7, (1 << 21) + 5), (62, 1 << comb(62, 2))],
)
def test_graph_from_code_rejects_order_and_code_out_of_range(order, code):
    with pytest.raises(ValueError, match="order must be in|out of range"):
        graph_from_code(order, code)


def test_graph_from_code_checks_order_before_any_work():
    # C(100000, 2) is about 5e9 vertex pairs, so anything built per pair
    # or per vertex before the check would show in the peak
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="order must be in"):
            graph_from_code(100000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_is_isomorphic_examples():
    assert is_isomorphic(p3(), build_graph(3, [(0, 1), (0, 2)]))
    assert not is_isomorphic(k3(), p3())
    assert not is_isomorphic(disjoint_union(k2(), k2()), p4())


def test_is_isomorphic_guard():
    with pytest.raises(GuardError):
        is_isomorphic(empty_graph(11), empty_graph(11))
    # unequal orders are answered before the guard, with no search
    assert not is_isomorphic(path_graph(11), path_graph(5))
    assert not is_isomorphic(path_graph(5), path_graph(11))


def test_is_isomorphic_is_equivalence_on_samples():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabeled(g, perm)
        perm2 = list(range(n))
        rng.shuffle(perm2)
        f = relabeled(h, perm2)
        assert is_isomorphic(g, g)
        assert is_isomorphic(g, h) and is_isomorphic(h, g)
        assert is_isomorphic(g, f)  # transitive through h


def test_is_isomorphic_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(2, 7)
        g, h = random_graph(rng, n), random_graph(rng, n)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(g.edges())
        H = nx.Graph()
        H.add_nodes_from(range(n))
        H.add_edges_from(h.edges())
        assert is_isomorphic(g, h) == nx.is_isomorphic(G, H)


def test_canonical_form_guard(monkeypatch):
    # rejected before the search starts: a stand-in search fails if reached
    def no_search(n, adj, cells):
        raise AssertionError("the search ran past the guard")

    monkeypatch.setattr("sepcodes.graphs._canonical", no_search)
    with pytest.raises(GuardError):
        canonical_form(path_graph(CENSUS_GUARD + 1))
    with pytest.raises(GuardError):
        graph_classes(CENSUS_GUARD + 1)
    with pytest.raises(ValueError):
        graph_classes(0)


def test_canonical_form_examples():
    # a path's certificate labels its ends 0 and 1: edges (1,2), (0,3), (2,3)
    assert canonical_form(p4()) == (0b101100, 2)
    assert canonical_form(empty_graph(5)) == (0, 120)
    assert canonical_form(complete_graph(5)) == ((1 << 10) - 1, 120)
    assert canonical_form(cycle_graph(6))[1] == 12
    assert canonical_form(k1()) == (0, 1)


def _refinements(g: Graph) -> list[tuple[list[int], list[int]]]:
    """(cells, splitters) for the refinements a canonical search of g starts:
    the unit partition, then each one-vertex individualization of the root."""
    full = (1 << g.order) - 1
    root = reference_refine(g.adj, [full], [full])
    starts = [([full], [full])]
    for i, cell in enumerate(root):
        if cell & (cell - 1):
            starts += [(root[:i] + [1 << v, cell ^ 1 << v] + root[i + 1:], [1 << v])
                       for v in members(cell)]
    return starts


def test_refine_matches_the_reference_exhaustively():
    for n in range(1, 7):
        for g in labeled_graphs(n):
            for cells, splitters in _refinements(g):
                assert _refine(g.adj, cells, splitters) == reference_refine(g.adj, cells, splitters)


@given(graphs(max_order=12))
def test_refine_matches_the_reference(g):
    for cells, splitters in _refinements(g):
        assert _refine(g.adj, cells, splitters) == reference_refine(g.adj, cells, splitters)


def test_equitable_matches_the_reference_exhaustively():
    for n in range(1, 7):
        full = (1 << n) - 1
        for g in labeled_graphs(n):
            assert _equitable(g.adj) == reference_refine(g.adj, [full], [full])


@given(graphs(max_order=10))
def test_equitable_matches_the_reference(g):
    full = g.vertex_mask
    assert _equitable(g.adj) == reference_refine(g.adj, [full], [full])


# sha256 of json.dumps(sorted(graph_classes(n).items())), then of the level
# records as json lists, [[cert, aut, [list(a) for a in autos]], ...]. The
# oracles accept any valid canonical labeling; these pin the one the search
# picks, its automorphisms and the order class generation emits the records
CLASS_DIGESTS = {
    1: ("4b206b21939b457eb85499fb9142a2b2ff32d29b25b2a70733887616d179d748",
        "51080b89d1e43307f1bdf40be70b704d7346efba3d68f386a7b7bc9ba0986e53"),
    2: ("de47c44aebf4ead9691e8bb0acd82765000a60adb7c67bb5e9f2b691deb3aac7",
        "8371205ee96932dd13019b3afec17d54c40b221ecfe37ca23c646eac382e4dd1"),
    3: ("6c7d4cc0e853dfee7bd24749ec4bdc9c61b61f4ec135513addca261d8c0fdfa2",
        "0b88dfa7686ac5a2d51c7e11c001cba460a36ac7526baffe3a4a915da2a8e95c"),
    4: ("67988a503c9e18c1db6682b5df7c70b38450fc23809f38aa8ce46192bca8a13b",
        "b6114bcec3aa96537fe477c9525218cf8622f53f2b2e88759a95333aecc9a1e6"),
    5: ("a7c59306dd9e6b8ad579c13732caaf09512f2b91f5ffe69dc1604ae770f7273e",
        "a89e24bd0f1df24569763a688bbb4a0ef2fa19d9371590cc380a2524feead799"),
    6: ("d29ef73e1ca356d004f595d09e715e36e578e9adc1eba5eac6d368591d85540a",
        "8cc61b614f680fd10a35642d7ca16a857769ad20ffe12c9c6e03a78c4fecdf82"),
    7: ("996122131056408fa5d9be3ff9c781b5131b9a4a095109c8d513553c4b8e8899",
        "a01ca935a2c079a3f9c7b35c3047a55c63bab031e31256e8d6fb44f556205c92"),
}


@pytest.mark.parametrize("n", sorted(CLASS_DIGESTS))
def test_certificates_and_class_records_are_pinned(n):
    classes = json.dumps(sorted(graph_classes(n).items()))
    records = json.dumps([[cert, aut, [list(a) for a in autos]] for cert, aut, autos in _level(n)])
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (classes, records))
    assert digests == CLASS_DIGESTS[n]


def test_canonical_form_matches_the_unpruned_search_exhaustively():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            assert canonical_form(g) == unpruned_canonical_form(g)


@given(graphs(max_order=7))
def test_canonical_form_matches_the_unpruned_search(g):
    assert canonical_form(g) == unpruned_canonical_form(g)


def test_canonical_form_leaves_no_reference_cycles():
    # the search's nested functions refer to themselves; they must be freed
    # on return, with no work left for the cyclic collector
    g = cycle_graph(7)
    canonical_form(g)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            canonical_form(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_automorphism_counts_at_order_eight_in_closed_form():
    # the unpruned search visits 8! leaves on the first two
    cube = build_graph(8, [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])
    k44 = build_graph(8, [(u, v) for u in range(4) for v in range(4, 8)])
    cases = [
        (empty_graph(8), 40320),
        (complete_graph(8), 40320),
        (cycle_graph(8), 16),
        (k44, 1152),
        (cube, 48),
        (matching_graph(8), 384),
        (disjoint_union(complete_graph(4), complete_graph(4)), 1152),
    ]
    for g, aut in cases:
        assert canonical_form(g)[1] == aut


def _closure(n: int, generators: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for a in generators:
            q = tuple(a[v] for v in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def test_found_automorphisms_generate_the_group(classes_by_order):
    # found on a relabeled copy, they are written in the canonical labeling
    rng = random.Random(8)
    for n in range(1, 7):
        for cert, aut in classes_by_order[n].items():
            g = graph_from_code(n, cert)
            edges = set(g.edges())
            h = relabeled(g, rng.sample(range(n), n))
            found = _canonical(n, h.adj, _equitable(h.adj))[2]
            for a in found:
                assert sorted(a) == list(range(n))
                assert {(min(a[u], a[v]), max(a[u], a[v])) for u, v in edges} == edges
            assert len(_closure(n, found)) == aut


def test_canonical_labeling_maps_onto_the_representative(classes_by_order):
    rng = random.Random(9)
    for n in range(1, 7):
        for cert in classes_by_order[n]:
            g = relabeled(graph_from_code(n, cert), rng.sample(range(n), n))
            label = _canonical(n, g.adj, _equitable(g.adj))[3]
            assert sorted(label) == list(range(n))
            assert relabeled(g, label) == graph_from_code(n, cert)


def test_augmentation_emits_each_class_once(classes_by_order):
    # listed as emitted: a dict would hide a class accepted twice
    records = class_parents(1)
    for m in range(1, 8):
        records = list(extend_classes(m, records))
        certs = [cert for cert, _, _ in records]
        assert len(certs) == len(set(certs)) == CLASS_COUNTS[m]
        assert {cert: aut for cert, aut, _ in records} == classes_by_order[m]


def test_graph_classes_at_order_eight():
    records = list(extend_classes(8, class_parents(8)))
    certs = [cert for cert, _, _ in records]
    assert len(certs) == len(set(certs)) == 12346  # OEIS A000088
    assert sum(factorial(8) // aut for _, aut, _ in records) == labeled_graph_count(8)


def test_class_parents_equal_a_cold_rebuild():
    records = (_ROOT,)
    assert class_parents(1) == records
    for m in range(1, CENSUS_GUARD):
        records = tuple(extend_classes(m, records))
        assert class_parents(m + 1) == records


def test_class_parents_build_each_level_once(cold_classes, monkeypatch):
    built = []

    def counted(m, parents):
        built.append(m)
        return extend_classes(m, parents)

    monkeypatch.setattr("sepcodes.graphs.extend_classes", counted)
    level = class_parents(5)
    assert class_parents(5) is level
    class_parents(3)
    class_parents(6)
    # each level extends the highest one already built
    assert built == [1, 2, 3, 4, 5]
    assert sepcodes.graphs._level.cache_info().currsize == 6
    # graph_classes reads the same levels, and keeps the level it adds
    assert graph_classes(6) == graph_classes(6)
    assert graph_classes(4) == {cert: aut for cert, aut, _ in sepcodes.graphs._level(4)}
    assert built == [1, 2, 3, 4, 5, 6]
    # the stored levels are immutable, records and automorphisms included
    assert isinstance(level, tuple)
    assert all(isinstance(found, tuple) for _, _, found in level)
    with pytest.raises(TypeError):
        level[0] = _ROOT


def test_class_parents_from_many_threads(cold_classes):
    # whichever threads build a level, every thread reads equal records
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(class_parents, 2 + i % 6) for i in range(16)]
            levels = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    records = (_ROOT,)
    for m in range(1, 7):
        records = tuple(extend_classes(m, records))
        assert sepcodes.graphs._level(m) == records
    assert sepcodes.graphs._level.cache_info().currsize == 7
    assert all(level == sepcodes.graphs._level(1 + i % 6) for i, level in enumerate(levels))


def test_a_fork_reads_the_built_levels_while_another_thread_builds_one(cold_classes, monkeypatch):
    # the forked process inherits a level build in progress, which nothing
    # in it will finish; census there must still read the levels built before
    class_parents(6)
    held, release = threading.Event(), threading.Event()
    extend = sepcodes.graphs.extend_classes

    def blocking(m, parents):
        if m == 7:
            held.set()
            release.wait(60)
        return extend(m, parents)

    monkeypatch.setattr("sepcodes.graphs.extend_classes", blocking)
    holder = threading.Thread(target=class_parents, args=(8,))
    holder.start()
    try:
        assert held.wait(60)
        worker = multiprocessing.get_context("fork").Process(target=census, args=(CodeKind.FTD, 6))
        worker.start()
        worker.join(60)
        hung = worker.exitcode is None
        if hung:
            worker.kill()
            worker.join()
    finally:
        release.set()
        holder.join()
    assert not hung
    assert worker.exitcode == 0


def test_unchecked_graph_equals_the_checked_one():
    g = Graph(4, (0b0110, 0b0101, 0b0011, 0))
    assert Graph._unchecked(4, g.adj) == g
    assert hash(Graph._unchecked(4, g.adj)) == hash(g)


@pytest.fixture(scope="module")
def class_records() -> list[list[tuple]]:
    """The class records at orders 0..7, as extend_classes gives them."""
    records = [class_parents(1)]
    for m in range(1, 8):
        records.append(list(extend_classes(m, records[-1])))
    return records


def test_subset_orbit_sizes_cover_every_subset(class_records):
    # the reference walks all 2^k subsets in ascending order, closing each
    # one not yet met under the generators: its least member, with orbit
    # sizes that divide |Aut| and, as the orbits are disjoint, cover the
    # 2^k subsets. _subset_orbits gives the same representatives over all
    # subsets, and over the least-degree neighbourhoods, a union of orbits
    # as automorphisms keep degrees, the reference's among them
    for k in range(1, 8):
        for cert, aut, automorphisms in class_records[k]:
            reference = []
            orbit_of = {}
            for s in range(1 << k):
                if s in orbit_of:
                    continue
                orbit = {s}
                frontier = [s]
                while frontier:
                    t = frontier.pop()
                    for a in automorphisms:
                        u = vset(a[v] for v in members(t))
                        if u not in orbit:
                            orbit.add(u)
                            frontier.append(u)
                assert min(orbit) == s
                assert aut % len(orbit) == 0
                orbit_of.update(dict.fromkeys(orbit, s))
                reference.append(s)
            assert len(orbit_of) == 1 << k
            assert _subset_orbits(range(1 << k), automorphisms) == reference
            allowed = [s for s, _ in _least_degree_children(decode_edges(k, cert))]
            kept = set(allowed)
            assert all((s in kept) == (orbit_of[s] in kept) for s in range(1 << k))
            assert _subset_orbits(allowed, automorphisms) == [s for s in reference if s in kept]


def test_least_degree_children_follow_the_definition():
    # s is yielded exactly when the new vertex has the least degree in the
    # child built from it, with m the child's vertices of that degree, for
    # every labeled graph on at most 5 vertices and the graph on none
    for adj in [()] + [g.adj for n in range(1, 6) for g in labeled_graphs(n)]:
        k = len(adj)
        expected = []
        for s in range(1 << k):
            child = [a | (s >> v & 1) << k for v, a in enumerate(adj)] + [s]
            degree = [a.bit_count() for a in child]
            if degree[k] == min(degree):
                expected.append((s, degree.count(degree[k])))
        assert list(_least_degree_children(adj)) == expected


def _reference_orbits(n: int, automorphisms) -> list[int]:
    """The orbit of each vertex 0..n-1, as its least member, under the group
    the automorphisms generate: union-find rebuilt from the generators."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for image in automorphisms:
        for v, w in enumerate(image):
            a, b = find(v), find(w)
            root[max(a, b)] = min(a, b)
    return [find(v) for v in range(n)]


def _partition(n: int, orbit_of) -> set[frozenset[int]]:
    blocks: dict[int, set[int]] = {}
    for v in range(n):
        blocks.setdefault(orbit_of(v), set()).add(v)
    return {frozenset(block) for block in blocks.values()}


def test_canonical_hands_over_the_orbits_of_its_automorphisms(class_records):
    # the forest is in the input's labels, the automorphisms in the
    # canonical labeling: vertex v has canonical label label[v]
    rng = random.Random(30)
    for n in range(1, 8):
        for cert, _, _ in class_records[n]:
            g = graph_from_code(n, cert)
            for h in (g, relabeled(g, rng.sample(range(n), n))):
                _, aut, found, label, forest = _canonical(n, h.adj, _equitable(h.adj))
                reference = _reference_orbits(n, found)
                orbits = _partition(n, lambda v: _find(forest, v))
                assert orbits == _partition(n, lambda v: reference[label[v]])
                assert all(aut % len(orbit) == 0 for orbit in orbits)


def test_census_path_weights_every_labeled_graph_at_order_eight(monkeypatch):
    # census's rows at n = 8 come from the classes on 7 vertices with no
    # canonical search; in all they weigh each class on 8 vertices at
    # 8! * lcm(1..8)/|Aut|, lcm(1..8) = 840 times its labeled graphs
    class_parents(8)
    calls = 0
    search = _canonical

    def counted(n, adj, cells):
        nonlocal calls
        calls += 1
        return search(n, adj, cells)

    monkeypatch.setattr("sepcodes.graphs._canonical", counted)
    codes, weights = _rows.__wrapped__(8, 0, len(class_parents(8)))
    assert calls == 0
    assert len(codes) == 29755
    totals: Counter = Counter()
    for code, weight in zip(codes, weights):
        totals[canonical_form(graph_from_code(8, code))[0]] += weight
    assert totals == {cert: factorial(8) * 840 // aut for cert, aut in graph_classes(8).items()}


def test_orbit_extension_matches_full_extension(classes_by_order):
    # the reference extends each class by every neighbourhood of the new vertex
    classes = {0: 1}
    for m in range(2, 7):
        extended = {}
        for code in classes:
            for neighbours in range(1 << (m - 1)):
                cert, aut = canonical_form(graph_from_code(m, code | neighbours << comb(m - 1, 2)))
                extended[cert] = aut
        classes = extended
        assert classes == classes_by_order[m]


# graphs on n unlabeled vertices, OEIS A000088
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_graph_classes_match_the_networkx_atlas(classes_by_order):
    nx = pytest.importorskip("networkx")
    atlas: dict[int, set[int]] = {}
    for G in nx.graph_atlas_g()[1:]:  # every graph on 1 to 7 vertices
        n = G.number_of_nodes()
        atlas.setdefault(n, set()).add(canonical_form(build_graph(n, G.edges()))[0])
    for n, count in CLASS_COUNTS.items():
        assert len(classes_by_order[n]) == count
        assert set(classes_by_order[n]) == atlas[n]


def test_class_weights_count_every_labeled_graph(classes_by_order):
    for n, classes in classes_by_order.items():
        assert all(factorial(n) % aut == 0 for aut in classes.values())
        assert sum(factorial(n) // aut for aut in classes.values()) == labeled_graph_count(n)


def test_automorphism_counts_match_brute_force(classes_by_order):
    for n in range(1, 7):
        for cert, aut in classes_by_order[n].items():
            g = graph_from_code(n, cert)
            assert canonical_form(g) == (cert, aut)  # the representative is canonical
            edges = set(g.edges())
            fixing = sum(
                {(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges} == edges
                for p in permutations(range(n))
            )
            assert aut == fixing


@given(graphs(max_order=7), st.data())
def test_certificate_decides_isomorphism(g, data):
    h = relabeled(g, data.draw(st.permutations(range(g.order))))
    assert canonical_form(h) == canonical_form(g)
    # move one edge of h: same order and edge count, isomorphic or not
    edges = set(h.edges())
    non_edges = [e for e in combinations(range(g.order), 2) if e not in edges]
    if edges and non_edges:
        edges.remove(data.draw(st.sampled_from(sorted(edges))))
        edges.add(data.draw(st.sampled_from(non_edges)))
    f = build_graph(g.order, edges)
    nx = pytest.importorskip("networkx")
    F, G = nx.empty_graph(g.order), nx.empty_graph(g.order)
    F.add_edges_from(f.edges())
    G.add_edges_from(g.edges())
    assert (canonical_form(f)[0] == canonical_form(g)[0]) == nx.is_isomorphic(F, G)


def _partition_membership_oracle(g: Graph) -> tuple[bool, bool, bool]:
    """Check all 2-partitions directly."""

    def independent(part):
        return all(not g.adj[u] >> v & 1 for u, v in combinations(part, 2))

    def clique(part):
        return all(g.adj[u] >> v & 1 for u, v in combinations(part, 2))

    bip = cobip = split = False
    for mask in range(1 << g.order):
        a = [v for v in range(g.order) if mask >> v & 1]
        b = [v for v in range(g.order) if not mask >> v & 1]
        bip = bip or (independent(a) and independent(b))
        cobip = cobip or (clique(a) and clique(b))
        split = split or (independent(a) and clique(b))
    return bip, cobip, split


def test_family_membership_examples():
    # frozen from the all-2-partitions oracle: P4 splits into the cliques
    # {0,1} and {2,3}, so it is cobipartite as well as bipartite and split
    fm = family_membership(p4())
    assert (fm.bipartite, fm.cobipartite, fm.split) == (True, True, True)
    assert _partition_membership_oracle(p4()) == (True, True, True)

    fm = family_membership(k3())
    assert (fm.bipartite, fm.cobipartite, fm.split) == (False, True, True)

    fm = family_membership(cycle_graph(5))
    assert (fm.bipartite, fm.cobipartite, fm.split) == (False, False, False)


def test_family_membership_matches_oracle_exhaustively():
    for n in range(1, 6):
        for g in labeled_graphs(n):
            fm = family_membership(g)
            assert (fm.bipartite, fm.cobipartite, fm.split) == _partition_membership_oracle(g)


def test_family_membership_answers_up_to_capacity():
    # two colourings and a degree sum: no order guard, so orders past 20 answer
    for g, flags in [
        (empty_graph(21), (True, False, True)),
        (complete_graph(62), (False, True, True)),
        (matching_graph(62), (True, False, False)),
    ]:
        fm = family_membership(g)
        assert (fm.bipartite, fm.cobipartite, fm.split) == flags


def test_complement_and_presets():
    assert complement(empty_graph(4)) == complete_graph(4)
    assert complement(complete_graph(4)) == empty_graph(4)
    assert path_graph(4) == p4()
    assert cycle_graph(3) == k3()
