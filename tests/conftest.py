"""Shared helpers: named small graphs and seeded random graphs."""

from __future__ import annotations

import os
import random
from math import comb

import pytest
from hypothesis import settings

from sepcodes import Graph, build_graph, graph_from_code

# Property tests draw the same examples on every run and stay bounded, so
# the suite is deterministic and fast; no example database is written.
settings.register_profile(
    "tier1", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("tier1")


def k1() -> Graph:
    return build_graph(1, [])


def k2() -> Graph:
    return build_graph(2, [(0, 1)])


def k3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


def p3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


def p4() -> Graph:
    return build_graph(4, [(0, 1), (1, 2), (2, 3)])


def two_k1() -> Graph:
    return build_graph(2, [])


def random_graph(rng: random.Random, n: int) -> Graph:
    return graph_from_code(n, rng.getrandbits(comb(n, 2)))


def relabeled(g: Graph, perm: list[int]) -> Graph:
    adj = [0] * g.order
    for u, v in g.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    return Graph(g.order, tuple(adj))


@pytest.fixture
def spy_pools(monkeypatch):
    """Put a stand-in for ProcessPoolExecutor in the solver module, whose
    `scan` is the one fan-out, and report 4 CPUs. Each stand-in pool
    records its worker count and tasks and runs them in this process, so
    no process is started. Returns the list of pools made."""
    pools = []

    class SpyPool:
        def __init__(self, max_workers=None):
            self.max_workers = max_workers
            self.tasks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, *iterables):
            tasks = list(zip(*iterables))
            self.tasks += len(tasks)
            return [fn(*args) for args in tasks]

    monkeypatch.setattr("sepcodes.solver.ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return pools
