"""Regenerate bench/solve_pool.json, the base graphs of the solve workload.

Candidates are seeded G(n, p) graphs with n in 14..20 and p in
{0.15, 0.3, 0.5}. For each kind, the admissible candidate nearest to each
of SUBSET_TARGETS in the solver's subset count is taken, so the base set
holds dense graphs (a code near the lower bound after a few subsets) and
sparse ones (above 10^5 subsets). The targets form clusters so that the
median and the 90th percentile of per-call latency each fall among many
calls of similar cost, which keeps them steady from seed to seed. Paths and cycles are
added as fixed cases. The kind number of every base pair is recorded, so a
benchmark run checks each answer against this file; a run relabels every
base graph with its own seed, which leaves the number unchanged.

Run from the repository root:  PYTHONPATH=src python3 bench/make_solve_pool.py
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from sepcodes import (
    ALL_KINDS,
    BudgetError,
    CodeKind,
    build_graph,
    cycle_graph,
    emit_graph6,
    is_admissible,
    min_code,
    path_graph,
)

MASTER_SEED = 2412_17469
ORDERS = range(14, 21)
PROBABILITIES = (0.15, 0.3, 0.5)
GRAPHS_PER_CELL = 8
SUBSET_CAP = 1_000_000
# For every kind: two dense graphs, a cluster at the median of per-call
# latency, two between, and a sparse cluster above 10^5 subsets that holds
# the 90th percentile.
SUBSET_TARGETS = (1_500, 3_000, 12_000, 14_000, 16_000, 18_000, 20_000,
                  40_000, 60_000, 120_000, 150_000, 180_000)
# Closed forms are known for LD and ID, so those kinds get several orders,
# up to 20 (between 1.6*10^5 and 6.8*10^5 subsets).
PATH_ORDERS = {CodeKind.LD: (10, 14, 20), CodeKind.ID: (10, 14, 20)}
CYCLE_ORDERS = {CodeKind.LD: (10, 14, 20), CodeKind.ID: (10, 14, 20)}
OTHER_ORDER = 15
POOL_PATH = Path(__file__).with_name("solve_pool.json")


def gnp(rng: random.Random, n: int, p: float):
    return build_graph(n, [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p])


def main() -> None:
    rng = random.Random(MASTER_SEED)
    candidates: dict[CodeKind, list[tuple[int, str, int, float]]] = {k: [] for k in ALL_KINDS}
    for n in ORDERS:
        for p in PROBABILITIES:
            for _ in range(GRAPHS_PER_CELL):
                g = gnp(rng, n, p)
                g6 = emit_graph6(g).decode("ascii")
                for kind in ALL_KINDS:
                    if not is_admissible(g, kind):
                        continue
                    try:
                        report = min_code(g, kind, SUBSET_CAP)
                    except BudgetError:
                        continue
                    candidates[kind].append((report.subsets_tested, g6, report.number, p))
    items = []
    for kind in ALL_KINDS:
        ranked = sorted(candidates[kind])
        for target in SUBSET_TARGETS:
            best = min(ranked, key=lambda c: abs(math.log(c[0] / target)))
            ranked.remove(best)
            subsets, g6, number, p = best
            items.append({"family": "gnp", "p": p, "kind": kind.name, "graph6": g6,
                          "number": number, "subsets": subsets})
    for family, make, orders in (("path", path_graph, PATH_ORDERS), ("cycle", cycle_graph, CYCLE_ORDERS)):
        for kind in ALL_KINDS:
            for n in orders.get(kind, (OTHER_ORDER,)):
                g = make(n)
                report = min_code(g, kind)
                items.append({"family": family, "p": None, "kind": kind.name,
                              "graph6": emit_graph6(g).decode("ascii"),
                              "number": report.number, "subsets": report.subsets_tested})
    lines = ",\n".join(json.dumps(item) for item in items)
    POOL_PATH.write_text(
        f'{{"master_seed": {MASTER_SEED}, "subset_cap": {SUBSET_CAP}, "items": [\n{lines}\n]}}\n'
    )
    print(f"wrote {len(items)} base pairs to {POOL_PATH}")


if __name__ == "__main__":
    main()
