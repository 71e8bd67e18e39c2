"""Tests of the benchmark itself. Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import signal
import time

import pytest

import run
import speed
import tracer as tracer_mod
import workloads
from tracer import FANOUT_PATCHES, LAYER_PATCHES, LAYER_UNITS, Span, Tracer, covered, self_times


def test_self_times_on_synthetic_span_tree():
    spans = [
        Span("a", 0.0, 10.0, -1, 0, folded=1.0),
        Span("b", 1.0, 4.0, 0, 0, folded=0.5),
        Span("c", 3.0, 6.0, 0, 0),  # overlaps b: the union [1, 6] counts once
        Span("d", 2.0, 3.0, 1, 0),
        Span("e", 9.0, 12.0, 0, 0),  # runs past its parent: clipped to [9, 10]
        Span("b", 20.0, 21.0, -1, 1),  # a second root with the same name adds up
    ]
    got = self_times(spans)
    assert got["a"] == pytest.approx(10.0 - (5.0 + 1.0) - 1.0)
    assert got["b"] == pytest.approx((3.0 - 1.0 - 0.5) + 1.0)
    assert got["c"] == pytest.approx(3.0)
    assert got["d"] == pytest.approx(1.0)
    assert got["e"] == pytest.approx(3.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_folded_calls_leave_the_self_time_of_their_caller():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    leaf = tr._folded("leaf", lambda x: x > 0)

    def body() -> int:
        return leaf(1) + leaf(-1)

    outer = tr._span("outer", body)
    tr.next_op()
    assert outer() == 1
    # clock: outer starts 0, leaf 1..2, leaf 3..4, outer ends 5
    assert self_times(tr.spans) == {"outer": 3.0}
    assert (tr.stats["leaf"].calls, tr.stats["leaf"].busy, tr.stats["leaf"].hits) == (2, 2.0, 1)
    assert tr.spans[0].op == 0


def test_sampled_leaf_counts_every_call_and_scales_timed_ones():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    leaf = tr._folded("leaf", lambda x: x, every=2)
    assert [leaf(v) for v in (True, False, True, True)] == [True, False, True, True]
    # calls 2 and 4 are timed, one tick each, scaled by two
    assert (tr.stats["leaf"].calls, tr.stats["leaf"].busy, tr.stats["leaf"].hits) == (4, 4.0, 3)


def _patched_attributes():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in LAYER_PATCHES + FANOUT_PATCHES
    }


def test_tracer_restores_module_attributes():
    before = _patched_attributes()
    with Tracer():
        inside = _patched_attributes()
        assert all(inside[key] is not before[key] for key in before)
    assert all(value is before[key] for key, value in _patched_attributes().items())
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(value is before[key] for key, value in _patched_attributes().items())


def _small_ops(tmp_path):
    ops = workloads.solve_ops(3, tmp_path)[:6]  # the six cheapest LD pairs
    for kind in ("ld", "ftd"):
        ops.append(workloads.Op(("census", "--kind", kind, "--n", "4", "--format", "json"),
                                1 << 6, lambda code, out: None))
    ops.append(workloads.Op(("audit", "--kind", "ld", "--n", "5", "--format", "json"),
                            1 << 10, lambda code, out: None))
    return ops


def test_traced_and_untraced_passes_print_identical_stdout(tmp_path):
    ops = _small_ops(tmp_path)
    untraced = run.run_pass(ops)
    with Tracer() as tr:
        traced = run.run_pass(ops, tr)
    assert [r[:2] for r in traced.results] == [r[:2] for r in untraced.results]
    assert all(code == 0 for code, _, _ in untraced.results)
    metrics = tr.layer_metrics()
    assert metrics["solver.min_code.calls"] == 6
    assert metrics["serialize.parse_graph6.calls"] == 6
    assert metrics["solver.mask_check.calls"] > 0
    assert metrics["graphs.is_isomorphic.calls"] > 0
    assert tr.stats["cli.main"].calls == len(ops)
    assert set(metrics) | {"trace.overhead_s"} == set(LAYER_UNITS)
    # the wrappers cost something per call, and far less than the pass
    assert 0 < tr.overhead() < traced.wall


def test_fanout_wrapper_counts_workers_and_tasks():
    sharded = workloads.Op(("census", "--kind", "od", "--n", "5", "--jobs", "2",
                            "--format", "json"), 1 << 10, lambda code, out: None)
    single = run.run_pass([sharded.with_jobs("1")])
    with Tracer(layers=False) as tr:
        fanned = run.run_pass([sharded], tr)
    assert fanned.results[0][:2] == single.results[0][:2]
    assert tr.fanout.workers == 2
    assert tr.fanout.tasks >= 2
    assert tr.fanout.wait > 0
    assert tr.spans == []


def test_solve_inputs_follow_the_seed(tmp_path):
    def contents(seed: int) -> list[bytes]:
        ops = workloads.solve_ops(seed, tmp_path / str(seed))
        return [open(op.argv[3], "rb").read() for op in ops]

    first = contents(5)
    assert first == contents(5)
    assert first != contents(6)
    assert len(first) == workloads.SOLVE_RELABELINGS * len(workloads.load_solve_pool())


def test_host_speed_takes_out_probes_and_scales_by_nearby_ones():
    host = speed.HostSpeed()
    host.samples = [(0.0, 0.03), (1.0, 0.01), (2.0, 0.02), (5.0, 0.5)]
    host.spent = [(t, 2 * d) for t, d in host.samples]  # warm-up and timed probe
    assert host.scale(0.5, 0.9) == pytest.approx(speed.PROBE_REFERENCE_S / 0.02)
    assert host.scale(1.5, 1.6) == pytest.approx(speed.PROBE_REFERENCE_S / 0.015)
    assert host.probing(0.5, 2.5) == pytest.approx(0.06)
    with host.sampling():
        time.sleep(0.6)  # the timer fires during the sleep
    assert len(host.samples) == len(host.spent) >= 4 + 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_runs_outside_the_verified_host_speeds_are_marked():
    host = speed.HostSpeed()
    lo, hi = speed.VERIFIED_PROBE_MEDIAN_S
    host.samples = [(0.0, lo), (1.0, hi), (2.0, (lo + hi) / 2)]
    assert host.in_verified_band()
    host.samples = [(0.0, 2 * hi), (1.0, 2 * hi), (2.0, lo)]
    assert not host.in_verified_band()


def test_closed_forms_agree_with_the_recorded_numbers():
    checked = 0
    for item in workloads.load_solve_pool():
        order = ord(item["graph6"][0]) - 63  # graph6 header byte
        closed = workloads.closed_form(item["family"], item["kind"], order)
        if closed is not None:
            assert closed == item["number"], item
            checked += 1
    assert checked == 12


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer_mod.LAYER_UNITS
