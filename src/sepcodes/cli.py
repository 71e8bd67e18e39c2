"""Command-line surface: solve, construct, verify, audit, census, bounds,
and count, with deterministic text or JSON output.

Exit codes: 0 success, 2 parse/blueprint error, 3 inadmissible instance,
4 guard or budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import Any

from .codes import CodeKind
from .errors import BlueprintError, FormatError, GuardError
from .extremal import (
    audit_characterization,
    counting,
    materialize,
    parse_blueprint,
    verify_extremal,
)
from .graphs import Graph, members
from .serialize import emit_graph6, parse_graph6, parse_edge_list
from .solver import DEFAULT_BUDGET, census, lower_bound, max_order, min_code

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INADMISSIBLE = 3
EXIT_GUARD = 4

JOBS_HELP = "worker processes, at least 1; more than the CPU count are clamped to it"
BUDGET_HELP = "cap on solver search nodes, at least 1 (exit 4 when it runs out)"


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _parse_graph_input(raw: bytes) -> Graph:
    """Auto-detect graph6 versus edge-list: graph6 bytes start at 63 ('?'),
    an edge-list header starts with a digit."""
    stripped = raw.strip()
    if not stripped:
        raise FormatError("empty graph input")
    if stripped[0] >= 63:
        return parse_graph6(stripped)
    return parse_edge_list(stripped.decode("ascii", errors="replace"))


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def _render_text(payload: dict[str, Any], indent: int = 0) -> list[str]:
    lines = []
    pad = " " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 2))
        elif isinstance(value, (list, tuple)):
            rendered = " ".join(str(v) for v in value)
            lines.append(f"{pad}{key} = [{rendered}]")
        else:
            lines.append(f"{pad}{key} = {value}")
    return lines


def _emit(payload: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_render_text(payload)))


def _solve_payload(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    raw = _read_input(args.graph)
    g = _parse_graph_input(raw)
    kind = CodeKind.parse(args.kind)
    report = min_code(g, kind, _at_least_one(args, "budget"))
    payload: dict[str, Any] = {
        "command": "solve",
        "kind": kind.name,
        "input_digest": _digest(raw),
        "graph6": emit_graph6(g).decode("ascii"),
        "order": g.order,
        "lower_bound": report.lower_bound,
        "subsets_tested": report.subsets_tested,
    }
    if report.inadmissible:
        payload["status"] = "inadmissible"
        return payload, EXIT_INADMISSIBLE
    payload["status"] = "solved"
    payload["number"] = report.number
    payload["witness"] = list(members(report.witness))
    return payload, EXIT_OK


def _construct_payload(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    raw = _read_input(args.blueprint)
    bp = parse_blueprint(raw.decode("ascii", errors="replace"))
    me = materialize(bp)
    payload = {
        "command": "construct",
        "input_digest": _digest(raw),
        "separation": bp.separation.value,
        "k": bp.k,
        "inner_graph6": emit_graph6(bp.inner).decode("ascii"),
        "outer_policy": bp.outer.describe(),
        "removals": list(bp.removals),
        "order": me.graph.order,
        "graph6": emit_graph6(me.graph).decode("ascii"),
        "code": list(members(me.code)),
        "outer_labels": {
            str(v): list(members(label)) for v, label in me.outer_labels
        },
    }
    return payload, EXIT_OK


def _verify_payload(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    raw = _read_input(args.blueprint)
    bp = parse_blueprint(raw.decode("ascii", errors="replace"))
    me = materialize(bp)
    kind = CodeKind.parse(args.kind)
    check = verify_extremal(me, kind, _at_least_one(args, "budget"))
    payload = {
        "command": "verify",
        "kind": kind.name,
        "input_digest": _digest(raw),
        "graph6": emit_graph6(me.graph).decode("ascii"),
        "order": me.graph.order,
        "k": me.k,
        "designated_code_is_valid": check.code_is_valid,
        "number": check.number,
        "passed": check.passed,
    }
    return payload, EXIT_OK if check.passed else 1


def _at_least_one(args: argparse.Namespace, name: str) -> int:
    value = getattr(args, name)
    if value < 1:
        raise FormatError(f"--{name} must be at least 1, got {value}")
    return value


def _audit_payload(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    kind = CodeKind.parse(args.kind)
    jobs = _at_least_one(args, "jobs")
    report = audit_characterization(
        kind, args.n, mode=args.mode, seed=args.seed, trials=args.trials, jobs=jobs
    )
    payload: dict[str, Any] = {
        "command": "audit",
        "kind": kind.name,
        "n": report.n,
        "k": report.k,
        "mode": report.mode,
        "passed": report.passed,
    }
    if report.mode == "exhaustive":
        payload["attaining_count"] = report.attaining_count
        payload["family_count"] = report.family_count
        payload["family_class_count"] = report.family_class_count
        payload["missing"] = list(report.missing)
        payload["unexpected"] = list(report.unexpected)
    else:
        payload["trials"] = report.trials
        payload["attained"] = report.attained
        payload["failures"] = list(report.failures)
    return payload, EXIT_OK if report.passed else 1


def _census_payload(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    kind = CodeKind.parse(args.kind)
    jobs = _at_least_one(args, "jobs")
    report = census(kind, args.n, jobs=jobs, allow_large=args.allow_large)
    payload = {
        "command": "census",
        "kind": kind.name,
        "n": report.n,
        "histogram": {str(size): count for size, count in report.histogram.items()},
        "inadmissible": report.inadmissible,
    }
    return payload, EXIT_OK


def _bounds_payload(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    kind = CodeKind.parse(args.kind)
    if (args.n is None) == (args.k is None):
        raise FormatError("bounds requires exactly one of --n or --k")
    payload: dict[str, Any] = {"command": "bounds", "kind": kind.name}
    if args.n is not None:
        payload["n"] = args.n
        payload["lower_bound"] = lower_bound(kind, args.n)
    else:
        payload["k"] = args.k
        try:
            payload["max_order"] = max_order(kind, args.k)
        except ValueError as exc:
            raise GuardError(str(exc)) from None
    return payload, EXIT_OK


def _count_payload(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    report = counting(args.k)
    payload = {
        "command": "count",
        "k": report.k,
        "eta": report.eta,
        "admitting": {sep.value: report.eta_by_sep[sep] for sep in report.eta_by_sep},
        "admitting_isolate_free": {
            sep.value: report.eta_bar_by_sep[sep] for sep in report.eta_bar_by_sep
        },
        "construction_counts": {
            sep.value: report.family_counts[sep] for sep in report.family_counts
        },
    }
    return payload, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepcodes",
        description="Exact identification-code solving, extremal construction, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--timing", action="store_true", help="print wall time to stderr")

    p = sub.add_parser("solve", help="minimum code of a graph")
    p.add_argument("graph", help="graph6 or edge-list file, '-' for stdin")
    p.add_argument("--kind", required=True, help="one of LD LTD OD OTD ID ITD FD FTD")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    add_common(p)
    p.set_defaults(run=_solve_payload)

    p = sub.add_parser("construct", help="materialize a blueprint")
    p.add_argument("blueprint", help="blueprint file, '-' for stdin")
    add_common(p)
    p.set_defaults(run=_construct_payload)

    p = sub.add_parser("verify", help="materialize a blueprint and verify minimality")
    p.add_argument("blueprint", help="blueprint file, '-' for stdin")
    p.add_argument("--kind", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    add_common(p)
    p.set_defaults(run=_verify_payload)

    p = sub.add_parser("audit", help="check the extremal characterization at order n")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    add_common(p)
    p.set_defaults(run=_audit_payload)

    p = sub.add_parser("census", help="kind-number histogram over all labeled graphs")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--allow-large", action="store_true")
    add_common(p)
    p.set_defaults(run=_census_payload)

    p = sub.add_parser("bounds", help="logarithmic lower bound or maximum order")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    add_common(p)
    p.set_defaults(run=_bounds_payload)

    p = sub.add_parser("count", help="admitting-graph counts and construction counts")
    p.add_argument("--k", type=int, required=True)
    add_common(p)
    p.set_defaults(run=_count_payload)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        payload, status = args.run(args)
    except (FormatError, BlueprintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardError as exc:  # BudgetError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _emit(payload, args.format)
    if args.timing:
        print(f"wall_time_ms = {1000 * (time.perf_counter() - start):.1f}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
