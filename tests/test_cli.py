"""CLI surface: subcommands, auto-detected input, exit codes, and
byte-identical deterministic output."""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from conftest import without_last_label

import sepcodes
from sepcodes import (
    ALL_KINDS,
    BlueprintError,
    CodeKind,
    ExtremalBlueprint,
    Separation,
    build_graph,
    cycle_graph,
    eligible_outer_labels,
    emit_graph6,
    empty_graph,
    materialize,
    path_graph,
)
from sepcodes.cli import main
from sepcodes.extremal import INNER_PRESETS, StructureCheck

K3_G6 = "Bw"
BLUEPRINT_I3 = "sep=I\nk=3\ninner=empty\nouter=empty\n"


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_solve_graph6_file(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text(K3_G6 + "\n")
    status, out, _ = run(capsys, ["solve", str(path), "--kind", "od"])
    assert status == 0
    assert "number = 2" in out
    assert "witness = [0 1]" in out
    assert "lower_bound = 2" in out


def test_solve_stdin(capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": io.BytesIO(b"Bw")})())
    status, out, _ = run(capsys, ["solve", "-", "--kind", "OD", "--format", "json"])
    assert status == 0
    payload = json.loads(out)
    assert payload["number"] == 2 and payload["witness"] == [0, 1]


def test_solve_edge_list_input(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    status, out, _ = run(capsys, ["solve", str(path), "--kind", "id"])
    assert status == 0
    assert "number = 2" in out


def test_solve_inadmissible_exit_code(tmp_path, capsys):
    path = tmp_path / "k2.g6"
    path.write_text("A_")
    status, out, _ = run(capsys, ["solve", str(path), "--kind", "id"])
    assert status == 3
    assert "status = inadmissible" in out


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("A")
    status, _, err = run(capsys, ["solve", str(path), "--kind", "ld"])
    assert status == 2
    assert "error" in err


def test_solve_input_errors_exit_code(tmp_path, capsys):
    status, out, err = run(capsys, ["solve", str(tmp_path / "missing.g6"), "--kind", "id"])
    assert status == 2 and not out
    assert err.startswith(f"error: cannot read {tmp_path / 'missing.g6'}: ")
    path = tmp_path / "blank.txt"
    path.write_text("  \n\n")
    status, out, err = run(capsys, ["solve", str(path), "--kind", "id"])
    assert (status, out, err) == (2, "", "error: empty graph input\n")


def test_solve_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    status, _, err = run(capsys, ["solve", str(path), "--kind", "ld", "--budget", "1"])
    assert status == 4
    assert "budget" in err


def test_budget_below_one_is_rejected(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    blueprint = tmp_path / "bp.txt"
    blueprint.write_text(BLUEPRINT_I3)
    for command in (["solve", str(path), "--kind", "ld"], ["verify", str(blueprint), "--kind", "id"]):
        for budget in ("0", "-5"):
            status, out, err = run(capsys, command + ["--budget", budget])
            assert status == 2
            assert "--budget must be at least 1" in err and not out


def test_solve_id_on_long_path_and_cycle(tmp_path, capsys):
    for name, g, number in (("p30", path_graph(30), 16), ("c40", cycle_graph(40), 20)):
        path = tmp_path / f"{name}.g6"
        path.write_bytes(emit_graph6(g))
        status, out, _ = run(capsys, ["solve", str(path), "--kind", "id", "--format", "json"])
        assert status == 0
        assert json.loads(out)["number"] == number


def test_unknown_kind_exit_code(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text(K3_G6)
    status, _, err = run(capsys, ["solve", str(path), "--kind", "zz"])
    assert status == 2
    assert "unknown code kind" in err


def test_construct(tmp_path, capsys):
    path = tmp_path / "bp.txt"
    path.write_text(BLUEPRINT_I3)
    status, out, _ = run(capsys, ["construct", str(path)])
    assert status == 0
    assert "order = 7" in out
    assert "code = [0 1 2]" in out
    assert "graph6 =" in out


def test_construct_blueprint_error(tmp_path, capsys):
    path = tmp_path / "bp.txt"
    path.write_text("sep=F\nk=3\ninner=empty\n")
    status, _, err = run(capsys, ["construct", str(path)])
    assert status == 2
    assert "k >= 4" in err


@pytest.mark.parametrize("preset", ["empty", "complete", "path", "matching"])
def test_construct_rejects_oversized_preset_before_building_it(tmp_path, capsys, preset):
    # at a bounded order first, so that a preset which builds its input
    # before checking the order fails here, not on the blueprint below
    # (about 125 GB for complete at k = 1000000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="order must be in"):
            INNER_PRESETS[preset](32000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    path = tmp_path / "bp.txt"
    path.write_text(f"sep=I\nk=1000000\ninner={preset}\n")
    status, out, err = run(capsys, ["construct", str(path)])
    assert status == 2
    assert "order must be in [1, 62]" in err and not out


def test_construct_rejects_oversized_order_before_listing_labels(tmp_path, capsys):
    # at k = 20 first, so that a check which lists the 2^20 - 1 labels
    # before the order fails here, not on the blueprint below (about 10^12
    # labels at k = 40)
    for removals in ((), (1, 2, 3)):
        tracemalloc.start()
        try:
            with pytest.raises(BlueprintError, match="exceeds capacity"):
                materialize(
                    ExtremalBlueprint(Separation.LOCATION, 20, empty_graph(20), removals=removals)
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, removals
    path = tmp_path / "bp.txt"
    path.write_text("sep=L\nk=40\ninner=empty\n")
    status, out, err = run(capsys, ["construct", str(path)])
    assert status == 2
    assert "exceeds capacity 62" in err and not out


def test_construct_checks_the_capacity_on_the_order_after_removals(tmp_path, capsys):
    # the full construction has order 69; removed labels are never built
    path = tmp_path / "bp.txt"
    path.write_text("sep=L\nk=6\ninner=empty\nremove=1,2,3,4,5,6,7\n")
    status, out, _ = run(capsys, ["construct", str(path), "--format", "json"])
    payload = json.loads(out)
    assert status == 0
    assert payload["order"] == 62 and len(payload["outer_labels"]) == 56
    path.write_text("sep=L\nk=6\ninner=empty\nremove=1,2,3,4,5,6\n")
    status, out, err = run(capsys, ["construct", str(path)])
    assert status == 2
    assert "construction order 63 exceeds capacity 62" in err and not out
    # at k = 12 all but 50 of the 4095 labels are removed, in milliseconds,
    # and a bad removal list keeps its message
    removals = eligible_outer_labels(Separation.LOCATION, empty_graph(12))[:4045]

    def construct(labels: tuple[int, ...], *options: str) -> tuple[int, str, str]:
        path.write_text(f"sep=L\nk=12\ninner=empty\nremove={','.join(map(str, labels))}\n")
        return run(capsys, ["construct", str(path), *options])

    status, out, _ = construct(removals, "--format", "json")
    payload = json.loads(out)
    assert status == 0
    assert payload["order"] == 62 and len(payload["outer_labels"]) == 50
    for extra, message in [
        (removals[-1], "duplicate removal label"),
        (4096, "names no eligible outer vertex"),
    ]:
        status, out, err = construct(removals + (extra,))
        assert status == 2
        assert message in err and not out


def test_construct_explicit_outer_policy(tmp_path, capsys):
    path = tmp_path / "bp.txt"
    path.write_text("sep=L\nk=2\ninner=empty\nouter=Bg\n")
    status, out, _ = run(capsys, ["construct", str(path), "--format", "json"])
    payload = json.loads(out)
    assert status == 0
    assert payload["outer_policy"] == "explicit:Bg"
    # the outer vertices 2, 3, 4 carry the labels 1, 2, 3 and the path 2-3-4
    assert payload["graph6"] == emit_graph6(
        build_graph(5, [(0, 2), (1, 3), (0, 4), (1, 4), (2, 3), (3, 4)])
    ).decode()


@pytest.mark.parametrize("sep", list(Separation))
def test_construct_payload_reads_back_as_its_blueprint(tmp_path, capsys, sep):
    # the blueprint rebuilt from a construct payload, its outer policy as
    # OuterPolicy.describe() prints it, constructs the same graph again
    path = tmp_path / "bp.txt"
    labels = eligible_outer_labels(sep, path_graph(4))
    explicit = emit_graph6(path_graph(len(labels))).decode()

    def construct(text: str) -> dict:
        path.write_text(text)
        status, out, _ = run(capsys, ["construct", str(path), "--format", "json"])
        assert status == 0, text
        return json.loads(out)

    for outer in ["empty", "complete", "random:7:0.3", explicit]:
        for remove in ["", f"remove={labels[0]}\n"]:
            first = construct(f"sep={sep.value}\nk=4\ninner=path\nouter={outer}\n{remove}")
            again = construct(
                f"sep={first['separation']}\nk={first['k']}\ninner={first['inner_graph6']}\n"
                f"outer={first['outer_policy']}\n"
                f"remove={','.join(map(str, first['removals']))}\n"
            )
            assert (again["graph6"], again["outer_labels"]) == (
                first["graph6"], first["outer_labels"]
            ), (outer, remove)


def test_verify(tmp_path, capsys):
    path = tmp_path / "bp.txt"
    path.write_text(BLUEPRINT_I3)
    status, out, _ = run(capsys, ["verify", str(path), "--kind", "id"])
    assert status == 0
    assert "passed = True" in out
    assert "number = 3" in out


def test_audit(capsys):
    status, out, _ = run(capsys, ["audit", "--kind", "id", "--n", "3"])
    assert status == 0
    assert "passed = True" in out


SAMPLED_AUDIT = ["audit", "--kind", "od", "--n", "8", "--mode", "sampled", "--seed", "7"]


def test_audit_sampled_payload(capsys):
    status, out, _ = run(capsys, SAMPLED_AUDIT + ["--trials", "150", "--format", "json"])
    payload = json.loads(out)
    assert status == 0
    assert (payload["mode"], payload["k"], payload["passed"]) == ("sampled", 3, True)
    assert payload["trials"] == 150 and payload["attained"] > 0
    assert payload["failures"] == []


def test_audit_sampled_reports_failing_graphs(capsys, monkeypatch):
    checked = []

    def failing(g, code, kind):
        checked.append(g)
        return StructureCheck(False, "planted")

    monkeypatch.setattr("sepcodes.extremal.extremal_structure_check", failing)
    status, out, _ = run(capsys, SAMPLED_AUDIT + ["--trials", "40", "--format", "json"])
    payload = json.loads(out)
    assert status == 1 and not payload["passed"]
    assert payload["attained"] == len(checked) > 0
    assert payload["failures"] == [emit_graph6(g).decode() for g in checked[:5]]


def test_audit_exhaustive_failure_exit_code(capsys, monkeypatch):
    without_last_label(monkeypatch)
    status, out, _ = run(capsys, ["audit", "--kind", "id", "--n", "5", "--format", "json"])
    assert status == 1
    assert json.loads(out) == {
        "command": "audit",
        "kind": "ID",
        "n": 5,
        "k": 3,
        "mode": "exhaustive",
        "passed": False,
        "attaining_count": 382,
        "family_count": 312,
        "family_class_count": 6,
        "missing": [],
        "unexpected": ["DFw", "DB{"],
    }


def test_audit_guard_exit_code(capsys):
    status, _, err = run(capsys, ["audit", "--kind", "id", "--n", "9"])
    assert status == 4
    assert "guarded" in err


def test_census(capsys):
    status, out, _ = run(capsys, ["census", "--kind", "ld", "--n", "3", "--format", "json"])
    assert status == 0
    payload = json.loads(out)
    assert payload["histogram"] == {"2": 7, "3": 1}
    assert payload["inadmissible"] == 0


def test_census_all_kinds_from_one_pass(capsys):
    status, out, _ = run(capsys, ["census", "--kind", "all", "--n", "5", "--format", "json"])
    assert status == 0
    payload = json.loads(out)
    assert [payload["command"], payload["kind"], payload["n"]] == ["census", "all", 5]
    assert list(payload["kinds"]) == [kind.name for kind in ALL_KINDS]
    for kind in ALL_KINDS:
        _, single, _ = run(capsys, ["census", "--kind", kind.name, "--n", "5", "--format", "json"])
        single = json.loads(single)
        assert payload["kinds"][kind.name] == {
            "histogram": single["histogram"],
            "inadmissible": single["inadmissible"],
        }
    status, text, _ = run(capsys, ["census", "--kind", "ALL", "--n", "3"])
    assert status == 0
    assert text.splitlines()[:5] == ["command = census", "kind = all", "n = 3", "kinds:", "  LD:"]


def test_census_guard(capsys):
    status, out, err = run(capsys, ["census", "--kind", "ld", "--n", "9"])
    assert (status, out) == (4, "")
    assert err == "error: census and isomorphism classes are guarded at order 8, got 9\n"


FINGERPRINT_KINDS = "ld ltd od otd id itd fd ftd".split()


@pytest.mark.parametrize(
    "argvs,digest",
    [
        pytest.param(
            [
                ["audit", "--kind", kind, "--n", str(n), "--format", "json"]
                for kind in FINGERPRINT_KINDS
                for n in range(1, 8)
            ],
            "37e5a73941b17e9e3354b783a1a64bbd259ba6be0ebef3f8c5ce81f7f28237ed",
            id="exhaustive",
        ),
        pytest.param(
            [
                ["audit", "--kind", kind, "--n", str(n), "--mode", "sampled", "--seed", str(seed),
                 "--trials", "60", "--format", "json"]
                for kind in FINGERPRINT_KINDS
                for n, seed in [(6, 1), (7, 2), (8, 3)]
            ],
            "7571c7c8034132754f281561159c8073edede298a2196ecd6a0761cff23bba61",
            id="sampled",
        ),
        pytest.param(
            [
                ["census", "--kind", kind, "--n", str(n), "--format", "json"]
                for kind in ["all", *FINGERPRINT_KINDS]
                for n in range(1, 8)
            ],
            "497afba2f0a4b974c9b2edd8ed54b0a41279635764d08e87b29833ebd832e8f4",
            id="census",
        ),
        pytest.param(
            [
                ["count", "--k", str(k), "--format", fmt]
                for fmt in ("json", "text")
                for k in range(1, 9)
            ],
            "dc3991137248914f4a954d1b12f1a78de3b607c53838d1247ff1f4f4d7affad1",
            id="count",
        ),
    ],
)
def test_audit_and_census_payloads_stay_byte_identical(capsys, argvs, digest):
    # one sha256 over each call's argv, exit code and stdout, in order; the
    # digests pin every payload byte, so a refactor of the audit, census,
    # count or class generation that changes any of them fails here
    h = hashlib.sha256()
    for argv in argvs:
        status, out, _ = run(capsys, argv)
        h.update(f"{' '.join(argv)}\n{status}\n".encode())
        h.update(out.encode())
    assert h.hexdigest() == digest


def test_bounds(capsys):
    status, out, _ = run(capsys, ["bounds", "--kind", "ftd", "--n", "11"])
    assert status == 0
    assert "lower_bound = 4" in out

    status, out, _ = run(capsys, ["bounds", "--kind", "ld", "--k", "2"])
    assert status == 0
    assert "max_order = 5" in out


def test_bounds_requires_exactly_one(capsys):
    status, _, err = run(capsys, ["bounds", "--kind", "ld"])
    assert status == 2
    assert "exactly one" in err
    status, _, _ = run(capsys, ["bounds", "--kind", "ld", "--n", "4", "--k", "2"])
    assert status == 2


def test_bounds_guard(capsys):
    status, _, err = run(capsys, ["bounds", "--kind", "fd", "--k", "3"])
    assert status == 4
    assert "k >= 4" in err
    status, out, err = run(capsys, ["bounds", "--kind", "itd", "--k", "2"])
    assert status == 4
    assert "k >= 3" in err and not out
    # 2^k has about 6000 digits here, more than json or str will print
    status, out, err = run(capsys, ["bounds", "--kind", "ld", "--k", "20000"])
    assert status == 4
    assert "k <= 62" in err and not out


def test_jobs_below_one_is_rejected(capsys):
    for command in (["audit", "--kind", "ld", "--n", "4"], ["census", "--kind", "ld", "--n", "3"]):
        for jobs in ("0", "-2"):
            status, out, err = run(capsys, command + ["--jobs", jobs])
            assert status == 2
            assert "--jobs must be at least 1" in err and not out


@pytest.mark.parametrize("kind", [kind.name for kind in CodeKind])
def test_audit_jobs_change_nothing_and_start_no_pool(capsys, spy_pools, kind):
    # --jobs is still accepted, but the audit runs in the calling process
    command = ["audit", "--kind", kind, "--n", "6", "--format", "json"]
    one = run(capsys, command + ["--jobs", "1"])
    two = run(capsys, command + ["--jobs", "2"])
    # far above the CPU count, and still no pool
    many = run(capsys, command + ["--jobs", "100000"])
    assert two == many == one and one[0] == 0
    assert not spy_pools


def test_trials_below_one_is_rejected(capsys):
    for trials in ("0", "-3"):
        command = ["audit", "--kind", "id", "--n", "5", "--mode", "sampled", "--trials", trials]
        status, out, err = run(capsys, command)
        assert status == 2
        assert "--trials must be at least 1" in err and not out


def test_count(capsys):
    status, out, _ = run(capsys, ["count", "--k", "2", "--format", "json"])
    assert status == 0
    payload = json.loads(out)
    assert payload["eta"] == 2
    assert payload["admitting"] == {"L": 2, "O": 1, "I": 1, "F": 0}
    assert payload["construction_counts"]["L"] == 16


def test_output_is_byte_identical_across_runs(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text(K3_G6)
    outputs = []
    for _ in range(2):
        for fmt in ("text", "json"):
            _, out, _ = run(capsys, ["solve", str(path), "--kind", "od", "--format", fmt])
            outputs.append(out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]


def test_timing_goes_to_stderr(tmp_path, capsys):
    path = tmp_path / "k3.g6"
    path.write_text(K3_G6)
    _, out, err = run(capsys, ["solve", str(path), "--kind", "od", "--timing"])
    assert "wall_time_ms" in err
    assert "wall_time_ms" not in out


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main parses every call with one parser; each call of a sequence in one
    # process must print what the same argv prints in a fresh interpreter
    path = tmp_path / "p5.g6"
    path.write_bytes(emit_graph6(path_graph(5)))
    sequence = [
        ["solve", str(path), "--kind", "id", "--format", "json", "--budget", "100"],
        ["census", "--kind", "ld", "--n", "3", "--jobs", "0"],
        ["bounds", "--kind", "ld", "--no-such-flag"],
        ["bounds", "--kind", "ld", "--k", "3"],
        ["solve", str(path), "--kind", "ld"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(sepcodes.__file__).parent.parent))
    statuses = []
    for argv in sequence:
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            status = exc.code
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "sepcodes", *argv], env=env, capture_output=True, text=True
        )
        assert (status, out) == (fresh.returncode, fresh.stdout), argv
        statuses.append(status)
    assert statuses == [0, 2, 2, 0, 0]


def test_ci_smoke_step_passes(tmp_path):
    # the CI smoke step, run as written in a temporary directory: its
    # `run: |` block is cut from the workflow text (PyYAML is not a
    # dependency), and shell functions stand in for the installed entry
    # point and interpreter, so no command is rewritten
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    lines = workflow.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "name: Smoke-test" in line)
    key = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    assert "shell: bash" in map(str.strip, lines[start:key])  # hosted runs get pipefail

    def indent(line: str) -> int:
        return len(line) - len(line.lstrip())

    block = itertools.takewhile(
        lambda line: not line.strip() or indent(line) > indent(lines[key]), lines[key + 1:]
    )
    script = 'sepcodes() { "$PY" -m sepcodes "$@"; }\npython() { "$PY" "$@"; }\n'
    script += textwrap.dedent("\n".join(block))
    env = dict(
        os.environ, PY=sys.executable, PYTHONPATH=str(Path(sepcodes.__file__).parent.parent)
    )
    done = subprocess.run(
        ["bash", "-e", "-o", "pipefail", "-c", script],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_runs():
    # the python block of README.md's "Library quick tour", run as written,
    # so the README names only public API that exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_readme_install_block_covers_the_test_extra():
    # every package of pyproject's `test` extra is installed by a `pip
    # install` line of README.md's "Install and test" block, so following
    # the README gives a suite that collects
    root = Path(__file__).resolve().parents[1]
    extra = re.search(r"^test = \[(.*)\]$", (root / "pyproject.toml").read_text(), re.M)
    wanted = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in re.findall(r'"([^"]+)"', extra[1])}
    readme = (root / "README.md").read_text()
    block = readme.split("## Install and test", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    installed = {
        word
        for line in block.splitlines()
        if line.startswith("pip install")
        for word in line.split("#", 1)[0].split()[2:]
    }
    assert wanted and wanted <= installed, wanted - installed


def test_every_import_is_used():
    # no linter runs here, so this is the unused-import check: every name a
    # module of the package imports is read in that module, save those on
    # lines marked `noqa: F401`, which are kept bound only for the names
    # bench/tracer.py patches. It is also the dead-name check: every
    # top-level function and class, and every module-level private
    # assignment, is read by some module of the package or, if public,
    # imported by sepcodes/__init__.py, so none is kept for tests alone
    package = Path(sepcodes.__file__).parent
    unused, marked, defined, loaded = set(), set(), set(), set()
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
                continue
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined.update(
                (path.stem, name)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        noqa = "noqa: F401" in lines[node.end_lineno - 1]
                        (marked if noqa else unused).add((path.stem, name))
    assert not unused
    assert {(module, name) for module, name in defined if name not in loaded} == set()
    assert marked == {("extremal", "ProcessPoolExecutor"), ("solver", "is_admissible")}


MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
}


def test_no_function_mutates_module_state():
    # a memo in the package is a functools.cache, so no function keeps
    # state of its own at module level: none has a `global` statement,
    # stores or deletes through a subscript or attribute of a module-level
    # name, or calls a mutating method on one
    package = Path(sepcodes.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        module_names, functions = set(), []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append(node)
            elif isinstance(node, ast.ClassDef):
                functions += [f for f in node.body if isinstance(f, ast.FunctionDef)]
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                module_names.add(node.name)
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    module_names.add(sub.id)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    module_names.update((a.asname or a.name).split(".")[0] for a in sub.names)
        for function in functions:
            # names bound anywhere in the function, nested scopes included
            local = set()
            for sub in ast.walk(function):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                    local.add(sub.id)
                elif isinstance(sub, ast.arg):
                    local.add(sub.arg)
                elif isinstance(sub, ast.ExceptHandler) and sub.name:
                    local.add(sub.name)

            shared = module_names - local

            def module_level(node: ast.AST) -> bool:
                while isinstance(node, (ast.Subscript, ast.Attribute)):
                    node = node.value
                return isinstance(node, ast.Name) and node.id in shared

            where = (path.stem, function.name)
            for sub in ast.walk(function):
                if isinstance(sub, ast.Global):
                    found.add((*where, "global " + ", ".join(sub.names)))
                elif (
                    isinstance(sub, (ast.Subscript, ast.Attribute))
                    and isinstance(sub.ctx, (ast.Store, ast.Del))
                    and module_level(sub)
                ):
                    found.add((*where, ast.unparse(sub)))
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in MUTATING_METHODS
                    and module_level(sub.func.value)
                ):
                    found.add((*where, ast.unparse(sub.func)))
    assert found == set()
