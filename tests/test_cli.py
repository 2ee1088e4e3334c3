import json
import os
import subprocess
import sys

import pytest

from gelfand_wgraphs import beissinger, gelfand, suites
from gelfand_wgraphs.cli import KL_CAP, main
from gelfand_wgraphs.perm import Involution


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_insert_examples(capsys):
    code, out, _ = run(capsys, "insert", "--algo", "cbs", "--tableau", "[[1,4],[3]]", "--pair", "2,5")
    assert code == 0 and json.loads(out) == [[1, 2, 5], [3, 4]]
    code, out, _ = run(capsys, "insert", "--algo", "rs", "--tableau", "[]", "--value", "5")
    assert code == 0 and json.loads(out) == [[5]]
    code, out, _ = run(capsys, "insert", "--algo", "rbs", "--tableau", "[[2,4],[3]]", "--pair", "5,5")
    assert code == 0 and json.loads(out) == [[2, 4, 5], [3]]
    code, out, _ = run(capsys, "insert", "--algo", "cbs", "--tableau", "[[1,4],[3]]",
                       "--pair", "2,5", "--transposed")
    assert code == 0 and json.loads(out) == [[1, 3, 4], [2, 5]]


def test_insert_reads_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text("[[1,3],[4]]")
    code, out, _ = run(capsys, "insert", "--algo", "rs", "--tableau", str(path), "--value", "2")
    assert code == 0 and json.loads(out) == [[1, 2], [3], [4]]


def test_insert_exit_codes(capsys):
    # malformed input -> 2
    code, _, err = run(capsys, "insert", "--algo", "rs", "--tableau", "[[1,", "--value", "5")
    assert code == 2 and err
    code, _, _ = run(capsys, "insert", "--algo", "rbs", "--tableau", "[[1,2]]", "--pair", "x,y")
    assert code == 2
    # JSON arrays of arrays that are not tableaux -> 2, with Tableau's message
    for text, msg in (('[["a"]]', "entries must be positive integers"),
                      ("[[2,1]]", "row 1 is not strictly increasing"),
                      ("[[]]", "empty rows are not allowed"),
                      ("[[1],[2,3]]", "row lengths must weakly decrease")):
        code, out, err = run(capsys, "insert", "--algo", "rs", "--tableau", text, "--value", "4")
        assert code == 2 and not out and msg in err, text
    # domain precondition (duplicate entry) -> 1
    code, _, err = run(capsys, "insert", "--algo", "rs", "--tableau", "[[1,2]]", "--value", "2")
    assert code == 1 and err
    code, _, _ = run(capsys, "insert", "--algo", "rbs", "--tableau", "[[1,2]]", "--pair", "5,3")
    assert code == 1
    # a value below 1 is not a tableau entry -> 1, like --algo rbs --pair 0,3
    for value in ("0", "-4"):
        code, out, err = run(capsys, "insert", "--algo", "rs", "--tableau", "[[1]]", "--value", value)
        assert code == 1 and not out and "entries must be positive integers" in err


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["insert", "--algo", "qs", "--tableau", "[]", "--value", "1"])
    assert exc.value.code == 2


def test_psi_cycles(capsys):
    code, out, _ = run(capsys, "psi", "--n", "6", "--cycles")
    doc = json.loads(out)
    assert code == 0 and doc["longest_cycle"] == 15
    assert sum(doc["cycle_sizes"]) == 76


def test_psi_orbit(capsys):
    code, out, _ = run(capsys, "psi", "--n", "4", "--orbit", "(1,4)")
    doc = json.loads(out)
    assert code == 0
    assert [e["cycles"] for e in doc["orbit"]] == ["(1,4)", "(2,4)", "(3,4)"]
    code, out, _ = run(capsys, "psi", "--n", "4", "--orbit", "4231")
    assert json.loads(out) == doc


def test_psi_orbit_malformed_exits_2(capsys):
    code, out, err = run(capsys, "psi", "--n", "4", "--orbit", "abc")
    assert code == 2 and not out and err
    code, _, _ = run(capsys, "psi", "--n", "4", "--orbit", "(1,4)")
    assert code == 0


def test_psi_orbit_of_a_faulty_psi_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(beissinger, "psi", lambda z: Involution.identity(4))
    code, out, err = run(capsys, "psi", "--n", "4", "--orbit", "(1,4)")
    assert code == 1 and not out
    assert err.count("\n") == 1 and "does not return within |I_4| = 10 steps" in err


def test_psi_cap_and_force(monkeypatch, capsys):
    # --cycles and --fixed-points enumerate I_n; the refusal comes before any work
    for mode in ("--cycles", "--fixed-points"):
        code, out, err = run(capsys, "psi", "--n", "11", mode)
        assert code == 3 and not out
        assert "exceeds the default cap 10" in err and "--force" in err
    # --force hands n=11 to the enumeration (stubbed: the real run takes minutes)
    calls = []
    monkeypatch.setattr(
        beissinger, "psi_cycle_stats",
        lambda n: calls.append(n) or beissinger.PsiStats(1, (), (1,)))
    code, out, _ = run(capsys, "psi", "--n", "11", "--cycles", "--force")
    assert code == 0 and json.loads(out)["longest_cycle"] == 1
    assert calls == [11]
    # one --orbit can take |I_n| steps, so it is capped too; the refusal
    # comes after the parse, before any psi step
    code, out, err = run(capsys, "psi", "--n", "12", "--orbit", "(1,2)")
    assert code == 3 and not out
    assert "exceeds the default cap 10" in err and "--force" in err
    code, _, _ = run(capsys, "psi", "--n", "12", "--orbit", "abc")
    assert code == 2
    code, out, _ = run(capsys, "psi", "--n", "12", "--orbit", "(1,2)", "--force")
    assert code == 0 and json.loads(out)["orbit"]


def test_psi_fixed_points(capsys):
    code, out, _ = run(capsys, "psi", "--n", "1", "--fixed-points")
    doc = json.loads(out)
    assert code == 0 and doc["fixed_points"] == [{"word": [1], "cycles": "()"}]
    code, out, _ = run(capsys, "psi", "--n", "5", "--fixed-points")
    assert [e["word"] for e in json.loads(out)["fixed_points"]] == [
        [1, 2, 3, 4, 5], [2, 1, 3, 4, 5]]


def test_graph_build_and_files(tmp_path, capsys):
    out_path, dot_path = tmp_path / "g.json", tmp_path / "g.dot"
    code, _, _ = run(capsys, "graph", "build", "--n", "2", "--variant", "row",
                     "--out", str(out_path), "--dot", str(dot_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["vertices"] == [[2, 1, 4, 3], [3, 4, 1, 2]] and doc["edges"] == []
    assert dot_path.read_text().startswith('digraph "row_2"')


def test_graph_molecules_cells(capsys):
    code, out, _ = run(capsys, "graph", "cells", "--n", "1", "--variant", "col")
    doc = json.loads(out)
    assert code == 0 and doc["cells"] == [[[2, 1]]]
    code, out, _ = run(capsys, "graph", "molecules", "--n", "3", "--variant", "row")
    assert code == 0 and len(json.loads(out)["molecules"]) == 3


def test_graph_classify_output(capsys):
    code, out, _ = run(capsys, "graph", "classify", "--n", "4", "--variant", "row")
    assert code == 0
    assert "molecules=cells: OK (fibers=5)" in out
    code, out, _ = run(capsys, "graph", "classify", "--n", "3", "--variant", "col")
    assert code == 0 and "molecules=fibers: OK" in out


def test_graph_cap_and_force(capsys):
    code, _, err = run(capsys, "graph", "build", "--n", "9", "--variant", "row")
    assert code == 3 and "--force" in err
    # --force lifts the cap (kept tiny here: the cap logic is what is tested)
    code, _, _ = run(capsys, "graph", "cells", "--n", "2", "--variant", "row", "--force")
    assert code == 0


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "1")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True
    code, out, _ = run(capsys, "verify", "--suite", "partners", "--n", "4")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "verify", "--suite", "conjecture", "--n", "4")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_kl_cap_and_force(monkeypatch, capsys):
    # the kl suite is capped like `gwg kl`; the refusal comes before any work
    for suite in ("kl", "all"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "7")
        assert code == 3 and not out
        assert f"exceeds the default cap {KL_CAP}" in err and "--force" in err
    code, out, _ = run(capsys, "verify", "--suite", "kl", "--n", "5")
    assert code == 0 and json.loads(out)["passed"] is True
    # the other suites cap at the graph cap
    code, out, _ = run(capsys, "verify", "--suite", "partners", "--n", "7")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, err = run(capsys, "verify", "--suite", "partners", "--n", "9")
    assert code == 3 and not out
    assert "exceeds the default cap 8" in err and "--force" in err
    # --force hands n to the suites (stubbed: the real kl run takes minutes)
    calls = []
    monkeypatch.setattr(suites, "run_suite",
                        lambda name, n: calls.append((name, n)) or {"passed": True})
    for suite, n in (("kl", "7"), ("all", "7"), ("partners", "9")):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--n", n, "--force")
        assert code == 0 and json.loads(out)["passed"] is True
    assert calls == [("kl", 7), ("all", 7), ("partners", 9)]


def test_kl_export(capsys):
    code, out, _ = run(capsys, "kl", "--n", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["basis"]["21"] == [[[1, 2], [[-1, 1]]], [[2, 1], [[0, 1]]]]
    assert doc["mu"] == [[[1, 2], [2, 1], 1]]
    code, _, _ = run(capsys, "kl", "--n", "7")
    assert code == 3


def test_cli_deterministic(capsys):
    first = run(capsys, "graph", "build", "--n", "3", "--variant", "col")
    second = run(capsys, "graph", "build", "--n", "3", "--variant", "col")
    assert first == second


def test_console_entry_point():
    # the child finds the package where this process found it, installed or not
    src = os.path.dirname(os.path.dirname(gelfand.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gelfand_wgraphs.cli", "psi", "--n", "3", "--cycles"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["longest_cycle"] == 2


def test_graph_build_tables(tmp_path, capsys):
    tables = tmp_path / "tables.json"
    code, _, _ = run(capsys, "graph", "build", "--n", "3", "--variant", "col",
                     "--out", str(tmp_path / "g.json"), "--tables", str(tables))
    assert code == 0
    doc = json.loads(tables.read_text())
    assert doc["variant"] == "N" and doc["n"] == 3
    assert set(doc) == {"variant", "n", "vertices", "columns", "mu"}


@pytest.mark.parametrize("option", ["--out", "--dot", "--tables"])
def test_unwritable_output_exits_2(tmp_path, capsys, option):
    paths = {"--out": tmp_path / "g.json", "--dot": tmp_path / "g.dot",
             "--tables": tmp_path / "t.json"}
    paths[option] = tmp_path / "missing" / "x.json"  # no such directory
    argv = ["graph", "build", "--n", "3", "--variant", "row"]
    for opt, path in paths.items():
        argv += [opt, str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "cannot write output" in err and "missing" in err and "Traceback" not in err


@pytest.mark.parametrize("action, option", [
    ("classify", "--out"), ("classify", "--dot"), ("classify", "--tables"),
    ("molecules", "--tables"), ("cells", "--tables"),
])
def test_unused_output_option_exits_2(tmp_path, capsys, action, option):
    path = tmp_path / "t.json"
    code, out, err = run(capsys, "graph", action, "--n", "3", "--variant", "row",
                         option, str(path))
    assert code == 2 and not out
    assert err.strip() == f"{option} is not used by graph {action}"
    assert not path.exists()


def test_self_check_failure_exits_1(monkeypatch, capsys, fresh_tables, tmp_path):
    # the Gelfand graphs (the truncated recursion), their tables and the KL
    # tables (the full recursion) all run the one column self-check
    drivers = []

    def broken(self, z, col, store, depth=None):
        drivers.append("truncated" if depth else "full")
        raise RuntimeError("column (1, 2) is not unitriangular")

    monkeypatch.setattr(gelfand.ModuleTable, "_check_column", broken)
    tables = tmp_path / "t.json"
    for argv, driver in (
        (["graph", "classify", "--n", "3", "--variant", "row"], "truncated"),
        (["graph", "build", "--n", "3", "--variant", "row"], "truncated"),
        (["graph", "build", "--n", "3", "--variant", "row", "--tables", str(tables)], "full"),
        (["kl", "--n", "3"], "full"),
    ):
        drivers.clear()
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out, argv
        assert "not unitriangular" in err and "Traceback" not in err
        assert drivers == [driver], argv
    assert not tables.exists()
