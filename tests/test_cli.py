import csv
import io
import json
import os

import pytest

from bicover import covering, diagnostics, graphs
from bicover.cli import _METHODS, _sweep_row, _write, main
from bicover.covering import (balanced_bipartitions_covering, capacity,
                              parse_covering, verify)
from bicover.errors import DomainError, SizeLimitExceeded
from bicover.graphs import random_graph, serialize_graph


def _balanced(n, lam):
    """Guaranteed lambda and sweep capacity of the balanced table entry."""
    guarantee, capacity, _ = _METHODS["balanced"]
    return guarantee(n, lam), capacity(n, lam)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_and_verify_even_weight(tmp_path, capsys):
    out = tmp_path / "cover.json"
    code, stdout, _ = run(capsys, "construct", "--n", "4", "--lambda", "2",
                          "--method", "even-weight", "--out", str(out))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["schema_version"] == 1
    assert doc["report"]["capacity"] == 12
    assert doc["report"]["guaranteed_lambda"] == 2
    cov = parse_covering(out.read_text())
    assert capacity(cov) == 12
    sidecar = json.loads((tmp_path / "cover.report.json").read_text())
    assert sidecar["report"]["capacity"] == 12

    code, stdout, _ = run(capsys, "verify", str(out), "--n", "4", "--lambda", "2")
    assert code == 0
    assert json.loads(stdout)["report"]["min_multiplicity"] == 2

    code, stdout, _ = run(capsys, "verify", str(out), "--n", "4", "--lambda", "3")
    assert code == 1
    assert len(json.loads(stdout)["report"]["violating_pairs"]) == 6


def test_construct_guards(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--n", "4", "--lambda", "3",
                       "--method", "even-weight", "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert "lambda = 2" in err


@pytest.mark.parametrize("method,n,lam", [
    ("hadamard", 4, 2), ("balanced", 4, 2), ("gv", 8, 1), ("bch", 16, 4)])
def test_construct_verify_round_trip(tmp_path, capsys, method, n, lam):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "construct", "--n", str(n), "--lambda", str(lam),
                     "--method", method, "--out", str(out))
    assert code == 0
    code, _, _ = run(capsys, "verify", str(out), "--n", str(n), "--lambda", str(lam))
    assert code == 0


def test_construct_coloring_and_graph_verify(tmp_path, capsys):
    g = random_graph(12, 0.5, 3)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(g))
    out = tmp_path / "cov.json"
    code, _, _ = run(capsys, "construct", "--lambda", "1", "--method", "coloring",
                     "--graph", str(gpath), "--out", str(out))
    assert code == 0
    code, _, _ = run(capsys, "verify", str(out), "--graph", str(gpath),
                     "--lambda", "1")
    assert code == 0
    # ground-set mismatch is a usage error
    g2 = tmp_path / "g2.json"
    g2.write_text(serialize_graph(random_graph(5, 0.5, 1)))
    code, _, _ = run(capsys, "verify", str(out), "--graph", str(g2), "--lambda", "1")
    assert code == 2


def test_verify_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad), "--n", "2", "--lambda", "1")
    assert code == 2 and "error" in err


def test_bounds_json_and_table(capsys, tmp_path):
    code, stdout, _ = run(capsys, "bounds", "--n", "16", "--lambda", "3")
    assert code == 0
    entries = {e["name"]: e for e in json.loads(stdout)["report"]["entries"]}
    assert entries["edge-count"]["value"] == 90
    assert abs(entries["binomial-tail"]["value"] - 96) < 1e-9
    code, stdout, _ = run(capsys, "bounds", "--n", "8", "--lambda", "1",
                          "--format", "table")
    assert code == 0
    assert "even-weight" in stdout and "32" in stdout
    gpath = tmp_path / "c5.json"
    gpath.write_text('{"n":5,"edges":[[1,2],[2,3],[3,4],[4,5],[1,5]]}')
    code, stdout, _ = run(capsys, "bounds", "--graph", str(gpath))
    entries = {e["name"]: e for e in json.loads(stdout)["report"]["entries"]}
    assert abs(entries["degree"]["value"] - 3.6848) < 1e-3
    assert abs(entries["independence"]["value"] - 6.6096) < 1e-3


def test_exact_command(capsys):
    code, stdout, _ = run(capsys, "exact", "--n", "3", "--lambda", "1")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "optimal" and doc["value"] == 5
    witness = parse_covering(json.dumps(doc["witness"]))
    assert verify(witness, 3, 1).ok
    code, stdout, _ = run(capsys, "exact", "--n", "4", "--lambda", "1",
                          "--node-limit", "5")
    assert code == 1
    assert json.loads(stdout)["status"] == "bracket"


def test_proofcheck_command(tmp_path, capsys):
    out = tmp_path / "h.json"
    run(capsys, "construct", "--n", "4", "--lambda", "2", "--method", "hadamard",
        "--out", str(out))
    code, stdout, _ = run(capsys, "proofcheck", str(out), "--n", "4",
                          "--lambda", "2", "--exhaustive")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["ok"] and {c["check"] for c in doc["checks"]} == {
        "tail-sum", "event-disjointness"}
    # invalid covering: proofcheck fails without raising
    code, stdout, _ = run(capsys, "proofcheck", str(out), "--n", "4", "--lambda", "3")
    assert code == 1
    assert json.loads(stdout)["covering_valid"] is False


def test_proofcheck_verifies_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = covering.verify

    def counted(cov, target, lam):
        calls.append(lam)
        return real(cov, target, lam)

    monkeypatch.setattr(covering, "verify", counted)
    monkeypatch.setattr(diagnostics, "verify", counted)
    out = tmp_path / "h.json"
    run(capsys, "construct", "--n", "8", "--lambda", "4", "--method", "hadamard",
        "--out", str(out))
    calls.clear()
    code, stdout, _ = run(capsys, "proofcheck", str(out), "--n", "8",
                          "--lambda", "4")
    assert code == 0 and len(json.loads(stdout)["checks"]) == 3
    assert calls == [4]


def test_proofcheck_graph_mode(tmp_path, capsys):
    g = random_graph(10, 0.4, 2)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(g))
    out = tmp_path / "cov.json"
    run(capsys, "construct", "--lambda", "1", "--method", "coloring",
        "--graph", str(gpath), "--out", str(out))
    code, stdout, _ = run(capsys, "proofcheck", str(out), "--graph", str(gpath))
    assert code == 0
    doc = json.loads(stdout)
    assert {c["check"] for c in doc["checks"]} == {
        "event-overlap", "independent-event-sets"}


def test_sweep_csv(capsys):
    code, stdout, _ = run(capsys, "sweep", "--n-list", "2,4,8",
                          "--lambda-list", "1,2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    assert len(rows) == 6
    for row in rows:
        assert float(row["best_capacity"]) >= float(row["lb_edge_count"]) - 1e-9
        assert float(row["best_capacity"]) >= float(row["lb_tail"]) - 1e-9
        if row["exact"]:
            assert float(row["lb_tail"]) - 1e-9 <= float(row["exact"]) <= float(row["best_capacity"])


def test_sweep_json(capsys):
    code, stdout, _ = run(capsys, "sweep", "--n-list", "4", "--lambda-list", "2",
                          "--c", "0.25")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert rows[0]["best_construction"] in ("even-weight", "hadamard", "balanced")
    assert rows[0]["best_capacity"] == 12 and rows[0]["exact"] == 12


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "4", "--lambda", "2", "--method", "nope",
              "--out", "x.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "0", "--lambda", "1", "--method", "gv", "--out", "x.json"],
    ["construct", "--n", "-4", "--lambda", "1", "--method", "balanced",
     "--out", "x.json"],
    ["construct", "--n", "4", "--lambda", "0", "--method", "gv", "--out", "x.json"],
    ["verify", "c.json", "--n", "4", "--lambda", "0"],
    ["bounds", "--n", "4", "--lambda", "-1"],
    ["bounds", "--graph", "g.json", "--limit", "0"],
    ["exact", "--n", "3", "--lambda", "1", "--node-limit", "0"],
    ["exact", "--n", "3", "--lambda", "1", "--max-capacity", "0"],
    ["exact", "--n", "3", "--lambda", "1", "--max-blocks", "0"],
    ["proofcheck", "c.json", "--n", "4", "--sampled", "--trials", "0"],
    ["proofcheck", "c.json", "--graph", "g.json", "--limit", "-2"],
    ["sweep", "--n-list", "4", "--lambda-list", "1", "--node-limit", "0"],
    ["sweep", "--n-list", "x", "--lambda-list", "1"],
    ["sweep", "--n-list", "0", "--lambda-list", "1"],
    ["sweep", "--n-list", "-3", "--lambda-list", "1"],
    ["sweep", "--n-list", "4", "--lambda-list", "2,0"],
    ["exact", "--n", "three", "--lambda", "1"],
])
def test_non_positive_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument" in capsys.readouterr().err


def test_overlapping_sides_are_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "overlap.json"
    bad.write_text('{"n": 3, "blocks": [{"left": [1, 2], "right": [2, 3]}]}')
    code, stdout, err = run(capsys, "verify", str(bad), "--n", "3", "--lambda", "1")
    assert code == 2 and stdout == ""
    assert "overlap" in err


def test_rewrite_leaves_exactly_the_new_bytes(tmp_path, capsys):
    out = tmp_path / "c.json"
    sidecar = tmp_path / "c.report.json"
    argv = ("construct", "--n", "6", "--lambda", "2", "--method", "even-weight",
            "--out", str(out))
    run(capsys, *argv)
    fresh = out.read_bytes(), sidecar.read_bytes()
    out.write_bytes(b"x" * (3 * len(fresh[0])))
    sidecar.write_bytes(b"y" * (3 * len(fresh[1])))
    assert run(capsys, *argv)[0] == 0
    assert (out.read_bytes(), sidecar.read_bytes()) == fresh


def test_write_to_a_device_does_not_raise():
    _write(os.devnull, "{}\n")


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "4", "--lambda", "2", "--method", "even-weight",
     "--out", "x.json"],
    ["sweep", "--n-list", "4", "--lambda-list", "1", "--format", "csv",
     "--out", "x.csv"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    argv[-1] = str(tmp_path / "missing-dir" / argv[-1])
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_balanced_capacity_formula(n):
    assert _balanced(n, 1)[1] == capacity(balanced_bipartitions_covering(n))


def test_balanced_applicability():
    with pytest.raises(DomainError):
        _balanced(5, 1)
    assert _balanced(6, 6)[0] == 6
    with pytest.raises(DomainError):
        _balanced(6, 7)
    assert _balanced(22, 1)[1] == 22 * 352716          # C(22, 11) / 2 blocks
    with pytest.raises(SizeLimitExceeded):             # C(24, 12) / 2 > 2^20
        _balanced(24, 1)
    assert _sweep_row(6, 6, None, 4, 1000)["best_construction"] == "balanced"
    assert _sweep_row(6, 7, None, 4, 1000)["best_construction"] != "balanced"


def test_sweep_lists_skip_empty_items_and_keep_n_1_semantic(capsys):
    code, stdout, _ = run(capsys, "sweep", "--n-list", "2,4,", "--lambda-list", "1")
    assert code == 0 and len(json.loads(stdout)["rows"]) == 2
    code, _, err = run(capsys, "sweep", "--n-list", "1", "--lambda-list", "1")
    assert code == 1 and err.startswith("error: need n >= 2")


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "bounds", "--n", "4"])
    assert exc.value.code == 2
    code, stdout, _ = run(capsys, "bounds", "--n", "4")
    assert code == 0 and "threads" not in json.loads(stdout)["config"]


def test_sweep_row_builds_no_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep built a covering block")

    monkeypatch.setattr(covering.BipartiteBlock, "__init__", refuse)
    for n in (2, 3, 4, 6, 8, 16, 22, 24, 64, 256):
        for lam in range(1, 6):
            assert _sweep_row(n, lam, 0.25, 1, 1000)["best_capacity"] is not None


def test_coloring_parses_the_graph_once(tmp_path, capsys, monkeypatch):
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(random_graph(20, 0.5, 4)))
    calls = []
    real = graphs.parse_graph
    monkeypatch.setattr(graphs, "parse_graph",
                        lambda text: calls.append(1) or real(text))
    code, _, _ = run(capsys, "construct", "--lambda", "1", "--method", "coloring",
                     "--graph", str(gpath), "--out", str(tmp_path / "c.json"))
    assert code == 0 and len(calls) == 1
