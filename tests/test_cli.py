import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicover import cli, codes, covering, diagnostics, exact, graphs
from bicover.cli import (_METHODS, _PAIR_BATCH, _json_text, _sweep_row,
                         _write, build_parser, main)
from bicover.codes import even_weight_code
from bicover.covering import (balanced_bipartitions_covering, capacity,
                              code_to_covering, parse_covering,
                              serialize_covering, verify)
from bicover.errors import DomainError, InvalidCovering, SizeLimitExceeded
from bicover.graphs import random_graph, serialize_graph

import reference_paths


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


@pytest.mark.parametrize("argv,message", [
    (["construct", "--n", "5", "--lambda", "1", "--method", "coloring",
      "--graph", "g.json", "--out", "out.json"], "--n 5 disagrees"),
    (["verify", "c.json", "--graph", "g.json", "--n", "5", "--lambda", "1"],
     "--n 5 disagrees"),
    (["proofcheck", "c.json", "--graph", "g.json", "--n", "5"], "--n 5 disagrees"),
    (["bounds", "--graph", "g.json", "--n", "5"], "--n 5 disagrees"),
    (["proofcheck", "c.json", "--graph", "g.json", "--lambda", "3"], "lambda = 1"),
    (["bounds", "--graph", "g.json", "--lambda", "3"], "lambda = 1"),
])
def test_graph_commands_refuse_disagreeing_flags(tmp_path, capsys, monkeypatch,
                                                 argv, message):
    monkeypatch.chdir(tmp_path)
    g = random_graph(8, 0.5, 2)
    (tmp_path / "g.json").write_text(serialize_graph(g))
    _write("c.json", covering.serialize_covering(
        covering.coloring_to_covering(g, graphs.greedy_coloring(g))))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert message in err
    assert not (tmp_path / "out.json").exists()
    # The same command with the flag agreeing with the graph runs.
    fixed = [{"5": "8", "3": "1"}.get(a, a) for a in argv]
    assert run(capsys, *fixed)[0] == 0


def test_graph_verify_takes_any_lambda(tmp_path, capsys):
    g = random_graph(8, 0.5, 2)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize_graph(g))
    cpath = tmp_path / "c.json"
    _write(str(cpath), covering.serialize_covering(
        covering.coloring_to_covering(g, graphs.greedy_coloring(g))))
    code, stdout, _ = run(capsys, "verify", str(cpath), "--graph", str(gpath),
                          "--n", "8", "--lambda", "3")
    assert code == 1
    assert json.loads(stdout)["report"]["violating_pairs"]


@pytest.mark.parametrize("argv", [
    ["verify", "c.json", "--n", "5", "--lambda", "2"],
    ["proofcheck", "c.json", "--n", "5", "--lambda", "2"],
    ["proofcheck", "c.json", "--graph", "g5.json"],
])
def test_ground_set_mismatch_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    # c.json covers 4 vertices; every command refuses a 5-vertex target alike.
    monkeypatch.chdir(tmp_path)
    _write("c.json", serialize_covering(code_to_covering(even_weight_code(4), 4)))
    (tmp_path / "g5.json").write_text(serialize_graph(random_graph(5, 0.5, 1)))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert "covering on 4 vertices" in err


def test_verify_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", str(bad), "--n", "2", "--lambda", "1")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "error: cannot read f.json: 'utf-8' codec can't decode"),
    (b"[" * 200_000, "error: invalid JSON: maximum recursion depth exceeded"),
])
@pytest.mark.parametrize("argv", [
    ["verify", "f.json", "--n", "2", "--lambda", "1"],
    ["bounds", "--graph", "f.json"],
])
def test_unreadable_input_is_a_parse_error(tmp_path, capsys, monkeypatch,
                                           content, message, argv):
    # A file that is not UTF-8, or nested past the decoder's limit, exits 2.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_bytes(content)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(message)


@pytest.mark.parametrize("doc, argv", [
    ('{"n": %s, "blocks": []}', ["verify", "f.json", "--n", "2", "--lambda", "1"]),
    ('{"n": %s, "edges": []}', ["bounds", "--graph", "f.json"]),
])
def test_huge_integer_is_a_parse_error(tmp_path, capsys, monkeypatch, doc, argv):
    # The decoder refuses to convert an integer of more than 4300 digits.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(doc % ("1" * 5000))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("n", ["2147483648", "12345678901234567890"])
@pytest.mark.parametrize("edges", ["[]", "[[1, 2]]"])
@pytest.mark.parametrize("argv", [
    ["bounds", "--graph", "g.json"],
    ["verify", "c.json", "--graph", "g.json", "--lambda", "1"],
])
def test_graph_past_the_index_range_is_a_parse_error(tmp_path, capsys, monkeypatch,
                                                     n, edges, argv):
    # n >= 2^31: the bulk reader passes the text on, and the json path refuses it.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text('{"n": %s, "edges": %s}' % (n, edges))
    (tmp_path / "c.json").write_text(serialize_covering(balanced_bipartitions_covering(2)))
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (2, "", f'error: "n" must be below 2^31, got {n}\n')


@pytest.mark.parametrize("n", [2**31, 10**12, 2**64 + 3])
@pytest.mark.parametrize("blocks", ['[]', '[{"left": [1], "right": [2]}]'])
def test_covering_past_the_index_range_is_a_parse_error(tmp_path, capsys, n, blocks):
    # n >= 2^31 is refused before the side arrays, sized by n, are allocated.
    path = tmp_path / "c.json"
    path.write_text('{"n": %d, "blocks": %s}' % (n, blocks))
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, "verify", str(path), "--n", "2",
                                "--lambda", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout, err) == (2, "", f'error: "n" must be below 2^31, got {n}\n')
    assert peak < 16 * 2**20


# The cap patched to 1 MiB: at n = 70 000 the bulk reader takes the
# canonical text, its planes bounded by the text, and ``from_words``
# refuses; at n = 600 000 (1.2 MB of words for one block) and in the
# indented text the json path refuses before it sizes an array by n.
@pytest.mark.parametrize("n", [70_000, 600_000])
@pytest.mark.parametrize("blocks", ["[]", '[{"left": [1], "right": [2]}]'])
@pytest.mark.parametrize("indent", [None, 1])
def test_oversize_covering_exits_1_before_it_allocates(tmp_path, capsys, monkeypatch,
                                                       n, blocks, indent):
    monkeypatch.setattr(covering, "COVERING_BYTE_CAP", 1 << 20)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(json.loads('{"n": %d, "blocks": %s}' % (n, blocks)),
                               indent=indent))
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, "verify", str(path), "--n", "2",
                                "--lambda", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = len(json.loads(blocks))
    assert (code, stdout, err) == (
        1, "", f"error: a covering with n = {n} and m = {m} takes "
        f"{2 * (n + 1) * m + 16 * (n + 1)} bytes of words and masks, "
        "over the cap of 1048576\n")
    assert peak < 1 << 20


def test_bounds_refuses_an_oversize_graph_before_sizing_by_n(tmp_path, capsys):
    # The size limit of the exact independence numbers is checked before
    # the degrees, whose count array is sized by n.
    path = tmp_path / "g.json"
    path.write_text('{"n": 10000000, "edges": []}')
    tracemalloc.start()
    try:
        code, stdout, err = run(capsys, "bounds", "--graph", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, stdout, err) == (1, "", "error: exact independence numbers "
                                   "limited to n <= 40, got n = 10000000\n")
    assert peak < 16 * 2**20


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
    # Five nodes refute nothing, but Hansel's bound 8 meets the capacity of
    # the best construction, which is then the optimum's witness.
    code, stdout, _ = run(capsys, "exact", "--n", "4", "--lambda", "1",
                          "--node-limit", "5")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "optimal" and doc["value"] == 8
    witness = parse_covering(json.dumps(doc["witness"]))
    assert capacity(witness) == 8 and verify(witness, 4, 1).ok
    # The optimum of K_3^11 has 17 blocks; no block count is capped.
    code, stdout, _ = run(capsys, "exact", "--n", "3", "--lambda", "11")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["status"] == "optimal" and doc["value"] == 50
    assert len(doc["witness"]["blocks"]) == 17
    assert verify(parse_covering(json.dumps(doc["witness"])), 3, 11).ok


@pytest.mark.parametrize("argv,bracket", [
    (["--n", "7", "--lambda", "1", "--node-limit", "20000"], [20, 21]),
    (["--n", "3", "--lambda", "11", "--max-capacity", "10"], [50, 51]),
])
def test_exact_bracket_upper_is_the_best_construction(capsys, argv, bracket):
    code, stdout, _ = run(capsys, "exact", *argv)
    assert code == 1
    doc = json.loads(stdout)
    assert doc["status"] == "bracket" and doc["value"] is None
    assert [doc["lower"], doc["upper"]] == bracket
    assert doc["witness"] is None


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


def test_proofcheck_accepts_the_empty_k1_covering_at_any_lambda(tmp_path, capsys):
    # K_1 has no pairs, so every vertex event has probability 1 at any r.
    path = tmp_path / "k1.json"
    path.write_text('{"n": 1, "blocks": []}')
    for lam in (1, 3, 8):
        code, stdout, _ = run(capsys, "proofcheck", str(path), "--n", "1",
                              "--lambda", str(lam))
        assert code == 0
        checks = {c["check"]: c for c in json.loads(stdout)["checks"]}
        assert checks["tail-sum"]["sum"] == "1/1"


# gv at n = 2040, lambda = 5 has 20 blocks, the exhaustive limit.
@pytest.mark.parametrize("method,n,lam,blocks", [("bch", 2048, 4, 16),
                                                 ("even-weight", 8192, 2, 14),
                                                 ("gv", 2040, 5, 20)])
def test_exhaustive_proofcheck_at_large_n(tmp_path, capsys, method, n, lam, blocks):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "construct", "--n", str(n), "--lambda", str(lam),
                     "--method", method, "--out", str(out))
    assert code == 0 and len(json.loads(out.read_text())["blocks"]) == blocks
    code, stdout, _ = run(capsys, "proofcheck", str(out), "--n", str(n),
                          "--lambda", str(lam), "--exhaustive")
    doc = json.loads(stdout)
    assert code == 0 and doc["ok"]
    assert {c["check"] for c in doc["checks"]} >= {"tail-sum", "event-disjointness"}
    for check in doc["checks"]:
        assert check["ok"] and check["violations"] == []
    sweep = next(c for c in doc["checks"] if c["check"] == "event-disjointness")
    assert sweep["mode"] == "exhaustive"
    assert sweep["details"] == {"vectors": 1 << blocks, "double_occurrences": 0}


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


def test_sweep_prints_only_backed_bch_bounds(capsys):
    code, stdout, _ = run(capsys, "sweep", "--n-list", "2,3,4,7,8,16,64",
                          "--lambda-list", "1,2,3,4,5,9,11",
                          "--exact-max-n", "3")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert any(row["ub_bch"] is not None for row in rows)
    assert any(row["exact"] is not None for row in rows)
    for row in rows:
        if row["ub_bch"] is not None:
            assert row["ub_bch"] >= row["lb_edge_count"]
            assert row["exact"] is None or row["ub_bch"] >= row["exact"]


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "4", "--lambda", "2", "--method", "nope",
              "--out", "x.json"])
    assert exc.value.code == 2
    usage = "usage: bicover [-h] {construct,verify,bounds,exact,proofcheck,sweep} ..."
    for argv, message in (
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: command"),
            (["bounds", "--bogus"], "unrecognized arguments: --bogus")):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == usage and err[1].startswith("bicover: error: " + message)


# Per command, the argv after its name: a required argument missing (bounds
# has none, so an option lacks its value), an unknown argument, and a bad value.
PARSE_ERRORS = {
    "construct": (["--n", "4"],
                  ["--n", "4", "--lambda", "1", "--method", "gv", "--out", "x.json",
                   "--bogus"],
                  ["--n", "4", "--lambda", "1", "--method", "nope", "--out", "x.json"]),
    "verify": ([], ["c.json", "--lambda", "1", "--bogus"],
               ["c.json", "--lambda", "0"]),
    "bounds": (["--n"], ["--n", "4", "--bogus"], ["--format", "xml"]),
    "exact": (["--n", "3"], ["--n", "3", "--lambda", "1", "--max-blocks", "16"],
              ["--n", "three", "--lambda", "1"]),
    "proofcheck": (["--n", "4"], ["c.json", "--bogus"],
                   ["c.json", "--trials", "0"]),
    "sweep": (["--n-list", "4"], ["--n-list", "4", "--lambda-list", "1", "--bogus"],
              ["--n-list", "x", "--lambda-list", "1"]),
}


def parse_outcome(capsys, parser, argv):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as e:
        outcome = e.code
    out = capsys.readouterr()
    return outcome, out.out, out.err


def no_second_parser(monkeypatch):
    """Build the cached parser, then refuse any further ArgumentParser."""
    build_parser()

    def refuse(*args, **kwargs):
        raise AssertionError("a second parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, command):
    # The one parser that serves `command` (cached, and reused across calls)
    # gives the results, stdout and stderr of a freshly built full parser.
    assert sorted(PARSE_ERRORS) == sorted(cli._COMMANDS)
    argvs = [[command, *tail] for tail in (["--help"], [], *PARSE_ERRORS[command])]
    fresh = [parse_outcome(capsys, build_parser.__wrapped__(), argv) for argv in argvs]
    no_second_parser(monkeypatch)
    for _ in range(2):
        for argv, want in zip(argvs, fresh):
            assert parse_outcome(capsys, build_parser(), argv) == want


@pytest.mark.parametrize("argv,command", [
    (["bounds", "--n", "4"], "bounds"), (["bounds", "--bogus"], "bounds"),
    ([], None), (["--help"], None), (["frobnicate"], None),
    (["--threads", "2", "bounds"], None)])
def test_main_builds_the_invoked_command_only(capsys, monkeypatch, argv, command):
    # main parses with the cached full parser and builds no parser of its
    # own, however often it runs; that parser names the invoked command
    # (None where the top level refuses the argv) as a fresh one does.
    def invoked(parser):
        try:
            return parser.parse_known_args(argv)[0].command
        except SystemExit:
            return None

    want = parse_outcome(capsys, build_parser.__wrapped__(), argv)
    assert invoked(build_parser.__wrapped__()) == command
    capsys.readouterr()
    no_second_parser(monkeypatch)
    for _ in range(2):
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert parse_outcome(capsys, build_parser(), argv) == want
    assert invoked(build_parser()) == command


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
    ["exact", "--n", "3", "--lambda", "1", "--max-blocks", "16"],
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
    assert _sweep_row(6, 6, None)["best_construction"] == "balanced"
    assert _sweep_row(6, 7, None)["best_construction"] != "balanced"


def test_balanced_refuses_huge_n_before_any_binomial(tmp_path, capsys,
                                                   monkeypatch):
    # C(100000, 50000)/2 has more digits than Python prints from an int.
    out = tmp_path / "c.json"
    code, stdout, err = run(capsys, "construct", "--method", "balanced", "--n",
                            "100000", "--lambda", "1", "--out", str(out))
    assert (code, stdout) == (1, "") and not out.exists()
    assert err == "error: C(100000, 50000)/2 blocks exceed the cap of 1048576\n"

    def no_binomial(*args):
        raise AssertionError("binomial computed")
    monkeypatch.setattr("bicover.cli.comb", no_binomial)
    monkeypatch.setattr("bicover.covering.comb", no_binomial)
    for n in (26, 100000):
        with pytest.raises(SizeLimitExceeded):
            _balanced(n, 1)
    assert _sweep_row(100000, 1, None)["best_construction"] == "gv"


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


def test_sweep_row_builds_no_block(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the sweep built a covering block")

    monkeypatch.setattr(covering.BipartiteBlock, "__init__", refuse)
    for n in (2, 3, 4, 6, 8, 16, 22, 24, 64, 256):
        for lam in range(1, 6):
            assert _sweep_row(n, lam, 0.25)["best_capacity"] is not None
    # The exact column, at every n up to --exact-max-n, builds no witness.
    code, stdout, _ = run(capsys, "sweep", "--n-list", "2,3,4,6",
                          "--lambda-list", "1,2,3,4,5", "--c", "0.25",
                          "--exact-max-n", "4")
    assert code == 0
    rows = json.loads(stdout)["rows"]
    assert all(row["best_capacity"] is not None for row in rows)
    assert [row["exact"] is not None for row in rows] == [True] * 15 + [False] * 5


def test_sweep_builds_each_n_tables_once(monkeypatch, capsys):
    built = []
    real = exact._table
    monkeypatch.setattr(exact, "_table", lambda n: built.append(n) or real(n))
    code, stdout, _ = run(capsys, "sweep", "--n-list", "2,3,4,3,8,2",
                          "--lambda-list", "1,2,3", "--exact-max-n", "4")
    assert code == 0
    assert built == [2, 3, 4]
    rows = json.loads(stdout)["rows"]
    assert [row["exact"] for row in rows] == [2, 4, 6, 5, 9, 14, 8, 12, 20,
                                              5, 9, 14, None, None, None,
                                              2, 4, 6]


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


def test_coloring_refuses_more_vertices_than_the_word_cap(tmp_path, capsys,
                                                         monkeypatch):
    # A coloring covering writes one word per vertex, so it shares the cap
    # of every code family.  The cap is lowered here; the refusal must come
    # before the coloring, which allocates by n.
    gpath, out = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(serialize_graph(random_graph(9, 0.5, 2)))
    monkeypatch.setattr(codes, "WORD_CAP", 8)

    def refuse(g):
        raise AssertionError("colored a graph past the cap")

    monkeypatch.setattr(graphs, "greedy_coloring", refuse)
    code, stdout, err = run(capsys, "construct", "--lambda", "1", "--method",
                            "coloring", "--graph", str(gpath), "--out", str(out))
    assert (code, stdout) == (1, "") and not out.exists()
    assert err == ("error: a coloring covering of 9 vertices exceeds the cap "
                   "of 8 words\n")
    monkeypatch.undo()
    monkeypatch.setattr(codes, "WORD_CAP", 9)  # n at the cap is still built
    code, _, _ = run(capsys, "construct", "--lambda", "1", "--method",
                     "coloring", "--graph", str(gpath), "--out", str(out))
    assert code == 0 and out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["bounds", "--graph", "{graph}"], ["--c", "0.5"]),
    (["bounds", "--n", "5"], ["--limit", "3"]),
    (["proofcheck", "{cover}", "--n", "4", "--lambda", "2"], ["--limit", "3"]),
    (["construct", "--n", "4", "--lambda", "2", "--method", "even-weight",
      "--out", "{out}"], ["--graph", "{graph}"]),
])
def test_flags_outside_their_mode_are_refused(tmp_path, capsys, argv, flag):
    paths = {"graph": tmp_path / "g.json", "cover": tmp_path / "c.json",
             "out": tmp_path / "o.json"}
    paths["graph"].write_text(serialize_graph(random_graph(10, 0.5, 1)))
    paths["cover"].write_text(serialize_covering(code_to_covering(even_weight_code(3), 4)))
    argv, flag = ([a.format(**paths) for a in args] for args in (argv, flag))
    code, stdout, err = run(capsys, *argv, *flag)
    assert code == 1 and stdout == "" and not paths["out"].exists()
    assert err.startswith(f"error: {flag[0]} ")
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and json.loads(stdout)["config"]


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_pipe_ends_without_a_traceback(buffered):
    # Buffered, the short output meets the closed pipe on the final flush;
    # unbuffered, on the first write inside main.
    read, write = os.pipe()
    os.close(read)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bicover.cli", "bounds", "--n", "5"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert b"BrokenPipeError" not in proc.stderr


_INTS = st.one_of(st.integers(-5, 10**6), st.integers())
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.text(),
                     st.floats(allow_nan=True, allow_infinity=True))
# Pairs of ints or bools, as the violation lists hold; other lengths, pairs
# holding a list, and two-character strings too.
_PAIRS = st.lists(st.one_of(st.lists(st.one_of(_INTS, st.booleans()),
                                     min_size=2, max_size=2),
                            st.tuples(_INTS, _INTS),
                            st.lists(_INTS, max_size=3),
                            st.tuples(_INTS, st.lists(_INTS, max_size=2)),
                            st.text(min_size=2, max_size=2)), max_size=6)
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                  st.floats(allow_nan=False))
_JSON = st.recursive(
    st.one_of(_SCALARS, _PAIRS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(obj=_JSON)
# Int pairs on either side of one formatted batch, as violation lists hold.
@example(obj={"pairs": []})
@example(obj={"pairs": [[-1, 10**30]]})
@example(obj={"pairs": [[v, -v] for v in range(_PAIR_BATCH)]})
@example(obj={"pairs": [(v, 2 * v) for v in range(_PAIR_BATCH + 1)]})
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [[True, False], [1, 2]], [], {}, [[]], {"a": []}, [[1, 2, 3], [4, 5]],
    [float("nan"), float("inf"), -float("inf")], {"é": "ü ☃"},
    {1: [1, 2], None: {}, True: [[1, 2]]}, {"pairs": [(1, 2), (3, 4)]},
    {"pairs": [[v, 2 * v] for v in range(2 * _PAIR_BATCH + 1)]},
    [[1, 2], [3, True]], [(1, 2), [3, 4, 5]], [[1, 2], [3]], [[1, [2]], [3, 4]],
    [[1, 2], "ab"], [[1, 2], {"a": 1, "b": 2}], [(1, 2), (3, 4.0)],
    [[1, 2]] * _PAIR_BATCH + [[1, 2, 3]]])
def test_json_text_edge_cases(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


def _report_with_pairs(k, graph):
    """A verify report listing exactly k violating pairs: no block separates
    any pair of 129 vertices (8256 pairs), on the graph of the first k pairs,
    or on the complete target with its listing cut to the first k."""
    n = 129
    cov = covering.Covering(n)
    if graph:
        return verify(cov, graphs.Graph(n, list(combinations(range(1, n + 1), 2))[:k]), 1)
    report = verify(cov, n, 1)
    return dataclasses.replace(report, violations=report.violations[:k])


# Pair counts on either side of one and two batches.  Each listing is also
# rendered as int32 and uint64 arrays, and with its labels 1..129 spread
# out to end at 2^31 - 1: those span more values than the array holds and
# take the %-format, the dense labels take the label table.
@pytest.mark.parametrize("k", [0, 1, _PAIR_BATCH - 1, _PAIR_BATCH,
                               _PAIR_BATCH + 1, 2 * _PAIR_BATCH + 1])
@pytest.mark.parametrize("graph", [False, True])
def test_json_text_renders_violation_arrays(k, graph):
    report = _report_with_pairs(k, graph)
    assert len(report.violations) == k
    doc = report._payload()
    listed = {**doc, "violating_pairs": report.violating_pairs}
    assert _json_text(doc) == json.dumps(listed, indent=2)
    assert (_json_text({"schema_version": 1, "report": doc})
            == json.dumps({"schema_version": 1, "report": listed}, indent=2))
    for sparse in (False, True):
        pairs = report.violations
        if sparse:
            pairs = 2**31 - 1 - 40_000 * (129 - pairs)
        if k:
            assert (int(pairs.max()) - int(pairs.min()) >= pairs.size) == sparse
        for dtype in (np.int64, np.int32, np.uint64):
            array = pairs.astype(dtype)
            assert (_json_text({"report": {**doc, "violating_pairs": array}})
                    == json.dumps({"report": {**listed,
                                              "violating_pairs": pairs.tolist()}},
                                  indent=2))


def test_cli_verify_never_builds_the_pair_tuples(tmp_path, capsys, monkeypatch):
    # A BCH covering with one block deleted has pairs below lambda: the
    # listing, the exit code, the proof-check refusal and its count all come
    # from the report's array.
    source, damaged = tmp_path / "bch.json", tmp_path / "damaged.json"
    run(capsys, "construct", "--n", "64", "--lambda", "4", "--method", "bch",
        "--out", str(source))
    doc = json.loads(source.read_text())
    del doc["blocks"][0]
    damaged.write_text(json.dumps(doc))
    cov = parse_covering(damaged.read_text())
    expected = reference_paths.verify(cov, 64, 4).violating_pairs

    def refuse(report):
        raise AssertionError("violating_pairs read")

    monkeypatch.setattr(covering.CoverageReport, "violating_pairs", property(refuse))
    code, stdout, _ = run(capsys, "verify", str(damaged), "--n", "64", "--lambda", "4")
    with pytest.raises(InvalidCovering, match=f"; {len(expected)} pairs fall below 4"):
        diagnostics.check_tail_sum(cov, 4)
    code_check, _, _ = run(capsys, "proofcheck", str(damaged), "--n", "64",
                           "--lambda", "4")
    monkeypatch.undo()
    assert expected and (code, code_check) == (1, 1)
    assert json.loads(stdout)["report"]["violating_pairs"] == [list(p) for p in expected]


@pytest.mark.parametrize("lam", [4, 5])
@pytest.mark.parametrize("graph", [False, True])
def test_report_to_dict_is_json_ready(tmp_path, capsys, lam, graph):
    # A library caller dumps to_dict() as it is, and reads back the report
    # object the CLI prints: valid at lambda 4, with pairs below lambda 5.
    path, gpath = tmp_path / "bch.json", tmp_path / "g.json"
    run(capsys, "construct", "--n", "64", "--lambda", "4", "--method", "bch",
        "--out", str(path))
    gpath.write_text(serialize_graph(random_graph(64, 0.5, 3)))
    target = graphs.parse_graph(gpath.read_text()) if graph else 64
    report = verify(parse_covering(path.read_text()), target, lam)
    assert report.ok == (lam == 4)
    text = json.dumps(report.to_dict())
    flags = ["--graph", str(gpath)] if graph else ["--n", "64"]
    code, stdout, _ = run(capsys, "verify", str(path), *flags, "--lambda", str(lam))
    assert code == (0 if report.ok else 1)
    assert json.loads(text) == json.loads(stdout)["report"]


def test_json_text_refuses_numpy_pairs_like_json_dumps():
    obj = [[1, 2], [np.int64(3), 4]]
    with pytest.raises(TypeError) as ours:
        _json_text(obj)
    with pytest.raises(TypeError) as theirs:
        json.dumps(obj, indent=2)
    assert str(ours.value) == str(theirs.value)


# Only an integer array of two columns is rendered as a list of pairs.
@pytest.mark.parametrize("obj", [
    {"a": np.zeros((2, 3), dtype=np.int64)}, np.zeros((2, 2)), [np.arange(4)],
    np.zeros((2, 2), dtype=bool)])
def test_json_text_refuses_other_arrays_like_json_dumps(obj):
    with pytest.raises(TypeError) as ours:
        _json_text(obj)
    with pytest.raises(TypeError) as theirs:
        json.dumps(obj, indent=2)
    assert str(ours.value) == str(theirs.value)
