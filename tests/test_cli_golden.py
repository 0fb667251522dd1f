"""Byte-level pins of the CLI: exit code, stdout, stderr and written files.

Each case of ``data/cli_golden.json`` runs ``main(argv)`` in a fresh empty
directory that holds only the case's input files, so relative ``--out``
paths make the echoed configuration, and with it every byte, reproducible.
To record the file anew from the current tree, run this module as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from bicover.cli import main
from bicover.codes import build_code
from bicover.covering import (code_to_covering, coloring_to_covering,
                              serialize_covering)
from bicover.graphs import greedy_coloring, random_graph, serialize_graph

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

_G = random_graph(12, 0.5, 3)
_GRAPH = {"g.json": serialize_graph(_G)}
_GRAPH_COVER = {**_GRAPH, "c.json": serialize_covering(
    coloring_to_covering(_G, greedy_coloring(_G)))}
_BCH_COVER = {"c.json": serialize_covering(
    code_to_covering(build_code("extended-bch", 16, 4), 16))}
# The smallest bch covering past one mask word: 74 blocks on 3 vertices.
_BCH_WIDE_COVER = {"c.json": serialize_covering(
    code_to_covering(build_code("extended-bch", 3, 33), 3))}


def _damaged(text):
    """A serialized covering without its first block."""
    d = json.loads(text)
    del d["blocks"][0]
    return json.dumps(d)


# Block 0 of the n = 64 bch covering taken out: 288 pairs fall below 4.
_BCH_DAMAGED_COVER = {"c.json": _damaged(serialize_covering(
    code_to_covering(build_code("extended-bch", 64, 4), 64)))}
_SWEEP = ["sweep", "--n-list", "2,3,4,5,6,8,16,22,24,64", "--lambda-list", "1,2,3"]

# (name, argv, input files); every construct method with at least one
# instance it refuses.
ARGV = [
    ("even-weight", ["construct", "--n", "6", "--lambda", "2", "--method",
                     "even-weight", "--out", "c.json"], {}),
    ("even-weight-lambda-3", ["construct", "--n", "6", "--lambda", "3",
                              "--method", "even-weight", "--out", "c.json"], {}),
    ("even-weight-n-1", ["construct", "--n", "1", "--lambda", "1", "--method",
                         "even-weight", "--out", "c.json"], {}),
    ("gv", ["construct", "--n", "10", "--lambda", "3", "--method", "gv",
            "--out", "c.json"], {}),
    ("gv-scan-cap", ["construct", "--n", "2", "--lambda", "30", "--method",
                     "gv", "--out", "c.json"], {}),
    ("gv-n-1", ["construct", "--n", "1", "--lambda", "1", "--method", "gv",
                "--out", "c.json"], {}),
    ("gv-n-2", ["construct", "--method", "gv", "--n", "2", "--lambda", "5",
                "--out", "c.json"], {}),
    ("bch", ["construct", "--n", "16", "--lambda", "4", "--method", "bch",
             "--out", "c.json"], {}),
    ("bch-truncated", ["construct", "--n", "100", "--lambda", "5", "--method",
                       "bch", "--out", "c.json"], {}),
    ("bch-lambda-2", ["construct", "--n", "16", "--lambda", "2", "--method",
                      "bch", "--out", "c.json"], {}),
    ("bch-no-field", ["construct", "--n", "2", "--lambda", "70000", "--method",
                      "bch", "--out", "c.json"], {}),
    ("hadamard", ["construct", "--n", "8", "--lambda", "4", "--method",
                  "hadamard", "--out", "c.json"], {}),
    ("hadamard-n-6", ["construct", "--n", "6", "--lambda", "1", "--method",
                      "hadamard", "--out", "c.json"], {}),
    ("hadamard-lambda-5", ["construct", "--n", "8", "--lambda", "5", "--method",
                           "hadamard", "--out", "c.json"], {}),
    ("hadamard-n-1", ["construct", "--n", "1", "--lambda", "1", "--method",
                      "hadamard", "--out", "c.json"], {}),
    ("balanced", ["construct", "--n", "6", "--lambda", "6", "--method",
                  "balanced", "--out", "c.json"], {}),
    ("balanced-odd", ["construct", "--n", "5", "--lambda", "1", "--method",
                      "balanced", "--out", "c.json"], {}),
    ("balanced-lambda-7", ["construct", "--n", "6", "--lambda", "7", "--method",
                           "balanced", "--out", "c.json"], {}),
    ("balanced-block-cap", ["construct", "--n", "24", "--lambda", "1",
                            "--method", "balanced", "--out", "c.json"], {}),
    ("coloring", ["construct", "--lambda", "1", "--method", "coloring",
                  "--graph", "g.json", "--out", "c.json"], _GRAPH),
    ("coloring-lambda-2", ["construct", "--lambda", "2", "--method", "coloring",
                           "--graph", "g.json", "--out", "c.json"], _GRAPH),
    ("coloring-no-graph", ["construct", "--n", "4", "--lambda", "1", "--method",
                           "coloring", "--out", "c.json"], {}),
    ("coloring-n-mismatch", ["construct", "--n", "5", "--lambda", "1",
                             "--method", "coloring", "--graph", "g.json",
                             "--out", "c.json"], _GRAPH),
    ("sweep-json", _SWEEP, {}),
    ("sweep-csv", [*_SWEEP, "--format", "csv"], {}),
    ("sweep-json-out", [*_SWEEP, "--c", "0.25", "--out", "s.json"], {}),
    ("sweep-csv-out", [*_SWEEP, "--format", "csv", "--out", "s.csv"], {}),
    ("sweep-code-choices", ["sweep", "--n-list", "2,3,5,16,33,100",
                            "--lambda-list", "4,5,7,9"], {}),
    ("bounds-2040", ["bounds", "--n", "2040", "--lambda", "4"], {}),
    ("bounds-2048", ["bounds", "--n", "2048", "--lambda", "4"], {}),
    ("bounds-8-table", ["bounds", "--n", "8", "--lambda", "1", "--format",
                        "table"], {}),
    ("proofcheck-graph-sampled", ["proofcheck", "c.json", "--graph", "g.json",
                                  "--sampled", "--trials", "500"], _GRAPH_COVER),
    ("proofcheck-bch", ["proofcheck", "c.json", "--n", "16", "--lambda", "4"],
     _BCH_COVER),
    ("proofcheck-bch-sampled", ["proofcheck", "c.json", "--n", "16", "--lambda",
                                "4", "--sampled", "--trials", "300", "--seed",
                                "5"], _BCH_COVER),
    ("proofcheck-graph", ["proofcheck", "c.json", "--graph", "g.json"],
     _GRAPH_COVER),
    ("proofcheck-bch-wide-sampled", ["proofcheck", "c.json", "--n", "3",
                                     "--lambda", "33", "--sampled", "--trials",
                                     "2000", "--seed", "3"], _BCH_WIDE_COVER),
    ("verify-bch-damaged", ["verify", "c.json", "--n", "64", "--lambda", "4"],
     _BCH_DAMAGED_COVER),
]


def run_case(argv, inputs, workdir):
    """Exit code, stdout, stderr and the files the run left in workdir."""
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())
             if p.name not in inputs}
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


def _cases():
    return json.loads(GOLDEN.read_text())["cases"]


# Recording from scratch starts without the file; the argv test below then fails.
@pytest.mark.parametrize("case", _cases() if GOLDEN.exists() else [],
                         ids=lambda c: c["name"])
def test_cli_output_is_pinned(tmp_path, case):
    got = run_case(case["argv"], case["inputs"], tmp_path)
    want = {k: case[k] for k in ("exit", "stdout", "stderr", "files")}
    assert got == want


def test_golden_covers_the_argv_set():
    assert [(c["name"], c["argv"], c["inputs"]) for c in _cases()] == [
        (name, argv, inputs) for name, argv, inputs in ARGV]


if __name__ == "__main__":
    cases = []
    for name, argv, inputs in ARGV:
        with tempfile.TemporaryDirectory() as d:
            cases.append({"name": name, "argv": argv, "inputs": inputs,
                          **run_case(argv, inputs, Path(d))})
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
