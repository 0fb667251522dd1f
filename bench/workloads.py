"""The benchmark's three workloads: seeded inputs, CLI op lists, output checks.

Every input is generated here from the workload seed; the program only sees
the files written into the work directory and the argv of each op.  Each op
carries the exit code it must return and a check that reads its output; the
checks run outside the timed region.  See README.md for why each workload
looks the way it does.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

WORKLOADS = ("kn-certify", "graph-certify", "exact-small")

GUARD = 1e-9  # the toolkit's own float guard for bound-vs-capacity comparisons

# Minimum capacities of K_n^lam.  Provenance per entry:
#   (2, lam) = 2*lam: one pair, every block on it has two vertices.
#   (3, lam) = ceil(9*lam/2): a block on 3 vertices separates 2 pairs, one on
#       2 vertices separates 1, so capacity >= 1.5 * 3*lam, and alternating
#       3-vertex blocks reach it.  The MILP scratch results in ROADMAP.md
#       agree at (3,1) = 5 and (3,3) = 14.
#   (4, 1) = 8: Hansel's n log2 n, tight at a power of two.
#   (4, 2) = 12, (4, 4) = 24: the edge-count bound 2*lam*(n-1), met by the
#       balanced and Hadamard coverings.
#   (4, 3) = 20, (4, 5) = 32: exhaustive search at the seed commit; both
#       equal the upper bound (4,2) + (4,1) and (4,4) + (4,1).
#   (5, 1) = 12, (5, 2) = 19: the MILP scratch results in ROADMAP.md.
EXACT_VALUES = {
    (2, 1): 2, (2, 2): 4, (2, 3): 6,
    (3, 1): 5, (3, 2): 9, (3, 3): 14, (3, 4): 18, (3, 6): 27, (3, 8): 36,
    (4, 1): 8, (4, 2): 12, (4, 3): 20, (4, 4): 24, (4, 5): 32,
    (5, 1): 12, (5, 2): 19,
}
EXACT_INSTANCES = ((3, 1), (3, 3), (3, 4), (3, 6), (3, 8), (4, 1), (4, 2),
                   (4, 3), (4, 4), (4, 5), (5, 1), (5, 2))
SWEEP_N = (2, 3, 4, 8, 16, 64)
SWEEP_LAMBDA = (1, 2, 3)
SWEEP_EXACT_MAX_N = 4  # the CLI default; rows above it carry no exact value

# kn-certify: (label, base n, jitter, lambda, method, extra steps).
# n = base - U[0, jitter), so the O(n^2) verify work moves by under 2% between
# seeds and every n stays in the same code-length band (block counts below).
# Every instance runs construct and verify; the extra steps are added after.
KN_INSTANCES = (
    ("ew", 8192, 64, 2, "even-weight", ("bounds",)),              # 14 blocks
    ("bch", 2048, 16, 4, "bch", ("bounds", "proofcheck", "negative")),  # 16
    ("gv", 2048, 16, 5, "gv", ()),                                 # 20 blocks
    ("bch-wide", 1000, 8, 30, "bch", ("sampled",)),  # 95 blocks: two-word masks
)
SAMPLED_TRIALS = 2000

# graph-certify strata: (n range, p range, lambda of the gv code covering).
# One graph per stratum spans n in [80, 200] and p in [0.4, 0.8] within a pass
# while the pass's work stays nearly seed-independent: the exhaustive
# proofcheck sweeps 2^m vectors at O(n) each, and the gv code length m jumps
# by one at n = 129 (lambda 6: 16 -> 17 blocks, lambda 7: 18 -> 19), so no
# range straddles it.  p stays well above the sparse cliff of
# alpha_per_vertex (see README.md).
GRAPH_STRATA = (
    ((80, 88), (0.40, 0.45), 7),      # 18 blocks
    ((120, 128), (0.50, 0.55), 6),    # 16 blocks
    ((152, 160), (0.60, 0.65), 6),    # 17 blocks
    ((192, 200), (0.75, 0.80), 6),    # 17 blocks
)


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark expects."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One CLI invocation: argv, expected exit code, and its output check.

    ``prepare`` runs untimed right before the op (it derives files the op
    reads); ``check(stdout)`` runs untimed right after it.
    """

    label: str
    argv: list
    expect: int = 0
    check: object = None
    prepare: object = None


@dataclass
class Workload:
    workdir: str
    ops: list = field(default_factory=list)
    instances: list = field(default_factory=list)  # the provenance table
    inputs: list = field(default_factory=list)     # files written at set-up


def build(name, seed, workdir):
    """Generate the workload's inputs into ``workdir`` and return its op list."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}/{seed}")
    wl = Workload(workdir)
    {"kn-certify": _kn_certify, "graph-certify": _graph_certify,
     "exact-small": _exact_small}[name](wl, rng)
    return wl


def file_hashes(paths):
    """sha256 of each file, keyed by file name."""
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------- kn-certify

def _kn_certify(wl, rng):
    for label, base, jitter, lam, method, steps in KN_INSTANCES:
        n = base - rng.randrange(jitter)
        inst = {"label": label, "n": n, "lambda": lam, "method": method,
                "edges": comb(n, 2)}
        wl.instances.append(inst)
        path = os.path.join(wl.workdir, f"{label}.json")
        flags = ["--n", str(n), "--lambda", str(lam)]
        wl.ops.append(Op(f"{label}:construct",
                         ["construct", *flags, "--method", method,
                          "--out", path],
                         check=_check_construct(inst)))
        if "bounds" in steps:
            wl.ops.append(Op(f"{label}:bounds", ["bounds", *flags],
                             check=_check_bounds(inst)))
        wl.ops.append(Op(f"{label}:verify", ["verify", path, *flags],
                         check=_check_verify(n, lam, comb(n, 2))))
        if "proofcheck" in steps:
            wl.ops.append(Op(f"{label}:proofcheck",
                             ["proofcheck", path, *flags, "--exhaustive"],
                             check=_check_proofcheck(None)))
        if "negative" in steps:
            neg = os.path.join(wl.workdir, f"{label}-minus-one.json")
            control = _NegativeControl(path, neg, lam, rng.randrange(1 << 30))
            wl.ops.append(Op(f"{label}:verify-negative",
                             ["verify", neg, *flags], expect=1,
                             check=control.check,
                             prepare=control.prepare))
        if "sampled" in steps:
            wl.ops.append(Op(f"{label}:proofcheck-sampled",
                             ["proofcheck", path, *flags, "--sampled",
                              "--trials", str(SAMPLED_TRIALS),
                              "--seed", str(rng.randrange(1 << 31))],
                             check=_check_proofcheck(SAMPLED_TRIALS)))


class _NegativeControl:
    """One seed-chosen block deleted from a valid covering.

    ``prepare`` writes the damaged file from the freshly constructed one and
    recounts its violations with the benchmark's own packed-bit kernel;
    ``check`` demands that the CLI's listing and histogram match the recount
    exactly.
    """

    def __init__(self, source, path, lam, pick):
        self.source, self.path, self.lam, self.pick = source, path, lam, pick
        self.expected = None

    def prepare(self):
        with open(self.source, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["blocks"][self.pick % len(doc["blocks"])]
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.expected = recount(doc["n"], doc["blocks"], self.lam)

    def check(self, stdout):
        report = json.loads(stdout)["report"]
        hist, violating = self.expected
        _require(not report["ok"], "negative control verified as ok")
        _require(len(violating) > 0, "negative control recount found no violation")
        _require(report["histogram"] == {str(k): v for k, v in hist.items()},
                 "negative control histogram differs from the recount")
        _require(report["violating_pairs"] == violating,
                 f"negative control lists {len(report['violating_pairs'])} "
                 f"violating pairs, the recount {len(violating)}")
        _require(report["pair_count"] == sum(hist.values()),
                 "negative control pair count differs from the recount")


def recount(n, blocks, lam):
    """Independent multiplicity count over all pairs of 1..n.

    Returns (histogram, violating pairs in lexicographic order).  Per-vertex
    side masks are packed into uint64 words; a pair's multiplicity is the
    popcount of (a_u & b_v) | (b_u & a_v) summed over words, row by row.
    """
    words = max(1, -(-len(blocks) // 64))
    a = np.zeros((n + 1, words), dtype=np.uint64)
    b = np.zeros((n + 1, words), dtype=np.uint64)
    for i, blk in enumerate(blocks):
        w, bit = divmod(i, 64)
        a[blk["left"], w] |= np.uint64(1 << bit)
        b[blk["right"], w] |= np.uint64(1 << bit)
    hist = np.zeros(len(blocks) + 1, dtype=np.int64)
    violating = []
    for u in range(1, n):
        mult = np.bitwise_count((a[u] & b[u + 1:]) | (b[u] & a[u + 1:])
                                ).sum(axis=1, dtype=np.int64)
        hist += np.bincount(mult, minlength=len(hist))
        violating.extend([u, u + 1 + int(j)] for j in np.nonzero(mult < lam)[0])
    return {k: int(c) for k, c in enumerate(hist) if c}, violating


# ------------------------------------------------------------- graph-certify

def _graph_certify(wl, rng):
    for i, ((n_lo, n_hi), (p_lo, p_hi), lam) in enumerate(GRAPH_STRATA):
        n = rng.randint(n_lo, n_hi)
        p = round(rng.uniform(p_lo, p_hi), 4)
        edges = random_edges(n, p, rng)
        g = os.path.join(wl.workdir, f"g{i}.json")
        with open(g, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "edges": edges}, fh)
        wl.inputs.append(g)
        inst = {"label": f"g{i}", "n": n, "p": p, "lambda": lam,
                "edges": len(edges)}
        wl.instances.append(inst)
        col = {"label": f"g{i}-coloring", "n": n, "lambda": 1,
               "method": "coloring", "edges": len(edges)}
        code = {"label": f"g{i}-gv", "n": n, "lambda": lam, "method": "gv",
                "edges": len(edges)}
        wl.instances += [col, code]
        lowers = {}  # filled by the bounds check, read by the construct checks
        col_path = os.path.join(wl.workdir, f"g{i}-coloring.json")
        code_path = os.path.join(wl.workdir, f"g{i}-gv.json")
        wl.ops += [
            Op(f"g{i}:bounds", ["bounds", "--graph", g, "--limit", str(n)],
               check=_check_graph_bounds(lowers, (col, code))),
            Op(f"g{i}:construct-coloring",
               ["construct", "--lambda", "1", "--method", "coloring",
                "--graph", g, "--out", col_path],
               check=_check_construct(col, lowers)),
            Op(f"g{i}:verify-coloring",
               ["verify", col_path, "--graph", g, "--lambda", "1"],
               check=_check_verify(n, 1, len(edges))),
            Op(f"g{i}:proofcheck-coloring",
               ["proofcheck", col_path, "--graph", g, "--limit", str(n)],
               check=_check_proofcheck(None)),
            Op(f"g{i}:construct-gv",
               ["construct", "--n", str(n), "--lambda", str(lam),
                "--method", "gv", "--out", code_path],
               check=_check_construct(code, lowers)),
            Op(f"g{i}:verify-gv",
               ["verify", code_path, "--graph", g, "--lambda", str(lam)],
               check=_check_verify(n, lam, len(edges))),
            Op(f"g{i}:proofcheck-gv",
               ["proofcheck", code_path, "--graph", g, "--limit", str(n)],
               check=_check_proofcheck(None)),
        ]


def random_edges(n, p, rng):
    """G(n, p) edge list in lexicographic order, one draw per pair."""
    return [[u, v] for u, v in combinations(range(1, n + 1), 2)
            if rng.random() < p]


# --------------------------------------------------------------- exact-small

def _exact_small(wl, rng):
    ops = []
    for n, lam in EXACT_INSTANCES:
        ops.append(Op(f"exact:{n},{lam}",
                      ["exact", "--n", str(n), "--lambda", str(lam)],
                      check=_check_exact(n, lam)))
        wl.instances.append({"label": f"exact-{n}-{lam}", "n": n,
                             "lambda": lam, "method": "exact",
                             "edges": comb(n, 2),
                             "capacity": EXACT_VALUES[(n, lam)]})
    ops.append(Op("sweep",
                  ["sweep", "--n-list", ",".join(map(str, SWEEP_N)),
                   "--lambda-list", ",".join(map(str, SWEEP_LAMBDA)),
                   "--exact-max-n", str(SWEEP_EXACT_MAX_N)],
                  check=_check_sweep))
    rng.shuffle(ops)
    wl.ops = ops


# -------------------------------------------------------------------- checks

def _check_construct(inst, lowers=None):
    def check(stdout):
        doc = json.loads(stdout)
        report = doc["report"]
        _require(report["n"] == inst["n"], f"constructed n = {report['n']}")
        _require(report["guaranteed_lambda"] >= inst["lambda"],
                 f"guaranteed lambda {report['guaranteed_lambda']} "
                 f"< {inst['lambda']}")
        with open(doc["out"], encoding="utf-8") as fh:
            cov = json.load(fh)
        _require(len(cov["blocks"]) == report["blocks"],
                 "block count differs between report and file")
        cap = sum(len(b["left"]) + len(b["right"]) for b in cov["blocks"])
        _require(cap == report["capacity"],
                 "capacity differs between report and file")
        inst["m"], inst["capacity"] = report["blocks"], cap
        if lowers:
            _check_bracket(lowers, inst)
    return check


def _check_bounds(inst):
    def check(stdout):
        report = json.loads(stdout)["report"]
        lowers = {e["name"]: e["value"] for e in report["entries"]
                  if e["side"] == "lower"}
        _require(lowers, "bounds reported no lower bound")
        _check_bracket(lowers, inst)
    return check


def _check_graph_bounds(lowers, insts):
    def check(stdout):
        report = json.loads(stdout)["report"]
        lowers.clear()
        lowers.update({e["name"]: e["value"] for e in report["entries"]
                       if e["side"] == "lower"})
        _require(set(lowers) == {"degree", "independence"},
                 f"graph bounds reported {sorted(lowers)}")
        for inst in insts:
            if "capacity" in inst:
                _check_bracket(lowers, inst)
    return check


def _check_bracket(lowers, inst):
    """Every lower bound sits at or below the capacity actually constructed."""
    if "capacity" not in inst:
        return  # the construct op comes later and checks then
    for name, value in lowers.items():
        _require(value <= inst["capacity"] + GUARD,
                 f"{name} lower bound {value} exceeds capacity "
                 f"{inst['capacity']} of {inst['label']}")


def _check_verify(n, lam, pairs):
    def check(stdout):
        report = json.loads(stdout)["report"]
        _require(report["ok"], "verify reported a violation")
        _require(report["n"] == n, f"verify ran on n = {report['n']}")
        _require(report["min_multiplicity"] is not None
                 and report["min_multiplicity"] >= lam,
                 f"min multiplicity {report['min_multiplicity']} < {lam}")
        _require(report["pair_count"] == pairs,
                 f"verify counted {report['pair_count']} pairs, expected {pairs}")
        _require(sum(report["histogram"].values()) == pairs,
                 "histogram does not add up to the pair count")
    return check


def _check_proofcheck(trials):
    def check(stdout):
        doc = json.loads(stdout)
        _require(doc["covering_valid"], "proofcheck found the covering invalid")
        _require(doc["checks"], "proofcheck ran no check")
        _require(doc["ok"] and all(c["ok"] for c in doc["checks"]),
                 "a proofcheck device failed")
        if trials is not None:
            _require(all(c["trials"] == trials for c in doc["checks"]
                         if c["mode"] == "sampled"),
                     "sampled proofcheck ran a different trial count")
    return check


def _check_exact(n, lam):
    def check(stdout):
        doc = json.loads(stdout)
        value = EXACT_VALUES[(n, lam)]
        _require(doc["status"] == "optimal", f"exact status {doc['status']}")
        _require(doc["value"] == value,
                 f"exact({n},{lam}) = {doc['value']}, table says {value}")
        witness = doc["witness"]
        cap = sum(len(b["left"]) + len(b["right"]) for b in witness["blocks"])
        _require(cap == value, f"witness capacity {cap} != value {value}")
        hist, violating = recount(n, witness["blocks"], lam)
        _require(witness["n"] == n and not violating and min(hist) >= lam,
                 f"exact({n},{lam}) witness does not re-verify")
    return check


def _check_sweep(stdout):
    rows = json.loads(stdout)["rows"]
    _require(len(rows) == len(SWEEP_N) * len(SWEEP_LAMBDA),
             f"sweep printed {len(rows)} rows")
    for row in rows:
        key = (row["n"], row["lambda"])
        where = f"sweep row n={key[0]} lambda={key[1]}"
        best = row["best_capacity"]
        _require(best is None or row["lb_edge_count"] <= best,
                 f"{where}: edge-count bound above the best construction")
        if key[0] <= SWEEP_EXACT_MAX_N:
            _require(row["exact"] == EXACT_VALUES[key],
                     f"{where}: exact {row['exact']}, table "
                     f"{EXACT_VALUES[key]}")
            _require(row["lb_edge_count"] <= row["exact"]
                     and (best is None or row["exact"] <= best),
                     f"{where}: lb_edge_count <= exact <= best_capacity fails")
