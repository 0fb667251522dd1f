"""Tests of the benchmark itself: attribution, recount, determinism, checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import sys
import time

import pytest

import run
import spans
import workloads

sys.path.insert(0, run.SRC)
from bicover import cli, covering, diagnostics, graphs  # noqa: E402


def _tiny_ops(tmp):
    g = os.path.join(tmp, "g.json")
    rng = random.Random(5)
    with open(g, "w", encoding="utf-8") as fh:
        json.dump({"n": 12, "edges": workloads.random_edges(12, 0.5, rng)}, fh)
    c, gc = os.path.join(tmp, "c.json"), os.path.join(tmp, "gc.json")
    return [
        ["construct", "--n", "16", "--lambda", "4", "--method", "bch", "--out", c],
        ["bounds", "--n", "16", "--lambda", "4"],
        ["verify", c, "--n", "16", "--lambda", "4"],
        ["proofcheck", c, "--n", "16", "--lambda", "4"],
        ["bounds", "--graph", g],
        ["construct", "--lambda", "1", "--method", "coloring", "--graph", g,
         "--out", gc],
        ["proofcheck", gc, "--graph", g],
        ["exact", "--n", "3", "--lambda", "1"],
        ["sweep", "--n-list", "2,3", "--lambda-list", "1"],
    ]


@pytest.fixture
def traced(tmp_path):
    tracer = spans.Tracer(run.COUNTERS)
    with tracer.installed(spans.cli_targets(cli)):
        for argv in _tiny_ops(str(tmp_path)):
            rc, _, err = run.invoke(cli, argv, tracer)
            assert rc == 0, err
    return tracer


def test_cli_targets_cover_every_layer():
    names = {name for name, _, _ in spans.cli_targets(cli)}
    for layer in run.SELF_TIME_LAYERS:
        assert layer in names
    assert all(not n.startswith("bnd.") for n in names)


def test_op_self_times_add_up_to_the_op_span(traced):
    """Each op's child self times plus its cli self time equal its duration."""
    roots = [sp for sp in traced.spans if sp.parent is None]
    assert [sp.name for sp in roots][:4] == [
        "cli.construct", "cli.bounds", "cli.verify", "cli.proofcheck"]
    for root in roots:
        parts = traced.self_times(root.id)
        assert all(t >= 0 for t in parts.values())
        assert sum(parts.values()) == pytest.approx(root.duration, rel=1e-9,
                                                    abs=1e-12)
        assert all(traced.spans[i].op == root.id for i in parts)
    metrics = run.layer_metrics(traced)
    other = sum(t for i, t in traced.self_times().items()
                if traced.spans[i].parent is not None
                and traced.spans[i].name not in run.SELF_TIME_LAYERS)
    listed = sum(metrics[f"{n}.s"] for n in run.SELF_TIME_LAYERS)
    assert metrics["cli.self_s"] + listed + other == pytest.approx(
        sum(sp.duration for sp in roots), rel=1e-9)


def test_known_nested_attributions(traced):
    """diagnostics -> verify and graph_report/check_event_overlap -> alpha.

    The checks call verify and alpha_per_vertex through names they imported
    directly, which the benchmark cannot wrap: those calls stay inside the
    caller's self time.  Splitting them needs spans inside the program.
    """
    proofcheck = next(sp for sp in traced.spans if sp.name == "cli.proofcheck")
    names = [traced.spans[i].name for i in traced.self_times(proofcheck.id)]
    assert names.count("covering.verify") == 1  # the CLI's own base check
    for name in ("diagnostics.check_tail_sum",
                 "diagnostics.check_event_disjointness",
                 "diagnostics.check_convex_tail_bound",
                 "bounds.graph_report", "diagnostics.check_event_overlap"):
        for sp in traced.spans:
            if sp.name == name:
                assert not any(c.parent == sp.id for c in traced.spans), name
    assert not any("alpha_per_vertex" in sp.name for sp in traced.spans)


def test_counts_recorded_where_the_work_happens(traced):
    m = run.layer_metrics(traced)
    # verify: 120 pairs directly, 120 in the proofcheck's base check, and the
    # graph's edges in the coloring proofcheck's base check.
    assert m["covering.verify.pairs"] > 240
    assert m["covering.verify.calls"] >= 3
    assert m["exact.exact_cap.calls"] >= 1
    assert m["diagnostics.vectors"] > 0 and m["covering.file_mb"] > 0


def test_wrappers_are_removed_after_the_traced_block():
    before = covering.verify, diagnostics.check_tail_sum, graphs.parse_graph
    tracer = spans.Tracer()
    with tracer.installed(spans.cli_targets(cli)):
        assert covering.verify is not before[0]
    assert (covering.verify, diagnostics.check_tail_sum,
            graphs.parse_graph) == before


def test_every_spec_metric_is_computed(traced):
    spec = run.load_spec()
    untraced = {"traced": False, "times": [("a", 1.0, 400.0)], "failures": []}
    marked = {"traced": True, "times": [("a", 1.1, 440.0)], "failures": [],
              "tracer": traced}
    run.select(spec["per_layer"], run.per_layer([untraced, marked]))
    e2e = run.select(spec["end_to_end"], run.end_to_end([untraced], [0.2]))
    assert e2e["wall_probes"]["value"] == 400.0
    assert run.per_layer([untraced, marked])["trace.overhead_frac"] == \
        pytest.approx(0.1)


def _random_blocks(rng, n, m):
    """m blocks; vertex 1 always left and 2 always right, the rest random."""
    blocks = []
    for _ in range(m):
        side = [1, 2] + [rng.randrange(3) for _ in range(n - 2)]
        blocks.append({"left": [v + 1 for v in range(n) if side[v] == 1],
                       "right": [v + 1 for v in range(n) if side[v] == 2]})
    return blocks


@pytest.mark.parametrize("m", [5, 64, 70, 130])
def test_recount_matches_the_reference_verify(m):
    rng = random.Random(m)
    n, lam = 23, m // 4 + 1
    blocks = _random_blocks(rng, n, m)
    cov = covering.parse_covering(json.dumps({"n": n, "blocks": blocks}))
    ref = covering.verify(cov, n, lam)
    hist, violating = workloads.recount(n, blocks, lam)
    assert 0 < len(violating) < n * (n - 1) // 2
    assert hist == ref.histogram
    assert violating == [list(p) for p in ref.violating_pairs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    built = []
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        wl = workloads.build(name, 7, str(tmp_path / sub))
        built.append((workloads.file_hashes(wl.inputs),
                      [[a.replace(str(tmp_path / sub), "") for a in op.argv]
                       for op in wl.ops]))
    assert built[0] == built[1]
    os.makedirs(tmp_path / "c")
    other = workloads.build(name, 8, str(tmp_path / "c"))
    argv = [[a.replace(str(tmp_path / "c"), "") for a in op.argv]
            for op in other.ops]
    assert (workloads.file_hashes(other.inputs), argv) != built[0]


def test_probe_counts_an_op_in_loops_net_of_its_own_samples():
    probe = run.Probe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.active():
        t0 = time.perf_counter()
        total, net, loops = probe.timed(lambda: sum(i for i in range(3_000_000)))
        wall = time.perf_counter() - t0
    assert total == sum(range(3_000_000))
    assert len(probe.samples) >= 4  # before, two or more inside, after
    inside = sum(probe.samples[1:-1])
    assert 0 < net < wall - inside + 1e-3
    assert loops == pytest.approx(net / statistics.mean(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_failed_ops_are_reported_not_raised(tmp_path):
    op = workloads.Op("x", ["verify", str(tmp_path / "missing.json"),
                            "--n", "4", "--lambda", "1"])
    rc, out, err = run.invoke(cli, op.argv)
    assert rc == 2 and "exit code 2" in run.judge(op, rc, out, err)

    class Crashing:
        @staticmethod
        def main(argv):
            raise ValueError("boom")

    rc, out, err = run.invoke(Crashing, op.argv)
    assert rc is None and "Traceback" in err
    assert run.judge(op, rc, out, err).startswith("traceback: ")
    rc, out, err = run.invoke(cli, ["no-such-command"])
    assert rc == 2


def test_negative_control_recount_agrees_with_the_cli(tmp_path):
    src, neg = str(tmp_path / "c.json"), str(tmp_path / "neg.json")
    rc, *_ = run.invoke(cli, ["construct", "--n", "40", "--lambda", "4",
                              "--method", "bch", "--out", src])
    assert rc == 0
    control = workloads._NegativeControl(src, neg, 4, pick=3)
    control.prepare()
    op = workloads.Op("neg", ["verify", neg, "--n", "40", "--lambda", "4"],
                      expect=1, check=control.check)
    rc, out, err = run.invoke(cli, op.argv)
    assert run.judge(op, rc, out, err) is None
    assert control.expected[1]
    control.expected[1].pop()  # a recount that disagrees must fail the op
    assert "violating pairs" in run.judge(op, rc, out, err)
