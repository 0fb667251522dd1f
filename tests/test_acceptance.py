"""Acceptance suite: each test prints one pass line when its criterion holds.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; any
assertion failure marks the corresponding criterion failed.
"""

import time
from itertools import combinations
from math import comb, log2

import pytest

from bicover.bounds import (alpha_lower, degree_lower, edge_count_lower,
                            tail_lower, upper_bch)
from bicover.codes import (BinaryCode, _lexicode_basis, _span, ball_volume,
                           bch_extended_code, even_weight_code, hadamard_code,
                           min_distance)
from bicover.covering import (Covering, balanced_bipartitions_covering,
                              capacity, code_to_covering,
                              coloring_to_covering, verify)
from bicover.diagnostics import (check_convex_tail_bound,
                                 check_event_disjointness, check_event_overlap,
                                 check_tail_sum)
from bicover.exact import exact_cap
from bicover.graphs import (alpha_per_vertex, complete_graph, degrees,
                            greedy_coloring, random_graph)

TOL = 1e-9


def _passed(name):
    print(f"\n[acceptance] {name}: PASS")


def hansel_covering(n):
    k = (n - 1).bit_length()
    return code_to_covering(BinaryCode(k, range(n)), n)


@pytest.fixture(scope="module")
def covering_matrix():
    """Every covering the constructive criteria produce, with its (n, lam)."""
    entries = []
    for n in (2, 4, 8, 16):
        entries.append((f"log-code n={n}", hansel_covering(n), n, 1))
    for n, lam in ((2, 1), (2, 2), (3, 1), (4, 1)):
        _, witness = exact_cap(n, lam)
        entries.append((f"oracle witness ({n},{lam})", witness, n, lam))
    for m in (1, 2, 3):
        n = 1 << m
        entries.append((f"hadamard m={m}", code_to_covering(hadamard_code(m), n),
                        n, n // 2))
    for n in (2, 4, 6):
        lam = comb(n - 2, n // 2 - 1)
        entries.append((f"balanced n={n}", balanced_bipartitions_covering(n),
                        n, lam))
    entries.append(("hadamard+balanced n=4",
                    Covering(4, code_to_covering(hadamard_code(2), 4).blocks
                             + balanced_bipartitions_covering(4).blocks), 4, 4))
    for n in range(3, 11):
        k = (n - 1).bit_length() + 1
        entries.append((f"even-weight n={n}",
                        code_to_covering(even_weight_code(k), n), n, 2))
    entries.append(("bch m=3 n=16",
                    code_to_covering(bch_extended_code(3, 2, 16), 16), 16, 4))
    entries.append(("bch m=4 n=2048",
                    code_to_covering(bch_extended_code(4, 2, 2048), 2048), 2048, 4))
    for name, cov, n, lam in entries:
        assert verify(cov, n, lam).ok, f"matrix covering {name} must verify"
    return entries


def test_hansel_tightness_at_powers_of_two():
    start = time.monotonic()
    for n in (2, 4, 8, 16):
        cov = hansel_covering(n)
        cap = capacity(cov)
        assert cap == n * (n - 1).bit_length() == int(n * log2(n))
        report = verify(cov, n, 1)
        assert report.ok and report.min_multiplicity >= 1
        assert abs(cap - max(edge_count_lower(n, 1), tail_lower(n, 1))) <= TOL
    assert time.monotonic() - start < 1
    _passed("log-code coverings tight at powers of two")


def test_exact_oracle_values():
    start = time.monotonic()
    for n, lam, want in ((2, 1, 2), (2, 2, 4), (3, 1, 5), (4, 1, 8)):
        value, witness = exact_cap(n, lam)
        assert value == want, f"exact_cap({n},{lam}) = {value}, expected {want}"
        assert capacity(witness) == want
        assert verify(witness, n, lam).ok
    assert time.monotonic() - start < 60
    _passed("exact search settles the four reference instances")


def test_edge_count_bound_tightness():
    start = time.monotonic()
    for m in (1, 2, 3):
        n = 1 << m
        lam = n // 2
        cov = code_to_covering(hadamard_code(m), n)
        assert capacity(cov) == 2 * lam * (n - 1)
        report = verify(cov, n, lam)
        assert report.ok and report.histogram == {lam: comb(n, 2)}
    for n in (2, 4, 6):
        lam = comb(n - 2, n // 2 - 1)
        cov = balanced_bipartitions_covering(n)
        assert capacity(cov) == 2 * lam * (n - 1)
        report = verify(cov, n, lam)
        assert report.ok and report.histogram == {lam: comb(n, 2)}
    mixed = Covering(4, code_to_covering(hadamard_code(2), 4).blocks
                     + balanced_bipartitions_covering(4).blocks)
    assert capacity(mixed) == 24 == 2 * 4 * 3
    assert verify(mixed, 4, 4).ok
    assert time.monotonic() - start < 1
    _passed("matrix and bipartition coverings meet the edge-count bound exactly")


def test_code_based_upper_bounds():
    start = time.monotonic()
    # (a) even-weight coverings of K_n^2
    for n in range(3, 11):
        k = (n - 1).bit_length() + 1
        cov = code_to_covering(even_weight_code(k), n)
        assert capacity(cov) <= n * ((n - 1).bit_length() + 1)
        report = verify(cov, n, 2)
        assert report.ok and report.min_multiplicity >= 2
    # (b) extended BCH distances and coverings
    for m, n in ((3, 16), (4, 2048)):
        code = bch_extended_code(m, 2, n)
        exhaustive = min((a ^ b).bit_count()
                         for a, b in combinations(code.words, 2))
        assert exhaustive == 4 == min_distance(code)
        cov = code_to_covering(code, n)
        cap = capacity(cov)
        assert cap <= n * (1 << m)
        assert cap <= upper_bch(n, 4) + TOL
        report = verify(cov, n, 4)
        assert report.ok and report.min_multiplicity >= 4
    # (c) greedy lexicodes reach the Gilbert-Varshamov count on a 20-pair grid
    grid = [(k, d) for k in range(4, 14) for d in (2, 3)]
    assert len(grid) == 20
    for k, d in grid:
        want = -(-(1 << k) // ball_volume(k, d - 1))
        words = _span(_lexicode_basis(d, (want - 1).bit_length(), k), want)
        assert len(words) == want
    assert time.monotonic() - start < 120
    _passed("code-based coverings stay within their capacity guarantees")


def test_independence_bound_dominates_degree_bound():
    start = time.monotonic()
    n = 20
    for seed in range(100):
        p = (0.2, 0.5, 0.8)[seed % 3]
        g = random_graph(n, p, seed)
        alphas = alpha_per_vertex(g)
        lhs = alpha_lower(g, alphas)
        rhs = degree_lower(g)
        assert lhs >= rhs - TOL
        tight = all(a == n - d for a, d in zip(alphas, degrees(g)))
        assert (abs(lhs - rhs) <= TOL) == tight
    assert time.monotonic() - start < 30
    _passed("independence lower bound dominates the degree bound on 100 graphs")


def test_probabilistic_diagnostics(covering_matrix):
    start = time.monotonic()
    for name, cov, n, lam in covering_matrix:
        assert len(cov.blocks) <= 20
        tail = check_tail_sum(cov, lam)
        assert tail.ok and tail.sum <= 1, f"tail sum fails for {name}"
        dis = check_event_disjointness(cov, lam, mode="exhaustive")
        assert dis.ok, f"event disjointness fails for {name}"
        if lam >= 3:
            conv = check_convex_tail_bound(cov, lam)
            assert conv.ok and conv.sum <= 1, f"convex tail fails for {name}"
    for n in (2, 4, 8, 16):
        cov = hansel_covering(n)
        g = complete_graph(n)
        overlap = check_event_overlap(cov, g, alphas=[1] * n)
        assert overlap.ok and overlap.sum <= 1
    assert time.monotonic() - start < 120
    _passed("probabilistic devices replay cleanly on every generated covering")


def test_edge_count_inequality_on_matrix(covering_matrix):
    for name, cov, n, lam in covering_matrix:
        lhs = sum(b.size ** 2 for b in cov.blocks)
        assert lhs >= 2 * lam * n * (n - 1), f"edge-count inequality fails for {name}"
    _passed("sum of squared block sizes covers the pair demand on every covering")


def test_negative_controls_single_block_deletion():
    full = code_to_covering(hadamard_code(2), 4)
    for t in range(len(full.blocks)):
        reduced = Covering(4, full.blocks[:t] + full.blocks[t + 1:])
        report = verify(reduced, 4, 2)
        assert not report.ok
        dropped = full.blocks[t]
        expected = tuple(sorted(
            tuple(sorted((u, v))) for u in dropped.left for v in dropped.right))
        assert report.violating_pairs == expected
    _passed("deleting any single matrix block is detected pair-exactly")


def test_random_graph_demo():
    start = time.monotonic()
    g = random_graph(200, 0.5, 1)
    colors = greedy_coloring(g)
    cov = coloring_to_covering(g, colors)
    assert verify(cov, g, 1).ok
    cap = capacity(cov)
    lower = alpha_lower(g, alpha_per_vertex(g, limit=200))
    upper = 200 * (max(colors)).bit_length()
    assert lower - TOL <= cap <= upper
    assert time.monotonic() - start < 30
    _passed("coloring-based covering of a seeded random graph sits between bounds")
