from fractions import Fraction
from math import log

import pytest

from bicover.bounds import binom_tail_p, graph_report
from bicover import diagnostics
from bicover.covering import (BipartiteBlock, Covering, code_to_covering,
                              coloring_to_covering, incidence_counts, verify)
from bicover.codes import BinaryCode, hadamard_code
from bicover.diagnostics import (check_convex_tail_bound,
                                 check_event_disjointness, check_event_overlap,
                                 check_independent_event_sets, check_tail_sum)
from bicover.errors import DomainError, InvalidCovering, SizeLimitExceeded
from bicover.graphs import (Graph, alpha_per_vertex, complete_graph, empty_graph,
                            greedy_coloring, random_graph)

import reference_paths

K23 = Covering(2, [BipartiteBlock([1], [2])] * 3)
K3_COVER = Covering(3, [BipartiteBlock([1], [2, 3]), BipartiteBlock([2], [3])])


def test_event_profile():
    assert incidence_counts(K3_COVER) == [1, 2, 2]
    assert reference_paths.profile_masks(K3_COVER) == ((0b01, 0b10, 0),
                                                       (0, 0b01, 0b11))


def test_tail_sum_boundaries():
    rep = check_tail_sum(K23, 3)
    assert rep.sum == 1 and rep.ok
    had = check_tail_sum(code_to_covering(hadamard_code(2), 4), 2)
    assert had.sum == Fraction(1, 2) and had.ok
    single = check_tail_sum(Covering(2, [BipartiteBlock([1], [2])]), 1)
    assert single.sum == 1 and single.ok


def test_tail_sum_requires_valid_covering():
    with pytest.raises(InvalidCovering):
        check_tail_sum(Covering(3, [BipartiteBlock([1], [2])]), 1)
    with pytest.raises(InvalidCovering):
        check_tail_sum(K23, 4)


def test_disjointness_exhaustive_tiny():
    rep = check_event_disjointness(K23, 3)
    assert rep.ok and rep.mode == "exhaustive"
    assert rep.details["vectors"] == 8
    assert rep.details["double_occurrences"] == 0


def test_disjointness_lambda_one_distinct_columns():
    cov = code_to_covering(BinaryCode(2, range(4)), 4)
    rep = check_event_disjointness(cov, 1)
    assert rep.ok


def test_disjointness_sampled_deterministic():
    cov = code_to_covering(hadamard_code(3), 8)
    rep = check_event_disjointness(cov, 4, mode="sampled", seed=1, trials=100_000)
    assert rep.ok and rep.trials == 100_000
    rep2 = check_event_disjointness(cov, 4, mode="sampled", seed=1, trials=100_000)
    assert rep.to_dict() == rep2.to_dict()


def test_disjointness_exhaustive_limit():
    cov = Covering(2, [BipartiteBlock([1], [2])] * 21)
    with pytest.raises(SizeLimitExceeded):
        check_event_disjointness(cov, 21)


def test_convex_tail_bound():
    rep = check_convex_tail_bound(K23, 3)
    assert rep.sum == Fraction(6, 8) and rep.ok
    with pytest.raises(DomainError):
        check_convex_tail_bound(code_to_covering(hadamard_code(2), 4), 2)


def test_pointwise_tail_minorant():
    assert binom_tail_p(3, 1) == Fraction(1, 2) >= Fraction(3, 8)
    assert binom_tail_p(5, 2) == Fraction(1, 2) >= Fraction(25, 4) / 32
    for x in range(3, 40):
        assert binom_tail_p(x, 1) >= Fraction(x, 1) / (1 << x)
    for x in range(5, 40):
        assert binom_tail_p(x, 2) >= Fraction(x, 2) ** 2 / (1 << x)


def test_convexity_second_derivative_sign_at_lower_end():
    # for r = 1 the second derivative is ln(2) * 2^(-x) * (x ln 2 - 2)
    x = 3.0
    value = log(2) * 2 ** (-x) * (x * log(2) - 2)
    assert value > 0


def test_overlap_k3_boundary():
    rep = check_event_overlap(K3_COVER, complete_graph(3))
    assert rep.sum == 1 and rep.ok


def test_overlap_empty_graph_boundary():
    rep = check_event_overlap(Covering(4), empty_graph(4))
    assert rep.sum == 1 and rep.ok


def test_overlap_sum_on_complete_graphs_is_the_tail_sum():
    # K_n has alpha = 1 at every vertex, and at lambda = 1 the tail is r = 0:
    # both sums are the sum of 2^(-x_j).
    h2 = code_to_covering(hadamard_code(2), 4)
    coverings = [K23, K3_COVER, Covering(2, [BipartiteBlock([1], [2])]), h2,
                 code_to_covering(hadamard_code(3), 8),
                 code_to_covering(BinaryCode(2, range(4)), 4),
                 code_to_covering(BinaryCode(3, range(8)), 8),
                 Covering(4, h2.blocks
                          + code_to_covering(BinaryCode(2, range(4)), 4).blocks)]
    for cov in coverings:
        assert (check_event_overlap(cov, complete_graph(cov.n)).sum
                == check_tail_sum(cov, 1).sum)


def test_overlap_cycle_coloring():
    c5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    cov = coloring_to_covering(c5, greedy_coloring(c5))
    rep = check_event_overlap(cov, c5)
    assert rep.ok and rep.sum <= 1
    rep_sampled = check_event_overlap(cov, c5, mode="sampled", seed=3, trials=2000)
    assert rep_sampled.ok and rep_sampled.trials == 2000


def test_overlap_refuses_alphas_of_the_wrong_length():
    # The sum pairs each vertex's incidence count with its alpha.
    for alphas in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(ValueError):
            check_event_overlap(K3_COVER, complete_graph(3), alphas=alphas)


def test_overlap_requires_valid_covering():
    with pytest.raises(InvalidCovering):
        check_event_overlap(Covering(3), complete_graph(3))


def test_independent_event_sets():
    rep = check_independent_event_sets(K3_COVER, complete_graph(3))
    assert rep.ok
    path = Graph(3, [(1, 2), (2, 3)])
    cov = Covering(3, [BipartiteBlock([1, 3], [2])])
    assert check_independent_event_sets(cov, path).ok
    assert check_independent_event_sets(Covering(4), empty_graph(4)).ok


def test_independent_event_sets_complete_graph_singletons():
    cov = code_to_covering(BinaryCode(3, range(8)), 8)
    masks = reference_paths.profile_masks(cov)
    for v in range(1 << cov.m):
        assert len(reference_paths.matching_vertices(masks, v)) <= 1
    assert check_independent_event_sets(cov, complete_graph(8)).ok


def test_alpha_limit_passes_through_unchanged():
    # limit=None means DEFAULT_EXACT_LIMIT (40) at every entry point.
    g = random_graph(41, 0.5, 1)
    cov = coloring_to_covering(g, greedy_coloring(g))
    calls = [lambda **kw: alpha_per_vertex(g, **kw),
             lambda **kw: graph_report(g, **kw),
             lambda **kw: check_event_overlap(cov, g, **kw)]
    for call in calls:
        with pytest.raises(SizeLimitExceeded):
            call()
        with pytest.raises(SizeLimitExceeded):
            call(limit=None)
        call(limit=41)
    with pytest.raises(SizeLimitExceeded):
        alpha_per_vertex(g, None)


def test_negative_control_broken_covering():
    h = code_to_covering(hadamard_code(2), 4)
    broken = Covering(4, h.blocks[1:])
    with pytest.raises(InvalidCovering):
        check_tail_sum(broken, 2)
    with pytest.raises(InvalidCovering):
        check_event_disjointness(broken, 2)
    with pytest.raises(InvalidCovering):
        check_event_overlap(Covering(3, K3_COVER.blocks[:1]), complete_graph(3))


def test_recorded_verify_does_not_excuse_an_invalid_covering():
    # A verify at a lower level, or on another target, records a result
    # that must not stand in for the check at a higher level.
    h = code_to_covering(hadamard_code(2), 4)
    assert verify(h, 4, 1).ok
    with pytest.raises(InvalidCovering):
        check_tail_sum(h, 3)
    part = Covering(3, K3_COVER.blocks[:1])
    assert not verify(part, complete_graph(3), 1).ok
    assert verify(part, Graph(3, [(1, 2)]), 1).ok
    with pytest.raises(InvalidCovering):
        check_event_overlap(part, complete_graph(3))


def test_recorded_verify_is_reused(monkeypatch):
    calls = []

    def counted(cov, target, lam):
        calls.append(lam)
        return verify(cov, target, lam)

    monkeypatch.setattr(diagnostics, "verify", counted)
    h = code_to_covering(hadamard_code(3), 8)
    check_tail_sum(h, 4)
    check_event_disjointness(h, 3)
    check_convex_tail_bound(h, 4)
    assert calls == [4]
    # No required pairs: the recorded minimum is None, which counts as valid.
    cov = Covering(3, [BipartiteBlock([1], [2])])
    assert verify(cov, empty_graph(3), 1).min_multiplicity is None
    assert check_independent_event_sets(cov, empty_graph(3)).ok
    assert calls == [4]


def test_sum_covering_diagnostics():
    mixed = Covering(4, code_to_covering(hadamard_code(2), 4).blocks
                     + code_to_covering(BinaryCode(2, range(4)), 4).blocks)
    rep = check_tail_sum(mixed, 3)
    assert rep.ok
    assert check_event_disjointness(mixed, 3).ok
    assert check_convex_tail_bound(mixed, 3).ok


def test_report_json_shape():
    rep = check_tail_sum(K23, 3)
    doc = rep.to_dict()
    assert doc["check"] == "tail-sum"
    assert doc["sum"] == "1/1"
    assert doc["ok"] is True and doc["violations"] == []
