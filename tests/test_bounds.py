from fractions import Fraction
from math import comb, isnan, log2

import mpmath
import pytest

from bicover.bounds import (alpha_lower, binom_tail_p, bch_backed,
                            degree_lower, edge_count_lower, entropy,
                            graph_report, multigraph_report, tail_lower,
                            upper_bch, upper_even_weight, upper_gv,
                            upper_linear)
from bicover.covering import capacity, code_to_covering
from bicover.codes import ball_volume, even_weight_code, hadamard_code
from bicover.errors import DomainError
from bicover.graphs import (Graph, alpha_per_vertex, complete_graph, degrees,
                            empty_graph, random_graph)

C5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def cap_lower(n, lam):
    """The sharper of the two K_n^lam lower bounds."""
    return max(edge_count_lower(n, lam), tail_lower(n, lam))


def test_cap_lower_examples():
    assert cap_lower(16, 3) == pytest.approx(96)
    assert tail_lower(16, 3) == pytest.approx(16 * (4 + log2(4)))
    assert cap_lower(4, 2) == pytest.approx(12)   # max(12, 8)
    assert cap_lower(8, 1) == pytest.approx(24)   # r = 0 reduces to n log n
    assert edge_count_lower(8, 1) == 14


def test_hansel_examples():
    # Hansel's n log n is the binomial-tail bound at lam <= 2.
    for lam in (1, 2):
        assert tail_lower(8, lam) == pytest.approx(24)
        assert tail_lower(3, lam) == pytest.approx(3 * log2(3))
        assert tail_lower(3, lam) == pytest.approx(4.7549, abs=1e-4)


def test_degree_lower_examples():
    n = 6
    assert degree_lower(complete_graph(n)) == pytest.approx(n * log2(n))
    assert degree_lower(empty_graph(4)) == 0
    assert degree_lower(C5) == pytest.approx(5 * log2(5 / 3))
    assert degree_lower(C5) == pytest.approx(3.6848, abs=1e-4)


def test_alpha_lower_examples():
    n = 6
    k6, e4 = complete_graph(n), empty_graph(4)
    assert alpha_lower(k6, alpha_per_vertex(k6)) == pytest.approx(n * log2(n))
    assert alpha_lower(e4, alpha_per_vertex(e4)) == 0
    c5 = alpha_lower(C5, alpha_per_vertex(C5))
    assert c5 == pytest.approx(5 * log2(2.5))
    assert c5 == pytest.approx(6.6096, abs=1e-4)


def test_alpha_dominates_degree_bound():
    for seed in range(15):
        g = random_graph(18, (0.2, 0.5, 0.8)[seed % 3], seed)
        assert alpha_lower(g, alpha_per_vertex(g)) >= degree_lower(g) - 1e-9


def test_cap_lower_dominates_hansel_in_regime():
    for n in (4, 16, 64, 1024):
        for lam in range(1, int(2 * log2(n)) + 2):
            assert cap_lower(n, lam) >= tail_lower(n, 1) - 1e-9


def test_upper_even_weight():
    assert upper_even_weight(4, 2) == 12
    assert upper_even_weight(8, 1) == 32
    assert upper_even_weight(10, 2) == 50
    with pytest.raises(DomainError, match="distance 2 only"):
        upper_even_weight(8, 3)
    with pytest.raises(DomainError):
        upper_even_weight(1, 1)


def test_upper_gv():
    n, lam = 1024, 5
    want = n * (log2(n) + (lam - 1) * (log2(log2(n) / (lam - 1)) + 4))
    assert upper_gv(n, lam) == pytest.approx(want)
    with pytest.raises(DomainError):
        upper_gv(16, 3)       # lam > 0.5 log n
    with pytest.raises(DomainError):
        upper_gv(1024, 1)


def test_upper_linear():
    with pytest.raises(DomainError):
        upper_linear(1024, 5, 0.25)   # threshold ~ 13.25 > 5
    assert upper_linear(1024, 20, 0.25) == pytest.approx(20 / 0.25 * 1024)
    with pytest.raises(DomainError):
        upper_linear(1024, 20, 0.6)


def test_upper_bch_and_flag():
    from bicover.codes import bch_extended_code
    assert upper_bch(16, 4) == pytest.approx(16 * (4 + 2 + 2))
    value = upper_bch(2048, 4)
    assert value == pytest.approx(2048 * (11 + log2(11) + 2))
    covering = code_to_covering(bch_extended_code(4, 2, 2048), 2048)
    assert capacity(covering) <= value
    assert bch_backed(16, 4)
    assert bch_backed(2048, 4)
    assert not bch_backed(100, 4)


def test_bch_flag_needs_the_covering_within_the_formula():
    # At lam = 9 and 11, n = 2048 is the m = 5 code's word count, but its
    # covering has capacity 2048 * 32 = 65536, above the formula; at lam = 4
    # (test_upper_bch_and_flag) the m = 4 covering's 32768 is below it.
    for lam in (9, 11):
        assert upper_bch(2048, lam) < 65536
        assert not bch_backed(2048, lam)
        flags = {e.name: e.flags for e in multigraph_report(2048, lam).entries}
        assert flags["bch"] == ("formula-only",)
    assert not bch_backed(2, 3)


def test_gv_count():
    # The Gilbert-Varshamov count ceil(2^k / V(k, d - 1)).
    def gv_count(k, d):
        return -(-(1 << k) // ball_volume(k, d - 1))
    assert gv_count(5, 3) == 2
    for k in (1, 4, 9):
        assert gv_count(k, 1) == 1 << k
    assert ball_volume(16, 3) == sum(comb(16, i) for i in range(4)) == 697
    assert gv_count(16, 4) == 95


def test_binom_tail_p():
    assert binom_tail_p(3, 1) == Fraction(1, 2)
    for x in (1, 4, 9):
        assert binom_tail_p(x, x) == 1
    assert binom_tail_p(5, 1) == Fraction(3, 16)
    # Past x every outcome is at most r.
    assert binom_tail_p(3, 4) == binom_tail_p(0, 1) == 1
    with pytest.raises(DomainError):
        binom_tail_p(3, -1)


def test_entropy():
    assert entropy(0.5) == pytest.approx(1.0)
    assert entropy(0.3) == pytest.approx(entropy(0.7))
    assert entropy(0.25) == pytest.approx(0.811278, abs=1e-6)
    for bad in (0, 1, -0.1, 1.5):
        with pytest.raises(DomainError):
            entropy(bad)


def test_log_sums_match_high_precision():
    mpmath.mp.dps = 50
    for seed in range(5):
        g = random_graph(14, 0.5, seed)
        n = g.n
        precise_deg = float(sum(mpmath.log(mpmath.mpf(n) / (n - d), 2)
                                for d in degrees(g)))
        assert abs(degree_lower(g) - precise_deg) <= 1e-9 * max(1, abs(precise_deg))
        alphas = alpha_per_vertex(g)
        precise_alpha = float(sum(mpmath.log(mpmath.mpf(n) / a, 2)
                                  for a in alphas))
        got = alpha_lower(g, alphas)
        assert abs(got - precise_alpha) <= 1e-9 * max(1, abs(precise_alpha))


def test_constructed_capacities_respect_lower_bounds():
    cases = [(code_to_covering(hadamard_code(2), 4), 4, 2),
             (code_to_covering(hadamard_code(3), 8), 8, 4),
             (code_to_covering(even_weight_code(4), 8), 8, 2)]
    for cov, n, lam in cases:
        assert capacity(cov) >= cap_lower(n, lam) - 1e-9


def test_multigraph_report_structure():
    rep = multigraph_report(16, 3)
    by_name = {e.name: e for e in rep.entries}
    assert by_name["edge-count"].value == 90
    assert by_name["binomial-tail"].value == pytest.approx(96)
    assert "inapplicable" in by_name["even-weight"].flags
    assert "inapplicable" in by_name["gv"].flags
    assert by_name["bch"].flags == ("construction-backed",)
    lowers = [e.value for e in rep.entries if e.side == "lower"]
    uppers = [e.value for e in rep.entries
              if e.side == "upper" and not isnan(e.value)]
    assert max(lowers) <= min(uppers)
    rep2 = multigraph_report(8, 1)
    by_name2 = {e.name: e for e in rep2.entries}
    assert by_name2["even-weight"].value == 32
    assert by_name2["binomial-tail"].flags == ("r-term-vanishes",)


def test_vacuous_tail_bound_is_flagged():
    tail = {e.name: e for e in multigraph_report(4, 100).entries}["binomial-tail"]
    assert tail.value == pytest.approx(tail_lower(4, 100))
    assert tail.value == pytest.approx(-899.35, abs=0.01)
    assert tail.flags == ("vacuous",)
    assert "vacuous" not in {e.name: e for e in multigraph_report(16, 3).entries}[
        "binomial-tail"].flags


def test_graph_report_structure():
    rep = graph_report(C5)
    by_name = {e.name: e for e in rep.entries}
    assert by_name["degree"].value == pytest.approx(3.6848, abs=1e-4)
    assert by_name["independence"].value == pytest.approx(6.6096, abs=1e-4)
    assert "entries" in rep.to_dict()
