import json
from itertools import combinations
from math import ceil, log2
from pathlib import Path

import pytest

from bicover import cli, exact
from bicover.bounds import edge_count_lower, tail_lower
from bicover.covering import (BipartiteBlock, Covering,
                              balanced_bipartitions_covering, capacity,
                              code_to_covering, parse_covering,
                              serialize_covering, verify)
from bicover.codes import BinaryCode, even_weight_code, hadamard_code
from bicover.errors import BudgetExhausted, DomainError
from bicover.exact import (SearchBudget, _CapSearch, _all_blocks, _root_need,
                           _start, _table, exact_cap)

import reference_paths

# Value, serialized witness and node count of each benchmark instance and
# of n = 6 at lambda 1 and 2: a faster search must visit the same nodes and
# return the same witness, so that `bicover exact` output stays byte-equal.
PINS = json.loads((Path(__file__).parent / "data" / "exact_pins.json").read_text())


def naive_min_cap(n, lam, cap_hi):
    """Independent brute-force: enumerate all block multisets up to cap_hi."""
    verts = range(1, n + 1)
    blocks = []
    for size_left in range(1, n):
        for left in combinations(verts, size_left):
            rest = [v for v in verts if v not in left]
            for size_right in range(1, len(rest) + 1):
                for right in combinations(rest, size_right):
                    if (len(left), left) <= (len(right), right):
                        blocks.append((left, right))

    pairs = list(combinations(verts, 2))

    def covered(chosen):
        for u, v in pairs:
            count = sum(1 for left, right in chosen
                        if (u in left and v in right) or (v in left and u in right))
            if count < lam:
                return False
        return True

    best = None

    def rec(start, chosen, cap):
        nonlocal best
        if covered(chosen):
            total = sum(len(a) + len(b) for a, b in chosen)
            if best is None or total < best:
                best = total
            return
        for i in range(start, len(blocks)):
            size = len(blocks[i][0]) + len(blocks[i][1])
            if size <= cap:
                rec(i, chosen + [blocks[i]], cap - size)

    rec(0, [], cap_hi)
    return best


# (3, lam) = ceil(9 lam / 2): a block on 3 vertices separates 2 of the 3
# pairs, so capacity >= 1.5 * 3 lam.  From lam = 11 on, every optimum has
# more than 16 blocks.
@pytest.mark.parametrize("n,lam,want", [(2, 1, 2), (2, 2, 4), (3, 1, 5), (4, 1, 8)]
                         + [(3, lam, -(-9 * lam // 2)) for lam in range(2, 15)])
def test_exact_cap_values(n, lam, want):
    value, witness = exact_cap(n, lam)
    assert value == want
    assert capacity(witness) == want
    assert verify(witness, n, lam).ok


def test_exact_cap_small_matches_naive_enumeration():
    assert naive_min_cap(2, 1, 4) == 2
    assert naive_min_cap(2, 2, 6) == 4
    assert naive_min_cap(3, 1, 6) == 5
    assert naive_min_cap(3, 2, 10) == 9


def test_exact_cap_3_2():
    value, witness = exact_cap(3, 2)
    assert value == 9
    assert verify(witness, 3, 2).ok


def test_exact_cap_5_1():
    value, witness = exact_cap(5, 1, SearchBudget(max_capacity=16,
                                                  node_limit=5_000_000))
    assert value == 12 == ceil(5 * log2(5))
    assert verify(witness, 5, 1).ok


def test_exact_cap_4_3_met_by_greedy_code_covering():
    value, witness = exact_cap(4, 3, SearchBudget(max_capacity=24))
    assert value == 20
    assert verify(witness, 4, 3).ok
    cov = code_to_covering(BinaryCode(5, (0b00000, 0b00111, 0b11001, 0b11110)), 4)
    assert verify(cov, 4, 3).ok
    assert capacity(cov) == 20


def test_exact_cap_4_2_matches_tight_constructions():
    value, witness = exact_cap(4, 2)
    assert value == 12
    assert capacity(code_to_covering(hadamard_code(2), 4)) == 12
    assert capacity(balanced_bipartitions_covering(4)) == 12


def test_exact_cap_deterministic_witness():
    a = exact_cap(3, 1)
    b = exact_cap(3, 1)
    assert a == b
    assert a[1].blocks == (BipartiteBlock([1], [2]), BipartiteBlock([3], [1, 2]))
    _, witness22 = exact_cap(2, 2)
    assert witness22.blocks == (BipartiteBlock([1], [2]),) * 2


def test_exact_cap_edge_cases():
    assert exact_cap(1, 1) == (0, Covering(1))
    with pytest.raises(DomainError):
        exact_cap(3, 0)
    with pytest.raises(DomainError):
        exact_cap(0, 1)


def test_exact_cap_budget_exhaustion():
    with pytest.raises(BudgetExhausted) as exc:
        exact_cap(4, 1, SearchBudget(node_limit=5))
    assert exc.value.lower is not None
    with pytest.raises(BudgetExhausted) as exc:
        exact_cap(4, 1, SearchBudget(max_capacity=7))
    assert exc.value.lower == 8


def test_block_table_past_the_node_limit_is_refused_unbuilt(monkeypatch):
    # The table of (3^n - 2^(n+1) + 1)/2 blocks is charged to the node
    # budget: one larger than node_limit is refused before any block is
    # built, with the start bound as the lower end, even where the search
    # would need fewer nodes than the table has blocks, as K_4^1 and K_4^2
    # do (5 and 4 against 25).  K_4^5 needs 112, so at 25 the table is
    # built and the search runs out.
    for n in range(2, 8):
        assert len(_all_blocks(n)) == (3**n - 2**(n + 1) + 1) // 2
    with pytest.raises(BudgetExhausted) as exc:
        exact_cap(4, 5, SearchBudget(node_limit=25))
    assert (exc.value.lower, exc.value.nodes) == (31, 26)
    assert exact_cap(4, 1, SearchBudget(node_limit=25))[0] == 8
    assert exact_cap(4, 2, SearchBudget(node_limit=25))[0] == 12

    def refuse(n):
        raise AssertionError("the block table was built")

    monkeypatch.setattr(exact, "_all_blocks", refuse)
    # The lower ends: the pair-slot bound at (4, 2), Hansel's bound
    # n*k + 2*(n - 2^k) at the others.  At (4, 1) and (4, 2) they meet the
    # best construction's capacity, which closes the CLI's bracket (see
    # test_exact_past_the_node_limit_builds_no_table).
    for n, lam, limit, lower in ((4, 1, 24, 8), (4, 2, 24, 12), (4, 1, 5, 8),
                                 (14, 1, 2_000_000, 54),
                                 (30, 1, 2_000_000, 148)):
        with pytest.raises(BudgetExhausted) as exc:
            exact_cap(n, lam, SearchBudget(node_limit=limit))
        assert (exc.value.lower, exc.value.nodes) == (lower, 0)


def test_exact_cap_respects_formula_lower_bound():
    for n, lam in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]:
        value, _ = exact_cap(n, lam)
        lower = max(edge_count_lower(n, lam), tail_lower(n, lam))
        assert value >= ceil(lower - 1e-9)


def test_exact_cap_below_constructions():
    value, _ = exact_cap(4, 2)
    assert value <= capacity(code_to_covering(even_weight_code(3), 4))
    value, _ = exact_cap(4, 1)
    assert value <= capacity(code_to_covering(BinaryCode(2, range(4)), 4))


def test_exact_cap_subadditive():
    pairs = [((2, 1), (2, 1), (2, 2)), ((3, 1), (3, 1), (3, 2)),
             ((4, 1), (4, 1), (4, 2))]
    for (n1, l1), (n2, l2), (n3, l3) in pairs:
        assert exact_cap(n1, l1)[0] + exact_cap(n2, l2)[0] >= exact_cap(n3, l3)[0]


@pytest.mark.parametrize("instance", sorted(PINS))
def test_exact_cap_pinned(instance):
    n, lam = map(int, instance.split(","))
    pin = PINS[instance]
    value, witness = exact_cap(n, lam)
    assert value == pin["value"]
    assert serialize_covering(witness) == pin["witness"]
    search = _CapSearch(n, lam, SearchBudget())
    assert search.run()[0] == value
    assert search.nodes == pin["nodes"]
    # One capacity short, every level is refuted by the start bound or by a
    # completed search, so the bracket's lower end is the optimum itself.
    with pytest.raises(BudgetExhausted) as exc:
        exact_cap(n, lam, SearchBudget(max_capacity=value - 1))
    assert exc.value.lower == value


def test_exact_cap_6_1_budget_pinned():
    # Hansel's bound 6*2 + 2*(6 - 4) = 16 is the optimum, so the search
    # starts at the optimal level and settles K_6 in 304 nodes there.  A
    # budget of 302 admits the 301-block table and runs out at that level.
    with pytest.raises(BudgetExhausted) as exc:
        exact_cap(6, 1, SearchBudget(node_limit=302))
    assert exc.value.lower == 16
    assert exc.value.nodes == 303


def test_start_bound_is_hansels_integer_bound():
    # The least sum of l_i under sum 2^(-l_i) <= 1, found by halving the
    # largest term, is the closed form the start takes its max with.
    for n in range(2, 257):
        assert _start(n, 1) == max(_root_need(n, 1),
                                   reference_paths.hansel_capacity(n))
    assert [_start(n, 1) for n in (5, 6, 7, 8, 30)] == [12, 16, 20, 24, 148]


def test_start_bound_never_exceeds_a_pinned_value():
    # Every lam-fold covering covers K_n, so Hansel's bound holds at every
    # lam; the pair-slot bound is the root's counting bound.
    known = {(n, lam): pin["value"] for n, lam, pin in
             ((*map(int, key.split(",")), pin) for key, pin in PINS.items())}
    known.update({(2, lam): 2 * lam for lam in range(1, 15)})
    known.update({(3, lam): -(-9 * lam // 2) for lam in range(1, 15)})
    for (n, lam), value in known.items():
        assert _start(n, lam) <= value, (n, lam)


@pytest.mark.parametrize("argv,lower", [
    (["--n", "5", "--lambda", "10"], 84),   # pair-slot bound, past 64
    (["--n", "3", "--lambda", "20"], 90),   # the optimum itself
    (["--n", "6", "--lambda", "1", "--max-capacity", "12"], 16),  # Hansel
])
def test_bracket_lower_end_keeps_the_start_bound(capsys, argv, lower):
    # Where the start bound exceeds --max-capacity no level is searched,
    # and the lower end is that bound, not max_capacity + 1.
    assert cli.main(["exact", *argv]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["lower"]) == ("bracket", lower)


def test_exact_values_match_exact_cap():
    lams = [1, 2, 3, 5]
    for n in (1, 2, 3, 4, 5):
        assert exact.exact_values(n, lams) == [exact_cap(n, lam)[0]
                                              for lam in lams]
    budget = SearchBudget(node_limit=30)
    assert exact.exact_values(4, [1, 2, 5], budget) == [8, 12, None]
    assert exact.exact_values(5, [1], budget) == [None]  # 90 blocks, refused



def test_search_tables_group_the_blocks_by_waste():
    table = _table(5)
    waste = [table.q * size - 5 * len(ps)
             for size, ps in zip(table.sizes, table.block_pairs)]
    assert table.by_waste == [
        (w, [bi for bi, x in enumerate(waste) if x == w])
        for w in sorted(set(waste))]


def test_searches_in_turn_keep_their_pins():
    # A search builds and reads only its own tables, so a second search at
    # the same n, after one at another n, visits the pinned nodes and
    # returns the pinned witness again.
    for instance in ("5,2", "4,3", "5,2"):
        n, lam = map(int, instance.split(","))
        value, witness = exact_cap(n, lam)
        search = _CapSearch(n, lam, SearchBudget())
        assert search.run()[0] == value == PINS[instance]["value"]
        assert serialize_covering(witness) == PINS[instance]["witness"]
        assert search.nodes == PINS[instance]["nodes"]


def test_exact_past_the_node_limit_builds_no_table(monkeypatch, capsys):
    def refuse(n):
        raise AssertionError(f"the block table was built at n = {n}")

    monkeypatch.setattr(exact, "_all_blocks", refuse)
    assert cli.main(["exact", "--n", "30", "--lambda", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["status"], doc["lower"], doc["upper"]) == ("bracket", 148, 150)
    # Where the start bound meets the best construction's capacity, the
    # bracket is closed: that covering is the witness of an optimum.
    for argv, value in ((["--n", "4", "--lambda", "1", "--node-limit", "5"], 8),
                        (["--n", "4", "--lambda", "2", "--node-limit", "24"], 12),
                        (["--n", "16", "--lambda", "1"], 64)):
        assert cli.main(["exact", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["status"], doc["value"]) == ("optimal", value)
        assert "lower" not in doc and "upper" not in doc
        witness = parse_covering(json.dumps(doc["witness"]))
        assert capacity(witness) == value
        assert verify(witness, witness.n, int(argv[3])).ok
