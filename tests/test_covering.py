import json
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from bicover import covering
from bicover.codes import WORD_CAP, BinaryCode, even_weight_code, hadamard_code
from bicover.covering import (BipartiteBlock, Covering,
                              balanced_bipartitions_covering, capacity,
                              code_to_covering, coloring_to_covering,
                              degenerate_rows, incidence_counts,
                              parse_covering, serialize_covering, verify)
from bicover.errors import (DomainError, GroundSetMismatch, ImproperColoring,
                            NotEnoughCodewords, OverlapError, ParseError,
                            RangeError, SizeLimitExceeded)
from bicover.graphs import Graph, random_graph


def naive_multiplicity(cov, u, v):
    return sum(1 for b in cov.blocks if b.separates(u, v))


def test_block_validation():
    with pytest.raises(DomainError):
        BipartiteBlock([], [1])
    with pytest.raises(OverlapError):
        BipartiteBlock([1, 2], [2, 3])
    with pytest.raises(RangeError):
        Covering(3, [BipartiteBlock([1], [4])])


def test_capacity_examples():
    assert capacity(Covering(3)) == 0
    assert capacity(Covering(3, [BipartiteBlock([1], [2, 3])])) == 3
    assert capacity(code_to_covering(hadamard_code(2), 4)) == 12


def test_incidence_examples():
    assert incidence_counts(Covering(3, [BipartiteBlock([1], [2, 3])])) == [1, 1, 1]
    two = Covering(2, [BipartiteBlock([1], [2])] * 2)
    assert incidence_counts(two) == [2, 2]
    assert incidence_counts(code_to_covering(hadamard_code(2), 4)) == [3, 3, 3, 3]
    for cov in (code_to_covering(hadamard_code(3), 8),
                balanced_bipartitions_covering(6)):
        assert sum(incidence_counts(cov)) == capacity(cov)


def test_code_to_covering_full_binary():
    cov = code_to_covering(BinaryCode(2, (0b00, 0b01, 0b10, 0b11)), 4)
    assert len(cov.blocks) == 2
    assert capacity(cov) == 8
    assert all(naive_multiplicity(cov, u, v) >= 1
               for u, v in combinations(range(1, 5), 2))


def test_code_to_covering_even_weight():
    cov = code_to_covering(even_weight_code(3), 4)
    assert len(cov.blocks) == 3
    assert capacity(cov) == 12
    report = verify(cov, 4, 2)
    assert report.ok and report.min_multiplicity == 2


def test_code_to_covering_single_edge():
    cov = code_to_covering(BinaryCode(1, (0, 1)), 2)
    assert cov.blocks == (BipartiteBlock([1], [2]),)
    assert capacity(cov) == 2


def test_code_to_covering_errors_and_degenerates():
    with pytest.raises(NotEnoughCodewords):
        code_to_covering(BinaryCode(2, (0, 1)), 3)
    with pytest.raises(DomainError):
        code_to_covering(BinaryCode(2, (0, 1)), 1)
    # leading bit constant on the first two words: row 0 separates nothing
    code = BinaryCode(2, (0b00, 0b01, 0b10))
    assert degenerate_rows(code, 2) == [0]
    cov = code_to_covering(code, 2)
    assert len(cov.blocks) == 1
    assert capacity(cov) == 2


def test_multiplicity_equals_hamming_distance():
    code = even_weight_code(4)
    cov = code_to_covering(code, 8)
    for (i, u), (j, v) in combinations(enumerate(code.words[:8], start=1), 2):
        assert naive_multiplicity(cov, i, j) == (u ^ v).bit_count()


def test_verify_examples():
    lam = 3
    cov = Covering(2, [BipartiteBlock([1], [2])] * lam)
    report = verify(cov, 2, lam)
    assert report.ok and report.min_multiplicity == lam
    empty = verify(Covering(3), 3, 1)
    assert not empty.ok
    assert empty.min_multiplicity == 0
    assert empty.violating_pairs == ((1, 2), (1, 3), (2, 3))
    had = verify(code_to_covering(hadamard_code(2), 4), 4, 2)
    assert had.ok and had.histogram == {2: 6}


def test_verify_graph_target():
    path = Graph(3, [(1, 2), (2, 3)])
    cov = Covering(3, [BipartiteBlock([1, 3], [2])])
    report = verify(cov, path, 1)
    assert report.ok and report.pair_count == 2
    with pytest.raises(GroundSetMismatch):
        verify(cov, Graph(4, [(1, 2)]), 1)
    with pytest.raises(GroundSetMismatch):
        verify(cov, 4, 1)


def test_verify_no_required_pairs():
    report = verify(Covering(1), 1, 1)
    assert report.ok and report.min_multiplicity is None


def test_hadamard_covering_tightness():
    for m in (1, 2, 3):
        n = 1 << m
        cov = code_to_covering(hadamard_code(m), n)
        assert len(cov.blocks) == n - 1
        assert capacity(cov) == n * (n - 1) == 2 * (n // 2) * (n - 1)
        report = verify(cov, n, n // 2)
        assert report.ok and report.histogram == {n // 2: comb(n, 2)}


def test_balanced_bipartitions():
    cov = balanced_bipartitions_covering(4)
    assert [(sorted(b.left), sorted(b.right)) for b in cov.blocks] == [
        ([1, 2], [3, 4]), ([1, 3], [2, 4]), ([1, 4], [2, 3])]
    assert capacity(cov) == 12
    assert verify(cov, 4, 2).histogram == {2: 6}
    single = balanced_bipartitions_covering(2)
    assert capacity(single) == 2 and verify(single, 2, 1).ok
    six = balanced_bipartitions_covering(6)
    assert len(six.blocks) == 10 and capacity(six) == 60
    lam = comb(4, 2)
    assert capacity(six) == 2 * lam * 5
    assert verify(six, 6, lam).histogram == {lam: 15}
    with pytest.raises(DomainError):
        balanced_bipartitions_covering(5)


def test_covering_sum():
    h = code_to_covering(hadamard_code(2), 4)
    double = Covering(4, h.blocks + h.blocks)
    assert capacity(double) == 24
    assert verify(double, 4, 4).ok
    assert Covering(4, h.blocks + Covering(4).blocks) == h
    mixed = Covering(4, h.blocks + balanced_bipartitions_covering(4).blocks)
    assert capacity(mixed) == 24
    assert verify(mixed, 4, 4).ok


def test_covering_sum_multiplicity_additive():
    a = code_to_covering(hadamard_code(2), 4)
    b = code_to_covering(even_weight_code(3), 4)
    s = Covering(4, a.blocks + b.blocks)
    for u, v in combinations(range(1, 5), 2):
        assert naive_multiplicity(s, u, v) == (
            naive_multiplicity(a, u, v) + naive_multiplicity(b, u, v))


def test_coloring_to_covering():
    k2 = Graph(2, [(1, 2)])
    cov = coloring_to_covering(k2, [0, 1])
    assert cov.blocks == (BipartiteBlock([1], [2]),)
    k4 = Graph(4, list(combinations(range(1, 5), 2)))
    cov = coloring_to_covering(k4, [0, 1, 2, 3])
    assert len(cov.blocks) == 2 and capacity(cov) == 8
    assert verify(cov, k4, 1).ok
    path = Graph(3, [(1, 2), (2, 3)])
    cov = coloring_to_covering(path, [0, 1, 0])
    assert cov.blocks == (BipartiteBlock([1, 3], [2]),)
    assert capacity(cov) == 3
    assert verify(cov, path, 1).ok
    with pytest.raises(ImproperColoring):
        coloring_to_covering(path, [0, 0, 1])


def test_valid_coverings_meet_edge_count_inequality():
    cases = [(code_to_covering(hadamard_code(2), 4), 4, 2),
             (code_to_covering(hadamard_code(3), 8), 8, 4),
             (balanced_bipartitions_covering(6), 6, 6),
             (code_to_covering(even_weight_code(4), 8), 8, 2)]
    for cov, n, lam in cases:
        assert verify(cov, n, lam).ok
        assert sum(b.size ** 2 for b in cov.blocks) >= 2 * lam * n * (n - 1)
        assert min(incidence_counts(cov)) >= lam


def test_parse_and_serialize():
    cov = parse_covering('{"n":2,"blocks":[{"left":[1],"right":[2]}]}')
    assert cov == Covering(2, [BipartiteBlock([1], [2])])
    with pytest.raises(ParseError, match="overlap"):
        parse_covering('{"n":3,"blocks":[{"left":[1,2],"right":[2]}]}')
    with pytest.raises(RangeError):
        parse_covering('{"n":2,"blocks":[{"left":[1],"right":[3]}]}')
    for bad in ('{"n":2,"blocks":[{"left":[],"right":[1]}]}',
                '{"n":2,"blocks":[{"left":[1]}]}',
                '{"n":2}', '{"n":2,"blocks":[{"left":[1,1],"right":[2]}]}'):
        with pytest.raises(ParseError):
            parse_covering(bad)
    for n in (2**31, 10**12, 2**64 + 3):
        with pytest.raises(ParseError, match="below 2\\^31"):
            parse_covering('{"n": %d, "blocks": [{"left": [1], "right": [2]}]}' % n)
    h = code_to_covering(hadamard_code(2), 4)
    assert parse_covering(serialize_covering(h)) == h
    doc = json.loads(serialize_covering(Covering(2, [BipartiteBlock([2], [1])])))
    assert doc == {"n": 2, "blocks": [{"left": [2], "right": [1]}]}


def test_parse_refuses_deep_nesting():
    # Deeper than the json decoder's recursion limit.
    for text in ("[" * 200_000, '{"n": 2, "blocks": ' + "[" * 200_000):
        with pytest.raises(ParseError, match="^invalid JSON: maximum recursion"):
            parse_covering(text)


def test_random_coloring_coverings_cover_their_graphs():
    from bicover.graphs import greedy_coloring
    for seed in range(4):
        g = random_graph(18, 0.5, seed)
        cov = coloring_to_covering(g, greedy_coloring(g))
        assert verify(cov, g, 1).ok


def random_covering(n, blocks, rng):
    out = []
    for _ in range(blocks):
        verts = rng.sample(range(1, n + 1), rng.randint(2, n))
        cut = rng.randint(1, len(verts) - 1)
        out.append(BipartiteBlock(verts[:cut], verts[cut:]))
    return Covering(n, out)


def test_verifier_matches_naive_count_on_random_coverings():
    import random as rnd
    rng = rnd.Random(99)
    for _ in range(25):
        n = rng.randint(2, 9)
        cov = random_covering(n, rng.randint(0, 6), rng)
        lam = rng.randint(1, 3)
        report = verify(cov, n, lam)
        mults = {(u, v): naive_multiplicity(cov, u, v)
                 for u, v in combinations(range(1, n + 1), 2)}
        assert report.min_multiplicity == (min(mults.values()) if mults else None)
        assert report.violating_pairs == tuple(
            p for p in sorted(mults) if mults[p] < lam)
        hist = {}
        for m in mults.values():
            hist[m] = hist.get(m, 0) + 1
        assert report.histogram == hist
        assert report.ok == all(m >= lam for m in mults.values())


def _peak_while(fn, *args):
    """The error ``fn`` raises and the traced allocation peak until then."""
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded) as refused:
            fn(*args)
        return str(refused.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# With the cap patched to 1 MiB, n = 600 000 needs 9.6 MB of masks, and one
# block 1.2 MB of words, so a builder that allocated its words before its
# check would show a peak above 1 MiB.
@pytest.mark.parametrize("blocks", [(), [BipartiteBlock([1], [2])]])
def test_covering_past_the_byte_cap_is_refused_before_it_allocates(monkeypatch, blocks):
    monkeypatch.setattr(covering, "COVERING_BYTE_CAP", 1 << 20)
    n, m = 600_000, len(blocks)
    message, peak = _peak_while(Covering, n, blocks)
    assert message == (f"a covering with n = {n} and m = {m} takes "
                       f"{2 * (n + 1) * m + 16 * (n + 1)} bytes of words and "
                       "masks, over the cap of 1048576")
    assert peak < 1 << 20


def test_from_words_and_lift_check_the_byte_cap(monkeypatch):
    monkeypatch.setattr(covering, "COVERING_BYTE_CAP", 1 << 20)
    words = np.zeros((2, 60_000, 1), dtype=bool)
    words[0, :2], words[1, 1] = True, True
    _, peak = _peak_while(covering.from_words, *words)
    assert peak < 1 << 20
    small = covering.from_words(*words[:, :2])
    assert small.m == 1
    _peak_while(covering.lift, small, [1, 2] * 30_000)


@pytest.mark.parametrize("n, m", [
    (WORD_CAP, 31),       # the BCH covering of the n = 2^20 pipeline
    (WORD_CAP, 512),      # code and coloring coverings up to the word cap
    (22, 352_716),        # the balanced covering at n = 22
    (4096, 4095),         # the largest Hadamard covering
])
def test_byte_cap_admits_what_the_toolkit_builds(n, m):
    covering._check_size(n, m)


def test_largest_balanced_and_hadamard_coverings_build_under_the_cap():
    assert balanced_bipartitions_covering(22).m == comb(22, 11) // 2 == 352_716
    cov = code_to_covering(hadamard_code(11), 2048)
    assert cov.m == 2047 and verify(cov, 2048, 1024).ok
