from itertools import combinations

import numpy as np
import pytest

from bicover import codes
from bicover.codes import (BinaryCode, FieldContext, _lexicode_basis, _span,
                           ball_volume, bch_dimension, bch_extended_code,
                           build_code, even_weight_code, hadamard_code,
                           min_distance)
from bicover.errors import (DomainError, FieldError, NoConstruction,
                            SizeLimitExceeded)

import reference_paths


def pairwise_min_distance(words):
    """Independent exhaustive oracle."""
    return min((a ^ b).bit_count() for a, b in combinations(words, 2))


def greedy_scan_oracle(k, d):
    """Direct keep-if-far-from-everything-kept rescan of the word space."""
    kept = []
    for w in range(1 << k):
        if all((w ^ u).bit_count() >= d for u in kept):
            kept.append(w)
    return kept


def test_even_weight_small():
    c = even_weight_code(3)
    assert [c.word_text(w) for w in c.words] == ["000", "011", "101", "110"]
    assert c.min_distance == 2
    c2 = even_weight_code(2)
    assert [c2.word_text(w) for w in c2.words] == ["00", "11"]


def test_even_weight_k4_exhaustive():
    c = even_weight_code(4)
    assert len(c.words) == 8
    assert pairwise_min_distance(c.words) == 2
    assert all(w.bit_count() % 2 == 0 for w in c.words)


def test_even_weight_guards():
    with pytest.raises(DomainError):
        even_weight_code(1)
    with pytest.raises(SizeLimitExceeded):
        even_weight_code(22)  # 2^21 words


def lexicode(k, d, target):
    """The first ``target`` words of the length-k lexicode, from its basis."""
    return _span(_lexicode_basis(d, (target - 1).bit_length(), k), target)


def test_gv_first_words():
    assert [format(w, "05b") for w in lexicode(5, 3, 2)] == ["00000", "00111"]
    assert lexicode(4, 1, 16) == list(range(16))
    assert lexicode(5, 3, 32) == greedy_scan_oracle(5, 3)  # all 4 words


@pytest.mark.parametrize("k,d", [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (8, 4)])
def test_gv_matches_direct_scan_and_bound(k, d):
    kept = greedy_scan_oracle(k, d)
    assert lexicode(k, d, len(kept)) == kept
    assert len(kept) >= -(-(1 << k) // ball_volume(k, d - 1))
    if len(kept) >= 2:
        assert pairwise_min_distance(kept) >= d


def test_field_context_table_is_primitive():
    for m in range(2, 17):
        ctx = FieldContext(m)
        assert ctx.powers[ctx.order] == 1


def test_field_context_rejects_non_primitive():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15
    with pytest.raises(FieldError):
        FieldContext(4, modulus=0b11111)
    # (x^2 + x + 1)^2 is reducible
    with pytest.raises(FieldError):
        FieldContext(4, modulus=0b10101)
    with pytest.raises(FieldError):
        FieldContext(17)


def test_bch_m3_d2():
    c = bch_extended_code(3, 2, 16)
    assert c.length == 8
    assert len(c.words) == 16
    assert min_distance(c) == 4
    assert pairwise_min_distance(c.words) == 4
    assert all(w.bit_count() % 2 == 0 for w in c.words)


def test_bch_m4_d2():
    c = bch_extended_code(4, 2, 2048)
    assert c.length == 16
    assert len(c.words) == 2048
    assert min_distance(c) == 4
    assert all(w.bit_count() % 2 == 0 for w in c.words)


def test_bch_m4_d3():
    c = bch_extended_code(4, 3, 128)
    assert c.length == 16
    assert len(c.words) == 128
    assert len(c.words) >= (1 << 16) // (2 * 16 ** 2)
    assert min_distance(c) == 6
    assert pairwise_min_distance(c.words) == 6


def test_bch_dimension_bound():
    for m, d in [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4)]:
        assert bch_dimension(m, d) >= (1 << m) - 1 - (d - 1) * m


def test_bch_guards():
    with pytest.raises(DomainError):
        bch_extended_code(4, 1, 2)
    with pytest.raises(FieldError):
        bch_extended_code(17, 2, 2)
    with pytest.raises(DomainError):
        bch_extended_code(3, 5, 2)  # designed distance 9 > 7
    with pytest.raises(SizeLimitExceeded,
                       match=f"^{codes.WORD_CAP + 1} words exceed the cap of {codes.WORD_CAP}$"):
        bch_extended_code(5, 2, codes.WORD_CAP + 1)  # of 2^26 codewords
    with pytest.raises(DomainError, match="^17 words asked of a code of 2\\^4$"):
        bch_extended_code(3, 2, 17)
    with pytest.raises(DomainError):
        bch_extended_code(3, 2, -1)
    truncated = bch_extended_code(5, 2, 100)
    assert len(truncated.words) == 100 and truncated.min_distance is None
    assert bch_extended_code(5, 2, 0).words == ()
    assert pairwise_min_distance(truncated.words) >= 4


def test_bch_generator_built_once_per_field(monkeypatch):
    codes._bch_generator.cache_clear()
    calls = []
    real = codes.bch_generator

    def counted(ctx, design_distance):
        calls.append(ctx.m)
        return real(ctx, design_distance)
    monkeypatch.setattr(codes, "bch_generator", counted)
    code = build_code("extended-bch", 2048, 5)
    assert code.length == 32 and len(code) == 2048
    assert calls == [3, 4, 5]


def test_hadamard_code_matches_kron_reference():
    for m in range(1, 11):
        code = hadamard_code(m)
        words = tuple(int("".join("1" if x == -1 else "0" for x in col), 2)
                      for col in reference_paths.sylvester_matrix(m).T)
        assert code.words == words
        assert code.length == 1 << m and code.min_distance == 1 << (m - 1)


def test_hadamard_code_pair_distances():
    for m in range(1, 7):
        for a, b in combinations(hadamard_code(m).words, 2):
            assert (a ^ b).bit_count() == 1 << (m - 1)


def test_hadamard_code_size_cap():
    with pytest.raises(SizeLimitExceeded,
                       match=f"4\\^13 entries exceed the cap of {codes.ENTRY_CAP}"):
        hadamard_code(13)  # 4^13 entries
    with pytest.raises(DomainError):
        hadamard_code(0)


def test_min_distance_examples_and_cache():
    c = BinaryCode(3, (0b000, 0b011, 0b101, 0b110))
    assert min_distance(c) == 2
    assert c.min_distance == 2
    assert min_distance(BinaryCode(5, (0b00000, 0b00111))) == 3
    # 5794 words: C(5794, 2) > 2^24 pairs
    with pytest.raises(SizeLimitExceeded,
                       match=f"^16782321 pairs exceed the cap of {codes.PAIR_CAP}$"):
        min_distance(BinaryCode(13, tuple(range(5794))))
    with pytest.raises(DomainError):
        min_distance(BinaryCode(4, (3,)))


def test_binary_code_validation():
    with pytest.raises(DomainError):
        BinaryCode(2, (0, 0))
    with pytest.raises(DomainError):
        BinaryCode(2, (4,))


@pytest.mark.parametrize("at", [0, 500, 999])
@pytest.mark.parametrize("bad", [-1, 1024, "repeat"])
def test_binary_code_names_its_first_bad_word(at, bad):
    # 1000 distinct 10-bit words with one bad word at the start, middle or
    # end: below zero, at 2^10, or a copy of its neighbour.
    words = list(range(1, 1001))
    if bad == "repeat":
        bad = words[at + 1 if at == 0 else at - 1]
        message = f"duplicate codeword {bad:010b}"
    else:
        message = f"word {bad} does not fit in 10 bits"
    words[at] = bad
    with pytest.raises(DomainError, match=f"^{message}$"):
        BinaryCode(10, words)


def test_binary_code_reports_errors_in_word_order():
    # A repeat before an out-of-range word is named first, and the reverse.
    with pytest.raises(DomainError, match="duplicate codeword 0011"):
        BinaryCode(4, (3, 5, 3, 16))
    with pytest.raises(DomainError, match="word 16 does not fit"):
        BinaryCode(4, (3, 16, 5, 3))
    assert BinaryCode(4, ()).words == ()


def test_build_code_families():
    for method, n, lam in [("even-weight", 6, 2), ("gv", 10, 3),
                           ("extended-bch", 16, 4), ("hadamard", 8, 4)]:
        code = build_code(method, n, lam)
        assert len(code.words) >= n
        assert pairwise_min_distance(code.words[:n]) >= lam


def test_gv_refuses_past_the_scan_cap_before_sizing_a_ball(monkeypatch):
    # 2^30 words exceed SCAN_CAP, so no sphere-packing ball may be summed
    # and no distance table built: at large lam those binomial sums took
    # minutes, and the tables would double up to the cap, before the refusal.
    def ball_volume(k, r):
        raise AssertionError(f"ball_volume({k}, {r}) sized past the scan cap")

    def lexicode_basis(d, count, bits):
        raise AssertionError(f"lexicode table built at lam = {d} past the scan cap")

    monkeypatch.setattr(codes, "ball_volume", ball_volume)
    monkeypatch.setattr(codes, "_lexicode_basis", lexicode_basis)
    with pytest.raises(NoConstruction):
        codes._gv(2, 30)


def test_gv_length_skip_keeps_choice():
    # The naive choice is the first length from max(log2 n, lam) whose full
    # greedy lexicode holds n words; its first n words are the code.  The
    # lexicodes come from the reference scan of each length.
    lexicodes = {}

    def lexicode(k, d):
        if (k, d) not in lexicodes:
            lexicodes[k, d] = reference_paths.greedy_gv_scan(k, d, 1 << k)
        return lexicodes[k, d]

    for lam in range(1, 8):
        for n in range(2, 301):
            k = max((n - 1).bit_length(), lam)
            while len(lexicode(k, lam)) < n:
                k += 1
            code = build_code("gv", n, lam)
            assert (code.length, code.words) == (k, lexicode(k, lam)[:n])


@pytest.mark.parametrize("n,lam", [(2032, 5), (2047, 5), (80, 7), (88, 7),
                                   (120, 6), (128, 6), (152, 6), (160, 6),
                                   (192, 6), (200, 6), (1000, 8)])
def test_gv_matches_the_reference_scan_at_the_benchmark_strata(n, lam):
    code = build_code("gv", n, lam)
    assert (code.length, code.words) == reference_paths.gv_scan_code(n, lam)
    if (n, lam) == (1000, 8):
        assert code.length == 22 and 1 << code.length == codes.SCAN_CAP


@pytest.mark.parametrize("k", range(1, 13))
def test_lexicode_is_linear_in_counting_order(k):
    # Levenshtein; Conway and Sloane: the i-th lexicode word, in increasing
    # order, is the XOR of the basis words at the set bits of i.
    for d in range(1, k + 1):
        words = np.array(reference_paths.greedy_gv_scan(k, d, 1 << k))
        size = len(words)
        assert size & (size - 1) == 0
        index = np.arange(size)
        for i in range(size):
            assert np.array_equal(words[i] ^ words, words[i ^ index]), (k, d, i)
