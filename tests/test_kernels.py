"""The fast kernels (the packed covering builders, balanced bipartitions
among them, the parser and serializer, verify and its span path, the
diagnostic sweeps and tail sums, the greedy code scan, min_distance,
degenerate_rows, the exact search's canonical step, relabeling maps, child
bound and whole search, the independent-set solver, the graph parser and
the graph's adjacency masks) agree exactly with the Python reference
paths."""

import json
import random
import re
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations
from math import comb
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicover import codes, covering, diagnostics, graphs
from bicover.cli import _json_text, main
from bicover.codes import (BinaryCode, _lexicode_basis, _span,
                           bch_extended_code, even_weight_code, hadamard_code,
                           min_distance)
from bicover.covering import (BipartiteBlock, Covering, capacity,
                              code_to_covering, coloring_to_covering,
                              degenerate_rows, incidence_counts, parse_covering,
                              serialize_covering, verify)
from bicover.diagnostics import (_disjointness, _independent_sets, _sweep,
                                 check_convex_tail_bound,
                                 check_event_disjointness, check_event_overlap,
                                 check_tail_sum)
from bicover.errors import (BicoverError, DomainError, RangeError,
                            SizeLimitExceeded)
from bicover.exact import (SearchBudget, _CapSearch, _root_need, _table,
                           exact_cap)
from bicover.graphs import (Graph, alpha_per_vertex, complete_graph, degrees,
                            empty_graph, greedy_coloring, parse_graph,
                            random_graph, serialize_graph)

import reference_paths
from reference_paths import BlockList, pack_by_words

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# Block counts on each side of the one-word and two-word mask boundaries.
BLOCK_COUNTS = st.one_of(st.just(0), st.integers(1, 63), st.integers(64, 70),
                         st.integers(127, 140))


def random_covering(n, m, seed):
    return Covering(n, random_blocks(n, m, seed))


def random_blocks(n, m, seed):
    # Sparse coverings leave vertices in few blocks, so that exact matches
    # occur in sampled sweeps and masks can be empty in one word only.
    rng = random.Random(seed)
    density = rng.random()
    blocks = []
    for _ in range(m if n >= 2 else 0):
        left, right = rng.sample(range(1, n + 1), 2)
        sides = ([left], [right])
        for v in range(1, n + 1):
            if v not in (left, right) and rng.random() < density:
                sides[rng.random() < 0.5].append(v)
        blocks.append(BipartiteBlock(*sides))
    return blocks


def random_graph_on(n, seed):
    rng = random.Random(seed)
    p = rng.random()
    return Graph(n, [(u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < p])


def separated_graph(cov, seed):
    """A random subgraph of the pairs the covering separates, so it is covered."""
    rng = random.Random(seed)
    report = verify(cov, cov.n, 1)
    missed = set(report.violating_pairs)
    return Graph(cov.n, [(u, v) for u in range(1, cov.n + 1)
                         for v in range(u + 1, cov.n + 1)
                         if (u, v) not in missed and rng.random() < 0.6])


def outcome(fn, *args):
    """The report, or the error's type and message."""
    try:
        return fn(*args)
    except BicoverError as e:
        return type(e), str(e)


def assert_python_ints(obj):
    """Every scalar in a report field is a plain Python int, bool or str."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            assert_python_ints(item)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            assert_python_ints(key)
            assert_python_ints(value)
    else:
        assert obj is None or type(obj) in (int, bool, str), type(obj)


@PROPERTY
@given(n=st.integers(1, 10), m=BLOCK_COUNTS, seed=st.integers(0, 2**32),
       lam=st.integers(1, 40), graph=st.booleans())
def test_verify_matches_reference(n, m, seed, lam, graph):
    cov = random_covering(n, m, seed)
    target = random_graph_on(n, seed + 1) if graph else n
    report = verify(cov, target, lam)
    assert report == reference_paths.verify(cov, target, lam)
    assert_python_ints((report.pair_count, report.min_multiplicity,
                        report.violating_pairs, report.histogram))
    assert report.violations.dtype == np.int64
    assert not report.violations.flags.writeable
    # The CLI renders the array as json.dumps renders the tuple of pairs.
    doc = report._payload()
    assert _json_text(doc) == json.dumps(
        {**doc, "violating_pairs": report.violating_pairs}, indent=2)


# Tiles patched down to 1-64 pairs: tiles of one row and of several, with
# tile edges at every row offset of a complete target.
@pytest.mark.parametrize("tile", [1, 2, 3, 7, 64])
@settings(PROPERTY, max_examples=25)
@given(n=st.integers(1, 40), m=BLOCK_COUNTS, seed=st.integers(0, 2**32),
       lam=st.integers(1, 40))
def test_verify_tiles_match_reference(tile, n, m, seed, lam):
    cov = random_covering(n, m, seed)
    with patch.object(covering, "_STEP_PAIRS", tile):
        report = verify(cov, n, lam)
    assert report == reference_paths.verify(cov, n, lam)


def test_hadamard_verify_across_tiles_and_words():
    # 511 blocks (8 mask words), every pair separated 256 times: above what
    # one uint8 popcount holds, over 4 tiles of 128 rows of the pairwise
    # count, which the span path answers for first.
    cov = code_to_covering(hadamard_code(9), 512)
    with span_spy() as taken:
        report = verify(cov, 512, 256)
    with patch.object(covering, "_code_histogram", lambda cov, full: None):
        assert verify(cov, 512, 256) == report
    assert taken == [True]
    assert report.ok and report.min_multiplicity == 256
    assert report.histogram == {256: 130816}


# The span path of verify on complete targets.

@contextmanager
def span_spy():
    """Patches covering._code_histogram to record, per call, whether the
    span path counted (a histogram) or verify fell back (None)."""
    honest = covering._code_histogram
    taken = []

    def recording(cov, full):
        hist = honest(cov, full)
        taken.append(hist is not None)
        return hist
    with patch.object(covering, "_code_histogram", recording):
        yield taken


def from_sides(sides):
    """The covering of a (2, n + 1, m) 0/1 side array: [0, v, i] (or [1, v,
    i]) set iff vertex v is on the left (right) side of block i."""
    return covering.from_words(sides[0, 1:] | sides[1, 1:], sides[1, 1:])


def moved(cov, sides_of):
    """The covering with its (2, n + 1, m) side array rewritten by sides_of."""
    sides = np.stack([np.unpackbits(np.ascontiguousarray(masks.T).view(np.uint8),
                                    axis=1, bitorder="little")[:, :cov.m]
                      for masks in (cov.left, cov.right)])
    sides_of(sides)
    return from_sides(sides)


def is_span(cov):
    """The span test on Python ints: every vertex in every block, and
    vertex x + 1's right mask the XOR of those of vertices (x & (x - 1)) + 1
    and (x & -x) + 1."""
    a, b = reference_paths.int_masks(cov)
    every = (1 << cov.m) - 1
    return (all(a[v] | b[v] == every for v in range(1, cov.n + 1))
            and all(b[x + 1] == b[(x & (x - 1)) + 1] ^ b[(x & -x) + 1]
                    for x in range(1, cov.n)))


def independent_basis(rng, count, width):
    """``count`` random width-bit words, each outside the span of those before."""
    basis = []
    while len(basis) < count:
        word = rng.getrandbits(width)
        if word not in _span(basis, 1 << len(basis)):
            basis.append(word)
    return basis


@PROPERTY
@given(k=st.integers(3, 10), linear=st.booleans(), data=st.data())
def test_transform_verify_on_code_coverings(k, linear, data):
    # Every vertex in every one of at most k blocks.  The words of a random
    # basis in counting order take the span path; random words take it
    # exactly where their masks pass the span test, and fall back otherwise.
    n = data.draw(st.integers(2, min(300, 1 << k)), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    if linear:
        words = _span(independent_basis(rng, (n - 1).bit_length(), k), n)
    else:
        words = rng.sample(range(1 << k), n)
    cov = code_to_covering(BinaryCode(k, words), n)
    lam = data.draw(st.integers(1, k + 2), label="lam")
    with span_spy() as taken:
        report = verify(cov, n, lam)
    assert taken == [is_span(cov)]
    if linear:
        assert taken == [True]
    assert report == reference_paths.verify(cov, n, lam)
    assert_python_ints((report.pair_count, report.min_multiplicity,
                        report.violating_pairs, report.histogram))


@st.composite
def support_class_coverings(draw):
    """Coverings of 2-4 support classes, vertex labels shuffled.

    Two anchor vertices, all left and all right, make every block a valid
    one and sit in the full-support class with a few more vertices.  The
    other classes have supports of at most min(6, m - 1) blocks, some across
    the word boundary, and 30-60 vertices each.  Left sides come from a small pool,
    and repeated patterns give pairs of multiplicity 0 whatever the support.
    """
    m = draw(st.one_of(st.integers(1, 12), st.sampled_from([63, 64, 65])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    full = (1 << m) - 1
    # Past one mask word, the second class also takes blocks 63 and 64;
    # no class but the first has the full support.
    bits = min(6, m - 1) - 2 * (m > 64)
    supports = [full] + [
        sum(1 << i for i in rng.sample(range(m), rng.randint(0, bits)))
        for _ in range(draw(st.integers(1, 3)))]
    if m > 64:
        supports[1] |= 3 << 63
    sizes = [rng.randint(2, 12)] + [rng.randint(30, 60) for _ in supports[1:]]
    n = sum(sizes)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    sides = np.zeros((2, n + 1, m), dtype=np.uint8)
    vertices = iter(labels)
    for number, (support, size) in enumerate(zip(supports, sizes)):
        pool = [rng.getrandbits(m) & support for _ in range(rng.randint(1, 8))]
        for position in range(size):
            v = next(vertices)
            left = (full if position == 0 else 0 if position == 1
                    else rng.choice(pool)) if number == 0 else rng.choice(pool)
            for i in range(m):
                if support >> i & 1:
                    sides[0 if left >> i & 1 else 1, v, i] = 1
    return from_sides(sides)


@settings(PROPERTY, max_examples=40)
@given(cov=support_class_coverings(), lam=st.integers(1, 8))
def test_verify_on_mixed_support_classes(cov, lam):
    # Some vertex misses some block, so the pairwise kernel counts alone.
    with span_spy() as taken:
        report = verify(cov, cov.n, lam)
    assert taken == [False]
    assert report == reference_paths.verify(cov, cov.n, lam)
    assert_python_ints((report.pair_count, report.min_multiplicity,
                        report.violating_pairs, report.histogram))


def test_one_vertex_out_of_one_block_falls_through():
    # The even-weight covering at n = 2048 takes the span path; with vertex
    # 5 taken out of block 3 it no longer does, and the pairwise count
    # matches the reference.
    cov = code_to_covering(even_weight_code(12), 2048)
    with span_spy() as taken:
        assert verify(cov, 2048, 2).ok
    assert taken == [True]

    def take_out(sides):
        sides[:, 5, 3] = 0
    damaged = moved(cov, take_out)
    with span_spy() as taken:
        report = verify(damaged, 2048, 2)
    assert taken == [False]
    assert report == reference_paths.verify(damaged, 2048, 2)


# Full-support coverings: every vertex in every block, so verify counts the
# popcount of one XOR of left masks per pair.  Block counts on each side of
# the one-, two- and three-word boundaries, plus the gv and bch-wide sizes.
FULL_BLOCK_COUNTS = st.one_of(st.integers(1, 12),
                              st.sampled_from([20, 63, 64, 65, 95, 128, 130]))


@st.composite
def full_support_coverings(draw, block_counts=FULL_BLOCK_COUNTS):
    """A code covering of 2-40 vertices with m blocks left after deleting some.

    Rows repeat words from a small pool, so some pairs share their left mask
    (multiplicity 0).  Two anchor vertices hold complementary words, so every
    block, before and after the deletion, has both sides nonempty.
    """
    m = draw(block_counts, label="m")
    n = draw(st.integers(2, 40), label="n")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    width = m + rng.randint(0, 8)
    pool = [rng.getrandbits(width) for _ in range(rng.randint(1, 6))]
    words = [rng.choice(pool) if rng.random() < 0.5 else rng.getrandbits(width)
             for _ in range(n)]
    p, q = rng.sample(range(n), 2)
    words[q] = words[p] ^ ((1 << width) - 1)
    bits = np.array([[w >> i & 1 for i in range(width)] for w in words],
                    dtype=np.uint8)
    kept = sorted(rng.sample(range(width), m))  # the other blocks are deleted
    cov = covering.from_words(np.broadcast_to(True, (n, m)), bits[:, kept])
    assert cov.m == m and covering._full_support(cov)
    return cov, [v + 1 for v in (p, q)]


@settings(PROPERTY, max_examples=80)
@given(drawn=full_support_coverings(), lam=st.integers(1, 70),
       graph=st.booleans(), tile=st.integers(1, 64), seed=st.integers(0, 2**32))
def test_xor_verify_on_full_support_coverings(drawn, lam, graph, tile, seed):
    cov, _ = drawn
    target = random_graph_on(cov.n, seed) if graph else cov.n
    with patch.object(covering, "_STEP_PAIRS", tile):
        report = verify(cov, target, lam)
    assert report == reference_paths.verify(cov, target, lam)
    assert_python_ints((report.pair_count, report.min_multiplicity,
                        report.violating_pairs, report.histogram))


@settings(PROPERTY, max_examples=40)
@given(drawn=full_support_coverings(), lam=st.integers(1, 70),
       graph=st.booleans(), data=st.data())
def test_one_vertex_out_of_a_last_word_block(drawn, lam, graph, data):
    # A vertex other than the anchors leaves one block held in the last mask
    # word; the covering is no longer full, and verify must count both sides.
    cov, anchors = drawn
    others = [v for v in range(1, cov.n + 1) if v not in anchors]
    if not others:
        return
    v = data.draw(st.sampled_from(others), label="v")
    block = data.draw(st.integers(64 * (len(cov.left) - 1), cov.m - 1), label="block")
    masks = np.array([cov.left, cov.right])
    masks[:, block // 64, v] &= ~np.uint64(1 << block % 64)
    damaged = from_sides(np.unpackbits(
        np.ascontiguousarray(masks.transpose(0, 2, 1)).view(np.uint8),
        axis=2, bitorder="little")[..., :cov.m])
    assert not covering._full_support(damaged)
    target = random_graph_on(cov.n, v) if graph else cov.n
    report = verify(damaged, target, lam)
    assert report == reference_paths.verify(damaged, target, lam)


def test_full_support_reads_the_last_word_valid_bits():
    # m = 65: the last word holds one block.  A vertex missing from block 64
    # is caught, and one in every block passes although bits 1-63 are clear.
    base = [BipartiteBlock([1, 2], [3])] * 65
    assert covering._full_support(Covering(3, base))
    assert not covering._full_support(Covering(3, base[:-1] + [BipartiteBlock([1], [3])]))
    assert covering._full_support(Covering(3))


# Word lengths of the span property: none, within one mask word, and on
# each side of the one- and two-word boundaries, past the bch-wide
# covering's 95 blocks.
SPAN_WIDTHS = [0, *range(1, 13), 63, 64, 65, 95, 127]


@st.composite
def span_coverings(draw, width, deleted=1):
    """A code covering whose vertex x + 1 holds the word of message x: the
    XOR of a random basis (repeats and zero words allowed) over the set bits
    of x, plus an offset on the bits that every basis word leaves clear.
    Those bits are constant across the words, constant one where the offset
    is set, and ``from_words`` drops them as ``code_to_covering`` does.
    Up to ``deleted`` further bits are deleted as ``width`` allows, like
    blocks deleted from the file; the rest is still a span."""
    n = draw(st.integers(1, 90), label="n")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    clear = rng.getrandbits(width)  # the bits that no basis word sets
    basis = [rng.getrandbits(width) & ~clear
             for _ in range((n - 1).bit_length())]
    offset = rng.getrandbits(width) & clear
    bits = np.array([[(w ^ offset) >> i & 1 for i in range(width)]
                     for w in _span(basis, n)], dtype=np.uint8).reshape(n, width)
    count = draw(st.integers(0, min(deleted, width)), label="deleted")
    bits = np.delete(bits, rng.sample(range(width), count), axis=1)
    return covering.from_words(np.broadcast_to(True, bits.shape), bits)


@pytest.mark.parametrize("width", SPAN_WIDTHS)
@settings(PROPERTY, max_examples=15)
@given(data=st.data(), lam=st.integers(1, 12))
def test_span_histogram_matches_reference(width, data, lam):
    cov = data.draw(span_coverings(width), label="cov")
    n = cov.n
    want = reference_paths.verify(cov, n, lam)
    hist = covering._code_histogram(cov, covering._full_support(cov))
    assert hist == [want.histogram.get(k, 0) for k in range(cov.m + 1)]
    assert_python_ints(hist)
    with span_spy() as taken:
        assert verify(cov, n, lam) == want
    assert taken == [True]
    # Moving one message x that is 0 or not a power of 2, with x's parents
    # x & (x - 1) and x & -x left in place, breaks the test at x (at 1 when
    # x = 0): verify falls back to the pairwise count, and its report is
    # the reference's.
    words = [int.from_bytes(cov.right[:, v].tobytes(), "little")
             for v in range(1, n + 1)]
    movable = [x for x in range(n) if x & (x - 1) or x == 0]
    swaps = [(x, y) for x in movable for y in range(x + 1, n) if words[x] != words[y]]
    if swaps:
        x, y = data.draw(st.sampled_from(swaps), label="swap")

        def swap(sides):
            sides[:, [x + 1, y + 1]] = sides[:, [y + 1, x + 1]]
        swapped = moved(cov, swap)
        assert covering._full_support(swapped)
        assert covering._code_histogram(swapped, True) is None
        report = verify(swapped, n, lam)
        assert report == reference_paths.verify(swapped, n, lam)
        assert report.histogram == want.histogram
    flippable = [x for x in movable if x >= 3]
    if flippable and cov.m:
        x = data.draw(st.sampled_from(flippable), label="flip")
        block = data.draw(st.integers(0, cov.m - 1), label="block")

        def flip(sides):  # vertex x + 1 changes sides in one block
            sides[:, x + 1, block] ^= 1
        flipped = moved(cov, flip)
        assert covering._full_support(flipped)
        assert covering._code_histogram(flipped, True) is None
        assert verify(flipped, n, lam) == reference_paths.verify(flipped, n, lam)


def test_shifted_span_histogram_trips_the_recount():
    # Below its minimum distance a code covering has violations, which the
    # span listing lists and recounts from the masks; a span histogram
    # shifted by one pair must make the recount disagree and raise.
    cov = code_to_covering(BinaryCode(5, range(22)), 22)
    with span_spy() as taken:
        report = verify(cov, 22, 3)
    assert taken == [True] and not report.ok
    assert report == reference_paths.verify(cov, 22, 3)
    honest = covering._code_histogram

    def shifted(cov, full):
        hist = honest(cov, full)
        return [hist[0], hist[1] + 1, hist[2] - 1] + hist[3:]
    with patch.object(covering, "_code_histogram", shifted):
        with pytest.raises(AssertionError, match="differs from the span"):
            verify(cov, 22, 3)


@contextmanager
def no_pairwise_scan():
    """Patches covering._tiles so that a pairwise scan of a complete target
    fails as soon as it takes its first tile."""
    def refuse(n):
        raise AssertionError("the pairwise kernel scanned the pairs")
        yield
    with patch.object(covering, "_tiles", refuse):
        yield


@pytest.mark.parametrize("width", SPAN_WIDTHS)
@settings(PROPERTY, max_examples=15)
@given(data=st.data(), tile=st.integers(1, 64))
def test_span_listing_matches_reference(width, data, tile):
    # Up to lam = m + 1, where every pair falls below lam and every nonzero
    # difference is listed, with the default row chunks and with chunks
    # patched down to 1-64 pairs: the span lists the reference's pairs in
    # its order, and the pairwise kernel never runs.
    cov = data.draw(span_coverings(width, deleted=2), label="cov")
    lam = data.draw(st.integers(1, cov.m + 1), label="lam")
    want = reference_paths.verify(cov, cov.n, lam)
    for step in (covering._STEP_PAIRS, tile):
        with span_spy() as taken, no_pairwise_scan(), \
                patch.object(covering, "_STEP_PAIRS", step):
            report = verify(cov, cov.n, lam)
        assert taken == [True]
        assert report == want
        assert report.violations.dtype == np.int64
        assert not report.violations.flags.writeable


def dropping_one(pick):
    """``covering._low_differences`` with the pick-th listed pair left out."""
    honest = covering._low_differences

    def listing(cov, cap):
        seen = 0
        for xs, ys in honest(cov, cap):
            at, seen = pick - seen, seen + len(xs)
            if 0 <= at < len(xs):
                xs, ys = np.delete(xs, at), np.delete(ys, at)
            yield xs, ys
    return listing


def adding(x, y):
    """``covering._low_differences`` with messages x and y listed first."""
    honest = covering._low_differences

    def listing(cov, cap):
        yield np.array([x]), np.array([y])
        yield from honest(cov, cap)
    return listing


@settings(PROPERTY, max_examples=30)
@given(data=st.data())
def test_span_listing_must_agree_with_the_recount(data):
    # Where some pair falls below lam, a listing that drops one pair,
    # repeats one, or adds one at or above lam must not pass unnoticed: the
    # recount histogram of the listed pairs must equal the span's counts
    # below lam.
    cov = data.draw(span_coverings(data.draw(st.sampled_from(SPAN_WIDTHS[2:]))),
                    label="cov")
    lowest = reference_paths.verify(cov, cov.n, 1).min_multiplicity
    if lowest is None:  # one vertex, no pairs
        return
    lam = data.draw(st.integers(lowest + 1, cov.m + 1), label="lam")
    want = reference_paths.verify(cov, cov.n, lam)
    below = set(want.violating_pairs)
    above = [(u - 1, v - 1) for u, v in combinations(range(1, cov.n + 1), 2)
             if (u, v) not in below]
    pick = data.draw(st.integers(0, len(below) - 1), label="pick")
    mutants = [dropping_one(pick), adding(*want.violations[pick] - 1)]
    if above:
        mutants.append(adding(*data.draw(st.sampled_from(above), label="above")))
    for listing in mutants:
        with patch.object(covering, "_low_differences", listing):
            with pytest.raises(AssertionError, match="differs from the span"):
                verify(cov, cov.n, lam)
    assert verify(cov, cov.n, lam) == want


def test_even_weight_histogram_at_8192():
    cov = code_to_covering(even_weight_code(14), 8192)
    with span_spy() as taken:
        report = verify(cov, 8192, 2)
    assert taken == [True] and report.ok
    assert report.histogram == {w: 4096 * comb(14, w) for w in range(2, 15, 2)}
    assert report.pair_count == sum(report.histogram.values()) == comb(8192, 2)
    assert report.min_multiplicity == 2


def assert_same_covering(cov, ref):
    """The packed covering holds, prints and counts what the block list does."""
    assert (cov.n, cov.m, len(cov)) == (ref.n, len(ref.blocks), len(ref.blocks))
    for got, want in zip((cov.left, cov.right),
                         reference_paths.membership_masks(ref)):
        assert got.dtype == np.uint64 and got.shape == want.shape
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.array_equal(got, want)
    text = serialize_covering(cov)
    assert text == reference_paths.serialize_covering(ref)
    assert capacity(cov) == sum(b.size for b in ref.blocks)
    assert incidence_counts(cov) == reference_paths.incidence_counts(ref)
    assert_python_ints((capacity(cov), incidence_counts(cov)))
    assert cov.blocks == ref.blocks
    assert parse_covering(text) == cov


def assert_same_outcome(fn, reference, *args):
    """Same covering, or the same error class and message."""
    got, want = outcome(fn, *args), outcome(reference, *args)
    if isinstance(want, BlockList):
        assert_same_covering(got, want)
    else:
        assert got == want


# Word lengths up to and past one 64-block mask word, and two full words.
CODE_LENGTHS = st.one_of(st.integers(1, 70), st.just(128))


@PROPERTY
@given(length=CODE_LENGTHS, count=st.integers(1, 40), seed=st.integers(0, 2**32),
       data=st.data())
def test_code_to_covering_matches_reference(length, count, seed, data):
    # Words share sparse forced-zero and forced-one bits, so that some rows
    # are constant; n runs past the word count and below 2.
    rng = random.Random(seed)
    zeros = rng.getrandbits(length) & rng.getrandbits(length)
    ones = rng.getrandbits(length) & rng.getrandbits(length) & ~zeros
    words = {(rng.getrandbits(length) | ones) & ~zeros for _ in range(count)}
    code = BinaryCode(length, sorted(words, key=lambda w: rng.random()))
    n = data.draw(st.integers(0, len(words) + 1))
    assert_same_outcome(code_to_covering, reference_paths.code_to_covering,
                        code, n)


@pytest.mark.parametrize("n", range(2, 19, 2))
def test_balanced_bipartitions_match_reference(n):
    assert serialize_covering(covering.balanced_bipartitions_covering(n)) == (
        reference_paths.serialize_covering(
            reference_paths.balanced_bipartitions_covering(n)))


def test_balanced_bipartitions_at_20():
    # C(20, 10)/2 = 92378 blocks, each pair separated C(18, 9) times.
    cov = covering.balanced_bipartitions_covering(20)
    report = verify(cov, 20, 1)
    assert report.min_multiplicity == comb(18, 9) == 48620
    assert report.histogram == {48620: comb(20, 2)}
    assert capacity(cov) == 20 * 92378


@PROPERTY
@given(n=st.integers(1, 30), top=st.one_of(st.integers(0, 9), st.just(2**70)),
       seed=st.integers(0, 2**32), data=st.data())
def test_coloring_to_covering_matches_reference(n, top, seed, data):
    # Edges join differently colored vertices unless the coloring is meant
    # to be improper; now and then one entry is not a color index at all.
    coloring = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    proper = data.draw(st.booleans())
    bad = data.draw(st.sampled_from([None, None, None, -1, True, 2.0]))
    if bad is not None:
        coloring[data.draw(st.integers(0, n - 1))] = bad
    rng = random.Random(seed)
    p = rng.random()
    g = Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2)
                  if rng.random() < p
                  and (not proper or coloring[u - 1] != coloring[v - 1])])
    assert_same_outcome(coloring_to_covering,
                        reference_paths.coloring_to_covering, g, coloring)


@PROPERTY
@given(n=st.integers(1, 12), m=st.sampled_from([0, 1, 63, 64, 65]),
       seed=st.integers(0, 2**32))
def test_block_lists_match_reference(n, m, seed):
    blocks = random_blocks(n, m, seed)
    assert_same_covering(Covering(n, blocks), BlockList(n, tuple(blocks)))


@PROPERTY
@given(n=st.integers(1, 12), m=st.sampled_from([0, 1, 63, 64, 65]),
       density=st.sampled_from([0.1, 0.5, 0.9, 1.0]), seed=st.integers(0, 2**32))
def test_from_words_matches_reference(n, m, density, seed):
    # Sparse words leave many blocks with an empty side, which must drop;
    # bits outside the defined symbols are ignored.
    rng = np.random.default_rng(seed)
    defined = rng.random((n, m)) < density
    bits = rng.integers(0, 2, (n, m), dtype=np.uint8)
    want = reference_paths.from_words(defined, bits)
    assert_same_covering(covering.from_words(defined, bits), want)
    assert_same_covering(covering.from_words(defined.view(np.uint8), bits != 0), want)


@PROPERTY
@given(n=st.integers(1, 40), m=st.sampled_from([0, 1, 63, 64, 65]),
       seed=st.integers(0, 2**32))
def test_all_defined_words_match_the_split_by_bits_packer(n, m, seed):
    # Some columns are forced constant, which both drop.
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (n, m), dtype=np.uint8)
    bits[:, rng.random(m) < 0.2] = 0
    bits[:, rng.random(m) < 0.2] = 1
    want = reference_paths.split_by_bits(bits)
    for defined in (np.ones_like(bits), np.broadcast_to(True, bits.shape)):
        cov = covering.from_words(defined, bits)
        assert (cov.n, cov.m) == (n, int((bits.any(axis=0) & ~bits.all(axis=0)).sum()))
        assert np.array_equal(cov.left, want[0]) and np.array_equal(cov.right, want[1])
        assert not cov.left.flags.writeable and cov.left.flags.c_contiguous


@PROPERTY
@given(n=st.integers(1, 12), m=st.sampled_from([0, 1, 63, 64, 65]),
       size=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_lift_matches_reference(n, m, size, seed):
    # The index repeats vertices and skips others, so that blocks whose
    # vertices all land on one side drop.
    base = random_covering(n, m, seed)
    rng = random.Random(seed)
    used = rng.sample(range(1, n + 1), rng.randint(1, n))
    index = [rng.choice(used) for _ in range(size)]
    assert_same_covering(covering.lift(base, index),
                         reference_paths.lift(base, index))


@pytest.mark.parametrize("index", [[0], [4], [1, -1]])
def test_lift_refuses_vertices_outside_the_covering(index):
    with pytest.raises(RangeError, match=r"outside 1\.\.3"):
        covering.lift(random_covering(3, 5, 1), index)


@pytest.mark.parametrize("palette", [(0, 2), (2,), (1, 3), (0, 4, 6), (5, 2**70)])
@pytest.mark.parametrize("seed", range(4))
def test_coloring_with_skipped_colors_matches_reference(palette, seed):
    # Colors that skip indices: the lift of the colors' covering drops every
    # bit that is constant over the colors in use.
    rng = random.Random(seed)
    n = rng.randint(1, 25)
    coloring = [rng.choice(palette) for _ in range(n)]
    g = Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2)
                  if coloring[u - 1] != coloring[v - 1] and rng.random() < 0.5])
    assert_same_covering(coloring_to_covering(g, coloring),
                         reference_paths.coloring_to_covering(g, coloring))


@pytest.mark.parametrize("n, lam", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 3),
                                    (3, 2), (4, 2), (3, 5)])
def test_exact_witness_is_its_block_list(n, lam):
    value, witness = exact_cap(n, lam)
    found, blocks = _CapSearch(n, lam, SearchBudget()).run()
    want = Covering(n, [BipartiteBlock(a, b) for a, b in blocks])
    assert value == found == capacity(witness)
    assert np.array_equal(witness.left, want.left)
    assert np.array_equal(witness.right, want.right)
    assert_same_covering(witness, BlockList(n, want.blocks))


@pytest.mark.parametrize("flaw", [None, "overlap", "duplicate",
                                  "out-of-range", "bool", "empty", "float",
                                  "string", "null", "nested-list"])
@settings(PROPERTY, max_examples=25)
@given(n=st.integers(2, 10), m=st.sampled_from([1, 2, 5, 64, 65]),
       seed=st.integers(0, 2**32), data=st.data())
def test_parse_covering_matches_reference(flaw, n, m, seed, data):
    # One side of one block gets the flaw; blocks after it stay valid.
    doc = json.loads(reference_paths.serialize_covering(
        BlockList(n, tuple(random_blocks(n, m, seed)))))
    block = doc["blocks"][data.draw(st.integers(0, m - 1))]
    key = data.draw(st.sampled_from(["left", "right"]))
    side, other = block[key], block["right" if key == "left" else "left"]
    at = data.draw(st.integers(0, len(side)))
    if flaw == "overlap":
        side.insert(at, other[0])
    elif flaw == "duplicate":
        side.insert(at, side[0])
    elif flaw == "out-of-range":
        side.insert(at, data.draw(st.sampled_from([0, -1, n + 1, 2**70])))
    elif flaw == "bool":
        side.insert(at, data.draw(st.booleans()))
    elif flaw == "empty":
        side.clear()
    elif flaw == "float":
        side.insert(at, data.draw(st.sampled_from([1.0, 2.5, 1e300])))
    elif flaw == "string":
        side.insert(at, str(side[0]))
    elif flaw == "null":
        side.insert(at, None)
    elif flaw == "nested-list":
        side.insert(at, [side[0]])
    assert_same_outcome(parse_covering, reference_paths.parse_covering,
                        json.dumps(doc))


@PROPERTY
@given(n=st.integers(1, 70), m=st.sampled_from([0, 1, 63, 64, 65]),
       seed=st.integers(0, 2**32))
def test_bulk_read_agrees_with_the_json_path(n, m, seed):
    # The canonical text takes the bulk read; the same document indented
    # takes the json path.  Both give the covering back.
    cov = random_covering(n, m, seed)
    text = serialize_covering(cov)
    indented = json.dumps(json.loads(text), indent=1)
    for doc, decodes in ((text, 0), (indented, 1)):
        with patch.object(json, "loads", wraps=json.loads) as loads:
            got = parse_covering(doc)
        assert loads.call_count == decodes
        assert_same_covering(got, BlockList(n, cov.blocks))


@pytest.mark.parametrize("text", [
    '{"n": 3, "blocks": [{"left": [01, 2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [12345678901234567890], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [-1, 2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [+1, 2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [1.0, 2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [1e0, 2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [true, 2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [2, 1], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [1, 2], "right": []}]}',
    '{"n": 3, "blocks": [{"left": [1, 1], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [1, 2], "right": [2]}]}',
    '{"n": 3, "blocks": [{"left": [1, 4], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [1], "right": [3]}, {"left": [0], "right": [2]}]}',
    '{"n": 0, "blocks": []}',
    '{"n": -3, "blocks": []}',
    '{"n": 3.0, "blocks": []}',
    '{"n": 3, "blocks": []}',
    '{"n": 3, "blocks": []} ',
    '{"n":3,"blocks":[{"left":[1],"right":[2]}]}',
    '{"blocks": [], "n": 3}',
    '{"n": 3, "n": 3, "blocks": [{"left": [1, 2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"left": [1], "left": [2], "right": [3]}]}',
    '{"n": 3, "blocks": [{"right": [3], "left": [1, 2]}]}',
    '{"n": 3, "blocks": [{"left": [1, 2], "right": [3]}], "x": 1}',
    '{"n": 3, "blocks": [{"left": [1, 2], "right": [3], "x": [1]}]}',
    '{"n": 3, "blocks": [[1], [2]]}',
    '{"n": 3, "blocks": [{"left": [1], "right": [2]}]}\u00e9',
    '{"n": 1000000000000, "blocks": [{"left": [1, 1], "right": [2]}]}',
    '{"n": , "blocks": [5]}',
    '{"n": , "blocks": [{"left": [1], "right": [2]}]}3',
    '{"n": 3, "blocks": [{"left": [1, ], "right": [3]}]}2',
    '{"n": 3, "blocks": [{"left": [, 2], "right": [3]}1]}',
    '{"n": 3, "blocks": [{"left": [1], "right": []}3]}',
])
def test_near_canonical_text_matches_reference(text):
    # Texts at or near the layout serialize_covering writes, most of them
    # one edit away from it.  Each gives the reference's covering or error.
    assert_same_outcome(parse_covering, reference_paths.parse_covering, text)


# Edits of the text itself, shared by the graph and the covering readers.
TEXT_EDITS = ("trailing-space", "trailing-junk", "moved-digit", "moved-run",
              "leading-zero", "sign", "float", "literal", "space-added",
              "space-removed", "long-label", "huge-n")


def edited_text(text, edit, data):
    """text after one byte-level edit of the named kind, most of them a few
    bytes away from the layout; None for an edit of the document."""
    runs = [m.span() for m in re.finditer(r"[0-9]+", text)]  # runs[0] is n
    a, b = data.draw(st.sampled_from(runs))
    if edit == "trailing-space":
        return text + data.draw(st.sampled_from(["\n", " ", " \t\r\n"]))
    if edit == "trailing-junk":
        return text + data.draw(st.sampled_from(["x", "]", "\x0b", "\f", "\n0"]))
    if edit == "moved-digit":  # often into a separator gap
        i = data.draw(st.sampled_from([i for run in runs for i in range(*run)]))
        rest = text[:i] + text[i + 1:]
        j = data.draw(st.integers(0, len(rest)))
        return rest[:j] + text[i] + rest[j:]
    if edit == "moved-run":  # its slot is left empty
        rest = text[:a] + text[b:]
        j = data.draw(st.integers(0, len(rest)))
        return rest[:j] + text[a:b] + rest[j:]
    if edit == "leading-zero":
        return text[:a] + "0" + text[a:]
    if edit == "sign":
        return text[:a] + data.draw(st.sampled_from("-+")) + text[a:]
    if edit == "float":
        return text[:b] + data.draw(st.sampled_from([".0", "e0", "E+0"])) + text[b:]
    if edit == "literal":
        return text[:a] + data.draw(st.sampled_from(["true", "false", "null"])) + text[b:]
    if edit == "space-added":
        j = data.draw(st.integers(0, len(text)))
        return text[:j] + " " + text[j:]
    if edit == "space-removed":
        j = data.draw(st.sampled_from([j for j, c in enumerate(text) if c == " "]))
        return text[:j] + text[j + 1:]
    if edit == "long-label" and len(runs) > 1:
        a, b = data.draw(st.sampled_from(runs[1:]))
        return text[:a] + data.draw(st.sampled_from(["1" * 20, "12345678901234567890"])) + text[b:]
    if edit == "huge-n":
        a, b = runs[0]
        return text[:a] + "1" * 5000 + text[b:]
    return None


COVERING_EDITS = ("none", *TEXT_EDITS, "indent", "swapped-keys", "duplicate",
                  "unsorted", "overlap", "past-n", "empty-side")


def edited_covering_text(cov, edit, data):
    """The text serialize_covering writes for cov after one edit of the
    named kind; "none" keeps it."""
    text = serialize_covering(cov)
    edited = edited_text(text, edit, data)
    if edited is not None:
        return edited
    doc = json.loads(text)
    blocks = doc["blocks"]
    if edit == "indent":
        return json.dumps(doc, indent=1)
    if edit == "swapped-keys":
        if not blocks or data.draw(st.booleans()):
            return json.dumps({"blocks": blocks, "n": cov.n})
        i = data.draw(st.integers(0, len(blocks) - 1))
        blocks[i] = {"right": blocks[i]["right"], "left": blocks[i]["left"]}
    elif blocks:
        block = data.draw(st.sampled_from(blocks))
        key = data.draw(st.sampled_from(["left", "right"]))
        side, other = block[key], block["right" if key == "left" else "left"]
        at = data.draw(st.integers(0, len(side)))
        if edit == "duplicate":
            side.insert(at, data.draw(st.sampled_from(side)))
        elif edit == "unsorted" and len(side) > 1:
            i, j = data.draw(st.lists(st.integers(0, len(side) - 1), min_size=2,
                                      max_size=2, unique=True))
            side[i], side[j] = side[j], side[i]
        elif edit == "overlap":
            side.insert(at, data.draw(st.sampled_from(other)))
        elif edit == "past-n":
            side.insert(at, data.draw(st.sampled_from([0, cov.n + 1])))
        elif edit == "empty-side":
            side.clear()
    return json.dumps(doc)


@pytest.mark.parametrize("edit", COVERING_EDITS)
@settings(PROPERTY, max_examples=25)
@given(n=st.integers(1, 70), m=st.sampled_from([0, 1, 2, 5, 64, 65]),
       seed=st.integers(0, 2**32), data=st.data())
def test_bulk_covering_read_agrees_with_the_json_path(edit, n, m, seed, data):
    # Canonical text, with or without trailing whitespace, takes the bulk
    # read; every edit gives the covering or the error the json path and the
    # reference give.  A text the bulk read takes is exactly the one
    # serialize_covering writes for its covering, up to trailing whitespace.
    cov = random_covering(n, m, seed)
    text = edited_covering_text(cov, edit, data)
    with patch.object(json, "loads", wraps=json.loads) as loads:
        got = outcome(parse_covering, text)
    with patch.object(covering, "_canonical_words", return_value=None):
        via_json = outcome(parse_covering, text)
    assert got == via_json and hash(got) == hash(via_json)
    assert_same_outcome(parse_covering, reference_paths.parse_covering, text)
    if loads.call_count == 0:
        assert serialize_covering(got) == text.rstrip()
    if edit in ("none", "trailing-space"):
        assert got == cov and loads.call_count == 0


def test_bulk_covering_read_refuses_long_runs_before_reading_them(monkeypatch):
    # As for graphs: were np.fromstring to wrap a run past int64, 2**64 + 2
    # would read as 2, a label in range.
    def wrapping(data, dtype, sep):
        return np.array([(int(w) + 2**63) % 2**64 - 2**63 for w in data.split()],
                        dtype=dtype)

    text = '{"n": 3, "blocks": [{"left": [1], "right": [18446744073709551618]}]}'
    monkeypatch.setattr(np, "fromstring", wrapping)
    assert_same_outcome(parse_covering, reference_paths.parse_covering, text)


def test_canonical_text_parses_without_json(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_covering decoded canonical text with json")

    coverings = [random_covering(n, m, seed)
                 for n, m, seed in ((1, 0, 1), (5000, 0, 2), (2, 1, 3),
                                    (40, 65, 4), (70, 130, 5))]
    coverings += [code_to_covering(even_weight_code(11), 1000),
                  code_to_covering(hadamard_code(6), 64)]
    texts = [serialize_covering(cov) for cov in coverings]
    monkeypatch.setattr(json, "loads", refuse)
    for cov, text in zip(coverings, texts):
        assert parse_covering(text) == cov


@PROPERTY
@given(n=st.integers(1, 9), m=st.integers(0, 10), seed=st.integers(0, 2**32),
       lam=st.integers(1, 12))
def test_exhaustive_disjointness_matches_reference(n, m, seed, lam):
    # Below the tail threshold (x_j < r) both paths raise the same DomainError.
    cov, r = random_covering(n, m, seed), (lam - 1) // 2
    report = outcome(_disjointness, cov, r, "exhaustive", 0, 0)
    assert report == outcome(reference_paths.disjointness, cov, r, "exhaustive")
    if not isinstance(report, tuple):
        assert_python_ints((report.violations, report.details))


@PROPERTY
@given(n=st.integers(1, 9), m=BLOCK_COUNTS, seed=st.integers(0, 2**32),
       lam=st.integers(1, 60), trials=st.integers(0, 300))
def test_sampled_disjointness_matches_reference(n, m, seed, lam, trials):
    cov, r = random_covering(n, m, seed), (lam - 1) // 2
    report = _disjointness(cov, r, "sampled", seed, trials)
    assert report == reference_paths.disjointness(cov, r, "sampled", seed, trials)
    assert_python_ints((report.violations, report.trials))


def assert_same_chunks(chunks, reference):
    """The same vectors, per-vector event counts and occurring sets, chunk by chunk."""
    for (vectors, per_vector, occurring), (ref_vectors, ref_per_vector, ref_occurring) \
            in zip(chunks, reference, strict=True):
        assert vectors == ref_vectors
        assert per_vector.tolist() == ref_per_vector.tolist()
        assert [occurring(k) for k in range(len(vectors))] == \
            [ref_occurring(k) for k in range(len(vectors))]


# On a full-support covering the sweeps test popcount(v ^ side) without the
# support: one word partly used (m = 1, 16, 63), one whole word (64), and a
# second word partly used (65, 95).  r reaches about m/2, so random vectors
# trigger events even at m = 95.
@settings(PROPERTY, max_examples=40)
@given(drawn=full_support_coverings(st.sampled_from([1, 16, 63, 64, 65, 95])),
       data=st.data(), seed=st.integers(0, 2**32), trials=st.integers(0, 300))
def test_full_support_sweeps_match_reference(drawn, data, seed, trials):
    cov, _ = drawn
    r = data.draw(st.integers(0, cov.m // 2 + 1), label="r")
    g = random_graph_on(cov.n, seed)
    with patch.object(diagnostics, "_within", wraps=diagnostics._within) as spy:
        chunks = list(diagnostics._sweep(cov, r, "sampled", seed, trials))
        sampled = (_disjointness(cov, r, "sampled", seed, trials),
                   _independent_sets(cov, g, "sampled", seed, trials))
        exhaustive = (outcome(_disjointness, cov, r, "exhaustive", 0, 0)
                      if cov.m <= 16 else None)
    assert all(call.args[3] is True for call in spy.call_args_list)
    assert_same_chunks(chunks, reference_paths.vertexwise_sweep(cov, r, "sampled",
                                                                 seed, trials))
    assert sampled == (reference_paths.disjointness(cov, r, "sampled", seed, trials),
                       reference_paths.independent_event_sets(cov, g, "sampled",
                                                              seed, trials))
    if exhaustive is not None:
        assert exhaustive == outcome(reference_paths.disjointness, cov, r,
                                     "exhaustive")


@PROPERTY
@given(n=st.integers(1, 9), m=st.integers(0, 12), seed=st.integers(0, 2**32),
       sampled=st.booleans(), understate=st.booleans())
def test_event_overlap_matches_reference(n, m, seed, sampled, understate):
    cov = random_covering(n, m, seed)
    g = separated_graph(cov, seed)
    rng = random.Random(seed)
    alphas = alpha_per_vertex(g)
    if understate:
        alphas = [rng.randint(1, a) for a in alphas]
    mode, trials = ("sampled", 200) if sampled else ("exhaustive", 0)
    report = check_event_overlap(cov, g, alphas=alphas, mode=mode, seed=seed,
                                 trials=trials)
    assert report == reference_paths.event_overlap(cov, alphas, mode, seed, trials)
    assert_python_ints((report.violations, report.trials))


@PROPERTY
@given(n=st.integers(1, 9), m=st.one_of(st.integers(0, 12), BLOCK_COUNTS),
       seed=st.integers(0, 2**32), sampled=st.booleans())
def test_independent_event_sets_matches_reference(n, m, seed, sampled):
    # Coverings here need not cover g, so adjacent occurring pairs do appear.
    if not sampled and m > 12:
        m = 12
    cov = random_covering(n, m, seed)
    g = random_graph_on(n, seed + 1)
    mode, trials = ("sampled", 200) if sampled else ("exhaustive", 0)
    report = _independent_sets(cov, g, mode, seed, trials)
    assert report == reference_paths.independent_event_sets(cov, g, mode,
                                                            seed, trials)
    assert_python_ints((report.violations, report.trials))


@st.composite
def shared_support_coverings(draw):
    """Coverings whose vertices draw their supports from a small pool.

    The pool holds the full support, a few random ones and, now and then,
    the empty one (an isolated vertex is in every vector's event), so that
    vertices share supports and some supports are partial.  Each vertex
    takes a random side in each block of its support.
    """
    n = draw(st.one_of(st.integers(1, 40), st.integers(30, 40)))
    m = draw(st.one_of(st.integers(0, 16), st.integers(12, 16)))
    return shared_support_covering(n, m, draw(st.booleans()),
                                   draw(st.integers(0, 2**32)))


def shared_support_covering(n, m, isolated, seed):
    rng = random.Random(seed)
    pool = ([(1 << m) - 1] + [rng.getrandbits(m) for _ in range(rng.randint(0, 3))]
            + [0] * isolated)
    sides = np.zeros((2, n + 1, m), dtype=np.uint8)
    for v in range(1, n + 1):
        support = rng.choice(pool)
        for i in range(m):
            if support >> i & 1:
                sides[int(rng.random() < 0.5), v, i] = 1
    return from_sides(sides)


# The drawn coverings stop at m = 16; the examples reach the tally's largest
# sizes, m = 17 and the exhaustive limit m = 20, at seeds where no block
# comes out one-sided (``from_words`` drops those).
@settings(PROPERTY, max_examples=40)
@given(cov=shared_support_coverings(), lam=st.integers(1, 8),
       seed=st.integers(0, 2**32))
@example(cov=shared_support_covering(12, 17, True, 3), lam=5, seed=1)
@example(cov=shared_support_covering(6, 20, False, 3), lam=8, seed=3)
def test_event_enumeration_matches_chunked_sweep(cov, lam, seed):
    # r = (lam - 1) // 2 runs from 0 to 3; the overlap check gets understated
    # alphas, so that occupancy violations occur.
    g = random_graph_on(cov.n, seed)
    covered = separated_graph(cov, seed)
    rng = random.Random(seed)
    alphas = [rng.randint(1, a) for a in alpha_per_vertex(covered)]

    def reports():
        return (outcome(_disjointness, cov, (lam - 1) // 2, "exhaustive", 0, 0),
                outcome(_independent_sets, cov, g, "exhaustive", 0, 0),
                outcome(check_event_overlap, cov, covered, alphas))

    got = reports()
    with patch.object(diagnostics, "_sweep", reference_paths.chunked_sweep):
        assert got == reports()


# The sweep's step is _SWEEP_CHUNK // n vectors.  Patched to 64 entries, n
# from 1 to 40 crosses every step size from 64 vectors to one; at the real
# size, n from 181 to 220 gives steps of 90 down to 74 vectors.  Trial
# counts are drawn freely, so most are not a multiple of the step.
@pytest.mark.parametrize("chunk", [64, None])
@settings(PROPERTY, max_examples=30)
@given(n=st.integers(1, 40), m=st.one_of(st.integers(0, 12), BLOCK_COUNTS),
       seed=st.integers(0, 2**32), lam=st.integers(1, 6),
       trials=st.integers(0, 300))
def test_blocked_sampled_sweep_matches_vertexwise_tally(chunk, n, m, seed, lam,
                                                        trials):
    if chunk is None:
        n += 180
    cov = random_covering(n, m, seed)
    g = random_graph_on(n, seed + 1)
    covered = separated_graph(cov, seed)
    rng = random.Random(seed)
    alphas = [rng.randint(1, 3) for _ in range(n)]  # small, so occupancy fails
    r = (lam - 1) // 2

    def reports():
        # Every vector's event count, then the reports, which stop at 10
        # violations.
        chunks = list(diagnostics._sweep(cov, r, "sampled", seed, trials))
        return ([v for vectors, _, _ in chunks for v in vectors],
                [c for _, per_vector, _ in chunks for c in per_vector.tolist()],
                _disjointness(cov, r, "sampled", seed, trials),
                _independent_sets(cov, g, "sampled", seed, trials),
                check_event_overlap(cov, covered, alphas, "sampled", seed, trials))

    with patch.object(diagnostics, "_SWEEP_CHUNK", chunk or diagnostics._SWEEP_CHUNK):
        got = reports()
    with patch.object(diagnostics, "_sweep", reference_paths.vertexwise_sweep):
        assert got == reports()


# Block counts on either side of the one-, two- and three-word boundaries,
# plus the bch-wide size, for the word-by-word disagreement count.
MULTIWORD_BLOCKS = [63, 64, 65, 95, 128, 129, 191]


def dense_covering(n, m, rng, full):
    """n vertices on random sides of m blocks, vertex 1 on the left of
    every block and vertex 2 on the right: every vertex in every block
    (full), or the others each left out of about one block in eight, and
    vertex n out of every block of word 0."""
    sides = np.zeros((2, n + 1, m), dtype=np.uint8)
    sides[0, 1], sides[1, 2] = 1, 1
    for v in range(3, n + 1):
        for i in range(m):
            if full or (rng.random() < 0.875 and (v != n or i >= 64)):
                sides[int(rng.random() < 0.5), v, i] = 1
    cov = from_sides(sides)
    assert covering._full_support(cov) == full
    return cov


def near_vectors(rng, m, support, side, r):
    """Vectors that disagree with a vertex on r - 1, r or r + 1 of its
    blocks, the disagreements all in word 0, all past it, or anywhere;
    bits outside the support are random.  Those that keep word 0 clean
    survive it and are settled only by a later word."""
    blocks = [i for i in range(m) if support >> i & 1]
    for t in (r - 1, r, r + 1):
        for where in (range(64), range(64, m), range(m)):
            pool = [i for i in blocks if i in where]
            if 0 <= t <= len(pool):
                flips = sum(1 << i for i in rng.sample(pool, t))
                yield side ^ flips | rng.getrandbits(m) & ~support


@pytest.mark.parametrize("m", MULTIWORD_BLOCKS)
@pytest.mark.parametrize("full", [True, False])
def test_early_exit_within_matches_reference(m, full):
    rng = random.Random(m)
    cov = dense_covering(6, m, rng, full)
    support, side = (cov.left | cov.right)[:, 1:], cov.right[:, 1:]
    words = len(side)
    left, right = reference_paths.profile_masks(cov)
    masks = [(a | b, b) for a, b in zip(left, right)]
    uniform = [rng.getrandbits(m) for _ in range(40)]
    for r in range(m + 1):
        near = [(j, v) for j, (s, b) in enumerate(masks)
                for v in near_vectors(rng, m, s, b, r)]
        for vectors in (uniform, [v for _, v in near]):
            want = [[((v & s) ^ b).bit_count() <= r for s, b in masks]
                    for v in vectors]
            packed = pack_by_words(vectors, words)
            # A step of vectors against all vertices, as the sampled tally
            # broadcasts it, and one vector against all vertices.
            got = diagnostics._within(packed[:, :, None], support[:, None],
                                      side[:, None], full, r)
            assert got.tolist() == want
            for k in range(len(vectors)):
                assert (diagnostics._within(packed[:, k], support, side, full, r)
                        .tolist() == want[k])
        # Each near vector against its own vertex alone.
        for j, v in near:
            s, b = masks[j]
            got = diagnostics._within(pack_by_words([v], words)[:, 0],
                                      support[:, j], side[:, j], full, r)
            assert got.shape == () and bool(got) == (((v & s) ^ b).bit_count() <= r)


def test_within_stops_at_the_first_word_that_rules_out_a_step():
    # Uniform vectors disagree with a vertex on about 32 blocks of each
    # word.  At r = 4 no entry of the step survives word 0, and the other
    # words are never counted; at r = 32 the test is first made after word
    # 1, which rules the step out; at r = 100 it is never made.
    rng = random.Random(3)
    cov = dense_covering(20, 191, rng, True)
    support, side = (cov.left | cov.right)[:, 1:], cov.right[:, 1:]
    packed = pack_by_words([rng.getrandbits(191) for _ in range(50)], 3)
    args = (packed[:, :, None], support[:, None], side[:, None], True)
    for r, counted in ((4, 1), (32, 2), (100, 3)):
        with patch.object(np, "bitwise_count", wraps=np.bitwise_count) as spy:
            got = diagnostics._within(*args, r)
        assert spy.call_count == counted
        assert got.shape == (50, 20) and got.any() == (r == 100)


@pytest.mark.parametrize("m", MULTIWORD_BLOCKS)
@pytest.mark.parametrize("full", [True, False])
def test_multiword_sampled_sweeps_match_reference(m, full):
    # Every r from 0 (no event) to m (every vertex in every vector's event).
    rng = random.Random(m + full)
    cov = dense_covering(5, m, rng, full)
    g = random_graph_on(cov.n, m)
    seed, trials = m, 30
    assert (_independent_sets(cov, g, "sampled", seed, trials)
            == reference_paths.independent_event_sets(cov, g, "sampled", seed, trials))
    for r in range(m + 1):
        assert_same_chunks(diagnostics._sweep(cov, r, "sampled", seed, trials),
                           reference_paths.vertexwise_sweep(cov, r, "sampled", seed,
                                                            trials))
        assert (_disjointness(cov, r, "sampled", seed, trials)
                == reference_paths.disjointness(cov, r, "sampled", seed, trials))


@pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("size, trials", [(7, 20), (5, 5), (3, 0), (16384, 40)])
def test_sampled_vectors_pack_as_word_shifts(m, size, trials):
    words = max(1, -(-m // 64))
    chunks = list(diagnostics._sampled_chunks(m, words, size, 9, trials))
    rng = random.Random(9)
    drawn = [rng.getrandbits(m) if m else 0 for _ in range(trials)]
    assert [v for vectors, _ in chunks for v in vectors] == drawn
    for lo, (vectors, packed) in zip(range(0, trials, size), chunks, strict=True):
        assert vectors == drawn[lo:lo + size]
        want = pack_by_words(vectors, words)
        assert packed.dtype == want.dtype and packed.shape == want.shape
        assert (packed == want).all()


def test_recount_catches_a_wrong_enumeration():
    # Patterns of the right number but shifted by one support bit: every
    # vector fails the re-test, so the recount flags every vertex.
    cov = code_to_covering(BinaryCode(3, (0b000, 0b011, 0b101, 0b110)), 4)
    assert check_event_disjointness(cov, 2).ok
    patterns = diagnostics._patterns

    def shifted(flip, free, r):
        return (p ^ np.uint64(flip & -flip) for p in patterns(flip, free, r))

    with patch.object(diagnostics, "_patterns", shifted):
        report = check_event_disjointness(cov, 2)
    assert report.violations == tuple(("probability-mismatch", j, 0)
                                      for j in range(1, 5))


@PROPERTY
@given(n=st.integers(2, 40), m=st.integers(0, 30), lam=st.integers(1, 8),
       seed=st.integers(0, 2**32))
def test_tail_checks_match_reference(n, m, lam, seed):
    # lam copies of a separating base make the covering valid; random extra
    # blocks spread the incidence counts over several values.
    base = [BipartiteBlock([v for v in range(1, n + 1) if not (v - 1) >> t & 1],
                           [v for v in range(1, n + 1) if (v - 1) >> t & 1])
            for t in range((n - 1).bit_length())]
    cov = Covering(n, base * lam + random_blocks(n, m, seed))
    r = (lam - 1) // 2
    assert check_tail_sum(cov, lam) == reference_paths.tail_sum(cov, r)
    if lam >= 3:
        assert (check_convex_tail_bound(cov, lam)
                == reference_paths.convex_tail_bound(cov, r))


def test_violation_paths_are_exercised():
    # Two isolated vertices match every vector: each sweep finds violations.
    cov = Covering(3, [BipartiteBlock([1], [2])])
    path = Graph(3, [(1, 3), (2, 3)])
    indep = _independent_sets(cov, path, "exhaustive", 0, 0)
    assert indep.violations == (("adjacent-pair", 0, 1, 3),
                                ("adjacent-pair", 1, 2, 3))
    dis = _disjointness(cov, 0, "sampled", 5, 50)
    assert len(dis.violations) == 10 and not dis.ok
    assert dis == reference_paths.disjointness(cov, 0, "sampled", 5, 50)
    over = check_event_overlap(cov, Graph(3, [(1, 2)]), alphas=[1, 1, 1])
    assert over.violations == (("occupancy", 0, 1, 2), ("occupancy", 1, 2, 2))


def test_exact_match_reads_every_mask_word():
    # Vertices 3 and 4 sit only in block 65, so their first mask word is
    # empty; a match decided on that word alone would put both in every event.
    cov = Covering(4, [BipartiteBlock([1], [2])] * 64 + [BipartiteBlock([3], [4])])
    g = Graph(4, [(3, 4)])
    report = _independent_sets(cov, g, "sampled", 1, 100)
    assert report.ok
    assert report == reference_paths.independent_event_sets(cov, g, "sampled", 1, 100)


def test_sweep_checks_mode_and_limit_before_sweeping():
    cov = Covering(2, [BipartiteBlock([1], [2])] * 21)
    with pytest.raises(DomainError):
        _sweep(cov, 0, "nope", 0, 10)
    with pytest.raises(SizeLimitExceeded):
        _sweep(cov, 0, "exhaustive", 0, 10)


@PROPERTY
@given(k=st.integers(1, 14), data=st.data())
def test_greedy_scan_matches_reference(k, data):
    d = data.draw(st.integers(1, k))
    target = data.draw(st.one_of(st.integers(1, 64), st.integers(1, 1 << k)))
    expected = reference_paths.greedy_gv_words(k, d, target)
    basis = _lexicode_basis(d, (target - 1).bit_length(), k)
    assert tuple(_span(basis, target)) == expected


def code_outcome(build, *args):
    """(length, words, min_distance, method) of the code, or the library
    error's class and message."""
    try:
        code = build(*args)
    except BicoverError as e:
        return type(e), str(e)
    return code.length, code.words, code.min_distance, code.method


@PROPERTY
@given(k=st.one_of(st.integers(0, 14), st.just(22)),
       m=st.one_of(st.integers(0, 10), st.just(13)))
def test_even_weight_and_hadamard_match_the_per_word_references(k, m):
    assert (code_outcome(even_weight_code, k)
            == code_outcome(reference_paths.even_weight_code, k))
    assert (code_outcome(hadamard_code, m)
            == code_outcome(reference_paths.hadamard_code, m))


BCH_FIELDS = [(m, d) for m in range(2, 7) for d in range(2, (1 << m - 1) + 1)]


@pytest.mark.parametrize("m,d", BCH_FIELDS)
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(drawn=st.integers(0, 3000))
def test_bch_writes_the_first_count_words_of_the_full_codebook(m, d, drawn):
    # Each count: empty, one or two words, drawn, or the whole codebook,
    # which is refused past the word cap.
    total = 1 << codes.bch_dimension(m, d)
    for count in (0, 1, 2, min(drawn, total), total):
        if count > codes.WORD_CAP:
            with pytest.raises(SizeLimitExceeded,
                               match=f"^{count} words exceed the cap of {codes.WORD_CAP}$"):
                bch_extended_code(m, d, count)
            continue
        full = reference_paths.bch_extended_code(
            m, d, None if total <= codes.WORD_CAP else count)
        code = bch_extended_code(m, d, count)
        assert (code.length, code.words, code.min_distance, code.method) == (
            full.length, full.words[:count], None, full.method)
        if count == total <= 4096:
            assert min_distance(code) == full.min_distance


@pytest.mark.parametrize("n", [5, 33, 100, 2040, 2048])
@pytest.mark.parametrize("lam", [5, 7])
def test_bch_construct_writes_the_reference_first_n_covering(tmp_path, capsys, n, lam):
    # At lam = 5 and n > 128 the codebook passes the word cap, so the
    # reference writes its first n words; elsewhere it writes all of them.
    m, _ = codes.bch_field(n, lam)
    full = reference_paths.bch_extended_code(m, (lam + 1) // 2, target=n)
    out = tmp_path / "c.json"
    assert main(["construct", "--n", str(n), "--lambda", str(lam), "--method",
                 "bch", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["params"]["words"] == n
    assert out.read_text() == serialize_covering(code_to_covering(full, n))


# Word lengths within one uint64 row, at its edge, past it, and at two
# full rows and one bit more.
WORD_LENGTHS = st.one_of(st.integers(1, 63), st.just(64), st.integers(65, 80),
                         st.sampled_from([128, 129]))


@PROPERTY
@given(length=WORD_LENGTHS, count=st.integers(2, 40),
       seed=st.integers(0, 2**32), near=st.booleans())
def test_min_distance_matches_reference(length, count, seed, near):
    # Near sets mostly flip a few bits of one base word, so small distances
    # (and the early exit at distance 1) occur at every length.
    rng = random.Random(seed)
    count = min(count, 1 << length)
    base = rng.getrandbits(length)
    if length % 64 == 0:
        base |= 1 << length - 1
    words = {base}
    while len(words) < count:
        if near and rng.random() < 0.75:
            flips = rng.sample(range(length), rng.randint(1, min(3, length)))
            words.add(base ^ sum(1 << p for p in flips))
        else:
            words.add(rng.getrandbits(length))
    words = sorted(words, key=lambda w: rng.random())
    assert (min_distance(BinaryCode(length, words))
            == reference_paths.min_distance(words, length))


@PROPERTY
@given(length=st.integers(1, 80), count=st.integers(1, 12), n=st.integers(0, 14),
       seed=st.integers(0, 2**32))
def test_degenerate_rows_matches_reference(length, count, n, seed):
    # Words share a random mask of forced-zero and forced-one bits, so that
    # constant rows occur; n may exceed the word count.
    rng = random.Random(seed)
    zeros, ones = rng.getrandbits(length), rng.getrandbits(length)
    words = {(rng.getrandbits(length) | ones) & ~zeros
             for _ in range(min(count, 1 << length))}
    code = BinaryCode(length, sorted(words, key=lambda w: rng.random()))
    assert degenerate_rows(code, n) == reference_paths.degenerate_rows(code, n)


@lru_cache(maxsize=None)
def cap_search(n):
    return _CapSearch(n, 1, SearchBudget())


def block_indices(data, n):
    # Nondecreasing, as the search picks them, with repeats as at lambda > 1;
    # short lists of low indices make canonical lists common.
    top = len(_table(n).blocks) - 1
    hi = data.draw(st.sampled_from(sorted({min(top, 8), top})))
    return sorted(data.draw(st.lists(st.integers(0, hi), min_size=1, max_size=8)))


def canonical_by_steps(search, chosen):
    """Fold the search's step over ``chosen`` from the root state.

    Every prefix of a canonical list is canonical, so the fold decides the
    whole list; it returns the final state, or None at the first prefix that
    is not canonical.
    """
    state = [0] * len(search.table.perm_maps)
    for k in range(1, len(chosen) + 1):
        state = search._step(state, chosen[:k])
        if state is None:
            return None
    return state


def first_differences(search, chosen):
    # Per relabeling, where its sorted image first differs from chosen.
    out = []
    for pm in search.table.perm_maps:
        image = sorted(pm[i] for i in chosen)
        out.append(next((d for d, (a, b) in enumerate(zip(image, chosen))
                         if a != b), len(chosen)))
    return out


def check_canonical(n, chosen):
    search = cap_search(n)
    state = canonical_by_steps(search, chosen)
    assert ((state is not None)
            == reference_paths.canonical(n, search.table.blocks, chosen))
    if state is not None:
        assert state == first_differences(search, chosen)


@PROPERTY
@given(n=st.integers(2, 5), data=st.data())
def test_canonical_check_matches_reference(n, data):
    check_canonical(n, block_indices(data, n))


@settings(PROPERTY, max_examples=8)
@given(data=st.data())
def test_canonical_check_matches_reference_at_six_vertices(data):
    check_canonical(6, block_indices(data, 6))


@pytest.mark.parametrize("chosen", [[6, 17, 19, 23], [0, 5, 6, 12, 17]])
def test_canonical_check_sees_a_lone_relabeling(chosen):
    # The reversal of 1..4 is the only relabeling that makes these smaller.
    assert canonical_by_steps(cap_search(4), chosen) is None
    check_canonical(4, chosen)


@pytest.mark.parametrize("n", range(2, 7))
def test_relabeling_maps_match_reference(n):
    table = _table(n)
    maps = [list(row) for row in table.perm_maps]
    assert maps == reference_paths.perm_maps(n, list(table.blocks))
    assert [list(col) for col in zip(*table.cols)] == maps


@pytest.mark.parametrize("n,lam", [(n, lam) for n in (2, 3, 4) for lam in range(1, 9)]
                         + [(5, lam) for lam in range(1, 5)])
def test_exact_search_matches_reference(n, lam):
    # The bound and its order only prune: the value and the first witness
    # found at the optimal level stay, and no node is added.
    ref = reference_paths.CapSearch(n, lam, SearchBudget())
    value, blocks = ref.run()
    search = _CapSearch(n, lam, SearchBudget())
    assert search.run() == (value, blocks)
    assert search.nodes <= ref.nodes
    want = Covering(n, [BipartiteBlock(a, b) for a, b in blocks])
    got_value, witness = exact_cap(n, lam)
    assert got_value == value
    assert serialize_covering(witness) == serialize_covering(want)


@pytest.mark.parametrize("n", range(2, 8))
def test_root_need_is_the_counting_bound_at_the_full_deficit(n):
    for lam in range(1, 9):
        full = [lam] * comb(n, 2)
        assert _root_need(n, lam) == reference_paths.remaining_need(n, full)


def deficits(data, n, top=8):
    # Some vertices may have every pair at them covered already.
    done = data.draw(st.sets(st.integers(1, n), max_size=2))
    deficit = data.draw(st.lists(st.integers(0, top), min_size=comb(n, 2),
                                 max_size=comb(n, 2)))
    return [0 if done & set(p) else d
            for p, d in zip(combinations(range(1, n + 1), 2), deficit)]


@PROPERTY
@given(n=st.integers(2, 6), data=st.data())
def test_pair_counting_bound_is_at_least_the_slot_bound(n, data):
    # floor(n^2/4)/n is n/4 at even n and below it at odd n.
    deficit = deficits(data, n)
    new = reference_paths.remaining_need(n, deficit)
    old = reference_paths.CapSearch._remaining_need(cap_search(n), deficit)
    assert new >= old
    if n % 2 == 0:
        assert new == old


@PROPERTY
@given(n=st.integers(2, 6), data=st.data())
def test_children_are_the_blocks_whose_child_passes_the_bound(n, data):
    search = cap_search(n)
    deficit = deficits(data, n, top=3)
    # Capacities around the bound, where the per-child test decides.
    need = reference_paths.remaining_need
    rem = max(0, need(n, deficit) + data.draw(st.integers(-2, 6)))
    table = search.table
    start = data.draw(st.integers(0, len(table.blocks) - 1))
    want = []
    for bi in range(start, len(table.blocks)):
        size = table.sizes[bi]
        touched = [p for p in table.block_pairs[bi] if deficit[p] > 0]
        child = [d - (p in touched) for p, d in enumerate(deficit)]
        if size <= rem and touched and need(n, child) <= rem - size:
            want.append(bi)
    assert search._children(start, deficit, rem) == want


@PROPERTY
@given(n=st.integers(3, 7), data=st.data())
def test_grouped_children_walk_matches_linear_walk(n, data):
    # The walk over the waste groups within the slot slack returns the
    # blocks the walk over every block from start returns, in index order.
    search = cap_search(n)
    deficit = deficits(data, n, top=data.draw(st.sampled_from([1, 3, 8])))
    rem = max(0, reference_paths.remaining_need(n, deficit)
              + data.draw(st.integers(-2, 8)))
    start = data.draw(st.integers(0, len(search.table.blocks) - 1))
    assert (search._children(start, deficit, rem)
            == reference_paths.linear_children(search.table, start, deficit, rem))


@st.composite
def small_graphs(draw, max_n=24):
    # p = 0 and p = 1 give empty and complete graphs; the isolated set strips
    # some vertices of every edge.
    n = draw(st.integers(1, max_n))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
    isolated = draw(st.sets(st.integers(1, n), max_size=n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Graph(n, [(u, v) for u, v in combinations(range(1, n + 1), 2)
                     if rng.random() < p and not {u, v} & isolated])


@PROPERTY
@given(g=small_graphs())
def test_alpha_per_vertex_matches_reference(g):
    alphas = alpha_per_vertex(g)
    assert alphas == reference_paths.alpha_per_vertex(g)
    assert alphas == reference_paths.bbmc_alpha_per_vertex(g)


@PROPERTY
@given(g=small_graphs(max_n=11))
def test_alpha_per_vertex_matches_brute_force(g):
    assert alpha_per_vertex(g) == reference_paths.brute_alpha(g)


@PROPERTY
@given(g=small_graphs(), data=st.data())
def test_alpha_per_vertex_does_not_depend_on_labels(g, data):
    # The search renumbers the vertices by degree before it packs their
    # masks; any labelling of the same graph gives the same values, carried
    # along with the vertices.
    label = data.draw(st.permutations(range(1, g.n + 1)))  # v is label[v - 1]
    h = Graph(g.n, [(label[u - 1], label[v - 1]) for u, v in g.edges()])
    want = [0] * g.n
    for v, a in enumerate(alpha_per_vertex(g)):
        want[label[v] - 1] = a
    assert alpha_per_vertex(h) == want
    if g.n <= 12:
        assert want == reference_paths.brute_alpha(h)


@pytest.mark.parametrize("n,p,seed", [(60, 0.3, 1), (82, 0.42, 7),
                                      (125, 0.52, 7), (198, 0.77, 7)])
def test_alpha_per_vertex_matches_reference_on_larger_graphs(n, p, seed):
    g = random_graph(n, p, seed)
    alphas = alpha_per_vertex(g, limit=n)
    assert alphas == reference_paths.alpha_per_vertex(g)
    assert alphas == reference_paths.bbmc_alpha_per_vertex(g)


@pytest.mark.parametrize("g,want", [(complete_graph(9), [1] * 9),
                                    (empty_graph(9), [9] * 9),
                                    (Graph(1), [1])])
def test_alpha_per_vertex_extremes(g, want):
    assert alpha_per_vertex(g) == want
    assert reference_paths.bbmc_alpha_per_vertex(g) == want


def solve_counting(solver, mask, lower):
    """max_independent's value and its number of _expand calls."""
    nodes = 0
    expand = solver._expand

    def counted(cand, size):
        nonlocal nodes
        nodes += 1
        return expand(cand, size)

    solver._expand = counted  # the recursion looks the name up on the instance
    return solver.max_independent(mask, lower), nodes


def check_same_tree(g, lowers):
    masks = reference_paths.edge_masks(g)
    full = (1 << g.n) - 1
    ref = reference_paths.MisSolver(masks)
    for i in range(g.n):
        sub = full & ~(masks[i] | (1 << i))
        lower = lowers(ref, sub, i)
        assert (solve_counting(reference_paths.BbmcSolver(masks), sub, lower)
                == solve_counting(reference_paths.MisSolver(masks), sub, lower))


@PROPERTY
@given(g=small_graphs(), data=st.data())
def test_solver_visits_the_reference_tree(g, data):
    # Any lower bound up to the answer: none, the greedy seed, or a draw.
    kind = data.draw(st.sampled_from(["zero", "greedy", "drawn"]))
    if kind == "zero":
        check_same_tree(g, lambda ref, sub, i: 0)
    elif kind == "greedy":
        check_same_tree(g, lambda ref, sub, i: ref.greedy_lower(sub, seed=i))
    else:
        check_same_tree(g, lambda ref, sub, i: data.draw(
            st.integers(0, ref.max_independent(sub))))


@pytest.mark.parametrize("n,p,seed", [(60, 0.3, 1), (82, 0.42, 7)])
def test_solver_visits_the_reference_tree_on_larger_graphs(n, p, seed):
    g = random_graph(n, p, seed)
    check_same_tree(g, lambda ref, sub, i: ref.greedy_lower(sub, seed=i))
    check_same_tree(g, lambda ref, sub, i: 0)


def edge_items(n):
    """Edge entries a graph document on n vertices may hold: valid, out of
    range, reversed, repeated, of the wrong type or length, or past int64."""
    return st.one_of(
        st.lists(st.integers(-1, n + 1), min_size=2, max_size=2),
        st.lists(st.one_of(st.integers(1, n), st.booleans(), st.just(2.0),
                           st.floats(1, n), st.just("3"),
                           st.sampled_from([2**64, -2**70])),
                 min_size=2, max_size=2),
        st.lists(st.integers(1, n), max_size=3),
        st.integers(1, n))


@PROPERTY
@given(n=st.one_of(st.integers(1, 6), st.integers(60, 70)),
       p=st.sampled_from([0.0, 0.05, 0.5, 1.0]), seed=st.integers(0, 2**32),
       data=st.data())
def test_parse_graph_matches_reference(n, p, seed, data):
    # Mostly valid lists, so that documents parse and errors come late.  The
    # list is sorted or shuffled (the bulk read sorts only the latter); an
    # inserted valid pair may repeat one already there, and the first pair
    # may come again at the end, far from its copy.
    pairs = [[u, v] for u, v in combinations(range(1, n + 1), 2)]
    rng = random.Random(seed)
    raw = [pair for pair in pairs if rng.random() < p]
    if data.draw(st.booleans()):
        rng.shuffle(raw)
    if raw and data.draw(st.booleans()):
        raw.append(list(raw[0]))
    valid = st.sampled_from(pairs) if pairs else st.nothing()
    for _ in range(data.draw(st.integers(0, 2))):
        raw.insert(data.draw(st.integers(0, len(raw))),
                   data.draw(st.one_of(edge_items(n), valid)))
    text = json.dumps({"n": n, "edges": raw})
    assert outcome(parse_graph, text) == outcome(reference_paths.parse_edges, n, raw)


def test_benchmark_covering_files_parse_without_json(tmp_path, monkeypatch, capsys):
    # The coverings kn-certify constructs, and the negative control it
    # rewrites with json.dump, are in the layout.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    def refuse(*args, **kwargs):
        raise AssertionError("parse_covering decoded a benchmark covering with json")

    paths = []
    for op in workloads.build("kn-certify", 7, str(tmp_path)).ops:
        if op.argv[0] == "construct":
            assert main(op.argv) == 0
            paths.append(op.argv[op.argv.index("--out") + 1])
        elif op.prepare is not None:
            op.prepare()
            paths.append(op.argv[1])
    capsys.readouterr()
    assert len(paths) == 5
    monkeypatch.setattr(json, "loads", refuse)
    for path in paths:
        assert len(parse_covering(Path(path).read_text(encoding="utf-8"))) > 0


@PROPERTY
@given(n=st.one_of(st.integers(1, 70), st.integers(60, 70)),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2**32), shuffled=st.booleans())
def test_parse_graph_packs_valid_lists(n, p, seed, shuffled):
    # Valid lists only, so every document takes the bulk read.
    rng = random.Random(seed)
    raw = [[u, v] for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    if shuffled:
        rng.shuffle(raw)
    g = parse_graph(json.dumps({"n": n, "edges": raw}))
    assert g == reference_paths.parse_edges(n, raw)


@pytest.mark.parametrize("raw", [
    [[0, 1]], [[-1, 2]], [[1, 2], [-2**70, 3]], [[1, 2**64]], [[2**64, 2]],
    [[1, True]], [[1, 2], [2.0, 3]], [[1, 3.5]], [[1, 2], [1]], [[1, 2], 3],
    [[2, 3], [1, 2]], [[1, 2], [2, 3], [1, 3], [2, 3]], [[1, 3], [2, 3], [1, 3]],
    [[3, 2]], [[1, 4]], [[1, 2], [1, 2, 3]], [[1, "2"]]])
def test_parse_graph_names_the_first_bad_entry(raw):
    text = json.dumps({"n": 3, "edges": raw})
    assert outcome(parse_graph, text) == outcome(reference_paths.parse_edges, 3, raw)


def test_sorted_single_chunk_parse_does_not_sort(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_graph sorted a sorted edge list")

    g = random_graph(256, 0.5, 1)
    text = serialize_graph(g)
    for name in ("sort", "argsort", "lexsort", "unique"):
        monkeypatch.setattr(np, name, refuse)
    assert parse_graph(text) == g


GRAPH_EDITS = ("none", *TEXT_EDITS, "indent", "swapped-keys", "duplicate",
               "unsorted", "self-loop", "past-n")


def edited_graph_text(g, edit, data):
    """The text serialize_graph writes for g after one edit of the named
    kind; "none" keeps it."""
    text = serialize_graph(g)
    edited = edited_text(text, edit, data)
    if edited is not None:
        return edited
    edges = g.edge_array().tolist()
    if edit == "indent":
        return json.dumps({"n": g.n, "edges": edges}, indent=1)
    if edit == "swapped-keys":
        return json.dumps({"edges": edges, "n": g.n})
    at = data.draw(st.integers(0, len(edges)))
    u = data.draw(st.integers(1, g.n))
    if edit == "duplicate" and edges:
        edges.insert(at, list(data.draw(st.sampled_from(edges))))
    elif edit == "unsorted" and len(edges) > 1:
        i, j = data.draw(st.lists(st.integers(0, len(edges) - 1), min_size=2,
                                  max_size=2, unique=True))
        edges[i], edges[j] = edges[j], edges[i]
    elif edit == "self-loop":
        edges.insert(at, [u, u])
    elif edit == "past-n":
        edges.insert(at, [u, g.n + 1])
    return json.dumps({"n": g.n, "edges": edges})


@pytest.mark.parametrize("edit", GRAPH_EDITS)
@settings(PROPERTY, max_examples=25)
@given(n=st.integers(1, 70), p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2**32), data=st.data())
def test_bulk_graph_read_agrees_with_the_json_path(edit, n, p, seed, data):
    # Canonical text, with or without trailing whitespace, takes the bulk
    # read; every edit gives the graph or the error the json path and the
    # reference give.
    g = random_graph(n, p, seed)
    text = edited_graph_text(g, edit, data)
    with patch.object(json, "loads", wraps=json.loads) as loads:
        got = outcome(parse_graph, text)
    with patch.object(graphs, "_canonical_edges", return_value=None):
        via_json = outcome(parse_graph, text)
    assert got == via_json == outcome(reference_paths.parse_graph, text)
    assert hash(got) == hash(via_json)
    if edit in ("none", "trailing-space"):
        assert got == g and loads.call_count == 0


@pytest.mark.parametrize("text", [
    '{"n": 3, "edges": [[01, 2]]}',
    '{"n": 03, "edges": [[1, 2]]}',
    '{"n": 0, "edges": []}',
    '{"n": 3, "edges": [[0, 2]]}',
    '{"n": 3, "edges": [[-1, 2]]}',
    '{"n": 3, "edges": [[1, 4]]}',
    '{"n": 3, "edges": [[2, 2]]}',
    '{"n": 3, "edges": [[2, 1]]}',
    '{"n": 3, "edges": [[1, 2], [1, 2]]}',
    '{"n": 3, "edges": [[2, 3], [1, 2]]}',
    '{"n": 3, "edges": [[1, 12345678901234567890]]}',
    '{"n": 3, "edges": [[1, 2147483649]]}',
    '{"n": 3, "edges": [[1, 4294967298]]}',
    '{"n": 3, "edges": [[1, 2], [3]]}',
    '{"n": 3, "edges": [[1, 2, 3]]}',
    '{"n": 3, "edges": [[1, 2]], "x": 1}',
    '{"n": 3, "edges": [[1 ,2]]}',
    '{"n": 3, "edges": [[12, ]]}',
    '{"n": 3, "edges": [[, 12]]}',
    '{"n": 3, "edges": [[1, 2]3]}',
    '{"n": 3, "edges": [[1, ]2]}',
    '{"n": 3, "edges": [[, 2]1]}',
    '{"n": 3, "ed1ges": [[, 2]]}',
    '{"n": , "edges": [[1, 2]]}3',
    '{"n": , "edges": [3]}',
    '{"n": 3, "edges": [1[1, 2]]}',
    '{"n": 3, "edges": []]}',
    '{"n": 3, "edges": [[1, 2]]}\x0b',
    '{"n": 3, "edges": [[1, 2]]}\u00e9',
    '{"n": 3,"edges":[[1,2]]}',
    '{"n": 3, "edges": [[1, 2]]} \n',
    '{"n": 3, "edges": []}',
])
def test_near_canonical_graph_text_matches_reference(text):
    # Texts at or near the layout serialize_graph writes, most of them one
    # edit away from it.  Each gives the reference's graph or error.
    assert outcome(parse_graph, text) == outcome(reference_paths.parse_graph, text)


def test_bulk_graph_read_refuses_long_runs_before_reading_them(monkeypatch):
    # np.fromstring clamps a run past int64; were it to wrap instead, 2**64 + 2
    # would read as 2.  The value has fewer digits than its run, so the bulk
    # read refuses the text before it uses the value.
    def wrapping(data, dtype, sep):
        return np.array([(int(w) + 2**63) % 2**64 - 2**63 for w in data.split()],
                        dtype=dtype)

    text = '{"n": 3, "edges": [[1, 18446744073709551618]]}'
    monkeypatch.setattr(np, "fromstring", wrapping)
    assert outcome(parse_graph, text) == outcome(reference_paths.parse_graph, text)


def test_canonical_graph_parses_without_json(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_graph decoded canonical text with json")

    graphs_ = [empty_graph(1), empty_graph(5000), complete_graph(2),
               complete_graph(40), random_graph(70, 0.5, 1),
               random_graph(300, 0.3, 2)]
    texts = [serialize_graph(g) for g in graphs_]
    monkeypatch.setattr(json, "loads", refuse)
    for g, text in zip(graphs_, texts):
        assert parse_graph(text) == g
        assert parse_graph(text + "\n") == g


def test_benchmark_graph_files_parse_without_json(tmp_path, monkeypatch):
    # The graph files the benchmark writes with json.dump are in the layout.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    def refuse(*args, **kwargs):
        raise AssertionError("parse_graph decoded a benchmark graph with json")

    paths = []
    for seed in (1, 7, 11):
        (tmp_path / str(seed)).mkdir()
        paths += workloads.build("graph-certify", seed, str(tmp_path / str(seed))).inputs
    monkeypatch.setattr(json, "loads", refuse)
    for path in paths:
        g = parse_graph(Path(path).read_text(encoding="utf-8"))
        assert g.edge_count() > 0


@PROPERTY
@given(n=st.one_of(st.integers(1, 70), st.integers(60, 70)),
       p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
       seed=st.integers(0, 2**32), data=st.data())
def test_graph_masks_match_neighbor_sets(n, p, seed, data):
    # The edge list comes shuffled, each edge either way round, some repeated.
    ref = reference_paths.neighbor_set_random_graph(n, p, seed)
    assert random_graph(n, p, seed).edges() == ref.edges()
    rng = random.Random(seed)
    edges = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in ref.edges()]
    edges += rng.sample(edges, len(edges) // 4)
    rng.shuffle(edges)
    g = Graph(n, edges)
    assert g.edges() == ref.edges()
    assert g.edge_count() == ref.edge_count()
    assert degrees(g) == [ref.degree(v) for v in range(1, n + 1)]
    assert [g.degree(v) for v in range(1, n + 1)] == degrees(g)
    assert all(g.has_edge(u, v) == ref.has_edge(u, v)
               for u in range(1, n + 1) for v in range(1, n + 1))
    assert greedy_coloring(g) == reference_paths.neighbor_set_coloring(ref)
    assert serialize_graph(g) == reference_paths.serialize_neighbor_set_graph(ref)
    back = parse_graph(serialize_graph(g))
    assert back == g and hash(back) == hash(g)
    # A second graph: the same edges, or one pair toggled.
    other = list(ref.edges())
    if n > 1 and data.draw(st.booleans()):
        pair = tuple(sorted(rng.sample(range(1, n + 1), 2)))
        other = [e for e in other if e != pair] if pair in other else other + [pair]
    h, ref_h = Graph(n, other[::-1]), reference_paths.NeighborSetGraph(n, other)
    assert (g == h) == (ref == ref_h)
    assert g != h or hash(g) == hash(h)
