"""The fast kernels (verify, the diagnostic sweeps, the greedy code scan,
min_distance, degenerate_rows and the exact search's canonical check) agree
exactly with the Python reference paths."""

import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicover.codes import BinaryCode, greedy_gv_code, min_distance
from bicover.covering import BipartiteBlock, Covering, degenerate_rows, verify
from bicover.diagnostics import (_disjointness, _independent_sets, _sweep,
                                 check_event_overlap, event_profile)
from bicover.errors import (BicoverError, DomainError, SizeLimitExceeded,
                            TargetUnreached)
from bicover.exact import SearchBudget, _CapSearch
from bicover.graphs import Graph, alpha_per_vertex

import reference_paths

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

# Block counts on each side of the one-word and two-word mask boundaries.
BLOCK_COUNTS = st.one_of(st.just(0), st.integers(1, 63), st.integers(64, 70),
                         st.integers(127, 140))


def random_covering(n, m, seed):
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
    return Covering(n, blocks)


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
    json.loads(report.to_json())


@PROPERTY
@given(n=st.integers(1, 9), m=st.integers(0, 10), seed=st.integers(0, 2**32),
       lam=st.integers(1, 12))
def test_exhaustive_disjointness_matches_reference(n, m, seed, lam):
    # Below the tail threshold (x_j < r) both paths raise the same DomainError.
    prof = event_profile(random_covering(n, m, seed), lam)
    report = outcome(_disjointness, prof, "exhaustive", 0, 0, 20)
    assert report == outcome(reference_paths.disjointness, prof, "exhaustive")
    if not isinstance(report, tuple):
        assert_python_ints((report.violations, report.details))


@PROPERTY
@given(n=st.integers(1, 9), m=BLOCK_COUNTS, seed=st.integers(0, 2**32),
       lam=st.integers(1, 60), trials=st.integers(0, 300))
def test_sampled_disjointness_matches_reference(n, m, seed, lam, trials):
    prof = event_profile(random_covering(n, m, seed), lam)
    report = _disjointness(prof, "sampled", seed, trials, 20)
    assert report == reference_paths.disjointness(prof, "sampled", seed, trials)
    assert_python_ints((report.violations, report.trials))


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
    prof = event_profile(cov, 1)
    assert report == reference_paths.event_overlap(prof, alphas, mode, seed, trials)
    assert_python_ints((report.violations, report.trials))


@PROPERTY
@given(n=st.integers(1, 9), m=st.one_of(st.integers(0, 12), BLOCK_COUNTS),
       seed=st.integers(0, 2**32), sampled=st.booleans())
def test_independent_event_sets_matches_reference(n, m, seed, sampled):
    # Coverings here need not cover g, so adjacent occurring pairs do appear.
    if not sampled and m > 12:
        m = 12
    prof = event_profile(random_covering(n, m, seed), 1)
    g = random_graph_on(n, seed + 1)
    mode, trials = ("sampled", 200) if sampled else ("exhaustive", 0)
    report = _independent_sets(prof, g, mode, seed, trials, 20)
    assert report == reference_paths.independent_event_sets(prof, g, mode,
                                                            seed, trials)
    assert_python_ints((report.violations, report.trials))


def test_violation_paths_are_exercised():
    # Two isolated vertices match every vector: each sweep finds violations.
    prof = event_profile(Covering(3, [BipartiteBlock([1], [2])]), 1)
    path = Graph(3, [(1, 3), (2, 3)])
    indep = _independent_sets(prof, path, "exhaustive", 0, 0, 20)
    assert indep.violations == (("adjacent-pair", 0, 1, 3),
                                ("adjacent-pair", 1, 2, 3))
    dis = _disjointness(prof, "sampled", 5, 50, 20)
    assert len(dis.violations) == 10 and not dis.ok
    assert dis == reference_paths.disjointness(prof, "sampled", 5, 50)
    cov = Covering(3, [BipartiteBlock([1], [2])])
    over = check_event_overlap(cov, Graph(3, [(1, 2)]), alphas=[1, 1, 1])
    assert over.violations == (("occupancy", 0, 1, 2), ("occupancy", 1, 2, 2))


def test_exact_match_reads_every_mask_word():
    # Vertices 3 and 4 sit only in block 65, so their first mask word is
    # empty; a match decided on that word alone would put both in every event.
    cov = Covering(4, [BipartiteBlock([1], [2])] * 64 + [BipartiteBlock([3], [4])])
    prof = event_profile(cov, 1)
    g = Graph(4, [(3, 4)])
    report = _independent_sets(prof, g, "sampled", 1, 100, 20)
    assert report.ok
    assert report == reference_paths.independent_event_sets(prof, g, "sampled", 1, 100)


def test_sweep_checks_mode_and_limit_before_sweeping():
    prof = event_profile(Covering(2, [BipartiteBlock([1], [2])] * 3), 1)
    with pytest.raises(DomainError):
        _sweep(prof, 0, "nope", 0, 10, 20)
    with pytest.raises(SizeLimitExceeded):
        _sweep(prof, 0, "exhaustive", 0, 10, 2)


@PROPERTY
@given(k=st.integers(1, 14), data=st.data())
def test_greedy_scan_matches_reference(k, data):
    d = data.draw(st.integers(1, k))
    target = data.draw(st.one_of(st.integers(1, 64), st.integers(1, 1 << k)))
    expected = reference_paths.greedy_gv_words(k, d, target)
    try:
        code = greedy_gv_code(k, d, target)
    except TargetUnreached as e:
        assert len(expected) < target
        assert e.achieved == len(expected)
        assert e.code.words == expected
    else:
        assert code.words == expected and len(expected) == target


# Word lengths below, at and above the 64-bit uint64 fast path.
WORD_LENGTHS = st.one_of(st.integers(1, 63), st.just(64), st.integers(65, 80))


@PROPERTY
@given(length=WORD_LENGTHS, count=st.integers(2, 40),
       seed=st.integers(0, 2**32), near=st.booleans())
def test_min_distance_matches_reference(length, count, seed, near):
    # Near sets mostly flip a few bits of one base word, so small distances
    # (and the early exit at distance 1) occur at every length.
    rng = random.Random(seed)
    count = min(count, 1 << length)
    base = rng.getrandbits(length)
    if length == 64:
        base |= 1 << 63
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
    top = len(cap_search(n).blocks) - 1
    hi = data.draw(st.sampled_from(sorted({min(top, 8), top})))
    return sorted(data.draw(st.lists(st.integers(0, hi), min_size=1, max_size=8)))


def check_canonical(n, chosen):
    search = cap_search(n)
    assert (search._canonical(chosen)
            == reference_paths.canonical(n, search.blocks, chosen))


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
    assert not cap_search(4)._canonical(chosen)
    check_canonical(4, chosen)
