import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicover.errors import ParseError, RangeError, SizeLimitExceeded
from bicover.graphs import (Graph, alpha_per_vertex, complete_graph, degrees,
                            empty_graph, greedy_coloring, parse_graph,
                            random_graph, serialize_graph)

from reference_paths import (NeighborSetGraph, bbmc_alpha_per_vertex,
                             brute_alpha, neighbor_set_coloring)

PATH3 = Graph(3, [(1, 2), (2, 3)])
C5 = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])

# alpha_per_vertex of random_graph(n, p, seed), keyed "n,p,seed", as the
# greedy-seeded first-fit solver (tests/reference_paths.py) computed them.
ALPHA_PINS = json.loads(
    (Path(__file__).parent / "data" / "alpha_pins.json").read_text())


def test_graph_validation():
    with pytest.raises(RangeError):
        Graph(3, [(1, 4)])
    with pytest.raises(RangeError):
        Graph(3, [(2, 2)])
    with pytest.raises(RangeError):
        Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        Graph(0)


def test_has_edge_checks_both_endpoints():
    assert PATH3.has_edge(2, 1) and not PATH3.has_edge(1, 3)
    for u, v in ((1, 0), (0, 1), (1, 4), (4, 1), (1, True), (2.0, 1)):
        with pytest.raises(RangeError):
            PATH3.has_edge(u, v)


def test_degrees_examples():
    assert degrees(complete_graph(3)) == [2, 2, 2]
    assert degrees(empty_graph(4)) == [0, 0, 0, 0]
    assert degrees(PATH3) == [1, 2, 1]


def test_alpha_complete_and_empty():
    assert alpha_per_vertex(complete_graph(6)) == [1] * 6
    assert alpha_per_vertex(empty_graph(7)) == [7] * 7


def test_alpha_c5_matches_brute_force():
    assert brute_alpha(C5) == [2, 2, 2, 2, 2]
    assert alpha_per_vertex(C5) == [2, 2, 2, 2, 2]


@pytest.mark.parametrize("seed", range(12))
def test_alpha_matches_brute_force_small(seed):
    g = random_graph(9, (0.2, 0.5, 0.8)[seed % 3], seed)
    assert alpha_per_vertex(g) == brute_alpha(g)


@pytest.mark.parametrize("seed", range(3))
def test_alpha_matches_brute_force_n12(seed):
    g = random_graph(12, 0.5, seed)
    assert alpha_per_vertex(g) == brute_alpha(g)


def test_alpha_bounded_by_nonneighbors():
    for seed in range(8):
        g = random_graph(16, 0.4, seed)
        alphas = alpha_per_vertex(g)
        degs = degrees(g)
        assert all(1 <= a <= g.n - d for a, d in zip(alphas, degs))


@pytest.mark.parametrize("key", sorted(ALPHA_PINS))
def test_alpha_matches_pins(key):
    n, p, seed = key.split(",")
    g = random_graph(int(n), float(p), int(seed))
    assert alpha_per_vertex(g, limit=g.n) == ALPHA_PINS[key]


@st.composite
def alpha_cases(draw):
    """(graph, alphas or None): a random G(n, p) with n <= 40, or one of the
    graphs with known values, on shuffled labels.  Disjoint cliques take
    one vertex from each clique; a complete multipartite graph takes v's
    whole part and nothing else."""
    kind = draw(st.sampled_from(["random", "empty", "complete", "cliques",
                                 "multipartite"]))
    if kind == "random":
        n = draw(st.integers(1, 40))
        p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)))
        return random_graph(n, p, draw(st.integers(0, 2**32))), None
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    if kind in ("empty", "complete"):
        sizes = [sum(sizes)] if kind == "complete" else [1] * sum(sizes)
        kind = "cliques"
    n = sum(sizes)
    label = draw(st.permutations(range(1, n + 1)))
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    same = kind == "cliques"  # cliques join a part, multipartite graphs split them
    g = Graph(n, [(label[u], label[v]) for u in range(n) for v in range(u + 1, n)
                  if (part[u] == part[v]) == same])
    alphas = [0] * n
    for u in range(n):
        alphas[label[u] - 1] = len(sizes) if same else sizes[part[u]]
    return g, alphas


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=alpha_cases())
def test_alpha_matches_the_references(case):
    g, want = case
    alphas = alpha_per_vertex(g)
    assert alphas == bbmc_alpha_per_vertex(g)
    if want is not None:
        assert alphas == want
    if g.n <= 12:
        assert alphas == brute_alpha(g)


def test_alpha_size_limit():
    with pytest.raises(SizeLimitExceeded):
        alpha_per_vertex(empty_graph(6), limit=5)
    assert alpha_per_vertex(empty_graph(41), limit=41) == [41] * 41


def test_random_graph_endpoints_and_determinism():
    assert random_graph(5, 0, 1).edge_count() == 0
    assert random_graph(5, 1, 1) == complete_graph(5)
    a = random_graph(30, 0.5, 7)
    b = random_graph(30, 0.5, 7)
    assert a == b
    assert a != random_graph(30, 0.5, 8)
    with pytest.raises(ValueError):
        random_graph(5, 1.2, 0)


def test_greedy_coloring_examples():
    assert greedy_coloring(empty_graph(3)) == [0, 0, 0]
    assert greedy_coloring(complete_graph(3)) == [0, 1, 2]
    assert greedy_coloring(PATH3) == [0, 1, 0]


def test_greedy_coloring_proper_and_bounded():
    for seed in range(6):
        g = random_graph(25, 0.4, seed)
        colors = greedy_coloring(g)
        assert all(colors[u - 1] != colors[v - 1] for u, v in g.edges())
        assert max(colors) + 1 <= max(degrees(g)) + 1
        assert sorted(set(colors)) == list(range(max(colors) + 1))


def test_greedy_coloring_memory_follows_the_edges():
    # A sparse graph as the CI smoke test builds it: the coloring reads the
    # edges grouped by their upper end and packs no n x n bits.
    rng = random.Random(1)
    n = 20000
    edges = {tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(50000)}
    g = Graph(n, edges)
    tracemalloc.start()
    try:
        colors = greedy_coloring(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert colors == neighbor_set_coloring(NeighborSetGraph(n, edges))


def test_parse_examples():
    assert parse_graph('{"n":3,"edges":[[1,2],[2,3]]}') == PATH3
    assert parse_graph('{"n":2,"edges":[]}') == empty_graph(2)
    with pytest.raises(RangeError):
        parse_graph('{"n":2,"edges":[[1,3]]}')


def test_parse_rejects_malformed():
    err = None
    try:
        parse_graph('{"n": 3,\n "edges": [[1, 2')
    except ParseError as e:
        err = e
    assert err is not None and err.line == 2
    for bad in ('{"n":3}', '{"n":3,"edges":[[2,1]]}',
                '{"n":3,"edges":[[1,2],[1,2]]}', '{"n":0,"edges":[]}',
                '{"n":3,"edges":[[1]]}', '[1,2]'):
        with pytest.raises(ParseError):
            parse_graph(bad)


def test_parse_refuses_deep_nesting():
    # Deeper than the json decoder's recursion limit.
    for text in ("[" * 200_000, '{"n": 2, "edges": ' + "[" * 200_000):
        with pytest.raises(ParseError, match="^invalid JSON: maximum recursion"):
            parse_graph(text)


def test_parse_allocates_the_masks_once():
    # A million isolated vertices: nothing n-sized is built to read them.
    tracemalloc.start()
    try:
        g = parse_graph('{"n": 1000000, "edges": []}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10**6 and g.edge_count() == 0
    assert peak <= 16 * 10**6


@pytest.mark.parametrize("build", [
    lambda: parse_graph('{"n": 1000000, "edges": [[1, 2], [5, 999999]]}'),
    lambda: Graph(10**6, [(1, 2)]),
], ids=["parse_graph", "Graph"])
def test_sparse_graph_memory_does_not_grow_with_n(build):
    # A graph keeps only its edges: a million vertices and one or two edges
    # take no n-sized list, tuple or array to read or to build.
    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10**6 and g.edge_count() in (1, 2)
    assert peak < 2**20


def test_serialize_round_trip():
    for seed in range(5):
        g = random_graph(12, 0.5, seed)
        assert parse_graph(serialize_graph(g)) == g
    doc = json.loads(serialize_graph(PATH3))
    assert doc == {"n": 3, "edges": [[1, 2], [2, 3]]}
