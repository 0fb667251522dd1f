"""Simple undirected graphs on 1-indexed vertex sets.

Provides the graph value type plus the operations the rest of the toolkit
needs: degrees, exact per-vertex independence numbers, seeded random
instances, greedy coloring, and JSON round-tripping.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import numpy as np

from .errors import ParseError, RangeError, SizeLimitExceeded

DEFAULT_EXACT_LIMIT = 40


class Graph:
    """Simple undirected graph on vertices 1..n, stored as its sorted edge array.

    ``edge_array()`` holds every edge once, as the row (u, v) with u < v,
    in lexicographic order; every other view of the graph is read off it.
    ``has_edge`` searches the edges' keys u * (n + 1) + v, which increase
    with the rows and are built on its first call.
    """

    __slots__ = ("n", "_edges", "_keys")

    def __init__(self, n, edges=()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        pairs = []
        for u, v in edges:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise RangeError(f"self-loop at vertex {u}")
            pairs.append((u, v) if u < v else (v, u))
        rows = np.unique(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=0)
        rows.flags.writeable = False
        self.n, self._edges, self._keys = n, rows, None

    def degree(self, v):
        _check_vertex(v, self.n)
        return int(np.count_nonzero(self._edges == v))

    def has_edge(self, u, v):
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        if self._keys is None:
            self._keys = self._edges @ np.array([self.n + 1, 1])
        key = min(u, v) * (self.n + 1) + max(u, v)
        i = int(self._keys.searchsorted(key))
        return i < len(self._keys) and int(self._keys[i]) == key

    def edge_array(self):
        """All edges as the rows (u, v), u < v, of a read-only int64 array,
        lexicographically sorted."""
        return self._edges

    def edges(self):
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return list(zip(*self._edges.T.tolist()))

    def edge_count(self):
        return len(self._edges)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._edges, other._edges)

    def __hash__(self):
        return hash((self.n, self._edges.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()!r})"


def _graph(n, edges):
    """The Graph on 1..n whose edge array is edges, unchecked: an (E, 2)
    int64 array of rows (u, v), 1 <= u < v <= n, strictly increasing."""
    g = Graph.__new__(Graph)
    edges.flags.writeable = False
    g.n, g._edges, g._keys = n, edges, None
    return g


def _check_vertex(v, n):
    if not isinstance(v, int) or isinstance(v, bool):
        raise RangeError(f"vertex label must be an integer, got {v!r}")
    if not 1 <= v <= n:
        raise RangeError(f"vertex label {v} outside 1..{n}")


def complete_graph(n):
    return Graph(n, combinations(range(1, n + 1), 2))


def empty_graph(n):
    return Graph(n)


def degrees(g):
    """Degree of each vertex; entry i-1 belongs to vertex i."""
    return np.bincount(g.edge_array().ravel(), minlength=g.n + 1)[1:].tolist()


def random_graph(n, p, seed):
    """Binomial random graph: each pair independently an edge with probability p.

    Pairs (u, v), u < v, are visited in lexicographic order and decided by one
    draw each from a Mersenne Twister (``random.Random``) seeded with ``seed``,
    so a given (n, p, seed) reproduces the same graph on any platform.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p!r}")
    rng = random.Random(seed)
    return Graph(n, ((u, v) for u in range(1, n + 1)
                     for v in range(u + 1, n + 1) if rng.random() < p))


def greedy_coloring(g):
    """Proper coloring: vertices in label order, each taking the smallest
    color that none of its lower neighbors has."""
    u, v = g.edge_array().T
    order = np.argsort(v, kind="stable")  # the edges grouped by their upper end
    lower = u[order].tolist()
    ends = np.searchsorted(v[order], np.arange(1, g.n + 1), side="right").tolist()
    colors = [0] * (g.n + 1)  # colors[w] belongs to vertex w; colors[0] is unused
    start = 0
    for w, end in enumerate(ends, 1):
        taken = {colors[x] for x in lower[start:end]}
        c = 0
        while c in taken:
            c += 1
        colors[w] = c
        start = end
    return colors[1:]


class _AlphaSearch:
    """One branch and bound that settles the independence number through
    every vertex at once, over bitmask vertex sets.

    ``known[v]`` is the size of the largest independent set found so far
    that contains v, and ``below[t]`` is the mask of the vertices with
    ``known < t``.  Before the search, each vertex v seeds ``known`` with one
    greedy independent set: v, then the lowest remaining non-neighbour,
    repeatedly.  A node is an independent set S (``chosen``) with its
    candidates, the vertices that extend it.  The bound at a node comes
    from a greedy partition of the candidates into cliques (Tomita & Seki's
    MCQ bound, read on the graph itself): an independent set takes at most
    one vertex per clique.  The partition is built one class at a time over
    bitmasks, as in San Segundo et al.'s BBMC: class k takes the lowest
    remaining candidate, keeps only the candidates adjacent to it, and
    repeats until none is left.  Candidates are expanded from the highest
    class down, each class's mask from its highest bit down.  A subtree
    whose sets have at most t vertices is cut when no vertex of S and of
    its remaining candidates has ``known < t``: one AND against
    ``below[t]``.  The same test runs on each child's own pool, S + v and
    the candidates left after v, before the child is entered.  Classes that
    cannot lift any such vertex are not listed at all.

    This is exact: a seed set is independent, so it only raises ``known``
    to values it attains, and an independent set T through x is either
    visited, or it lies in a cut subtree whose bound was at most
    ``known[x]`` then.  Any vertex order gives the same values;
    alpha_per_vertex numbers the vertices by ascending degree, MCQ's initial
    order (descending degree in the complement, where the independent sets
    are cliques), which makes the low classes large and cuts more subtrees.
    """

    def __init__(self, masks):
        n = len(masks)
        self.adj = masks
        self.known = [1] * n
        self.below = [0, 0] + [(1 << n) - 1] * n  # below[0..n+1]

    def run(self):
        adj = self.adj
        full = (1 << len(adj)) - 1
        for v, nbrs in enumerate(adj):
            members = 1 << v
            size = 1
            rest = full & ~(nbrs | members)
            while rest:
                bit = rest & -rest
                members |= bit
                size += 1
                rest &= ~(adj[bit.bit_length() - 1] | bit)
            self._raise(members, size)
        self._expand(0, full, 0)
        return self.known

    def _raise(self, members, size):
        """known[v] = size for every member v of the new set with known < size."""
        known, below = self.known, self.below
        hit = members & below[size]
        while hit:
            bit = hit & -hit
            hit ^= bit
            v = bit.bit_length() - 1
            for t in range(known[v] + 1, size + 1):
                below[t] ^= bit
            known[v] = size

    def _expand(self, chosen, cand, size):
        adj, below = self.adj, self.below
        pool = chosen | cand
        top = size  # max(size, the smallest known over pool)
        while not pool & below[top + 1]:
            top += 1
        skip = top - size  # classes 1..skip cannot lift any known
        classes = []  # the masks of classes skip + 1, skip + 2, ...
        k = 0
        rest = cand
        while rest:
            k += 1
            start = q = rest
            while q:
                bit = q & -q
                rest ^= bit
                q &= adj[bit.bit_length() - 1]
            if k > skip:
                classes.append(start ^ rest)
        cur = cand
        for t in range(size + k, size + skip, -1):  # size + the class number
            members = classes.pop()
            while members:
                if not (chosen | cur) & below[t]:
                    return
                v = members.bit_length() - 1
                bit = 1 << v
                members ^= bit
                grown = chosen | bit
                if grown & below[size + 1]:
                    self._raise(grown, size + 1)
                cur ^= bit
                rest = cur & ~adj[v]
                if rest and (grown | rest) & below[t]:
                    self._expand(grown, rest, size + 1)


def alpha_per_vertex(g, limit=None):
    """Exact maximum independent-set size through each vertex.

    Entry i-1 is the size of a largest independent set of g containing
    vertex i.  One search over the whole graph settles all n values: a set
    it finds raises the value of each of its members, and a subtree is cut
    once it cannot raise any.  Raises SizeLimitExceeded when g.n > limit
    (DEFAULT_EXACT_LIMIT when limit is None).
    """
    limit = DEFAULT_EXACT_LIMIT if limit is None else limit
    if g.n > limit:
        raise SizeLimitExceeded(
            f"exact independence numbers limited to n <= {limit}, got n = {g.n}")
    order = np.argsort(degrees(g), kind="stable")  # MCQ's initial order
    rank = np.empty_like(order)
    rank[order] = np.arange(g.n)
    u, v = rank[g.edge_array() - 1].T  # vertex order[i] (0-based) is renamed i
    known = _AlphaSearch(_pack_masks(g.n, u, v)).run()
    return [known[i] for i in rank.tolist()]


def _pack_masks(n, u, v):
    """Adjacency masks of the graph on 0..n-1 with the edges (u[i], v[i]),
    each given once, as a list of Python ints: bit j of entry i is set iff
    i and j are adjacent.  The bits are OR-ed into one (n x ceil(n/8))
    byte buffer, so the caller bounds n."""
    width = (n + 7) // 8
    rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
    buf = np.zeros((n, width), dtype=np.uint8)
    np.bitwise_or.at(buf, (rows, cols >> 3),
                     np.left_shift(np.uint8(1), (cols & 7).astype(np.uint8)))
    data = buf.tobytes()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, n * width, width)]


# bytes.translate tables: the first keeps the ASCII digits and turns every
# other byte into a space, the second turns every digit into "0".
_DIGITS_ONLY = bytes(c if 0x30 <= c <= 0x39 else 0x20 for c in range(256))
_DIGITS_AS_ZERO = bytes(0x30 if 0x30 <= c <= 0x39 else c for c in range(256))


def _layout_runs(text, layout):
    """The numbers of a document in a reader's canonical layout, as an int64
    array in text order, and the shape of the layout; or None.

    The text must start with ``{"n": `` and may end in JSON whitespace.
    With each maximal digit run cut to one ``0``, giving ``marked``, it must
    equal the skeleton of ``layout(marked) = (skeleton, shape)``: the
    reader's layout with a ``0`` per number slot.  So the digit-free text is
    the skeleton's and each run fills one slot.  ``np.fromstring`` reads
    every run in one call.  A run read exactly has as many digits as its
    value, and one with a leading zero, or clamped or aliased to another
    value, has more, so the values' digits must add up to the text's.  The
    text is then the one json.dumps writes for those numbers.
    """
    if not (text.isascii() and text.startswith('{"n": ')):
        return None  # not the layout, and not worth a bulk read to find out
    raw = text.encode("ascii").rstrip(b" \t\n\r")
    # Numbers first, and each copy of the text freed once used: a lower peak RSS.
    nums = np.fromstring(raw.translate(_DIGITS_ONLY), dtype=np.int64, sep=" ")
    zeroed = raw.translate(_DIGITS_AS_ZERO)
    del raw
    keep = np.frombuffer(zeroed, dtype=np.uint8) != 0x30  # the non-digits,
    total = len(keep) - np.count_nonzero(keep)
    np.logical_or(keep[1:], keep[:-1], out=keep[1:])  # and each run's first digit
    marked = np.frombuffer(zeroed, dtype=np.uint8)[keep].tobytes()
    del zeroed, keep
    skeleton, shape = layout(marked)
    if marked != skeleton:
        return None
    read, power = len(nums), 10
    while above := np.count_nonzero(nums >= power):
        read += above
        power *= 10
    return (nums, shape) if read == total else None


def _edges_layout(marked):
    """``serialize_graph``'s skeleton with as many edges as marked's runs
    allow, and that edge count."""
    m = (marked.count(b"0") - 1) // 2
    return b'{"n": 0, "edges": [' + (b"[0, 0], " * m)[:-2] + b"]}", m


def _canonical_edges(text):
    """n and the sorted (E, 2) int64 edge array of a document in the layout
    of ``serialize_graph``, read in bulk by ``_layout_runs``, or None.  n
    must lie in 1..2^31 - 1, every edge must have 1 <= u < v <= n, and no
    edge may repeat (``_sorted_rows``)."""
    read = _layout_runs(text, _edges_layout)
    if read is None:
        return None
    nums, m = read
    n, edges = int(nums[0]), nums[1:].reshape(-1, 2)
    u, v = edges.T
    if not 1 <= n < 2**31 or m and (u.min() < 1 or v.max() > n or not (u < v).all()):
        return None
    edges = _sorted_rows(n, edges)
    return None if edges is None else (n, edges)


def _sorted_rows(n, edges):
    """The (E, 2) int64 array edges of rows (u, v), 1 <= u < v <= n, in
    lexicographic order; None when a row repeats."""
    u, v = edges.T
    key = u * (n + 1)  # increases with (u, v)
    key += v
    if (key[1:] > key[:-1]).all():
        return edges
    key.sort()
    if not (key[1:] > key[:-1]).all():
        return None
    return np.column_stack(np.divmod(key, n + 1))


def parse_graph(text):
    """Parse the graph JSON format {"n": int, "edges": [[u, v], ...]}.

    n must be below 2^31, and edges must satisfy 1 <= u < v <= n;
    duplicates are rejected.  Text in the layout serialize_graph writes is
    read in bulk by ``_canonical_edges``.  Any other document, or one that
    fails a check there, goes through ``json.loads`` and is walked edge by
    edge, which names its first bad entry.
    """
    read = _canonical_edges(text)
    if read is not None:
        return _graph(*read)
    obj = _decode(text)
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    if set(obj) != {"n", "edges"}:
        raise ParseError('graph document must have exactly the keys "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if n >= 2**31:
        raise ParseError(f'"n" must be below 2^31, got {n}')
    raw = obj["edges"]
    if not isinstance(raw, list):
        raise ParseError('"edges" must be a list of [u, v] pairs')
    seen = set()
    for item in raw:
        if (not isinstance(item, list)) or len(item) != 2:
            raise ParseError(f"edge entry must be a pair, got {item!r}")
        u, v = item
        _check_vertex(u, n)
        _check_vertex(v, n)
        if not u < v:
            raise ParseError(f"edge [{u}, {v}] must satisfy u < v")
        if (u, v) in seen:
            raise ParseError(f"duplicate edge [{u}, {v}]")
        seen.add((u, v))
    return _graph(n, _sorted_rows(n, np.array(raw, dtype=np.int64).reshape(-1, 2)))


def _decode(text):
    """json.loads(text), every failure raised as a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    except (RecursionError, ValueError) as e:  # too deep, or an int past the digit limit
        raise ParseError(f"invalid JSON: {e}") from e


def serialize_graph(g):
    """Inverse of parse_graph; edges sorted, so the output is canonical."""
    return json.dumps({"n": g.n, "edges": g.edge_array().tolist()})
