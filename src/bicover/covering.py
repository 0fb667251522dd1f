"""Bipartite coverings of complete multigraphs and general graphs.

A covering is an ordered list of complete bipartite blocks on a common
ground set 1..n.  A block separates a vertex pair when the two vertices
land on opposite sides; the covering is valid for a target (all pairs of
K_n, or the edges of a graph) at level lam when every required pair is
separated by at least lam blocks.  Capacity is the total number of block
vertices, the quantity all bounds in this toolkit speak about.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .codes import hadamard_code
from .errors import (DomainError, GroundSetMismatch, ImproperColoring,
                     NotEnoughCodewords, OverlapError, ParseError, RangeError,
                     SizeLimitExceeded)
from .graphs import Graph


class BipartiteBlock:
    """One complete bipartite graph, given by its two disjoint vertex classes."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        left = frozenset(left)
        right = frozenset(right)
        if not left or not right:
            raise DomainError("block sides must both be nonempty")
        if left & right:
            raise OverlapError(f"block sides intersect in {sorted(left & right)}")
        self.left = left
        self.right = right

    @property
    def size(self):
        return len(self.left) + len(self.right)

    @property
    def vertices(self):
        return self.left | self.right

    def separates(self, u, v):
        return ((u in self.left and v in self.right)
                or (v in self.left and u in self.right))

    def __eq__(self, other):
        if not isinstance(other, BipartiteBlock):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"BipartiteBlock({sorted(self.left)}, {sorted(self.right)})"


class Covering:
    """Ground-set size plus an ordered list of bipartite blocks."""

    __slots__ = ("n", "blocks", "_masks", "_verified")

    def __init__(self, n, blocks=()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"ground-set size must be a positive integer, got {n!r}")
        blocks = tuple(blocks)
        for b in blocks:
            for v in b.vertices:
                if not isinstance(v, int) or not 1 <= v <= n:
                    raise RangeError(f"block vertex {v!r} outside 1..{n}")
        self.n = n
        self.blocks = blocks
        self._masks = None
        self._verified = {}  # target -> min_multiplicity of its last verify

    def __eq__(self, other):
        if not isinstance(other, Covering):
            return NotImplemented
        return self.n == other.n and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return f"Covering(n={self.n}, blocks={len(self.blocks)})"


@dataclass
class CoverageReport:
    """Outcome of checking a covering against a target at level lam."""

    n: int
    lam: int
    target_kind: str              # "complete" or "graph"
    pair_count: int
    min_multiplicity: int | None  # None when the target has no required pairs
    violating_pairs: tuple        # pairs separated fewer than lam times, sorted
    histogram: dict               # multiplicity -> number of required pairs

    @property
    def ok(self):
        return not self.violating_pairs

    def to_dict(self):
        return {
            "n": self.n,
            "lambda": self.lam,
            "target_kind": self.target_kind,
            "pair_count": self.pair_count,
            "min_multiplicity": self.min_multiplicity,
            "ok": self.ok,
            "violating_pairs": [list(p) for p in self.violating_pairs],
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }

    def to_json(self):
        return json.dumps(self.to_dict())


def capacity(cov):
    """Total number of block vertices; equals the sum of incidence counts."""
    return sum(b.size for b in cov.blocks)


def incidence_counts(cov):
    """Number of blocks containing each vertex; entry j-1 belongs to vertex j."""
    x = [0] * cov.n
    for b in cov.blocks:
        for v in b.vertices:
            x[v - 1] += 1
    return x


def membership_masks(cov):
    """Per-vertex block masks packed into 64-bit words: (left sides, right sides).

    Each is a read-only uint64 array of shape (max(1, ceil(m / 64)), n + 1),
    word-major so that one word of every vertex is contiguous: bit i % 64
    of entry [i // 64, v] is set iff vertex v lies on that side of block i.
    Column 0 stays zero.  Built once per covering and cached on it.
    """
    if cov._masks is None:
        words = max(1, (len(cov.blocks) + 63) // 64)
        a = np.zeros((words, cov.n + 1), dtype=np.uint64)
        b = np.zeros((words, cov.n + 1), dtype=np.uint64)
        for i, blk in enumerate(cov.blocks):
            bit = np.uint64(1 << (i % 64))
            for side, masks in ((blk.left, a), (blk.right, b)):
                cols = np.fromiter(side, dtype=np.intp, count=len(side))
                masks[i // 64, cols] |= bit
        a.flags.writeable = False
        b.flags.writeable = False
        cov._masks = (a, b)
    return cov._masks


_EDGE_CHUNK = 1 << 15  # graph edges per verify step


def verify(cov, target, lam):
    """Count separating blocks for every required pair of the target.

    ``target`` is an integer n (all pairs of the complete graph on 1..n,
    i.e. K_n^lam) or a Graph (its edges).  Violations are reported as data,
    not raised.  The count runs on the packed masks, one vertex u against
    all v > u (or one chunk of graph edges) per step, so temporaries stay at
    O(n) words.  The minimum multiplicity is recorded on the covering per
    target, which lets later checks at the same or a lower level skip the
    count (see ``is_verified``).
    """
    if lam < 1:
        raise DomainError(f"coverage level must be >= 1, got {lam}")
    if isinstance(target, Graph):
        if cov.n != target.n:
            raise GroundSetMismatch(
                f"covering on {cov.n} vertices vs graph on {target.n}")
        pairs = target.edges()
        edges = np.fromiter(chain.from_iterable(pairs), dtype=np.intp,
                            count=2 * len(pairs)).reshape(-1, 2)
        steps = ((edges[k:k + _EDGE_CHUNK, 0], edges[k:k + _EDGE_CHUNK, 1])
                 for k in range(0, len(edges), _EDGE_CHUNK))
        kind = "graph"
    else:
        if cov.n != target:
            raise GroundSetMismatch(
                f"covering on {cov.n} vertices vs complete target on {target}")
        steps = ((u, slice(u + 1, None)) for u in range(1, target))
        kind = "complete"
    a, b = membership_masks(cov)
    hist = np.zeros(len(cov.blocks) + 1, dtype=np.int64)
    low_steps = []  # (u, v) index arrays of the pairs below lam, step by step
    for us, vs in steps:
        per_word = [np.bitwise_count((aw[us] & bw[vs]) | (bw[us] & aw[vs]))
                    for aw, bw in zip(a, b)]
        mult = per_word[0] if len(per_word) == 1 else np.sum(
            per_word, axis=0, dtype=np.intp)
        hist += np.bincount(mult, minlength=len(hist))
        low = np.nonzero(mult < lam)[0]
        if len(low) and kind == "graph":
            low_steps.append((us[low], vs[low]))
        elif len(low):
            low_steps.append((np.full(len(low), us), low + (us + 1)))
    # The pair tuples are built once the loop is done and share one int per
    # vertex, which keeps the peak memory of a long violation list down.
    labels = list(range(cov.n + 1))
    violating = tuple((labels[u], labels[v]) for pu, pv in low_steps
                      for u, v in zip(pu.tolist(), pv.tolist()))
    counts = hist.tolist()
    lowest = next((m for m, c in enumerate(counts) if c), None)
    cov._verified[target] = lowest
    return CoverageReport(
        n=cov.n, lam=lam, target_kind=kind, pair_count=sum(counts),
        min_multiplicity=lowest, violating_pairs=violating,
        histogram={m: c for m, c in enumerate(counts) if c})


def is_verified(cov, target, lam):
    """Whether an earlier ``verify`` of this covering already showed it valid at lam.

    A recorded minimum multiplicity of None means the target has no
    required pairs, which every covering satisfies.
    """
    if target not in cov._verified:
        return False
    lowest = cov._verified[target]
    return lowest is None or lowest >= lam


def code_to_covering(code, n):
    """Blocks from the bit rows of a code matrix whose columns are codewords.

    The first n codewords become the columns of a (length x n) 0/1 matrix;
    row i yields the block splitting the zero columns from the one columns.
    Rows constant across the first n codewords separate nothing and are
    dropped; ``degenerate_rows`` lists them.  Capacity is therefore at most
    n * code.length, and any two vertices are separated by exactly the
    Hamming distance of their codewords.
    """
    if n < 2:
        raise DomainError(f"need a ground set of at least 2 vertices, got {n}")
    if len(code.words) < n:
        raise NotEnoughCodewords(
            f"code has {len(code.words)} words, ground set needs {n}")
    cols = code.words[:n]
    k = code.length
    blocks = []
    for row in range(k):
        bit = k - 1 - row  # row 0 reads the leftmost (most significant) bit
        right = frozenset(j + 1 for j, w in enumerate(cols) if (w >> bit) & 1)
        if not right or len(right) == n:
            continue
        left = frozenset(range(1, n + 1)) - right
        blocks.append(BipartiteBlock(left, right))
    return Covering(n, blocks)


def degenerate_rows(code, n):
    """Row indices (0-based) that code_to_covering drops for this ground set:
    the bits clear in all of the first n words, or set in all of them."""
    k = code.length
    every, some = (1 << k) - 1, 0
    for w in code.words[:n]:
        every, some = every & w, some | w
    constant = (some ^ ((1 << k) - 1)) | (every if len(code.words[:n]) == n else 0)
    return [row for row in range(k) if (constant >> (k - 1 - row)) & 1]


def hadamard_covering(m):
    """Covering of K_n^(n/2) for n = 2^m from the rows of a Sylvester matrix.

    Each row except the all-ones first one splits the columns by sign.  Any
    two distinct columns disagree in exactly n/2 rows, none of them the
    first, so every pair is separated exactly n/2 times and the capacity is
    n(n-1), meeting the edge-count lower bound with equality.
    """
    return code_to_covering(hadamard_code(m), 1 << m)


def balanced_block_count(n, max_blocks=1 << 20):
    """Block count C(n, n/2)/2 of balanced_bipartitions_covering(n), within its cap."""
    if n < 2 or n % 2:
        raise DomainError(f"ground-set size must be even and >= 2, got {n}")
    count = comb(n, n // 2) // 2
    if count > max_blocks:
        raise SizeLimitExceeded(f"{count} blocks exceed the cap of {max_blocks}")
    return count


def balanced_bipartitions_covering(n, max_blocks=1 << 20):
    """One block per unordered bipartition of 1..n into two halves of size n/2.

    Separates every pair exactly C(n-2, n/2-1) times; capacity n*C(n, n/2)/2,
    again matching the edge-count lower bound with equality.
    """
    balanced_block_count(n, max_blocks)
    ground = frozenset(range(1, n + 1))
    blocks = []
    for rest in combinations(range(2, n + 1), n // 2 - 1):
        left = frozenset((1,) + rest)
        blocks.append(BipartiteBlock(left, ground - left))
    return Covering(n, blocks)


def covering_sum(a, b):
    """Concatenate block lists; capacities and per-pair multiplicities add."""
    if a.n != b.n:
        raise GroundSetMismatch(f"ground sets differ: {a.n} vs {b.n}")
    return Covering(a.n, a.blocks + b.blocks)


def coloring_to_covering(g, coloring):
    """Covering of a graph's edges from the bits of a proper coloring.

    Block t splits the vertices by bit t of their color index (zeros left,
    ones right); adjacent vertices have distinct colors, hence differ in
    some bit, so every edge is covered at least once.  Blocks whose sides
    would be empty are dropped.
    """
    if len(coloring) != g.n:
        raise DomainError(
            f"coloring has {len(coloring)} entries for {g.n} vertices")
    for c in coloring:
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise DomainError(f"color indices must be nonnegative integers, got {c!r}")
    for u, v in g.edges():
        if coloring[u - 1] == coloring[v - 1]:
            raise ImproperColoring(
                f"adjacent vertices {u} and {v} share color {coloring[u - 1]}")
    classes = max(coloring) + 1 if coloring else 1
    bits = (classes - 1).bit_length()
    blocks = []
    for t in range(bits):
        right = frozenset(v for v in range(1, g.n + 1)
                          if (coloring[v - 1] >> t) & 1)
        if not right or len(right) == g.n:
            continue
        left = frozenset(range(1, g.n + 1)) - right
        blocks.append(BipartiteBlock(left, right))
    return Covering(g.n, blocks)


def parse_covering(text):
    """Parse the covering JSON format {"n": int, "blocks": [{"left": [...], "right": [...]}]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    if not isinstance(obj, dict) or set(obj) != {"n", "blocks"}:
        raise ParseError('covering document must have exactly the keys "n" and "blocks"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(obj["blocks"], list):
        raise ParseError('"blocks" must be a list')
    blocks = []
    for item in obj["blocks"]:
        if not isinstance(item, dict) or set(item) != {"left", "right"}:
            raise ParseError(f"block entry must map left and right, got {item!r}")
        sides = []
        for key in ("left", "right"):
            side = item[key]
            if not isinstance(side, list) or not side:
                raise ParseError(f'block side "{key}" must be a nonempty list')
            for v in side:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(f"vertex label must be an integer, got {v!r}")
                if not 1 <= v <= n:
                    raise RangeError(f"vertex label {v} outside 1..{n}")
            if len(set(side)) != len(side):
                raise ParseError(f'duplicate vertex in block side "{key}"')
            sides.append(side)
        try:
            blocks.append(BipartiteBlock(sides[0], sides[1]))
        except OverlapError as e:
            raise ParseError(f"block sides overlap: {e}") from e
    return Covering(n, blocks)


def serialize_covering(cov):
    """Inverse of parse_covering; sides sorted, block order preserved."""
    return json.dumps({
        "n": cov.n,
        "blocks": [{"left": sorted(b.left), "right": sorted(b.right)}
                   for b in cov.blocks],
    })
