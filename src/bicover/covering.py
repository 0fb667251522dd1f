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

from .errors import (DomainError, GroundSetMismatch, ImproperColoring,
                     NotEnoughCodewords, OverlapError, ParseError, RangeError,
                     SizeLimitExceeded)
from .graphs import Graph, _decode, _layout_runs

BALANCED_BLOCK_CAP = 1 << 20  # max blocks of a balanced-bipartitions covering
COVERING_BYTE_CAP = 1 << 31   # max bytes of a covering's words and masks


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
    """Ground-set size n plus m ordered bipartite blocks, stored as packed masks.

    ``left`` and ``right`` are read-only uint64 arrays of shape
    (max(1, ceil(m / 64)), n + 1), word-major so that one word of every
    vertex is contiguous: bit i % 64 of entry [i // 64, v] is set iff vertex
    v lies on that side of block i.  Column 0 stays zero.  Every covering
    is packed by ``from_words``; ``Covering(n, blocks)`` writes the words of
    a list of BipartiteBlocks, and ``blocks`` unpacks them on each access.
    """

    __slots__ = ("n", "m", "left", "right", "_verified")

    def __init__(self, n, blocks=()):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"ground-set size must be a positive integer, got {n!r}")
        blocks = tuple(blocks)
        _check_size(n, len(blocks))
        words = np.zeros((2, n, len(blocks)), dtype=bool)  # defined, then bits
        for i, b in enumerate(blocks):
            for side, planes in ((b.left, words[:1]), (b.right, words)):
                for v in side:
                    if not isinstance(v, int) or not 1 <= v <= n:
                        raise RangeError(f"block vertex {v!r} outside 1..{n}")
                planes[:, np.fromiter(side, dtype=np.intp, count=len(side)) - 1, i] = True
        built = from_words(*words)
        for name in self.__slots__:
            setattr(self, name, getattr(built, name))

    @property
    def blocks(self):
        return tuple(BipartiteBlock(*sides) for sides in _sides(self))

    def __eq__(self, other):
        if not isinstance(other, Covering):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right))

    def __hash__(self):
        return hash((self.n, self.m, self.left.tobytes(), self.right.tobytes()))

    def __len__(self):
        return self.m

    def __repr__(self):
        return f"Covering(n={self.n}, blocks={self.m})"


def from_words(defined, bits):
    """The covering of 1..n whose vertex i + 1 has word i of two (n x m)
    0/1 arrays: it lies in block j iff ``defined[i, j]``, on the right side
    iff ``bits[i, j]`` too, else on the left.  Blocks with an empty side
    separate nothing and are dropped: they are found in the packed masks,
    which are packed again without them.  This is the one place that packs
    masks; ``_check_size`` runs before it allocates them.
    """
    n, m = np.shape(defined)
    _check_size(n, m)

    def pack(left, right):  # word-major uint64 masks of boolean side arrays
        width = -(-left.shape[1] // 8)  # bytes per vertex and side
        packed = np.zeros((2, n + 1, 8 * max(1, -(-width // 8))), dtype=np.uint8)
        for side, plane in zip((left, right), packed):
            plane[1:, :width] = np.packbits(side, axis=1, bitorder="little")
        return np.ascontiguousarray(packed.view("<u8").transpose(0, 2, 1), dtype=np.uint64)

    left = np.greater(defined, bits)
    right = np.logical_xor(defined, left)
    masks = pack(left, right)
    present = np.bitwise_or.reduce(masks, axis=2)  # (2, words): a vertex on the side
    keep = np.unpackbits((present[0] & present[1]).astype("<u8").view(np.uint8),
                         count=m, bitorder="little").view(bool)
    if not keep.all():  # compress keeps the rows contiguous for packbits
        masks = pack(left.compress(keep, axis=1), right.compress(keep, axis=1))
    masks.flags.writeable = False
    cov = Covering.__new__(Covering)
    cov.n, cov.m = n, int(np.count_nonzero(keep))
    cov.left, cov.right = masks
    cov._verified = {}  # target -> min_multiplicity of its last verify
    return cov


def _check_size(n, m):
    """Refuse n vertices and m blocks whose two (n + 1) x m byte word arrays
    and 2 (n + 1) max(1, ceil(m / 64)) uint64 mask words pass the cap."""
    size = 2 * (n + 1) * m + 16 * (n + 1) * max(1, -(-m // 64))
    if size > COVERING_BYTE_CAP:
        raise SizeLimitExceeded(
            f"a covering with n = {n} and m = {m} takes {size} bytes of "
            f"words and masks, over the cap of {COVERING_BYTE_CAP}")


def lift(cov, index):
    """The covering of 1..len(index) whose vertex v + 1 takes the masks of
    ``cov``'s vertex ``index[v]``; blocks left with an empty side drop."""
    index = np.asarray(index, dtype=np.intp)
    if index.size and not 1 <= index.min() <= index.max() <= cov.n:
        raise RangeError(f"lifted vertex outside 1..{cov.n}")
    left, right = (np.unpackbits(
        np.ascontiguousarray(masks.T, dtype="<u8").view(np.uint8),
        axis=1, count=cov.m, bitorder="little")[index]
        for masks in (cov.left, cov.right))
    return from_words(left | right, right)


def _sides(cov, labels=None):
    """Each block's (left, right) vertex lists in ascending order, unpacked
    from the masks one block at a time.  ``labels``, an object array indexed
    by vertex, replaces each vertex with its entry."""
    for i in range(cov.m):
        word, bit = i // 64, np.uint64(1 << i % 64)
        left = (cov.left[word] & bit).nonzero()[0]
        right = (cov.right[word] & bit).nonzero()[0]
        if labels is not None:
            left, right = labels[left], labels[right]
        yield left.tolist(), right.tolist()


@dataclass(eq=False)
class CoverageReport:
    """Outcome of checking a covering against a target at level lam."""

    n: int
    lam: int
    target_kind: str              # "complete" or "graph"
    pair_count: int
    min_multiplicity: int | None  # None when the target has no required pairs
    violations: np.ndarray        # read-only (k, 2) int64, the pairs below lam
    histogram: dict               # multiplicity -> number of required pairs

    @property
    def violating_pairs(self):
        """The pairs separated fewer than lam times, as a tuple of int pairs."""
        return tuple(map(tuple, self.violations.tolist()))

    @property
    def ok(self):
        return not len(self.violations)

    def __eq__(self, other):
        if not isinstance(other, CoverageReport):
            return NotImplemented
        return ((self.n, self.lam, self.target_kind, self.pair_count,
                 self.min_multiplicity, self.histogram)
                == (other.n, other.lam, other.target_kind, other.pair_count,
                    other.min_multiplicity, other.histogram)
                and np.array_equal(self.violations, other.violations))

    def to_dict(self):
        """The report as JSON-ready data: ``violating_pairs`` is a list of
        [u, v] lists."""
        return {**self._payload(), "violating_pairs": self.violations.tolist()}

    def _payload(self):
        """``to_dict`` with ``violating_pairs`` left as the (k, 2) array,
        which ``cli._json_chunks`` writes as a list of pairs without a
        Python object per pair: each vertex label in the array's range
        becomes a ``str`` once, and both columns gather from that table."""
        return {
            "n": self.n,
            "lambda": self.lam,
            "target_kind": self.target_kind,
            "pair_count": self.pair_count,
            "min_multiplicity": self.min_multiplicity,
            "ok": self.ok,
            "violating_pairs": self.violations,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
        }


def capacity(cov):
    """Total number of block vertices; equals the sum of incidence counts."""
    return int(np.bitwise_count(cov.left).sum() + np.bitwise_count(cov.right).sum())


def incidence_counts(cov):
    """Number of blocks containing each vertex; entry j-1 belongs to vertex j."""
    return np.bitwise_count(cov.left | cov.right).sum(axis=0)[1:].tolist()


_STEP_PAIRS = 1 << 16  # pairs per verify step: graph edges, a tile or a span chunk


def verify(cov, target, lam):
    """Count separating blocks for every required pair of the target.

    ``target`` is an integer n (all pairs of the complete graph on 1..n,
    i.e. K_n^lam) or a Graph (its edges).  Violations are reported as data,
    not raised: one read-only (k, 2) int64 array of the pairs below lam, in
    lexicographic order.  The count runs on the packed masks, one step per
    tile of about ``_STEP_PAIRS`` pairs: rows u against columns v > u (see
    ``_tiles``), or one chunk of graph edges, so temporaries stay at
    O(max(_STEP_PAIRS, n)) words.  When every vertex lies in every block,
    as in a covering built from a code or a coloring, u and v are
    separated exactly where their left masks differ, and each step counts
    the popcount of one XOR instead of the two-sided AND/OR.  A complete
    target of such a covering is counted from its linear span instead when
    its masks pass the span test (see ``_code_histogram``), and its pairs
    below lam are listed from the span's low-weight differences (see
    ``_span_violations``), never by the pairwise count.  The minimum
    multiplicity is recorded on the covering per target, which
    lets later checks at the same or a lower level skip the count (see
    ``is_verified``).
    """
    if lam < 1:
        raise DomainError(f"coverage level must be >= 1, got {lam}")
    counts = None
    full = _full_support(cov)
    if isinstance(target, Graph):
        if cov.n != target.n:
            raise GroundSetMismatch(
                f"covering on {cov.n} vertices vs graph on {target.n}")
        edges = target.edge_array()
        steps = ((edges[k:k + _STEP_PAIRS, 0], edges[k:k + _STEP_PAIRS, 1], None)
                 for k in range(0, len(edges), _STEP_PAIRS))
        kind = "graph"
    else:
        if cov.n != target:
            raise GroundSetMismatch(
                f"covering on {cov.n} vertices vs complete target on {target}")
        steps = _tiles(target)
        kind = "complete"
        counts = _code_histogram(cov, full)
    low_steps = [np.empty((0, 2), dtype=np.int64)]  # the pairs below lam, per step
    if counts is not None:
        if any(counts[:lam]):
            low_steps += _span_violations(cov, counts[:lam])
    else:
        a, b = cov.left, cov.right
        hist = np.zeros(cov.m + 1, dtype=np.int64)
        for us, vs, skip in steps:
            if full:
                per_word = [np.bitwise_count(aw[us] ^ aw[vs]) for aw in a]
            else:
                per_word = [np.bitwise_count((aw[us] & bw[vs]) | (bw[us] & aw[vs]))
                            for aw, bw in zip(a, b)]
            mult = per_word[0] if len(per_word) == 1 else np.sum(
                per_word, axis=0, dtype=np.min_scalar_type(cov.m))
            hist += np.bincount(mult.ravel(), minlength=len(hist))
            low = mult < lam
            if skip is None:
                hits = np.flatnonzero(low)
                low_steps.append(np.stack((us[hits], vs[hits]), axis=1))
            else:  # a tile: drop its entries with v <= u
                hist -= np.bincount(mult[:, :len(skip)][skip], minlength=len(hist))
                low[:, :len(skip)] &= ~skip
                rows, cols = np.divmod(np.flatnonzero(low), low.shape[1])
                low_steps.append(np.stack((us[rows, 0], vs[cols]), axis=1))
        counts = hist.tolist()
    violating = np.concatenate(low_steps)
    violating.flags.writeable = False
    lowest = next((m for m, c in enumerate(counts) if c), None)
    cov._verified[target] = lowest
    return CoverageReport(
        n=cov.n, lam=lam, target_kind=kind, pair_count=sum(counts),
        min_multiplicity=lowest, violations=violating,
        histogram={m: c for m, c in enumerate(counts) if c})


def _tiles(n):
    """The pairs u < v of 1..n as verify steps (us, vs, skip), u ascending.

    A step is a tile: rows u in [lo, hi) as a column vector ``us`` against
    columns v in [lo + 1, n] as a row vector ``vs``, max(1, _STEP_PAIRS // n)
    rows at a time.  Its entries with v <= u, which lie in the first hi - lo
    columns, are the True entries of the square ``skip``.  Read row-major,
    the remaining entries are the tile's pairs in lexicographic order.
    """
    rows = max(1, _STEP_PAIRS // n)
    for lo in range(1, n, rows):
        us = np.arange(lo, min(lo + rows, n))[:, None]
        yield us, np.arange(lo + 1, n + 1), np.tri(len(us), k=-1, dtype=bool)


def _full_support(cov):
    """Whether every vertex lies in every block.

    Each mask word is compared against the bits of the blocks it holds:
    all 64 bits of every word but the last, and only the low m - 64 (words
    - 1) bits of the last.  A covering without blocks passes.
    """
    valid = np.array([(1 << min(64, max(0, cov.m - 64 * w))) - 1
                      for w in range(len(cov.left))], dtype=np.uint64)
    return bool(((cov.left[:, 1:] | cov.right[:, 1:]) == valid[:, None]).all())


def _code_histogram(cov, full):
    """The multiplicity histogram (a list) of all pairs of 1..n, read from
    the covering's linear span, or None when the covering is not a span.

    Every library code covering gives vertex x + 1 the word w[x] of message
    x, the XOR of the basis words at the set bits of x (``codes._span``),
    with its constant rows dropped.  With every vertex in every block
    (``full``), u and v are separated exactly where their right masks
    differ, so the histogram is the distance distribution of the words.
    The test is exact over all n right masks and trusts nothing about how
    the covering was made: w[x] = w[x & (x - 1)] ^ w[x & -x] for every
    1 <= x < n.  At x = 1 that says w[0] = 0, so w[x] is the XOR of w[2^i]
    over the set bits i of x.  Messages 0..n-1 then split by the set bits
    of n into cosets p + V_b, V_b the words of messages below 2^b.  Pairs
    inside one coset meet each nonzero word of V_b 2^(b-1) times; pairs
    between it and a later coset q + V_c (c < b) meet each word of
    (w[p] ^ w[q]) ^ V_b 2^c times.  That is at most n log2 n popcounts.
    """
    w, n = cov.right[:, 1:], cov.n
    x = np.arange(1, n)
    if not (full and np.array_equal(w[:, x], w[:, x & (x - 1)] ^ w[:, x & -x])):
        return None
    hist = np.zeros(cov.m + 1, dtype=np.int64)

    def add(words, times):  # each word's weight, counted ``times`` times
        weights = np.bitwise_count(words).sum(axis=0, dtype=np.intp)
        hist[:] += np.bincount(weights, minlength=len(hist)) * times

    bits = [b for b in reversed(range(n.bit_length())) if n >> b & 1]
    cosets = list(zip(np.cumsum([0] + [1 << b for b in bits]).tolist(), bits))
    for i, (p, b) in enumerate(cosets):
        add(w[:, 1:1 << b], (1 << b) // 2)
        for q, c in cosets[i + 1:]:
            add(w[:, :1 << b] ^ (w[:, p] ^ w[:, q])[:, None], 1 << c)
    return hist.tolist()


def _span_violations(cov, below):
    """The pairs of 1..n below lam of a covering that passed the span test
    of ``_code_histogram``, as a list of (k, 2) int64 arrays that read in
    lexicographic order; ``below`` is the span's histogram cut at lam (or
    at m + 1, which every multiplicity lies below).

    ``_low_differences`` lists the pairs.  Each listed pair is recounted
    from its left masks; every recount must lie below lam and their
    histogram must equal ``below``, which makes the list complete.
    """
    a, cap = cov.left[:, 1:], len(below)  # column x of a is vertex x + 1
    recount = np.zeros(cap + 1, dtype=np.int64)  # entry cap: pairs at or above lam
    pieces = []
    for xs, ys in _low_differences(cov, cap):
        diff = a.take(xs, axis=1)
        diff ^= a.take(ys, axis=1)
        mult = np.bitwise_count(diff).sum(axis=0, dtype=np.intp)
        recount += np.bincount(np.minimum(mult, cap, out=mult), minlength=cap + 1)
        pairs = np.stack((xs, ys), axis=1, dtype=np.int64)
        pairs += 1
        pieces.append(pairs)
    if recount.tolist() != [*below, 0]:
        raise AssertionError(f"recounted histogram {recount.tolist()} of the "
                             f"listed pairs differs from the span's {below}")
    return pieces


def _low_differences(cov, cap):
    """The messages x < y < n of a span covering with popcount(L(x ^ y))
    below cap, as (xs, ys) index arrays in lexicographic order, one chunk
    of rows x at a time.

    Vertex x + 1 holds L(x), the XOR of the basis words w[2^i] over the set
    bits of x, so x + 1 and y + 1 are separated popcount(L(x ^ y)) times.
    With 2^k the least power of 2 at or above n, L on d < 2^(k-1) is the
    words themselves and L(d + 2^(k-1)) = L(d) ^ w[2^(k-1)].  With D = {d
    != 0 : popcount(L(d)) < cap}, rows x run in chunks of about
    ``_STEP_PAIRS`` // |D|, each row's x ^ D sorted and kept where x < y < n.
    """
    w, n = cov.right[:, 1:], cov.n
    half = 1 << ((n - 1).bit_length() - 1)
    span = np.concatenate((w[:, :half], w[:, :half] ^ w[:, half, None]), axis=1)
    weights = np.bitwise_count(span).sum(axis=0, dtype=np.intp)
    # Messages and differences lie below 2^k < 2n; int32 sorts fastest.
    index = np.int32 if n <= 1 << 30 else np.int64
    diffs = (np.flatnonzero(weights[1:] < cap) + 1).astype(index)
    rows = max(1, _STEP_PAIRS // max(1, len(diffs)))
    for lo in range(0, n - 1, rows):
        xs = np.arange(lo, min(lo + rows, n - 1), dtype=index)[:, None]
        ys = xs ^ diffs
        ys.sort(axis=1)
        keep = (ys > xs) & (ys < n)
        yield np.broadcast_to(xs, ys.shape)[keep], ys[keep]


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
    bits = _bit_rows(code.words[:n], code.length)
    return from_words(np.broadcast_to(True, bits.shape), bits)


def _bit_rows(words, length):
    """The words as rows of a (len(words) x length) 0/1 matrix, most
    significant bit first."""
    size = (length + 7) // 8
    raw = np.frombuffer(b"".join(w.to_bytes(size, "big") for w in words),
                        dtype=np.uint8).reshape(len(words), size)
    return np.unpackbits(raw, axis=1)[:, 8 * size - length:]


def degenerate_rows(code, n):
    """Row indices (0-based) that code_to_covering drops for this ground set:
    the bits clear in all of the first n words, or set in all of them."""
    k = code.length
    every, some = (1 << k) - 1, 0
    for w in code.words[:n]:
        every, some = every & w, some | w
    constant = (some ^ ((1 << k) - 1)) | (every if len(code.words[:n]) == n else 0)
    return [row for row in range(k) if (constant >> (k - 1 - row)) & 1]


def balanced_block_count(n):
    """Block count C(n, n/2)/2 of balanced_bipartitions_covering(n), within its cap.

    C(n, n/2) is the largest of the n + 1 binomials that sum to 2^n, so the
    count is at least 2^(n-1)/(n+1); an n where that exceeds the cap is
    refused before the binomial, which at large n is slow to compute and
    too long to print.
    """
    if n < 2 or n % 2:
        raise DomainError(f"ground-set size must be even and >= 2, got {n}")
    if 1 << (n - 1) > BALANCED_BLOCK_CAP * (n + 1):
        raise SizeLimitExceeded(
            f"C({n}, {n // 2})/2 blocks exceed the cap of {BALANCED_BLOCK_CAP}")
    count = comb(n, n // 2) // 2
    if count > BALANCED_BLOCK_CAP:
        raise SizeLimitExceeded(
            f"{count} blocks exceed the cap of {BALANCED_BLOCK_CAP}")
    return count


def balanced_bipartitions_covering(n):
    """One block per unordered bipartition of 1..n into two halves of size n/2.

    Block i puts vertex 1 and the i-th (n/2 - 1)-subset of 2..n, in
    ``combinations`` order, on the left.  Separates every pair exactly
    C(n-2, n/2-1) times; capacity n*C(n, n/2)/2, again matching the
    edge-count lower bound with equality.
    """
    count, half = balanced_block_count(n), n // 2 - 1
    # Row v-1 of the (n x count) matrix is vertex v: 0 on the left, 1 on the right.
    left = np.fromiter(chain.from_iterable(combinations(range(1, n), half)),
                       dtype=np.intp, count=count * half).reshape(count, half)
    bits = np.ones((n, count), dtype=np.uint8)
    bits[0] = 0
    bits[left, np.arange(count)[:, None]] = 0
    return from_words(np.broadcast_to(True, bits.shape), bits)


def coloring_to_covering(g, coloring):
    """Covering of a graph's edges from the bits of a proper coloring.

    Block t splits the vertices by bit t of their color index (zeros left,
    ones right); adjacent vertices have distinct colors, hence differ in
    some bit, so every edge is covered at least once.  This is the ``lift``
    by the coloring of the colors' covering, whose color-c word is c's bits.
    """
    if len(coloring) != g.n:
        raise DomainError(
            f"coloring has {len(coloring)} entries for {g.n} vertices")
    # Types and signs are checked in C; only a failing coloring is walked
    # entry by entry, to report its first bad entry.
    if set(map(type, coloring)) != {int} or min(coloring) < 0:
        for c in coloring:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise DomainError(f"color indices must be nonnegative integers, got {c!r}")
    try:
        colors = np.array(coloring, dtype=np.int64)
    except OverflowError:
        colors = np.array(coloring, dtype=object)
    edges = g.edge_array()
    same = np.flatnonzero(colors[edges[:, 0] - 1] == colors[edges[:, 1] - 1])
    if same.size:  # edge_array is sorted, so this is the first bad edge
        u, v = edges[same[0]].tolist()
        raise ImproperColoring(
            f"adjacent vertices {u} and {v} share color {coloring[u - 1]}")
    classes = max(coloring) + 1 if coloring else 1
    palette, index = np.unique(colors, return_inverse=True)
    bits = _bit_rows(palette.tolist(), (classes - 1).bit_length())[:, ::-1]
    return lift(from_words(np.broadcast_to(True, bits.shape), bits), index + 1)


def parse_covering(text):
    """Parse the covering JSON format {"n": int, "blocks": [{"left": [...], "right": [...]}]}.

    Text in the layout ``serialize_covering`` writes is read in bulk by
    ``_canonical_words``.  Any other document, or one that fails a check
    there, goes through ``json.loads`` and is checked entry by entry, which
    names its first error, and by ``_check_size`` before it allocates.
    """
    words = _canonical_words(text)
    if words is not None:
        return from_words(*words)
    obj = _decode(text)
    if not isinstance(obj, dict) or set(obj) != {"n", "blocks"}:
        raise ParseError('covering document must have exactly the keys "n" and "blocks"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if n >= 2**31:
        raise ParseError(f'"n" must be below 2^31, got {n}')
    if not isinstance(obj["blocks"], list):
        raise ParseError('"blocks" must be a list')
    items = obj["blocks"]
    side_lists = ([], [])  # every block's left labels, and its right labels
    for item in items:
        if not isinstance(item, dict) or set(item) != {"left", "right"}:
            raise ParseError(f"block entry must map left and right, got {item!r}")
        seen = []
        for key, lists in zip(("left", "right"), side_lists):
            side = item[key]
            if not isinstance(side, list) or not side:
                raise ParseError(f'block side "{key}" must be a nonempty list')
            # Types and range are checked in C; only a side that fails is
            # walked label by label, to report its first bad label.
            if set(map(type, side)) != {int} or min(side) < 1 or max(side) > n:
                for v in side:
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ParseError(f"vertex label must be an integer, got {v!r}")
                    if not 1 <= v <= n:
                        raise RangeError(f"vertex label {v} outside 1..{n}")
            seen.append(set(side))
            if len(seen[-1]) != len(side):
                raise ParseError(f'duplicate vertex in block side "{key}"')
            lists.append(side)
        if common := seen[0] & seen[1]:
            raise ParseError("block sides overlap: block sides intersect in "
                             f"{sorted(common)}")
    _check_size(n, len(items))
    words = np.zeros((2, n, len(items)), dtype=bool)  # defined, then bits
    for side, lists in enumerate(side_lists):
        sizes = list(map(len, lists))
        at = (np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=sum(sizes)) - 1,
              np.repeat(np.arange(len(items)), sizes))
        words[0][at] = True
        words[1][at] = side  # left labels leave their bits clear
    return from_words(*words)


def _canonical_words(text):
    """The (2, n, m) defined and bits planes that ``from_words`` packs, read
    in bulk by ``_layout_runs`` from a document in the layout of
    ``serialize_covering``, or None.  The first number is n, which must be
    below 2^31, and the rest are the labels; each side's must lie in 1..n
    and strictly increase, and the two sides of a block must be disjoint,
    so that each label sets its own defined entry.  The planes take at most
    2 (n + 1) max(m, 8) bytes; a document that asks for more than 64 per
    byte of its text, plus 2 MiB, is left to the json path.
    """
    read = _layout_runs(text, _sides_layout)
    if read is None:
        return None
    nums, lengths = read
    n, labels, m = int(nums[0]), nums[1:], len(lengths) // 2
    if (not 1 <= n < 2**31
            or 2 * (n + 1) * max(m, 8) > 64 * len(text) + (2 << 20)):
        return None
    if m:
        rising = labels[1:] > labels[:-1]
        rising[np.cumsum(lengths[:-1]) - 1] = True  # each list's first label
        if labels.min() < 1 or labels.max() > n or not rising.all():
            return None
    words = np.zeros((2, n, m), dtype=bool)
    lists = np.arange(2 * m)
    labels *= m  # each label's offset (label - 1) m + block within its side's plane
    labels += np.repeat(lists % 2 * (n * m) + lists // 2 - m, lengths)
    words.reshape(-1)[labels] = True  # the left sides, and the right sides as bits
    words[0] |= words[1]  # defined: on either side
    return words if np.count_nonzero(words[0]) == len(labels) else None


def _sides_layout(marked):
    """``serialize_covering``'s skeleton for the side-list lengths of the
    marked text, and those lengths: past n's slot, each piece before a
    ``]`` but the last two ends one side list."""
    lengths = [piece.count(b"0") for piece in marked[7:].split(b"]")[:-2]]
    lists = {k: b"0, " * (k - 1) + b"0" for k in set(lengths)}  # never empty
    blocks = b", ".join([b'{"left": [%s], "right": [%s]}' % (lists[a], lists[b])
                         for a, b in zip(lengths[::2], lengths[1::2])])
    return b'{"n": 0, "blocks": [' + blocks + b"]}", lengths


def serialize_covering(cov):
    """Inverse of parse_covering; sides sorted, block order preserved.

    The text is the ``json.dumps`` of the document, built block by block
    from the masks so that only one block's side lists are held at a time.
    """
    labels = np.array([str(v) for v in range(cov.n + 1)], dtype=object)
    blocks = ", ".join(
        f'{{"left": [{", ".join(left)}], "right": [{", ".join(right)}]}}'
        for left, right in _sides(cov, labels))
    return f'{{"n": {cov.n}, "blocks": [{blocks}]}}'

