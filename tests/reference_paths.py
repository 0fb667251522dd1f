"""Slow pure-Python reference paths that the fast kernels are tested against.

Each function here is the straightforward loop the library once ran: one
Python-int bitmask per vertex, one pair or one selection vector at a time,
one codeword or one ball mask at a time, one relabeled block tuple at a
time, one first-fit clique class per vertex, one frozenset pair per block,
one exact tail Fraction per vertex, one frozenset block per balanced
bipartition.  ``chunked_sweep`` is a second reference for the diagnostic
sweeps: the chunked numpy sweep over all 2^m vectors that the library ran
before it enumerated each vertex's events.
``BbmcSolver`` is a second reference for the per-vertex independence
numbers: the class-by-class bitmask solver the library ran, one search per
vertex, before it settled all of them in one shared search.
``greedy_gv_scan`` is a second reference for the greedy codes: the numpy
scan over all 2^k words that the library ran before it wrote each lexicode
from its basis.  ``even_weight_code``, ``bch_extended_code`` and
``hadamard_code`` write each family's words one at a time, as the library
did before it wrote every family from its basis; ``bch_extended_code`` also
writes the whole codebook wherever it fits the word cap, as the library did
before it wrote only the words a covering reads, and ``build_code`` takes
that codebook's first words.
``vertexwise_sweep`` is a second reference for the sampled sweeps: the
vertex-by-vertex tally the library ran before it took blocks of vectors
against all vertices per step; ``pack_by_words`` is its packing of the
drawn vectors, one shift and mask per word, which the library ran before
it read each chunk's words from one buffer of the vectors' bytes.
``CapSearch`` is a second reference for the exact search: the search the
library ran before it tested each child's bound ahead of the canonical-form
step, with the looser pair-slot bound, deepening from capacity 0.
``hansel_capacity`` is the least capacity of a covering of K_n by the
paper's inequality at alpha_i = 1 over integer block counts, found by
halving the largest term, not by the closed form the search starts from.
``remaining_need`` is the two counting bounds the search holds a deficit
to, per vertex and per pair slot, from per-vertex pair lists of its own.
``linear_children`` is the search's child walk as the library ran it
before it grouped the blocks by their least slot waste: every block from
``start`` on, one at a time.
``NeighborSetGraph`` is the graph as the library stored it before it kept
only adjacency bitmasks: one neighbor frozenset per vertex.
``from_words`` and ``lift`` build the block list of a covering given as
ternary words, and of one lifted through a vertex index, one frozenset
block per column; ``split_by_bits`` is the packer every library
construction ran before ``covering.from_words``: one block per nonconstant
column of a 0/1 matrix, packed from a (2, n + 1, m) side array.
They are kept only as oracles; the property tests require the library's
kernels to return exactly the same reports, codes, coverings and answers.
The construction if-chains the library ran before its family table (the
CLI's covering builder, ``build_code``, ``bch_backed``) are
kept the same way.
"""

from __future__ import annotations

import heapq
import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, log2
from typing import NamedTuple

import numpy as np

from bicover import codes, covering, exact, graphs
from bicover.bounds import binom_tail_p
from bicover.codes import BinaryCode
from bicover.covering import BipartiteBlock, CoverageReport, Covering
from bicover.diagnostics import EXHAUSTIVE_BLOCK_LIMIT, DiagnosticReport
from bicover.errors import (BudgetExhausted, DomainError, FieldError,
                            ImproperColoring, NoConstruction,
                            NotEnoughCodewords, OverlapError, ParseError,
                            RangeError, SizeLimitExceeded)
from bicover.graphs import Graph, _check_vertex


def int_masks(cov):
    """Per-vertex Python-int bitmasks over block indices: (left, right), index 0 unused."""
    a = [0] * (cov.n + 1)
    b = [0] * (cov.n + 1)
    for i, blk in enumerate(cov.blocks):
        bit = 1 << i
        for v in blk.left:
            a[v] |= bit
        for v in blk.right:
            b[v] |= bit
    return a, b


def verify(cov, target, lam):
    """One Python loop over every required pair."""
    if isinstance(target, Graph):
        pairs = target.edges()
        kind = "graph"
    else:
        pairs = combinations(range(1, target + 1), 2)
        kind = "complete"
    a, b = int_masks(cov)
    hist = [0] * (len(cov.blocks) + 1)
    violating = []
    count = 0
    for u, v in pairs:
        mult = ((a[u] & b[v]) | (b[u] & a[v])).bit_count()
        hist[mult] += 1
        count += 1
        if mult < lam:
            violating.append((u, v))
    mn = None
    for mult, c in enumerate(hist):
        if c:
            mn = mult
            break
    return CoverageReport(
        n=cov.n, lam=lam, target_kind=kind, pair_count=count,
        min_multiplicity=mn,
        violations=np.array(violating, dtype=np.int64).reshape(-1, 2),
        histogram={m: c for m, c in enumerate(hist) if c})


# --------------------------------------------------------------- coverings

class BlockList(NamedTuple):
    """A covering as the library once stored it: n and a tuple of frozenset blocks."""

    n: int
    blocks: tuple


def membership_masks(cov):
    """Word-major uint64 (left, right) masks, set block by block."""
    words = max(1, (len(cov.blocks) + 63) // 64)
    a = np.zeros((words, cov.n + 1), dtype=np.uint64)
    b = np.zeros((words, cov.n + 1), dtype=np.uint64)
    for i, blk in enumerate(cov.blocks):
        bit = np.uint64(1 << (i % 64))
        for side, masks in ((blk.left, a), (blk.right, b)):
            cols = np.fromiter(side, dtype=np.intp, count=len(side))
            masks[i // 64, cols] |= bit
    return a, b


def incidence_counts(cov):
    x = [0] * cov.n
    for b in cov.blocks:
        for v in b.left | b.right:
            x[v - 1] += 1
    return x


def _two_sided(n, columns):
    """The BlockList of the (left, right) vertex sets that are both nonempty."""
    return BlockList(n, tuple(BipartiteBlock(left, right)
                              for left, right in columns if left and right))


def from_words(defined, bits):
    """Vertex i + 1 in block j iff defined[i][j], on its right iff bits[i][j]."""
    n, m = np.shape(defined)
    return _two_sided(n, (
        (frozenset(i + 1 for i in range(n) if defined[i][j] and not bits[i][j]),
         frozenset(i + 1 for i in range(n) if defined[i][j] and bits[i][j]))
        for j in range(m)))


def lift(cov, index):
    """Vertex v + 1 on the side of each block that holds vertex index[v]."""
    return _two_sided(len(index), (
        (frozenset(v + 1 for v, u in enumerate(index) if u in blk.left),
         frozenset(v + 1 for v, u in enumerate(index) if u in blk.right))
        for blk in cov.blocks))


def split_by_bits(bits):
    """The (2, words, n + 1) left and right masks of one block per
    nonconstant column of a 0/1 matrix, zeros left and ones right."""
    bits = bits[:, bits.any(axis=0) & ~bits.all(axis=0)]
    sides = np.zeros((2, len(bits) + 1, bits.shape[1]), dtype=np.uint8)
    sides[0, 1:] = bits ^ 1
    sides[1, 1:] = bits
    _, rows, m = sides.shape
    packed = np.zeros((2, rows, 8 * max(1, -(-m // 64))), dtype=np.uint8)
    packed[..., :-(-m // 8)] = np.packbits(sides, axis=2, bitorder="little")
    return np.ascontiguousarray(packed.view("<u8").transpose(0, 2, 1),
                                dtype=np.uint64)


def code_to_covering(code, n):
    """One frozenset block per nonconstant row of the first n codewords."""
    if n < 2:
        raise DomainError(f"need a ground set of at least 2 vertices, got {n}")
    if len(code.words) < n:
        raise NotEnoughCodewords(
            f"code has {len(code.words)} words, ground set needs {n}")
    cols = code.words[:n]
    k = code.length
    blocks = []
    for row in range(k):
        bit = k - 1 - row
        right = frozenset(j + 1 for j, w in enumerate(cols) if (w >> bit) & 1)
        if not right or len(right) == n:
            continue
        left = frozenset(range(1, n + 1)) - right
        blocks.append(BipartiteBlock(left, right))
    return BlockList(n, tuple(blocks))


def coloring_to_covering(g, coloring):
    """One frozenset block per nonconstant bit of the color indices."""
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
    blocks = []
    for t in range((classes - 1).bit_length()):
        right = frozenset(v for v in range(1, g.n + 1)
                          if (coloring[v - 1] >> t) & 1)
        if not right or len(right) == g.n:
            continue
        left = frozenset(range(1, g.n + 1)) - right
        blocks.append(BipartiteBlock(left, right))
    return BlockList(g.n, tuple(blocks))


def parse_covering(text):
    """Validate each side, build a BipartiteBlock, then range-check every vertex again."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    except ValueError as e:  # an integer past the decoder's digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict) or set(obj) != {"n", "blocks"}:
        raise ParseError('covering document must have exactly the keys "n" and "blocks"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if n >= 2**31:
        raise ParseError(f'"n" must be below 2^31, got {n}')
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
    for b in blocks:
        for v in b.left | b.right:
            if not 1 <= v <= n:
                raise RangeError(f"block vertex {v!r} outside 1..{n}")
    return BlockList(n, tuple(blocks))


def serialize_covering(cov):
    """One json.dumps over every block's sorted side lists."""
    return json.dumps({
        "n": cov.n,
        "blocks": [{"left": sorted(b.left), "right": sorted(b.right)}
                   for b in cov.blocks],
    })


def profile_masks(cov):
    """The (left, right) masks as Python ints, one per vertex: bit i of
    entry j is set iff vertex j+1 is on that side of block i+1."""
    return tuple(tuple(side[1:]) for side in int_masks(cov))


def _incidences(masks):
    """Number of blocks containing each vertex, from its two masks."""
    return [(a | b).bit_count() for a, b in zip(*masks)]


def event_occurs(masks, j, v, r):
    """Vertex j+1's near-match event: at most r of its blocks disagree with v."""
    a, b = masks
    return (v & a[j]).bit_count() + (~v & b[j]).bit_count() <= r


def matching_vertices(masks, v):
    """Vertices whose blocks all read their side's bit from v (exact match)."""
    a, b = masks
    return [j + 1 for j in range(len(a))
            if (v & a[j]) == 0 and (v & b[j]) == b[j]]


def _sweep(cov, mode, seed, trials):
    if mode == "exhaustive":
        if cov.m > EXHAUSTIVE_BLOCK_LIMIT:
            raise SizeLimitExceeded(
                f"{cov.m} blocks exceed {EXHAUSTIVE_BLOCK_LIMIT}")
        return range(1 << cov.m), None
    if mode == "sampled":
        rng = random.Random(seed)
        return (rng.getrandbits(cov.m) if cov.m else 0
                for _ in range(trials)), trials
    raise DomainError(f"unknown mode {mode!r}")


def disjointness(cov, r, mode="exhaustive", seed=0, trials=100_000):
    """The event-disjointness sweep, without the covering validity check."""
    if mode == "exhaustive":
        if cov.m > EXHAUSTIVE_BLOCK_LIMIT:
            raise SizeLimitExceeded(
                f"{cov.m} blocks exceed {EXHAUSTIVE_BLOCK_LIMIT}")
        return _disjointness_exhaustive(cov, r)
    if mode == "sampled":
        return _disjointness_sampled(cov, r, seed, trials)
    raise DomainError(f"unknown mode {mode!r}")


def _disjointness_exhaustive(cov, r):
    m = cov.m
    vecs = np.arange(1 << m, dtype=np.uint32)
    occ = np.zeros(1 << m, dtype=np.uint32)
    violations = []
    masks = profile_masks(cov)
    x = _incidences(masks)
    for j in range(cov.n):
        a, b = (np.uint32(side[j]) for side in masks)
        hits = np.bitwise_count(vecs & a) + np.bitwise_count(~vecs & b)
        ev = hits <= r
        occ += ev
        count = int(np.count_nonzero(ev))
        if Fraction(count, 1 << m) != binom_tail_p(x[j], r):
            violations.append(("probability-mismatch", j + 1, count))
    doubles = np.nonzero(occ >= 2)[0]
    for v in doubles[:10]:
        events = [j + 1 for j in range(cov.n)
                  if event_occurs(masks, j, int(v), r)]
        violations.append(("double-occurrence", int(v), events))
    return DiagnosticReport(
        "event-disjointness", "exhaustive", ok=not violations,
        violations=tuple(violations),
        details={"vectors": 1 << m, "double_occurrences": int(len(doubles))})


def _disjointness_sampled(cov, r, seed, trials):
    masks = profile_masks(cov)
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        v = rng.getrandbits(cov.m) if cov.m else 0
        occurring = [j + 1 for j in range(cov.n)
                     if event_occurs(masks, j, v, r)]
        if len(occurring) > 1 and len(violations) < 10:
            violations.append(("double-occurrence", v, occurring))
    return DiagnosticReport(
        "event-disjointness", "sampled", ok=not violations,
        violations=tuple(violations), trials=trials)


def event_overlap(cov, alphas, mode="exhaustive", seed=0, trials=100_000):
    """The occupancy sweep and weighted sum, without the validity check."""
    masks = profile_masks(cov)
    total = sum((Fraction(1, (1 << xj) * alphas[j])
                 for j, xj in enumerate(_incidences(masks))), Fraction(0))
    sweep, trials_out = _sweep(cov, mode, seed, trials)
    violations = []
    for v in sweep:
        occurring = matching_vertices(masks, v)
        for j in occurring:
            if len(occurring) > alphas[j - 1]:
                violations.append(("occupancy", v, j, len(occurring)))
                break
        if len(violations) >= 10:
            break
    return DiagnosticReport(
        "event-overlap", mode, ok=total <= 1 and not violations,
        sum=total, violations=tuple(violations), trials=trials_out)


def independent_event_sets(cov, g, mode="exhaustive", seed=0, trials=100_000):
    """The independent-set sweep, without the validity check."""
    sweep, trials_out = _sweep(cov, mode, seed, trials)
    masks = profile_masks(cov)
    violations = []
    for v in sweep:
        occurring = matching_vertices(masks, v)
        edge = _first_adjacent_pair(g, occurring)
        if edge is not None:
            violations.append(("adjacent-pair", v) + edge)
            if len(violations) >= 10:
                break
    return DiagnosticReport(
        "independent-event-sets", mode, ok=not violations,
        violations=tuple(violations), trials=trials_out)


def _first_adjacent_pair(g, vertices):
    for i, u in enumerate(vertices):
        for w in vertices[i + 1:]:
            if g.has_edge(u, w):
                return (u, w)
    return None


def chunked_sweep(cov, r, mode, seed, trials, counts=None):
    """The exhaustive sweep as the library once ran it, with ``_sweep``'s signature.

    Every one of the 2^m vectors, 2^14 per chunk, is tested against one
    vertex at a time; ``counts[j]`` accumulates the vectors that trigger
    vertex j+1's event.  Yields (vectors, per_vector, occurring) per chunk.
    Exhaustive mode only, on one-word masks (m <= 64).
    """
    if mode != "exhaustive":
        raise DomainError(f"unknown mode {mode!r}")
    if cov.m > EXHAUSTIVE_BLOCK_LIMIT:
        raise SizeLimitExceeded(
            f"{cov.m} blocks exceed the exhaustive sweep limit "
            f"{EXHAUSTIVE_BLOCK_LIMIT}")
    return _tally(cov, r, _exhaustive_chunks(cov.m), counts)


def _exhaustive_chunks(m, size=1 << 14):
    for lo in range(0, 1 << m, size):
        vectors = range(lo, min(lo + size, 1 << m))
        yield vectors, np.arange(vectors.start, vectors.stop, dtype=np.uint64)


def _tally(cov, r, chunks, counts):
    support = (cov.left | cov.right)[0, 1:]
    side = cov.right[0, 1:]
    for vectors, packed in chunks:
        per_vector = np.zeros(len(vectors), dtype=np.intp)
        for j in range(cov.n):
            ev = np.bitwise_count((packed & support[j]) ^ side[j]) <= r
            per_vector += ev
            if counts is not None:
                counts[j] += np.count_nonzero(ev)

        def occurring(k, packed=packed):
            ev = np.bitwise_count((packed[k] & support) ^ side) <= r
            return (np.nonzero(ev)[0] + 1).tolist()
        yield vectors, per_vector, occurring


def vertexwise_sweep(cov, r, mode, seed, trials, counts=None):
    """The sampled sweep as the library once ran it, with ``_sweep``'s signature.

    The seeded vectors, 2^14 / ceil(m / 64) per chunk, are tested against
    one vertex at a time, summing the disagreements over every mask word.
    Yields (vectors, per_vector, occurring) per chunk.  Sampled mode only.
    """
    if mode != "sampled":
        raise DomainError(f"unknown mode {mode!r}")
    return _vertexwise_tally(cov, r, seed, trials)


def _vertexwise_tally(cov, r, seed, trials):
    support, side = (cov.left | cov.right)[:, 1:], cov.right[:, 1:]
    words = len(side)
    size = max(1, (1 << 14) // words)
    rng = random.Random(seed)

    def within(vector_words, j):
        hits = sum(np.bitwise_count((vector_words[w] & support[w, j]) ^ side[w, j])
                   .astype(np.intp) for w in range(words))
        return hits <= r

    for lo in range(0, trials, size):
        vectors = [rng.getrandbits(cov.m) if cov.m else 0
                   for _ in range(min(size, trials - lo))]
        packed = pack_by_words(vectors, words)
        per_vector = np.zeros(len(vectors), dtype=np.intp)
        for j in range(cov.n):
            per_vector += within(packed, j)

        def occurring(k, packed=packed):
            return [j + 1 for j in range(cov.n) if within(packed[:, k], j)]
        yield vectors, per_vector, occurring


def pack_by_words(vectors, words):
    """The (words, k) uint64 array of Python-int vectors, one shift and mask
    per word per vector, as the sampled sweep once packed them."""
    return np.array([[(v >> (64 * w)) & ((1 << 64) - 1) for v in vectors]
                     for w in range(words)], dtype=np.uint64)


def tail_sum(cov, r):
    """Sum of p(x_j, r), one Fraction per vertex."""
    total = sum((binom_tail_p(xj, r) for xj in _incidences(profile_masks(cov))),
                Fraction(0))
    return DiagnosticReport("tail-sum", "exact", ok=total <= 1, sum=total)


def convex_tail_bound(cov, r):
    """Sum of (x_j/r)^r * 2^(-x_j) and the pointwise check, one vertex at a time."""
    total = Fraction(0)
    violations = []
    for j, xj in enumerate(_incidences(profile_masks(cov))):
        surrogate = Fraction(xj, r) ** r / (1 << xj)
        total += surrogate
        if binom_tail_p(xj, r) < surrogate:
            violations.append(("pointwise", j + 1, xj))
    return DiagnosticReport(
        "convex-tail-bound", "exact", ok=total <= 1 and not violations,
        sum=total, violations=tuple(violations))


def greedy_gv_words(k, d, target):
    """The greedy lexicographic scan, one word and one ball mask at a time.

    Returns the kept words, fewer than ``target`` when the scan ends short.
    """
    ball = [0]
    for r in range(1, d):
        for pos in combinations(range(k), r):
            m = 0
            for p in pos:
                m |= 1 << p
            ball.append(m)
    forbidden = bytearray(1 << k)
    words = []
    for w in range(1 << k):
        if forbidden[w]:
            continue
        words.append(w)
        if len(words) == target:
            break
        for m in ball:
            forbidden[w ^ m] = 1
    return tuple(words)


def greedy_gv_scan(k, d, target):
    """The greedy lexicographic scan over a bytearray of the 2^k words.

    Each kept word marks its whole radius-(d-1) ball in one numpy scatter,
    and ``bytearray.find`` jumps to the next unmarked word.  Returns the kept
    words, fewer than ``target`` when the scan ends short.
    """
    # The radius-(d-1) ball around 0, built bit by bit: position p adds a
    # copy, with bit p set, of every word so far that weighs less than d - 1.
    ball = np.zeros(1, dtype=np.int64)
    weight = np.zeros(1, dtype=np.int8)
    for p in range(k):
        light = weight < d - 1
        ball = np.concatenate((ball, ball[light] | (1 << p)))
        weight = np.concatenate((weight, weight[light] + 1))
    forbidden = bytearray(1 << k)
    marks = np.frombuffer(forbidden, dtype=np.uint8)
    words = []
    w = 0
    while w >= 0:
        words.append(w)
        if len(words) == target:
            break
        marks[ball ^ w] = 1
        w = forbidden.find(0, w + 1)
    return tuple(words)


def gv_scan_code(n, lam):
    """(length, words) of the gv code as chosen by scanning: the first length
    from max(log2 n, lam) whose greedy scan reaches n words, skipping the
    lengths where 2^k < n * V(k, floor((lam - 1) / 2)), which by the
    sphere-packing bound hold no n words."""
    k = max((n - 1).bit_length(), lam, 1)
    while (1 << k) < n * codes.ball_volume(k, (lam - 1) // 2):
        k += 1
    while len(words := greedy_gv_scan(k, lam, n)) < n:
        k += 1
    return k, words


def min_distance(words, length):
    """Minimum pairwise Hamming distance over Python ints, one pair at a time."""
    best = length
    for i, wi in enumerate(words):
        for wj in words[i + 1:]:
            d = (wi ^ wj).bit_count()
            if d < best:
                best = d
                if best == 1:
                    return 1
    return best


def canonical(n, blocks, chosen):
    """The search's canonical-form check on block tuples, one relabeling at a time.

    ``blocks`` is the search's block list and ``chosen`` a list of indices
    into it.  True iff no permutation of 1..n maps the chosen blocks to a
    list whose sorted (total size, a, b) keys are smaller than their own.
    """
    def key(a, b):
        a, b = tuple(sorted(a)), tuple(sorted(b))
        if (len(a), a) > (len(b), b):
            a, b = b, a
        return (len(a) + len(b), a, b)

    picked = [blocks[i] for i in chosen]
    own = sorted(key(a, b) for a, b in picked)
    for perm in permutations(range(1, n + 1)):
        image = sorted(key([perm[v - 1] for v in a], [perm[v - 1] for v in b])
                       for a, b in picked)
        if image < own:
            return False
    return True


def perm_maps(n, blocks):
    """The search's relabeling maps, one block tuple at a time.

    Every permutation of 1..n but the identity, in ``itertools.permutations``
    order, as a list mapping each block index to the index of its relabeled,
    re-oriented image in ``blocks``.
    """
    def normalize(a, b):
        a, b = tuple(sorted(a)), tuple(sorted(b))
        return (a, b) if (len(a), a) <= (len(b), b) else (b, a)

    index = {ab: i for i, ab in enumerate(blocks)}
    return [[index[normalize([perm[v - 1] for v in a], [perm[v - 1] for v in b])]
             for a, b in blocks]
            for perm in list(permutations(range(1, n + 1)))[1:]]


def linear_children(table, start, deficit, rem):
    """The search's children, by one walk over every block from ``start``.

    This is the walk the search made before it grouped the blocks by their
    least slot waste: each block up to the capacity left is tested for its
    waste, the short pairs it covers and the per-vertex bound in turn.
    """
    n, q = table.n, table.q
    top = [0] * (n + 1)
    crit = [0] * (n + 1)
    short = 0
    for i, ((u, v), d) in enumerate(zip(table.pairs, deficit)):
        if d:
            short |= 1 << i
        if d > top[u]:
            top[u], crit[u] = d, 1 << v
        elif d == top[u]:
            crit[u] |= 1 << v
        if d > top[v]:
            top[v], crit[v] = d, 1 << u
        elif d == top[v]:
            crit[v] |= 1 << u
    vertex_slack = rem - sum(top)
    slot_slack = q * rem - n * sum(deficit)
    out = []
    for bi in range(start, len(table.sizes)):
        size = table.sizes[bi]
        if size > rem:
            break
        if q * size - n * len(table.block_pairs[bi]) > slot_slack:
            continue
        t = (table.pair_masks[bi] & short).bit_count()
        if not t or q * size - n * t > slot_slack:
            continue
        if size > vertex_slack:
            a, b = table.blocks[bi]
            am, bm = sum(1 << v for v in a), sum(1 << v for v in b)
            drops = (sum(1 for j in a if not crit[j] & ~bm)
                     + sum(1 for j in b if not crit[j] & ~am))
            if drops < size - vertex_slack:
                continue
        out.append(bi)
    return out


@cache
def _vertex_pairs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    return [[i for i, p in enumerate(pairs) if j in p] for j in range(1, n + 1)]


def remaining_need(n, deficit, q=None):
    """The capacity a deficit over the pairs of 1..n still needs, for n >= 2.

    Per vertex: a block separates each pair at vertex j at most once, so
    the pairs at j need j's largest deficit.  Per pair slot: capacity R
    separates at most R*q/n pairs, where q = floor(n^2/4) by default, the
    most pairs a block on all n vertices separates.
    """
    per_vertex = sum(max(deficit[i] for i in at) for at in _vertex_pairs(n))
    return max(per_vertex, -(-n * sum(deficit) // (q or n * n // 4)))


def hansel_capacity(n):
    """The least sum of l_i over n integers l_i >= 0 with sum 2^(-l_i) <= 1.

    Every l_i starts at 0, and the largest term 2^(-l_i) is halved until the
    terms sum to at most 1, in Fractions: each halving adds one to the sum
    of the l_i, and halving the largest term lowers the total the most.
    """
    heap = [0] * n  # the l_i; the least is the largest term's
    total = Fraction(n)
    while total > 1:
        low = heapq.heappop(heap)
        total -= Fraction(1, 2 << low)
        heapq.heappush(heap, low + 1)
    return sum(heap)


class CapSearch(exact._CapSearch):
    """The capacity search as the library ran it before it tested a child's
    bound in the parent: the bound at node entry, with the pair-slot part
    at R*n/4, the canonical-form step before the bound, and deepening from
    capacity 0.  The block table, relabeling maps and step are the
    library's."""

    def _remaining_need(self, deficit):
        n = self.table.n
        return remaining_need(n, deficit, Fraction(n * n, 4))

    def _dfs(self, start, deficit, rem, chosen, state):
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise BudgetExhausted(
                f"node limit {self.budget.node_limit} hit", nodes=self.nodes)
        if not any(deficit):
            return list(chosen)
        if self._remaining_need(deficit) > rem:
            return None
        t = self.table
        for bi in range(start, len(t.blocks)):
            size = t.sizes[bi]
            if size > rem:
                continue
            touched = [p for p in t.block_pairs[bi] if deficit[p] > 0]
            if not touched:
                continue
            chosen.append(bi)
            child = self._step(state, chosen)
            if child is not None:
                for p in touched:
                    deficit[p] -= 1
                found = self._dfs(bi, deficit, rem - size, chosen, child)
                for p in touched:
                    deficit[p] += 1
                if found is not None:
                    chosen.pop()
                    return found
            chosen.pop()
        return None

    def run(self):
        t = self.table
        for cap in range(self.budget.max_capacity + 1):
            try:
                found = self._dfs(0, [self.lam] * len(t.pairs), cap, [],
                                  [0] * len(t.perm_maps))
            except BudgetExhausted as e:
                e.lower = cap
                raise
            if found is not None:
                return cap, [t.blocks[i] for i in found]
        raise BudgetExhausted(
            f"no covering within capacity {self.budget.max_capacity}",
            lower=self.budget.max_capacity + 1, nodes=self.nodes)


# ------------------------------------------------ constructions, by if-chain

@cache
def _lexicode(k, lam):
    """The whole length-k greedy lexicode at distance lam, by the scan."""
    return greedy_gv_scan(k, lam, 1 << k)


def _gv_scan(n, lam):
    """Greedy code at the shortest length whose scan reaches n words, else None."""
    k = max((n - 1).bit_length(), lam, 1)
    while (1 << k) < n * codes.ball_volume(k, (lam - 1) // 2):
        k += 1
    while (1 << k) <= codes.SCAN_CAP:
        if len(words := _lexicode(k, lam)) >= n:
            return BinaryCode(k, words[:n], method="gv")
        k += 1
    return None


@cache
def even_weight_code(k):
    """All 2^(k-1) even-weight words of length k, by filtering all 2^k words."""
    if k < 2:
        raise DomainError(f"even-weight code needs k >= 2, got {k}")
    if 1 << (k - 1) > codes.WORD_CAP:
        raise SizeLimitExceeded(f"2^{k - 1} words exceed the cap of {codes.WORD_CAP}")
    words = tuple(w for w in range(1 << k) if w.bit_count() % 2 == 0)
    return BinaryCode(k, words, min_distance=2, method="even-weight")


@cache
def _bch_code(m, d, count, complete):
    """The first ``count`` extended BCH words, one carry-less product per
    message 0, 1, 2, ..., each followed by its parity bit; a complete
    codebook records its minimum nonzero weight."""
    g = codes._bch_generator(m, d)
    words = []
    for msg in range(count):
        c = codes._clmul(msg, g)
        words.append((c << 1) | (c.bit_count() & 1))
    code = BinaryCode(1 << m, words, method=f"extended-bch(m={m},d={d})")
    if complete:
        code.min_distance = min(w.bit_count() for w in words[1:])
    return code


def bch_extended_code(m, d, target=None):
    """The extended BCH code in message order, with its guards: the whole
    codebook and its minimum nonzero weight where it fits WORD_CAP, else
    the first ``target`` words."""
    if not 2 <= m <= 16:
        raise FieldError(f"extension degree m = {m} outside the tabled range 2..16")
    if d < 2:
        raise DomainError(f"designed half-distance d must be >= 2, got {d}")
    if 2 * d - 1 > (1 << m) - 1:
        raise DomainError(f"designed distance {2 * d - 1} exceeds code length {(1 << m) - 1}")
    dim = codes.bch_dimension(m, d)
    total = 1 << dim
    count = total
    if total > codes.WORD_CAP:
        if target is None or target > codes.WORD_CAP:
            raise SizeLimitExceeded(
                f"2^{dim} codewords exceed the cap of {codes.WORD_CAP}; pass a target")
        count = target
    return _bch_code(m, d, count, count == total)


@cache
def hadamard_code(m):
    """The Sylvester columns as words, with the library's guards."""
    if m < 1:
        raise DomainError(f"Hadamard code needs m >= 1, got {m}")
    if 1 << (2 * m) > codes.ENTRY_CAP:
        raise SizeLimitExceeded(f"4^{m} entries exceed the cap of {codes.ENTRY_CAP}")
    return BinaryCode(1 << m, _hadamard_words(m), min_distance=1 << (m - 1),
                      method="hadamard")


def sylvester_matrix(m):
    """Order-2^m Hadamard matrix from m-fold tensoring of [[1, 1], [1, -1]]."""
    h = np.array([[1]], dtype=np.int8)
    for _ in range(m):
        h = np.kron(h, np.array([[1, 1], [1, -1]], dtype=np.int8))
    return h


@cache
def _hadamard_words(m):
    """Words of the order-2^m Sylvester columns; cached, as the grid tests ask
    for the same m at many lambda."""
    h = sylvester_matrix(m)
    return tuple(int("".join("1" if x == -1 else "0" for x in col), 2)
                 for col in h.T)


def build_code(method, n, lam):
    """A code for (n, lam) by family name."""
    if method == "even-weight":
        if lam > 2:
            raise DomainError("even-weight codes guarantee distance 2 only")
        return even_weight_code((n - 1).bit_length() + 1)
    if method == "extended-bch":
        d = (lam + 1) // 2
        if d < 2:
            raise DomainError("extended BCH here needs lam >= 3; use even-weight")
        for m in range(2, 17):
            if 2 * d - 1 <= (1 << m) - 1 and 1 << codes.bch_dimension(m, d) >= n:
                code = bch_extended_code(m, d, target=max(n, 2))
                return BinaryCode(code.length, code.words[:max(n, 2)],
                                  method=code.method)
        raise NoConstruction(f"no tabled BCH field reaches n={n}, lam={lam}")
    if method == "gv":
        code = _gv_scan(n, lam)
        if code is None:
            raise NoConstruction(f"greedy scan cap reached before n={n}, lam={lam}")
        return code
    if method == "hadamard":
        m = 1
        while (1 << m) < n or (1 << (m - 1)) < lam:
            m += 1
        return hadamard_code(m)
    raise DomainError(f"unknown construction method {method!r}")


def bch_backed(n, lam, max_m=16):
    """Whether n equals an extended-BCH codeword count at this lam's distance
    need, with the covering's capacity n * 2^m within the BCH formula
    n * (log n + floor((lam - 1) / 2) * log log n + 2)."""
    if n < 3:
        return False
    d = (lam - 1) // 2 + 1
    for m in range(2, max_m + 1):
        if 2 * d - 1 > (1 << m) - 1:
            continue
        if n == 1 << codes.bch_dimension(m, d):
            return n << m <= n * (log2(n) + (lam - 1) // 2 * log2(log2(n)) + 2)
    return False


@cache
def hadamard_covering(m):
    """Covering from the sign split of every Sylvester row but the first."""
    h = sylvester_matrix(m)
    n = 1 << m
    blocks = []
    for row in range(1, n):
        left = frozenset(j + 1 for j in range(n) if h[row, j] == 1)
        right = frozenset(j + 1 for j in range(n) if h[row, j] == -1)
        blocks.append(BipartiteBlock(left, right))
    return Covering(n, blocks)


def balanced_block_count(n):
    """C(n, n/2)/2, refused above the library's block cap."""
    if n < 2 or n % 2:
        raise DomainError(f"ground-set size must be even and >= 2, got {n}")
    count = comb(n, n // 2) // 2
    if count > covering.BALANCED_BLOCK_CAP:
        raise SizeLimitExceeded(
            f"{count} blocks exceed the cap of {covering.BALANCED_BLOCK_CAP}")
    return count


def balanced_bipartitions_covering(n):
    """One frozenset block per bipartition of 1..n into halves, vertex 1 left."""
    balanced_block_count(n)
    ground = frozenset(range(1, n + 1))
    blocks = []
    for rest in combinations(range(2, n + 1), n // 2 - 1):
        left = frozenset((1,) + rest)
        blocks.append(BipartiteBlock(left, ground - left))
    return Covering(n, blocks)


def balanced(n, lam):
    """Guaranteed lambda and capacity n*C(n, n/2)/2 of the balanced covering."""
    if n % 2:
        raise DomainError(f"balanced construction needs even n, got {n}")
    guaranteed = comb(n - 2, n // 2 - 1)
    if lam > guaranteed:
        raise DomainError(
            f"balanced covering of {n} vertices guarantees lambda = {guaranteed}")
    return guaranteed, n * balanced_block_count(n)


def build_covering(method, n, lam, graph=None):
    """Covering plus (guaranteed lambda, parameter dict) for one CLI method.

    As the CLI once ran it, except that the coloring method takes the parsed
    graph rather than its file path.
    """
    if method == "even-weight":
        if lam > 2:
            raise DomainError("even-weight constructions guarantee lambda = 2 only")
        k = (n - 1).bit_length() + 1
        code = even_weight_code(k)
        return covering.code_to_covering(code, n), 2, {"k": k, "words": len(code)}
    if method == "gv":
        code = build_code("gv", n, lam)
        return (covering.code_to_covering(code, n), lam,
                {"k": code.length, "words": len(code)})
    if method == "bch":
        code = build_code("extended-bch", n, lam)
        d = (lam + 1) // 2
        return (covering.code_to_covering(code, n), 2 * d,
                {"k": code.length, "words": len(code),
                 "method": code.method})
    if method == "hadamard":
        m = (n - 1).bit_length()
        if 1 << m != n:
            raise DomainError(f"hadamard construction needs n a power of 2, got {n}")
        guaranteed = n // 2
        if lam > guaranteed:
            raise DomainError(
                f"hadamard covering of {n} vertices guarantees lambda = {guaranteed}")
        return hadamard_covering(m), guaranteed, {"m": m}
    if method == "balanced":
        guaranteed, _ = balanced(n, lam)
        return balanced_bipartitions_covering(n), guaranteed, {}
    if method == "coloring":
        if graph is None:
            raise DomainError("the coloring method needs --graph")
        if lam != 1:
            raise DomainError("coloring-based coverings guarantee lambda = 1 only")
        colors = graphs.greedy_coloring(graph)
        cov = covering.coloring_to_covering(graph, colors)
        return cov, 1, {"colors": max(colors) + 1 if colors else 0}
    raise DomainError(f"unknown method {method!r}")


def degenerate_rows(code, n):
    """Rows constant over the first n words, counting each row's ones."""
    cols = code.words[:n]
    k = code.length
    out = []
    for row in range(k):
        bit = k - 1 - row
        ones = sum((w >> bit) & 1 for w in cols)
        if ones == 0 or ones == n:
            out.append(row)
    return out


# ------------------------------------------------------------------ graphs

class NeighborSetGraph:
    """A graph stored the way the library stored it before adjacency masks:
    one frozenset of neighbors per vertex, entry 0 unused."""

    def __init__(self, n, edges=()):
        adj = [set() for _ in range(n + 1)]
        for u, v in edges:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise RangeError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)

    def degree(self, v):
        _check_vertex(v, self.n)
        return len(self.adj[v])

    def has_edge(self, u, v):
        _check_vertex(u, self.n)
        _check_vertex(v, self.n)
        return v in self.adj[u]

    def edges(self):
        return [(u, v) for u in range(1, self.n + 1)
                for v in sorted(self.adj[u]) if u < v]

    def edge_count(self):
        return sum(len(s) for s in self.adj) // 2

    def __eq__(self, other):
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))


def neighbor_set_random_graph(n, p, seed):
    """G(n, p) from one draw per pair u < v, in lexicographic order."""
    rng = random.Random(seed)
    return NeighborSetGraph(n, [(u, v) for u in range(1, n + 1)
                                for v in range(u + 1, n + 1) if rng.random() < p])


def neighbor_set_coloring(g):
    """Greedy coloring of a NeighborSetGraph: vertices in label order, each
    taking the smallest color none of its lower neighbors has."""
    colors = [0] * g.n
    for v in range(1, g.n + 1):
        taken = {colors[w - 1] for w in g.adj[v] if w < v}
        c = 0
        while c in taken:
            c += 1
        colors[v - 1] = c
    return colors


def serialize_neighbor_set_graph(g):
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


class MisSolver:
    """Branch-and-bound maximum independent set, first-fit clique partition.

    Each node partitions its candidates into cliques by trying every class
    so far for each candidate in bit order, then sorts them by class number.
    """

    def __init__(self, masks):
        self.n = len(masks)
        self.adj = list(masks)
        self.best = 0

    def greedy_lower(self, mask, seed=0, tries=6):
        """Deterministic seeded greedy restarts; returns a feasible set size."""
        rng = random.Random(seed)
        verts = [v for v in range(self.n) if (mask >> v) & 1]
        best = 0
        for t in range(tries):
            if t == 0:
                order = sorted(verts, key=lambda v: (self.adj[v] & mask).bit_count())
            else:
                order = verts[:]
                rng.shuffle(order)
            avail = mask
            size = 0
            for v in order:
                if (avail >> v) & 1:
                    size += 1
                    avail &= ~(self.adj[v] | (1 << v))
            best = max(best, size)
        return best

    def max_independent(self, mask, lower=0):
        self.best = lower
        if mask:
            self._expand(mask, 0)
        return self.best

    def _expand(self, cand, size):
        adj = self.adj
        order = []
        numbers = []
        allowed = []  # per clique class: common neighborhood of its members
        queue = cand
        while queue:
            bit = queue & -queue
            v = bit.bit_length() - 1
            queue ^= bit
            for k, common in enumerate(allowed):
                if common & bit:
                    allowed[k] = common & adj[v]
                    order.append(v)
                    numbers.append(k + 1)
                    break
            else:
                allowed.append(adj[v])
                order.append(v)
                numbers.append(len(allowed))
        idx = sorted(range(len(order)), key=numbers.__getitem__)
        cur = cand
        for i in reversed(idx):
            if size + numbers[i] <= self.best:
                return
            v = order[i]
            if size + 1 > self.best:
                self.best = size + 1
            rest = cur & ~(adj[v] | (1 << v))
            if rest:
                self._expand(rest, size + 1)
            cur &= ~(1 << v)


def edge_masks(g):
    """Per-vertex neighbor bitmasks of g: bit w-1 of entry u-1 is set iff u
    and w are adjacent.  ORed in from g.edges() one edge at a time."""
    masks = [0] * g.n
    for u, v in g.edges():
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return masks


def alpha_per_vertex(g):
    """Per-vertex independence numbers, each subproblem seeded by greedy_lower."""
    masks = edge_masks(g)
    solver = MisSolver(masks)
    full = (1 << g.n) - 1
    out = []
    for i in range(g.n):
        sub = full & ~(masks[i] | (1 << i))
        lb = solver.greedy_lower(sub, seed=i)
        out.append(1 + solver.max_independent(sub, lb))
    return out


class BbmcSolver:
    """Branch-and-bound maximum independent set over bitmask vertex sets.

    The bound at each node comes from a greedy partition of the candidate
    set into cliques (Tomita & Seki's MCQ bound, read on the graph itself):
    an independent set takes at most one vertex per clique.  The partition
    is built one class at a time over bitmasks, as in San Segundo et al.'s
    BBMC: class k takes the lowest remaining candidate, keeps only the
    candidates adjacent to it, and repeats until none is left.  This gives
    the same classes as a first-fit pass over the candidates in bit order,
    already sorted by class number.  Candidates are expanded from the
    highest class down, so a single comparison prunes the whole remaining
    tail, and candidates in classes that can never beat the incumbent are
    not listed at all.
    """

    def __init__(self, masks):
        self.adj = masks
        self.best = 0

    def max_independent(self, mask, lower=0):
        """Size of a largest independent subset of mask, or lower if none is larger."""
        self.best = lower
        if mask:
            self._expand(mask, 0)
        return self.best

    def _expand(self, cand, size):
        adj = self.adj
        verts = []
        numbers = []
        skip = self.best - size  # classes 1..skip cannot lift size past best
        k = 0
        rest = cand
        while rest:
            k += 1
            q = rest
            while q:
                bit = q & -q
                v = bit.bit_length() - 1
                rest ^= bit
                q &= adj[v]
                if k > skip:
                    verts.append(v)
                    numbers.append(k)
        cur = cand
        for i in range(len(verts) - 1, -1, -1):
            if size + numbers[i] <= self.best:
                return
            v = verts[i]
            if size + 1 > self.best:
                self.best = size + 1
            rest = cur & ~(adj[v] | (1 << v))
            if rest:
                self._expand(rest, size + 1)
            cur ^= 1 << v


def bbmc_alpha_per_vertex(g):
    """Per-vertex independence numbers, one BbmcSolver subproblem per vertex,
    each from the lower bound 0."""
    masks = edge_masks(g)
    solver = BbmcSolver(masks)
    full = (1 << g.n) - 1
    return [1 + solver.max_independent(full & ~(masks[i] | (1 << i)))
            for i in range(g.n)]


def brute_alpha(g):
    """Per-vertex independence numbers over all 2^n vertex subsets."""
    masks = edge_masks(g)
    best = [1] * g.n
    for s in range(1, 1 << g.n):
        verts = [v for v in range(g.n) if (s >> v) & 1]
        if not any(masks[v] & s for v in verts):
            for v in verts:
                best[v] = max(best[v], len(verts))
    return best


def parse_edges(n, raw):
    """Graph from a decoded edge list: validate into a list, then build."""
    edges = []
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
        edges.append((u, v))
    return Graph(n, edges)


def parse_graph(text):
    """Graph from a document: decode it with json, check its shape, then
    ``parse_edges``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    except ValueError as e:  # an integer past the decoder's digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError("graph document must be a JSON object")
    if set(obj) != {"n", "edges"}:
        raise ParseError('graph document must have exactly the keys "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if n >= 2**31:
        raise ParseError(f'"n" must be below 2^31, got {n}')
    if not isinstance(obj["edges"], list):
        raise ParseError('"edges" must be a list of [u, v] pairs')
    return parse_edges(n, obj["edges"])
