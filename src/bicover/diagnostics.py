"""Executable diagnostics for the probabilistic devices behind the bounds.

Each check replays one step of the randomized argument that yields a
capacity bound: binomial tail sums staying below one, near-match events
being pairwise disjoint, the convex surrogate of the tail, occupancy-capped
event families, and occurring-event sets being independent in the target
graph.  Probability computations are exact rationals; exhaustive modes
cover all 2^m block-selection vectors by enumerating each vertex's event
vectors, sampled modes draw seeded vectors.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from .bounds import binom_tail_p
from .codes import ball_volume
from .covering import _full_support, incidence_counts, is_verified, verify
from .errors import DomainError, InvalidCovering, SizeLimitExceeded
from .graphs import alpha_per_vertex

EXHAUSTIVE_BLOCK_LIMIT = 20


@dataclass
class DiagnosticReport:
    check: str
    mode: str
    ok: bool
    sum: Fraction | None = None
    violations: tuple = ()
    trials: int | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        s = None
        if self.sum is not None:
            s = f"{self.sum.numerator}/{self.sum.denominator}"
        return {
            "check": self.check,
            "mode": self.mode,
            "ok": self.ok,
            "sum": s,
            "violations": [list(v) if isinstance(v, tuple) else v
                           for v in self.violations],
            "trials": self.trials,
            **({"details": self.details} if self.details else {}),
        }


def _require_valid(cov, target, lam, label):
    if is_verified(cov, target, lam):
        return
    report = verify(cov, target, lam)
    if not report.ok:
        raise InvalidCovering(
            f"{label} needs a valid covering; {len(report.violations)} "
            f"pairs fall below {lam}")


def check_tail_sum(cov, lam):
    """Sum of exact binomial tail probabilities p(x_j, r); at most 1 when valid.

    With r = floor((lam-1)/2), the events 'at most r of vertex j's block
    sides disagree with a uniform selection vector' are pairwise disjoint
    for a valid covering, so their probabilities sum to at most 1.
    """
    _require_valid(cov, cov.n, lam, "tail sum")
    r = (lam - 1) // 2
    total = sum((k * binom_tail_p(xj, r)
                 for xj, k in Counter(incidence_counts(cov)).items()), Fraction(0))
    return DiagnosticReport("tail-sum", "exact", ok=total <= 1, sum=total)


def check_event_disjointness(cov, lam, mode="exhaustive", seed=0,
                             trials=100_000):
    """No selection vector may trigger the near-match event of two vertices.

    Vertex j's event occurs when at most r of its block memberships
    disagree with the vector (left sides read the vector bit as 0, right
    sides as 1).  Exhaustive mode covers all 2^m vectors and additionally
    recounts each event's probability against the exact binomial tail;
    sampled mode draws seeded vectors and reports observed violations only.
    """
    _require_valid(cov, cov.n, lam, "event disjointness")
    return _disjointness(cov, (lam - 1) // 2, mode, seed, trials)


def _disjointness(cov, r, mode, seed, trials):
    # Only the exhaustive mode counts each event for the recount.
    counts = np.zeros(cov.n, dtype=np.int64) if mode == "exhaustive" else None
    doubles = []
    double_count = 0
    for vectors, per_vector, occurring in _sweep(cov, r, mode, seed, trials,
                                                 counts=counts):
        multi = np.nonzero(per_vector >= 2)[0]
        double_count += len(multi)
        doubles += [("double-occurrence", vectors[k], occurring(k))
                    for k in multi[:10 - len(doubles)].tolist()]
    if counts is None:
        return DiagnosticReport(
            "event-disjointness", mode, ok=not doubles,
            violations=tuple(doubles), trials=trials)
    x = incidence_counts(cov)
    # 2^m * p(x_j, r) as an int: the ball's volume in x_j bits, times the
    # 2^(m - x_j) settings of the other blocks (2^m once r >= x_j).
    expected = {xj: ball_volume(xj, min(r, xj)) << (cov.m - xj)
                for xj in dict.fromkeys(x)}
    violations = [("probability-mismatch", j + 1, count)
                  for j, count in enumerate(counts.tolist())
                  if count != expected[x[j]]]
    violations += doubles
    return DiagnosticReport(
        "event-disjointness", mode, ok=not violations,
        violations=tuple(violations),
        details={"vectors": 1 << cov.m, "double_occurrences": double_count})


def check_convex_tail_bound(cov, lam):
    """Sum of (x_j/r)^r * 2^(-x_j) stays at most 1; needs lam >= 3 (r >= 1).

    The summand is a pointwise lower bound on the exact tail p(x_j, r);
    both facts are checked, each in exact rational arithmetic.
    """
    r = (lam - 1) // 2
    if r < 1:
        raise DomainError(f"convex tail bound needs lam >= 3, got lam = {lam}")
    _require_valid(cov, cov.n, lam, "convex tail bound")
    x = incidence_counts(cov)
    tally = Counter(x)
    surrogate = {xj: Fraction(xj, r) ** r / (1 << xj) for xj in tally}
    total = sum((k * surrogate[xj] for xj, k in tally.items()), Fraction(0))
    below = {xj for xj in tally if binom_tail_p(xj, r) < surrogate[xj]}
    violations = tuple(("pointwise", j + 1, xj) for j, xj in enumerate(x)
                       if xj in below)
    return DiagnosticReport(
        "convex-tail-bound", "exact", ok=total <= 1 and not violations,
        sum=total, violations=violations)


def check_event_overlap(cov, g, alphas=None, mode="exhaustive", seed=0,
                        trials=100_000, limit=None):
    """Occupancy-weighted event sum: sum of 2^(-x_j) / alpha_j is at most 1.

    Vertex j's event is an exact side match of the selection vector.  Any
    vector in j's event triggers at most alpha_j events in total (the
    occurring set is independent), which caps the weighted sum by 1.
    Exhaustive mode verifies that occupancy hypothesis vector by vector.
    """
    _require_valid(cov, g, 1, "event overlap")
    if alphas is None:
        alphas = alpha_per_vertex(g, limit)
    tally = Counter(zip(incidence_counts(cov), alphas, strict=True))
    total = sum((k * binom_tail_p(xj, 0) / a for (xj, a), k in tally.items()),
                Fraction(0))
    chunks = _sweep(cov, 0, mode, seed, trials)
    # A vector can only break occupancy when its events outnumber some alpha.
    violations = []
    for v, occurring in _occurring_sets(chunks, max(1, min(alphas) + 1)):
        for j in occurring:
            if len(occurring) > alphas[j - 1]:
                violations.append(("occupancy", v, j, len(occurring)))
                break
        if len(violations) >= 10:
            break
    return DiagnosticReport(
        "event-overlap", mode, ok=total <= 1 and not violations,
        sum=total, violations=tuple(violations),
        trials=trials if mode == "sampled" else None)


def check_independent_event_sets(cov, g, mode="exhaustive", seed=0,
                                 trials=100_000):
    """The vertices whose exact-match events occur form an independent set of g."""
    _require_valid(cov, g, 1, "independent event sets")
    return _independent_sets(cov, g, mode, seed, trials)


def _independent_sets(cov, g, mode, seed, trials):
    chunks = _sweep(cov, 0, mode, seed, trials)
    found = ((v, _first_adjacent_pair(g, occurring))
             for v, occurring in _occurring_sets(chunks, 2))
    violations = tuple(islice(
        (("adjacent-pair", v) + edge for v, edge in found if edge is not None), 10))
    return DiagnosticReport(
        "independent-event-sets", mode, ok=not violations,
        violations=violations, trials=trials if mode == "sampled" else None)


def _first_adjacent_pair(g, vertices):
    for i, u in enumerate(vertices):
        for w in vertices[i + 1:]:
            if g.has_edge(u, w):
                return (u, w)
    return None


# Entries per step (vectors x mask words, vectors x vertices, or vertices x
# event patterns): 128 KiB word temporaries.
_SWEEP_CHUNK = 1 << 14


def _sweep(cov, r, mode, seed, trials, counts=None):
    """The selection vectors of one sweep, in order and in chunks, with their events.

    Vertex j's event occurs for a vector v when at most r of its block
    memberships disagree with v (r = 0: an exact side match).  Yields, per
    chunk, (vectors, per_vector, occurring): the vectors as Python ints, the
    number of events each one triggers, and occurring(k), the sorted
    vertices whose events vectors[k] triggers.  The mode and the size limit
    are checked on the call, before any vector is drawn.

    Sampled mode draws ``trials`` vectors from
    ``random.Random(seed).getrandbits(m)`` and yields every one of them.

    Exhaustive mode yields, in ascending order, the vectors among
    0 .. 2^m - 1 that trigger at least one event; the vectors that trigger
    none cannot matter to any check.  It enumerates each vertex's event set
    instead of testing all 2^m vectors against every vertex.  With support
    s_j (the blocks that contain j) and right-side mask b_j, the event set
    is every (b_j ^ D) | F with D a subset of s_j of at most r bits and F a
    subset of the blocks outside s_j: a vector v in the event has
    D = (v & s_j) ^ b_j and F = v & ~s_j, and no two (D, F) give the same
    v.  Every enumerated vector is tested again with the predicate, and
    ``counts[j]`` (when given) accumulates the vectors that pass for vertex
    j+1, so a recount against the exact binomial tail still certifies each
    event's probability.  The work is 2^m * sum_j P_j vectors, P_j the
    probability of event j: at most 2^m for a valid covering of K_n^lam
    and at most 2^m * max alpha_j for a valid graph covering.  Reading
    them back in order adds one scan of a 2^m-entry tally.

    Both modes read the covering's packed masks without the unused column
    0, so column j belongs to vertex j+1: ``support`` holds the blocks that
    contain each vertex, ``side`` those where it is on the right.  ``full``
    (every vertex in every block, checked once per sweep) lets ``_within``
    skip the support.
    """
    support, side = (cov.left | cov.right)[:, 1:], cov.right[:, 1:]
    full = _full_support(cov)
    if mode == "exhaustive":
        if cov.m > EXHAUSTIVE_BLOCK_LIMIT:
            raise SizeLimitExceeded(
                f"{cov.m} blocks exceed the exhaustive sweep limit "
                f"{EXHAUSTIVE_BLOCK_LIMIT}")
        return _event_chunks(support, side, full, cov.m, r, counts)
    if mode == "sampled":
        words = len(side)
        size = max(1, _SWEEP_CHUNK // words)
        return _tally(support, side, full, r,
                      _sampled_chunks(cov.m, words, size, seed, trials))
    raise DomainError(f"unknown mode {mode!r}")


def _event_chunks(support, side, full, m, r, counts):
    """The event vectors in ascending order, _SWEEP_CHUNK per chunk.

    Vertices that share a support share their patterns D | F, which are
    built once and broadcast against the group's right-side masks, a few
    vertices and patterns per step.  The vectors that pass the predicate
    are counted into one dense int32 tally over all 2^m vectors, 4 MiB at
    the exhaustive limit; its nonzero entries are the event vectors and how
    many events each one triggers.
    """
    blocks = (1 << m) - 1
    groups = defaultdict(list)
    for j, s in enumerate(support[0].tolist()):
        groups[s].append(j)
    tally = np.zeros(blocks + 1, dtype=np.int32)
    for s, members in groups.items():
        members = np.array(members)
        for patterns in _patterns(s, blocks & ~s, r):
            step = max(1, _SWEEP_CHUNK // len(patterns))
            for lo in range(0, len(members), step):
                js = members[lo:lo + step]
                vectors = side[0, js, None] ^ patterns
                ev = _within(vectors[None], support[:, js, None],
                             side[:, js, None], full, r)
                if counts is not None:
                    counts[js] += np.count_nonzero(ev, axis=1)
                np.add.at(tally, vectors[ev].astype(np.intp), np.int32(1))
    hit = np.flatnonzero(tally)
    for lo in range(0, len(hit), _SWEEP_CHUNK):
        idx = hit[lo:lo + _SWEEP_CHUNK]
        packed = idx.astype(np.uint64)[None]
        yield (packed[0].tolist(), tally[idx],
               _occurring(support, side, full, r, packed))


def _patterns(flip, free, r):
    """The masks with at most r bits in ``flip`` and any bits in ``free``.

    Yields them in chunks of at most _SWEEP_CHUNK masks, each chunk a
    product of some flip masks with some free masks.
    """
    flips = _submasks(flip, r)
    frees = _submasks(free, free.bit_count())
    cols = min(len(frees), _SWEEP_CHUNK)
    rows = _SWEEP_CHUNK // cols
    for i in range(0, len(flips), rows):
        for k in range(0, len(frees), cols):
            yield (flips[i:i + rows, None] | frees[None, k:k + cols]).ravel()


def _submasks(mask, r):
    """Every submask of ``mask`` with at most r bits, as uint64."""
    out = np.zeros(1, dtype=np.uint64)
    while mask:
        bit = mask & -mask
        mask ^= bit
        out = np.concatenate((out, out[np.bitwise_count(out) < r] | np.uint64(bit)))
    return out


def _sampled_chunks(m, words, size, seed, trials):
    """Chunks of (vectors, packed): ``size`` seeded vectors as Python ints
    and as a (words, size) uint64 array, word w holding blocks 64w .. 64w+63.

    Each vector is written as its little-endian bytes, all of a chunk's in
    one buffer, which its words are read from in place.
    """
    rng = random.Random(seed)
    width = 8 * words
    for lo in range(0, trials, size):
        vectors = [rng.getrandbits(m) if m else 0
                   for _ in range(min(size, trials - lo))]
        packed = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in vectors),
                               dtype="<u8")
        yield vectors, packed.reshape(len(vectors), words).T


def _tally(support, side, full, r, chunks):
    # A block of _SWEEP_CHUNK // n vectors against all n vertices per step.
    # A loop over the vertices ran n rounds of small numpy calls per chunk,
    # whose overhead set the cost: 26 ms against 15 ms in blocks for 2000
    # vectors on a covering of 996 vertices in 95 blocks (2-vCPU VM).  On
    # that covering at r = 14 a step ends after word 0 once no vertex is
    # left within r of any of its vectors (``_within``), and 2000 vectors
    # take about 5 ms instead of 7.7 ms.
    step = max(1, _SWEEP_CHUNK // support.shape[1])
    for vectors, packed in chunks:
        per_vector = np.concatenate([np.count_nonzero(
            _within(packed[:, lo:lo + step, None], support[:, None], side[:, None],
                    full, r),
            axis=1) for lo in range(0, len(vectors), step)])
        yield vectors, per_vector, _occurring(support, side, full, r, packed)


def _occurring(support, side, full, r, packed):
    """occurring(k): the sorted vertices whose events vector packed[:, k] triggers."""
    def occurring(k):
        ev = _within(packed[:, k], support, side, full, r)
        return (np.nonzero(ev)[0] + 1).tolist()
    return occurring


def _within(vectors, support, side, full, r):
    """Whether at most r block memberships disagree with the selection vector.

    Arguments are indexed by mask word first: ``support`` holds a vertex's
    blocks, ``side`` those where it is on the right.  Many vectors meet one
    vertex, one vector many vertices, or a column of vectors a row of
    vertices; each word step broadcasts, and the disagreements are
    popcount((v & support) ^ side).  When every vertex is in every block
    (``full``), v & support is v, since no vector has a bit past block m,
    and the count is popcount(v ^ side).

    The count is summed word by word, and once no entry is still at most r
    the remaining words are skipped: the answer is all False.  The test
    runs only while r is below 32 per word summed, about what a uniform
    vector disagrees on; above that nearly every step has an entry left,
    and the test would only cost a pass over the counts.  At r = 14 on 95
    blocks almost every step ends after word 0.
    """
    def disagreements(w):
        v = vectors[w] if full else vectors[w] & support[w]
        return np.bitwise_count(v ^ side[w])

    hits = disagreements(0)
    if len(vectors) > 1:  # the narrowest type that holds 64 per word
        hits = hits.astype(np.min_scalar_type(64 * len(vectors)), copy=False)
    for w in range(1, len(vectors)):
        if r < 32 * w and hits.min() > r:
            return np.zeros(hits.shape, dtype=bool)
        hits += disagreements(w)
    return hits <= r


def _occurring_sets(chunks, min_size):
    """(vector, occurring vertices) for each swept vector with at least min_size events."""
    for vectors, per_vector, occurring in chunks:
        for k in np.nonzero(per_vector >= min_size)[0].tolist():
            yield vectors[k], occurring(k)
