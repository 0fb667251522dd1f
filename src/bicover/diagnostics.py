"""Executable diagnostics for the probabilistic devices behind the bounds.

Each check replays one step of the randomized argument that yields a
capacity bound: binomial tail sums staying below one, near-match events
being pairwise disjoint, the convex surrogate of the tail, occupancy-capped
event families, and occurring-event sets being independent in the target
graph.  Probability computations are exact rationals; exhaustive modes
sweep all 2^m block-selection vectors, sampled modes draw seeded vectors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice

import numpy as np

from .bounds import binom_tail_p
from .covering import incidence_counts, is_verified, verify
from .errors import DomainError, InvalidCovering, SizeLimitExceeded
from .graphs import alpha_per_vertex

EXHAUSTIVE_BLOCK_LIMIT = 20


@dataclass(frozen=True, eq=False)
class EventProfile:
    """Per-vertex block incidence split by side, plus the tail threshold r.

    ``a`` and ``b`` are the covering's packed left and right masks without
    the unused column 0, so column j belongs to vertex j+1 (see
    ``covering.Covering``).
    """

    n: int
    m: int
    r: int
    a: np.ndarray
    b: np.ndarray
    x: tuple         # total blocks containing each vertex

    @cached_property
    def a_masks(self):
        """Left-side masks as Python ints: bit i set iff vertex j+1 is left in block i+1."""
        return _as_ints(self.a)

    @cached_property
    def b_masks(self):
        return _as_ints(self.b)


def _as_ints(words):
    return tuple(int.from_bytes(col.astype("<u8").tobytes(), "little")
                 for col in words.T)


def event_profile(cov, lam):
    return EventProfile(
        n=cov.n, m=cov.m, r=(lam - 1) // 2, a=cov.left[:, 1:],
        b=cov.right[:, 1:], x=tuple(incidence_counts(cov)))


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

    def to_json(self):
        return json.dumps(self.to_dict())


def _require_valid(cov, target, lam, label):
    if is_verified(cov, target, lam):
        return
    report = verify(cov, target, lam)
    if not report.ok:
        raise InvalidCovering(
            f"{label} needs a valid covering; {len(report.violating_pairs)} "
            f"pairs fall below {lam}")


def check_tail_sum(cov, lam):
    """Sum of exact binomial tail probabilities p(x_j, r); at most 1 when valid.

    With r = floor((lam-1)/2), the events 'at most r of vertex j's block
    sides disagree with a uniform selection vector' are pairwise disjoint
    for a valid covering, so their probabilities sum to at most 1.
    """
    _require_valid(cov, cov.n, lam, "tail sum")
    prof = event_profile(cov, lam)
    total = sum((binom_tail_p(xj, prof.r) for xj in prof.x), Fraction(0))
    return DiagnosticReport("tail-sum", "exact", ok=total <= 1, sum=total)


def check_event_disjointness(cov, lam, mode="exhaustive", seed=0,
                             trials=100_000,
                             exhaustive_limit=EXHAUSTIVE_BLOCK_LIMIT):
    """No selection vector may trigger the near-match event of two vertices.

    Vertex j's event occurs when at most r of its block memberships
    disagree with the vector (left sides read the vector bit as 0, right
    sides as 1).  Exhaustive mode sweeps all 2^m vectors and additionally
    recounts each event's probability against the exact binomial tail;
    sampled mode draws seeded vectors and reports observed violations only.
    """
    _require_valid(cov, cov.n, lam, "event disjointness")
    return _disjointness(event_profile(cov, lam), mode, seed, trials,
                         exhaustive_limit)


def _disjointness(prof, mode, seed, trials, exhaustive_limit):
    if mode == "sampled":
        chunks = _sweep(prof, prof.r, mode, seed, trials, exhaustive_limit)
        violations = tuple(islice(
            (("double-occurrence", v, occurring)
             for v, occurring in _occurring_sets(chunks, 2)), 10))
        return DiagnosticReport(
            "event-disjointness", "sampled", ok=not violations,
            violations=violations, trials=trials)
    counts = np.zeros(prof.n, dtype=np.int64)
    chunks = _sweep(prof, prof.r, mode, seed, trials, exhaustive_limit,
                    counts=counts)
    doubles = []
    double_count = 0
    for vectors, per_vector, occurring in chunks:
        multi = np.nonzero(per_vector >= 2)[0]
        double_count += len(multi)
        doubles += [("double-occurrence", vectors[k], occurring(k))
                    for k in multi[:10 - len(doubles)].tolist()]
    violations = [("probability-mismatch", j + 1, count)
                  for j, count in enumerate(counts.tolist())
                  if Fraction(count, 1 << prof.m) != binom_tail_p(prof.x[j], prof.r)]
    violations += doubles
    return DiagnosticReport(
        "event-disjointness", "exhaustive", ok=not violations,
        violations=tuple(violations),
        details={"vectors": 1 << prof.m, "double_occurrences": double_count})


def check_convex_tail_bound(cov, lam):
    """Sum of (x_j/r)^r * 2^(-x_j) stays at most 1; needs lam >= 3 (r >= 1).

    The summand is a pointwise lower bound on the exact tail p(x_j, r);
    both facts are checked, each in exact rational arithmetic.
    """
    r = (lam - 1) // 2
    if r < 1:
        raise DomainError(f"convex tail bound needs lam >= 3, got lam = {lam}")
    _require_valid(cov, cov.n, lam, "convex tail bound")
    prof = event_profile(cov, lam)
    total = Fraction(0)
    violations = []
    for j, xj in enumerate(prof.x):
        surrogate = Fraction(xj, r) ** r / (1 << xj)
        total += surrogate
        if binom_tail_p(xj, r) < surrogate:
            violations.append(("pointwise", j + 1, xj))
    return DiagnosticReport(
        "convex-tail-bound", "exact", ok=total <= 1 and not violations,
        sum=total, violations=tuple(violations))


def check_convexity(r, x_lo, x_hi, steps=1000, tol=1e-12):
    """Nonnegative second central differences of (x/r)^r * 2^(-x) on a grid.

    The function is convex for x >= 2r + 1, the regime the tail argument
    uses; the grid sweep certifies it numerically on [x_lo, x_hi].
    """
    if r < 1:
        raise DomainError(f"need r >= 1, got {r}")
    if x_lo < 2 * r + 1:
        raise DomainError(f"need x_lo >= 2r + 1 = {2 * r + 1}, got {x_lo}")
    if x_hi <= x_lo or steps < 2:
        raise DomainError("need x_hi > x_lo and steps >= 2")
    h = (x_hi - x_lo) / steps
    values = [(((x_lo + i * h) / r) ** r) * 2 ** (-(x_lo + i * h))
              for i in range(steps + 1)]
    worst = min(values[i - 1] - 2 * values[i] + values[i + 1]
                for i in range(1, steps))
    violations = tuple(
        ("second-difference", x_lo + i * h)
        for i in range(1, steps)
        if values[i - 1] - 2 * values[i] + values[i + 1] < -tol)
    return DiagnosticReport(
        "convexity", "grid", ok=not violations, violations=violations,
        details={"r": r, "x_lo": x_lo, "x_hi": x_hi, "steps": steps,
                 "min_second_difference": worst})


def check_event_overlap(cov, g, alphas=None, mode="exhaustive", seed=0,
                        trials=100_000, limit=None,
                        exhaustive_limit=EXHAUSTIVE_BLOCK_LIMIT):
    """Occupancy-weighted event sum: sum of 2^(-x_j) / alpha_j is at most 1.

    Vertex j's event is an exact side match of the selection vector.  Any
    vector in j's event triggers at most alpha_j events in total (the
    occurring set is independent), which caps the weighted sum by 1.
    Exhaustive mode verifies that occupancy hypothesis vector by vector.
    """
    _require_valid(cov, g, 1, "event overlap")
    if alphas is None:
        kwargs = {} if limit is None else {"limit": limit}
        alphas = alpha_per_vertex(g, **kwargs)
    prof = event_profile(cov, 1)
    total = sum((Fraction(1, (1 << xj) * alphas[j]) for j, xj in enumerate(prof.x)),
                Fraction(0))
    chunks = _sweep(prof, 0, mode, seed, trials, exhaustive_limit)
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
                                 trials=100_000,
                                 exhaustive_limit=EXHAUSTIVE_BLOCK_LIMIT):
    """The vertices whose exact-match events occur form an independent set of g."""
    _require_valid(cov, g, 1, "independent event sets")
    return _independent_sets(event_profile(cov, 1), g, mode, seed, trials,
                             exhaustive_limit)


def _independent_sets(prof, g, mode, seed, trials, exhaustive_limit):
    chunks = _sweep(prof, 0, mode, seed, trials, exhaustive_limit)
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


_SWEEP_CHUNK = 1 << 14  # vectors x mask words per step: 128 KiB word temporaries
_WORD = (1 << 64) - 1


def _sweep(prof, r, mode, seed, trials, exhaustive_limit, counts=None):
    """The selection vectors of one sweep, in order and in chunks, with their events.

    Exhaustive mode visits 0 .. 2^m - 1; sampled mode draws ``trials``
    vectors from ``random.Random(seed).getrandbits(m)``.  Vertex j's event
    occurs for a vector when at most r of its block memberships disagree
    with it (r = 0: an exact side match).  Yields, per chunk,
    (vectors, per_vector, occurring): the vectors as Python ints, the
    number of events each one triggers, and occurring(k), the sorted
    vertices whose events vectors[k] triggers.  When given, ``counts[j]``
    accumulates how many swept vectors trigger vertex j+1's event.  The mode
    and the size limit are checked on the call, before any vector is drawn.
    """
    words = len(prof.a)
    size = max(1, _SWEEP_CHUNK // words)
    if mode == "exhaustive":
        if prof.m > exhaustive_limit:
            raise SizeLimitExceeded(
                f"{prof.m} blocks exceed the exhaustive sweep limit "
                f"{exhaustive_limit}")
        chunks = _exhaustive_chunks(prof.m, words, size)
    elif mode == "sampled":
        chunks = _sampled_chunks(prof.m, words, size, seed, trials)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return _tally(prof, r, chunks, counts)


def _exhaustive_chunks(m, words, size):
    for lo in range(0, 1 << m, size):
        vectors = range(lo, min(lo + size, 1 << m))
        packed = np.zeros((words, len(vectors)), dtype=np.uint64)
        packed[0] = np.arange(vectors.start, vectors.stop, dtype=np.uint64)
        yield vectors, packed


def _sampled_chunks(m, words, size, seed, trials):
    rng = random.Random(seed)
    for lo in range(0, trials, size):
        vectors = [rng.getrandbits(m) if m else 0
                   for _ in range(min(size, trials - lo))]
        yield vectors, np.array([[(v >> (64 * w)) & _WORD for v in vectors]
                                 for w in range(words)], dtype=np.uint64)


def _tally(prof, r, chunks, counts):
    # Vertex by vertex over a chunk of vectors: each step is a few
    # contiguous word operations, which beats one (vectors x vertices) block.
    support = prof.a | prof.b
    for vectors, packed in chunks:
        per_vector = np.zeros(len(vectors), dtype=np.intp)
        for j in range(prof.n):
            ev = _within(packed, support[:, j], prof.b[:, j], r)
            per_vector += ev
            if counts is not None:
                counts[j] += np.count_nonzero(ev)

        def occurring(k, packed=packed):
            ev = _within(packed[:, k], support, prof.b, r)
            return (np.nonzero(ev)[0] + 1).tolist()
        yield vectors, per_vector, occurring


def _within(vectors, support, side, r):
    """Whether at most r block memberships disagree with the selection vector.

    Arguments are indexed by mask word first: ``support`` holds a vertex's
    blocks, ``side`` those where it is on the right.  Either many vectors
    meet one vertex or one vector meets many vertices; each word step
    broadcasts, and the disagreements are popcount((v & support) ^ side).
    """
    hits = np.bitwise_count((vectors[0] & support[0]) ^ side[0])
    for w in range(1, len(vectors)):
        hits = hits + np.bitwise_count(
            (vectors[w] & support[w]) ^ side[w]).astype(np.intp)
    return hits <= r


def _occurring_sets(chunks, min_size):
    """(vector, occurring vertices) for each swept vector with at least min_size events."""
    for vectors, per_vector, occurring in chunks:
        for k in np.nonzero(per_vector >= min_size)[0].tolist():
            yield vectors[k], occurring(k)
