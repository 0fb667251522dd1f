"""Slow pure-Python reference paths that the fast kernels are tested against.

Each function here is the straightforward loop the library once ran: one
Python-int bitmask per vertex, one pair or one selection vector at a time,
one codeword or one ball mask at a time, one relabeled block tuple at a
time.  They are kept only as oracles; the property tests require the
library's kernels to return exactly the same reports, codes and answers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from bicover.bounds import binom_tail_p
from bicover.covering import CoverageReport
from bicover.diagnostics import DiagnosticReport
from bicover.errors import DomainError, SizeLimitExceeded
from bicover.graphs import Graph


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
        min_multiplicity=mn, violating_pairs=tuple(violating),
        histogram={m: c for m, c in enumerate(hist) if c})


def event_occurs(prof, j, v, r):
    """Vertex j+1's near-match event: at most r of its blocks disagree with v."""
    hits = (v & prof.a_masks[j]).bit_count() + (~v & prof.b_masks[j]).bit_count()
    return hits <= r


def matching_vertices(prof, v):
    """Vertices whose blocks all read their side's bit from v (exact match)."""
    out = []
    for j in range(prof.n):
        if (v & prof.a_masks[j]) == 0 and (v & prof.b_masks[j]) == prof.b_masks[j]:
            out.append(j + 1)
    return out


def _sweep(prof, mode, seed, trials, exhaustive_limit):
    if mode == "exhaustive":
        if prof.m > exhaustive_limit:
            raise SizeLimitExceeded(f"{prof.m} blocks exceed {exhaustive_limit}")
        return range(1 << prof.m), None
    if mode == "sampled":
        rng = random.Random(seed)
        return (rng.getrandbits(prof.m) if prof.m else 0
                for _ in range(trials)), trials
    raise DomainError(f"unknown mode {mode!r}")


def disjointness(prof, mode="exhaustive", seed=0, trials=100_000,
                 exhaustive_limit=20):
    """The event-disjointness sweep, without the covering validity check."""
    if mode == "exhaustive":
        if prof.m > exhaustive_limit:
            raise SizeLimitExceeded(f"{prof.m} blocks exceed {exhaustive_limit}")
        return _disjointness_exhaustive(prof)
    if mode == "sampled":
        return _disjointness_sampled(prof, seed, trials)
    raise DomainError(f"unknown mode {mode!r}")


def _disjointness_exhaustive(prof):
    m, r = prof.m, prof.r
    vecs = np.arange(1 << m, dtype=np.uint32)
    occ = np.zeros(1 << m, dtype=np.uint32)
    violations = []
    for j in range(prof.n):
        a = np.uint32(prof.a_masks[j])
        b = np.uint32(prof.b_masks[j])
        hits = np.bitwise_count(vecs & a) + np.bitwise_count(~vecs & b)
        ev = hits <= r
        occ += ev
        count = int(np.count_nonzero(ev))
        if Fraction(count, 1 << m) != binom_tail_p(prof.x[j], r):
            violations.append(("probability-mismatch", j + 1, count))
    doubles = np.nonzero(occ >= 2)[0]
    for v in doubles[:10]:
        events = [j + 1 for j in range(prof.n)
                  if event_occurs(prof, j, int(v), r)]
        violations.append(("double-occurrence", int(v), events))
    return DiagnosticReport(
        "event-disjointness", "exhaustive", ok=not violations,
        violations=tuple(violations),
        details={"vectors": 1 << m, "double_occurrences": int(len(doubles))})


def _disjointness_sampled(prof, seed, trials):
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        v = rng.getrandbits(prof.m) if prof.m else 0
        occurring = [j + 1 for j in range(prof.n)
                     if event_occurs(prof, j, v, prof.r)]
        if len(occurring) > 1 and len(violations) < 10:
            violations.append(("double-occurrence", v, occurring))
    return DiagnosticReport(
        "event-disjointness", "sampled", ok=not violations,
        violations=tuple(violations), trials=trials)


def event_overlap(prof, alphas, mode="exhaustive", seed=0, trials=100_000,
                  exhaustive_limit=20):
    """The occupancy sweep and weighted sum, without the validity check."""
    total = sum((Fraction(1, (1 << xj) * alphas[j]) for j, xj in enumerate(prof.x)),
                Fraction(0))
    sweep, trials_out = _sweep(prof, mode, seed, trials, exhaustive_limit)
    violations = []
    for v in sweep:
        occurring = matching_vertices(prof, v)
        for j in occurring:
            if len(occurring) > alphas[j - 1]:
                violations.append(("occupancy", v, j, len(occurring)))
                break
        if len(violations) >= 10:
            break
    return DiagnosticReport(
        "event-overlap", mode, ok=total <= 1 and not violations,
        sum=total, violations=tuple(violations), trials=trials_out)


def independent_event_sets(prof, g, mode="exhaustive", seed=0, trials=100_000,
                           exhaustive_limit=20):
    """The independent-set sweep, without the validity check."""
    sweep, trials_out = _sweep(prof, mode, seed, trials, exhaustive_limit)
    violations = []
    for v in sweep:
        occurring = matching_vertices(prof, v)
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
