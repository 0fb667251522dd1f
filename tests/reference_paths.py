"""Slow pure-Python reference paths that the fast kernels are tested against.

Each function here is the straightforward loop the library once ran: one
Python-int bitmask per vertex, one pair or one selection vector at a time,
one codeword or one ball mask at a time, one relabeled block tuple at a
time.  They are kept only as oracles; the property tests require the
library's kernels to return exactly the same reports, codes and answers.
The construction if-chains the library ran before its family table (the
CLI's covering builder, ``build_code``, ``k_best``, ``bch_backed``) are
kept the same way.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb

import numpy as np

from bicover import codes, covering, graphs
from bicover.bounds import binom_tail_p
from bicover.codes import BinaryCode
from bicover.covering import BipartiteBlock, CoverageReport, Covering
from bicover.diagnostics import DiagnosticReport
from bicover.errors import (DomainError, NoConstruction, SizeLimitExceeded,
                            TargetUnreached)
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


# ------------------------------------------------ constructions, by if-chain

_FAMILIES = ("even-weight", "repetition", "extended-bch", "gv", "hadamard")


def _gv_scan(n, lam, scan_cap, k_max=None):
    """Greedy code at the shortest length whose scan reaches n words, else None."""
    k = max((n - 1).bit_length(), lam, 1)
    while (1 << k) < n * codes.ball_volume(k, (lam - 1) // 2):
        k += 1
    while (1 << k) <= scan_cap and (k_max is None or k <= k_max):
        try:
            return codes.greedy_gv_code(k, lam, n, scan_cap=scan_cap)
        except TargetUnreached:
            k += 1
    return None


def k_best(n, lam, max_bch_m=16, scan_cap=codes.DEFAULT_SCAN_CAP):
    """Smallest code length any family certifies for (n, lam), as (k, family)."""
    if n < 2 or lam < 1:
        raise DomainError(f"need n >= 2 and lam >= 1, got n={n}, lam={lam}")
    candidates = {}
    if lam <= 2:
        candidates["even-weight"] = (n - 1).bit_length() + 1
    if n == 2:
        candidates["repetition"] = lam
    if lam >= 3:
        d = (lam + 1) // 2
        for m in range(2, max_bch_m + 1):
            if 2 * d - 1 > (1 << m) - 1:
                continue
            if 1 << codes.bch_dimension(m, d) >= n:
                candidates["extended-bch"] = 1 << m
                break
    m = 1
    while (1 << m) < n or (1 << (m - 1)) < lam:
        m += 1
    candidates["hadamard"] = 1 << m
    gv = _gv_scan(n, lam, scan_cap, k_max=min(candidates.values()) - 1)
    if gv is not None:
        candidates["gv"] = gv.length
    if not candidates:
        raise NoConstruction(f"no implemented family reaches n={n}, lam={lam}")
    best = min(candidates.values())
    for name in _FAMILIES:
        if candidates.get(name) == best:
            return best, name
    raise AssertionError("unreachable")


@cache
def _hadamard_words(m):
    """Words of the order-2^m Sylvester columns; cached, as the grid tests ask
    for the same m at many lambda."""
    h = codes.sylvester_matrix(m)
    return tuple(int("".join("1" if x == -1 else "0" for x in col), 2)
                 for col in h.T)


def build_code(method, n, lam, word_cap=codes.DEFAULT_WORD_CAP,
               scan_cap=codes.DEFAULT_SCAN_CAP):
    """A code for (n, lam) by family name."""
    if method == "even-weight":
        if lam > 2:
            raise DomainError("even-weight codes guarantee distance 2 only")
        return codes.even_weight_code((n - 1).bit_length() + 1, word_cap)
    if method == "repetition":
        if n != 2:
            raise DomainError("repetition codes only serve n = 2")
        return BinaryCode(lam, (0, (1 << lam) - 1), min_distance=lam,
                          method="repetition")
    if method == "extended-bch":
        d = (lam + 1) // 2
        if d < 2:
            raise DomainError("extended BCH here needs lam >= 3; use even-weight")
        for m in range(2, 17):
            if 2 * d - 1 <= (1 << m) - 1 and 1 << codes.bch_dimension(m, d) >= n:
                return codes.bch_extended_code(m, d, target=max(n, 2),
                                               word_cap=word_cap)
        raise NoConstruction(f"no tabled BCH field reaches n={n}, lam={lam}")
    if method == "gv":
        code = _gv_scan(n, lam, scan_cap)
        if code is None:
            raise NoConstruction(f"greedy scan cap reached before n={n}, lam={lam}")
        return code
    if method == "hadamard":
        m = 1
        while (1 << m) < n or (1 << (m - 1)) < lam:
            m += 1
        return BinaryCode(1 << m, _hadamard_words(m), min_distance=1 << (m - 1),
                          method="hadamard")
    raise DomainError(f"unknown construction method {method!r}")


def bch_backed(n, lam, max_m=16):
    """Whether n equals an extended-BCH codeword count at this lam's distance need."""
    d = (lam - 1) // 2 + 1
    for m in range(2, max_m + 1):
        if 2 * d - 1 > (1 << m) - 1:
            continue
        if n == 1 << codes.bch_dimension(m, d):
            return True
    return False


@cache
def hadamard_covering(m):
    """Covering from the sign split of every Sylvester row but the first."""
    h = codes.sylvester_matrix(m)
    n = 1 << m
    blocks = []
    for row in range(1, n):
        left = frozenset(j + 1 for j in range(n) if h[row, j] == 1)
        right = frozenset(j + 1 for j in range(n) if h[row, j] == -1)
        blocks.append(BipartiteBlock(left, right))
    return Covering(n, blocks)


def balanced(n, lam):
    """Guaranteed lambda and capacity n*C(n, n/2)/2 of the balanced covering."""
    if n % 2:
        raise DomainError(f"balanced construction needs even n, got {n}")
    guaranteed = comb(n - 2, n // 2 - 1)
    if lam > guaranteed:
        raise DomainError(
            f"balanced covering of {n} vertices guarantees lambda = {guaranteed}")
    return guaranteed, n * covering.balanced_block_count(n)


def build_covering(method, n, lam, graph=None):
    """Covering plus (guaranteed lambda, parameter dict) for one CLI method.

    As the CLI once ran it, except that the coloring method takes the parsed
    graph rather than its file path.
    """
    if method == "even-weight":
        if lam > 2:
            raise DomainError("even-weight constructions guarantee lambda = 2 only")
        k = (n - 1).bit_length() + 1
        code = codes.even_weight_code(k)
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
        return covering.balanced_bipartitions_covering(n), guaranteed, {}
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
