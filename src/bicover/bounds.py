"""Closed-form capacity bounds, exact counting helpers, and bound reports.

All logarithms are base 2.  Bound values are floats (capacities they are
compared with are exact integers; callers use a 1e-9 guard), except the
purely combinatorial counts, which stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import log2

from . import codes
from .errors import DomainError, NoConstruction
from .graphs import alpha_per_vertex, degrees

GUARD = 1e-9


def edge_count_lower(n, lam):
    """Lower bound 2*lam*(n-1): a block on s vertices covers at most s^2/4 pairs."""
    _check_instance(n, lam)
    return 2 * lam * (n - 1)


def tail_lower(n, lam):
    """Lower bound n*(log n + r*log(2 log n / (lam-1))) with r = floor((lam-1)/2).

    For lam in {1, 2} the r-term vanishes and the bound reduces to Hansel's n log n.
    """
    _check_instance(n, lam)
    r = (lam - 1) // 2
    if r == 0:
        return n * log2(n)
    return n * (log2(n) + r * log2(2 * log2(n) / (lam - 1)))


def degree_lower(g):
    """Degree-based lower bound for covering a graph: sum of log(n/(n - d_i))."""
    n = g.n
    return sum(log2(n / (n - d)) for d in degrees(g))


def alpha_lower(g, alphas):
    """Independence-based lower bound: sum of log(n/alpha_i).

    alpha_i is the maximum independent-set size through vertex i, as
    ``alpha_per_vertex`` computes it; dominates degree_lower since
    alpha_i <= n - d_i.
    """
    n = g.n
    return sum(log2(n / a) for a in alphas)


def upper_even_weight(n, lam):
    """Capacity n*(ceil(log n) + 1) reached by the even-weight code (distance 2,
    so lam <= 2)."""
    _check_instance(n, lam)
    if lam > 2:
        raise DomainError("even-weight codes give distance 2 only")
    return n * codes.even_weight_length(n)


def upper_gv(n, lam):
    """Capacity n*(log n + (lam-1)*(log(log n/(lam-1)) + 4)) from greedy codes.

    Valid in the regime 2 <= lam <= 0.5*log n.
    """
    _check_instance(n, lam)
    if lam < 2:
        raise DomainError(f"greedy-code bound needs lam >= 2, got {lam}")
    if lam > 0.5 * log2(n):
        raise DomainError(
            f"greedy-code bound needs lam <= 0.5*log2(n) = {0.5 * log2(n):.4f}, got {lam}")
    return n * (log2(n) + (lam - 1) * (log2(log2(n) / (lam - 1)) + 4))


def upper_linear(n, lam, c):
    """Capacity (lam/c)*n for lam >= c*log(n)/(1 - H(c)), 0 < c < 1/2."""
    _check_instance(n, lam)
    if not 0 < c < 0.5:
        raise DomainError(f"rate parameter must lie in (0, 1/2), got {c}")
    threshold = c * log2(n) / (1 - entropy(c))
    if lam < threshold:
        raise DomainError(
            f"linear-capacity bound needs lam >= {threshold:.4f}, got {lam}")
    return lam / c * n


def upper_bch(n, lam):
    """Capacity n*(log n + floor((lam-1)/2)*log log n + 2) from extended BCH codes."""
    _check_instance(n, lam)
    if n < 3:
        raise DomainError(f"log log n needs n >= 3, got {n}")
    r = (lam - 1) // 2
    return n * (log2(n) + r * log2(log2(n)) + 2)


def bch_backed(n, lam):
    """Whether the extended-BCH covering at n reaches the bound of upper_bch.

    That holds when n equals the codeword count 2^dim of the code that
    bch_field picks and the covering's capacity, n words of length 2^m, is
    at most the formula; at other n the bound is a formula-only target.
    """
    if n < 3:
        return False  # upper_bch needs log log n
    try:
        m, dim = codes.bch_field(n, lam)
    except NoConstruction:
        return False
    return n == 1 << dim and n << m <= upper_bch(n, lam)


def binom_tail_p(x, r):
    """Exact probability that Binomial(x, 1/2) is at most r."""
    if r < 0:
        raise DomainError(f"need r >= 0, got r={r}")
    if r >= x:
        return Fraction(1)
    return Fraction(codes.ball_volume(x, r), 1 << x)


def entropy(x):
    """Binary entropy -x log x - (1-x) log(1-x) on the open interval (0, 1)."""
    if not 0 < x < 1:
        raise DomainError(f"entropy defined on (0, 1) only, got {x}")
    return -x * log2(x) - (1 - x) * log2(1 - x)


def _check_instance(n, lam):
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if lam < 1:
        raise DomainError(f"need lam >= 1, got {lam}")


@dataclass
class BoundEntry:
    name: str
    side: str          # "lower" or "upper"
    value: float
    inputs: dict
    flags: tuple = ()

    def to_obj(self):
        return {"name": self.name, "side": self.side, "value": self.value,
                "inputs": self.inputs, "flags": list(self.flags)}


@dataclass
class BoundReport:
    """Named bound values for one instance, with the formula inputs echoed."""

    instance: dict
    entries: list = field(default_factory=list)

    def to_dict(self):
        return {
            "instance": self.instance,
            "entries": [e.to_obj() for e in self.entries],
        }


def multigraph_report(n, lam, c=None):
    """All applicable bounds for K_n^lam; inapplicable uppers get a skip flag."""
    rep = BoundReport({"kind": "complete", "n": n, "lambda": lam})
    rep.entries.append(BoundEntry(
        "edge-count", "lower", float(edge_count_lower(n, lam)), {"n": n, "lambda": lam}))
    tail = tail_lower(n, lam)
    flags = ("r-term-vanishes",) if (lam - 1) // 2 == 0 else ()
    if tail <= 0:
        flags += ("vacuous",)
    rep.entries.append(BoundEntry(
        "binomial-tail", "lower", tail, {"n": n, "lambda": lam}, flags))
    uppers = [("even-weight", upper_even_weight, {"n": n}),
              ("gv", upper_gv, {"n": n, "lambda": lam}),
              ("bch", upper_bch, {"n": n, "lambda": lam})]
    for name, fn, inputs in uppers:
        try:
            value = fn(n, lam)
        except DomainError as e:
            rep.entries.append(BoundEntry(name, "upper", float("nan"), inputs,
                                          ("inapplicable", str(e))))
            continue
        entry_flags = ()
        if name == "bch":
            entry_flags = ("construction-backed",) if bch_backed(n, lam) \
                else ("formula-only",)
        rep.entries.append(BoundEntry(name, "upper", value, inputs, entry_flags))
    if c is not None:
        inputs = {"n": n, "lambda": lam, "c": c}
        try:
            rep.entries.append(BoundEntry("linear", "upper",
                                          upper_linear(n, lam, c), inputs))
        except DomainError as e:
            rep.entries.append(BoundEntry("linear", "upper", float("nan"), inputs,
                                          ("inapplicable", str(e))))
    return rep


def graph_report(g, alphas=None, limit=None):
    """Degree and independence lower bounds for covering a graph's edges.

    The exact independence numbers come first: their size limit refuses a
    large n before anything sized by n is built.
    """
    if alphas is None:
        alphas = alpha_per_vertex(g, limit)
    rep = BoundReport({"kind": "graph", "n": g.n, "edges": g.edge_count()})
    rep.entries.append(BoundEntry(
        "degree", "lower", degree_lower(g), {"n": g.n}))
    rep.entries.append(BoundEntry(
        "independence", "lower", alpha_lower(g, alphas), {"n": g.n}))
    return rep
