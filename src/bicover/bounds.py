"""Closed-form capacity bounds, exact counting helpers, and bound reports.

All logarithms are base 2.  Bound values are floats (capacities they are
compared with are exact integers; callers use a 1e-9 guard), except the
purely combinatorial counts, which stay exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, log2

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

    For lam in {1, 2} the r-term vanishes and the bound reduces to n log n.
    """
    _check_instance(n, lam)
    r = (lam - 1) // 2
    if r == 0:
        return n * log2(n)
    return n * (log2(n) + r * log2(2 * log2(n) / (lam - 1)))


def cap_lower(n, lam):
    """The sharper of the edge-count and binomial-tail lower bounds."""
    return max(float(edge_count_lower(n, lam)), tail_lower(n, lam))


def hansel_lower(n):
    """Classical n*log n lower bound for covering all pairs once."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return n * log2(n) if n > 1 else 0.0


def degree_lower(g):
    """Degree-based lower bound for covering a graph: sum of log(n/(n - d_i))."""
    n = g.n
    return sum(log2(n / (n - d)) for d in degrees(g))


def alpha_lower(g, alphas=None, limit=None):
    """Independence-based lower bound: sum of log(n/alpha_i).

    alpha_i is the exact maximum independent-set size through vertex i;
    dominates degree_lower since alpha_i <= n - d_i.  Pass precomputed
    ``alphas`` to skip the exact solve; ``limit`` is forwarded to it.
    """
    if alphas is None:
        kwargs = {} if limit is None else {"limit": limit}
        alphas = alpha_per_vertex(g, **kwargs)
    n = g.n
    return sum(log2(n / a) for a in alphas)


def upper_even_weight(n):
    """Capacity n*(ceil(log n) + 1) reached by the even-weight code (distance 2)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return n * codes.FAMILIES["even-weight"].plan(n, 2)[0]


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
    """Whether n equals an extended-BCH codeword count at this lam's distance need.

    The bound of upper_bch is construction-backed exactly at those n; at
    other n it is a formula-only target.
    """
    try:
        return n == 1 << codes.bch_field(n, lam)[1]
    except NoConstruction:
        return False


def gv_count(k, d):
    """ceil(2^k / sum_{i<d} C(k, i)), the guaranteed size of a distance-d code."""
    if not 1 <= d <= k:
        raise DomainError(f"need 1 <= d <= k, got d={d}, k={k}")
    return -((1 << k) // -codes.ball_volume(k, d - 1))


def binom_tail_p(x, r):
    """Exact probability that Binomial(x, 1/2) is at most r."""
    if not 0 <= r <= x:
        raise DomainError(f"need 0 <= r <= x, got r={r}, x={x}")
    return Fraction(sum(comb(x, q) for q in range(r + 1)), 1 << x)


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

    def lower_values(self):
        return [e.value for e in self.entries if e.side == "lower"]

    def upper_values(self):
        return [e.value for e in self.entries if e.side == "upper"]

    def to_dict(self):
        return {
            "instance": self.instance,
            "entries": [e.to_obj() for e in self.entries],
        }

    def to_json(self):
        return json.dumps(self.to_dict())


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
            value = fn(n) if name == "even-weight" else fn(n, lam)
        except DomainError as e:
            rep.entries.append(BoundEntry(name, "upper", float("nan"), inputs,
                                          ("inapplicable", str(e))))
            continue
        entry_flags = ()
        if name == "even-weight" and lam > 2:
            entry_flags = ("inapplicable", "even-weight codes give distance 2 only")
            value = float("nan")
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
    """Degree and independence lower bounds for covering a graph's edges."""
    rep = BoundReport({"kind": "graph", "n": g.n, "edges": g.edge_count()})
    rep.entries.append(BoundEntry(
        "degree", "lower", degree_lower(g), {"n": g.n}))
    rep.entries.append(BoundEntry(
        "independence", "lower", alpha_lower(g, alphas=alphas, limit=limit),
        {"n": g.n}))
    return rep
