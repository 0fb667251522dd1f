"""Exhaustive branch-and-bound search on tiny instances.

``exact_cap`` finds the true minimum capacity of a bipartite covering of
K_n^lam by iterative deepening on capacity.  It is a ground-truth oracle
for the constructive routines, so completeness of the search matters more
than speed; budgets make runaway instances fail loudly instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, permutations

from .covering import BipartiteBlock, Covering
from .errors import BudgetExhausted, DomainError

# Full vertex-permutation canonicity checks stop paying for themselves
# beyond this many vertices (at n = 7 the block-index maps would be
# 5039 x 966 entries); above it only block ordering breaks symmetry.
_PERM_LIMIT = 6


@dataclass(frozen=True)
class SearchBudget:
    max_capacity: int = 64
    node_limit: int = 2_000_000

    def __post_init__(self):
        if self.max_capacity < 1 or self.node_limit < 1:
            raise DomainError("all budget fields must be positive")


def _all_blocks(n):
    """Every unordered pair of disjoint nonempty subsets of 1..n.

    A block is normalized to (a, b) with a before b under the (size,
    lexicographic) order on sorted vertex tuples; the block list itself is
    sorted by (total size, a, b).  This fixed total order is what the
    search's canonical form refers to.
    """
    verts = range(1, n + 1)
    out = set()
    for la in range(1, n):
        for left in combinations(verts, la):
            rest = [v for v in verts if v not in left]
            for lb in range(1, len(rest) + 1):
                for right in combinations(rest, lb):
                    out.add(_normalize(left, right))
    return sorted(out, key=lambda ab: (len(ab[0]) + len(ab[1]), ab))


def _normalize(a, b):
    a = tuple(sorted(a))
    b = tuple(sorted(b))
    return (a, b) if (len(a), a) <= (len(b), b) else (b, a)


class _CapSearch:
    def __init__(self, n, lam, budget):
        self.n = n
        self.lam = lam
        self.budget = budget
        self.blocks = _all_blocks(n)
        self.sizes = [len(a) + len(b) for a, b in self.blocks]
        self.pairs = list(combinations(range(1, n + 1), 2))
        pair_idx = {p: i for i, p in enumerate(self.pairs)}
        self.block_pairs = [
            [pair_idx[tuple(sorted((u, v)))] for u in a for v in b]
            for a, b in self.blocks]
        self.vertex_pairs = [
            [i for i, p in enumerate(self.pairs) if j in p]
            for j in range(self.n + 1)]
        self.perm_maps = self._perm_maps() if n <= _PERM_LIMIT else []
        self.nodes = 0

    def _perm_maps(self):
        """Each vertex relabeling but the identity, as block index -> image block index."""
        index = {ab: i for i, ab in enumerate(self.blocks)}
        maps = []
        for perm in islice(permutations(range(1, self.n + 1)), 1, None):
            relabel = (0,) + perm
            maps.append([index[_normalize(map(relabel.__getitem__, a),
                                          map(relabel.__getitem__, b))]
                         for a, b in self.blocks])
        return maps

    def _remaining_need(self, deficit):
        """Elementary lower bound on the capacity still required.

        Two counting arguments, both independent of the closed-form bounds
        this oracle is meant to cross-check: a block containing vertex j
        separates each pair at j at most once, and a block on s vertices
        separates at most s^2/4 <= s*n/4 pairs, so capacity R covers at
        most R*n/4 pair-slots.
        """
        per_vertex = 0
        for j in range(1, self.n + 1):
            mx = 0
            for i in self.vertex_pairs[j]:
                if deficit[i] > mx:
                    mx = deficit[i]
            per_vertex += mx
        slots = sum(deficit)
        return max(per_vertex, -(-4 * slots // self.n))

    def _canonical(self, chosen):
        """True iff no vertex relabeling makes the sorted block list smaller.

        ``chosen`` holds block indices in nondecreasing order, and the block
        list is sorted by the (total size, a, b) key, so a list's sorted key
        list is its index list: comparing the sorted image indices with
        ``chosen`` compares the relabeled block lists.  Prefixes of canonical
        solutions are canonical under this form, so pruning non-canonical
        partial lists keeps the search complete.
        """
        for pm in self.perm_maps:
            if sorted([pm[i] for i in chosen]) < chosen:
                return False
        return True

    def _dfs(self, start, deficit, rem, chosen):
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise BudgetExhausted(
                f"node limit {self.budget.node_limit} hit", nodes=self.nodes)
        if not any(deficit):
            return list(chosen)
        if self._remaining_need(deficit) > rem:
            return None
        for bi in range(start, len(self.blocks)):
            size = self.sizes[bi]
            if size > rem:
                continue
            touched = [p for p in self.block_pairs[bi] if deficit[p] > 0]
            if not touched:
                continue  # a useless block never appears in a minimum covering
            chosen.append(bi)
            if self._canonical(chosen):
                for p in touched:
                    deficit[p] -= 1
                found = self._dfs(bi, deficit, rem - size, chosen)
                for p in touched:
                    deficit[p] += 1
                if found is not None:
                    chosen.pop()
                    return found
            chosen.pop()
        return None

    def run(self):
        """Iterative deepening from capacity 0: the first feasible level is the minimum.

        Levels below the elementary counting bounds die at their root node,
        so the returned value is settled by completed searches alone; the
        closed-form lower bounds stay an independent cross-check.
        """
        for cap in range(self.budget.max_capacity + 1):
            try:
                found = self._dfs(0, [self.lam] * len(self.pairs), cap, [])
            except BudgetExhausted as e:
                e.lower = cap
                raise
            if found is not None:
                return cap, [self.blocks[i] for i in found]
        raise BudgetExhausted(
            f"no covering within capacity {self.budget.max_capacity}",
            lower=self.budget.max_capacity + 1, nodes=self.nodes)


def exact_cap(n, lam, budget=SearchBudget()):
    """Exact minimum capacity of a bipartite covering of K_n^lam, with witness.

    Iterative deepening on total capacity from zero: the first capacity
    admitting a covering is the minimum, and every smaller capacity is
    refuted by a completed search.  Within one capacity level the search
    visits block multisets in the fixed block order, pruning non-canonical
    vertex relabelings, so the returned witness is the deterministic
    canonical optimum.  Raises BudgetExhausted (carrying the proven
    bracket) when the budget runs out.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if lam < 1:
        raise DomainError(f"need lam >= 1, got {lam}")
    if n == 1:
        return 0, Covering(1, ())
    search = _CapSearch(n, lam, budget)
    value, blocks = search.run()
    witness = Covering(n, [BipartiteBlock(a, b) for a, b in blocks])
    return value, witness

