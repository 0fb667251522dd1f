"""Exhaustive branch-and-bound search on tiny instances.

``exact_cap`` finds the true minimum capacity of a bipartite covering of
K_n^lam by iterative deepening on capacity.  It is a ground-truth oracle
for the constructive routines, so completeness of the search matters more
than speed; budgets make runaway instances fail loudly instead of hanging.
Deepening starts at the larger of the pair-slot bound and Hansel's integer
bound, the paper's inequality sum 2^(-l_i)/alpha_i <= 1 at alpha_i = 1.
Each candidate child is first held to two counting bounds on the capacity
it still needs, per vertex and per pair slot, read off its parent's
deficit; only a child that passes pays for the symmetry test.
Up to ``_PERM_LIMIT`` vertices the search keeps only canonical block lists
under vertex relabeling.  Each node carries, per relabeling, where its
relabeled list first differs from its own, so a child's test reads one
column of images and re-sorts only on a tie; the relabeling maps come from
subset-mask tables.  Every table that depends on n alone comes from one
builder (``_table``), which ``exact_values`` calls once for all the lam it
is asked about, and a node walks only the blocks whose least slot waste
fits its slack.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from math import comb
from typing import NamedTuple

import numpy as np

from .covering import Covering, from_words
from .errors import BudgetExhausted, DomainError

# Full vertex-permutation canonicity checks stop paying for themselves
# beyond this many vertices: at n = 7 the block-index maps would be
# 5039 x 966 entries, held as rows and as columns, and every DFS step would
# compare 5039 images.  Above it only block ordering breaks symmetry.
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
    by_size = [[] for _ in range(n + 1)]
    for la in range(1, n):
        for a in combinations(verts, la):
            rest = [v for v in verts if v not in a]
            for lb in range(la, len(rest) + 1):
                by_size[la + lb].extend((a, b) for b in combinations(rest, lb)
                                        if lb > la or b > a)
    return [ab for group in by_size for ab in sorted(group)]


def _mask(side):
    return sum(1 << v for v in side)


class _Table(NamedTuple):
    """The tables a search at one n reads: everything that depends on n alone."""
    n: int
    q: int  # most pairs a block on all n vertices separates
    blocks: list  # (a, b) per block, in ``_all_blocks`` order
    sizes: list
    sides: list  # (mask of a, mask of b) per block, bit v for vertex v
    pairs: list
    block_pairs: list  # per block, the indices of the pairs it separates
    pair_masks: list
    # (waste, block indices) per waste value, in ascending waste, where a
    # block's waste is q * size - n * (pairs it separates): the least slot
    # slack it uses up.  Each group is in index order, so its sizes do not
    # decrease.
    by_waste: list
    perm_maps: list  # perm_maps[g][x]: x's image under relabeling g
    cols: list  # cols[x][g]: the same, by block


def _table(n):
    """The tables a search at n reads, built for each search."""
    blocks = _all_blocks(n)
    sizes = [len(a) + len(b) for a, b in blocks]
    pairs = list(combinations(range(1, n + 1), 2))
    pair_idx = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(pairs):
        pair_idx[u][v] = pair_idx[v][u] = i
    # Tuples: a list comprehension's list keeps spare slots, one per block.
    block_pairs = [tuple([pair_idx[u][v] for u in a for v in b])
                   for a, b in blocks]
    q = n * n // 4
    groups = {}
    for bi, (size, ps) in enumerate(zip(sizes, block_pairs)):
        groups.setdefault(q * size - n * len(ps), []).append(bi)
    # One mask object per subset, shared by every block with that side.
    masks = {side: _mask(side) for k in range(1, n)
             for side in combinations(range(1, n + 1), k)}
    sides = [(masks[a], masks[b]) for a, b in blocks]
    maps = (_perm_maps(n, sides) if n <= _PERM_LIMIT
            else np.zeros((0, len(blocks)), dtype=np.intp))
    return _Table(
        n=n, q=q, blocks=blocks, sizes=sizes, sides=sides, pairs=pairs,
        block_pairs=block_pairs,
        pair_masks=[sum(1 << p for p in ps) for ps in block_pairs],
        by_waste=sorted(groups.items()),
        perm_maps=maps.tolist(), cols=maps.T.tolist())


def _perm_maps(n, sides):
    """Each vertex relabeling but the identity, as a row mapping block
    index -> image block index.

    Subsets of 1..n are bit masks, ranked in the (size, sorted tuple)
    order that orients a block: the side of lower rank is its left.  One
    numpy pass maps every mask under every relabeling, and a block's image
    is then one lookup at the (lower, higher) ranks of its two sides'
    images.  ``sides`` holds each block's side masks, bit v for vertex v.
    The relabelings come in ``itertools.permutations`` order.
    """
    full = 1 << n
    order = sorted(range(1, full), key=lambda s: (s.bit_count(), [
        v for v in range(n) if s >> v & 1]))
    rank = np.zeros(full, dtype=np.intp)
    rank[order] = np.arange(len(order))
    sides = np.array(sides, dtype=np.intp).reshape(-1, 2) >> 1
    index = np.full((full, full), -1, dtype=np.intp)
    index[rank[sides[:, 0]], rank[sides[:, 1]]] = np.arange(len(sides))
    perms = np.array(list(islice(permutations(range(n)), 1, None)),
                     dtype=np.intp).reshape(-1, n)
    bits = (np.arange(full)[:, None] >> np.arange(n)) & 1
    image = rank[(bits[None, :, :] << perms[:, None, :]).sum(axis=2)]
    left, right = image[:, sides[:, 0]], image[:, sides[:, 1]]
    return index[np.minimum(left, right), np.maximum(left, right)]


def _root_need(n, lam):
    """The capacity K_n^lam needs by the pair-slot bound, for n >= 2.

    lam * C(n, 2) pair slots, at most floor(n^2/4)/n of them per unit of
    capacity.  The per-vertex bound of the full deficit, n * lam, never
    exceeds this, so it is the root's bound.
    """
    return -(-n * lam * comb(n, 2) // (n * n // 4))


def _start(n, lam):
    """The capacity iterative deepening starts from, for n >= 2.

    The larger of the pair-slot bound and Hansel's bound over integer block
    counts.  The capacity is sum l_i over the vertices, vertex i lying in
    l_i blocks, and sum 2^(-l_i) <= 1 (the paper's inequality at
    alpha_i = 1); under it sum l_i is least when every l_i is k or k + 1,
    k = floor(log2 n), which gives n*k + 2*(n - 2^k).  Every covering
    of K_n^lam covers K_n, so the bound holds at every lam.
    """
    k = n.bit_length() - 1
    return max(_root_need(n, lam), n * k + 2 * (n - (1 << k)))


class _CapSearch:
    def __init__(self, n, lam, budget, table=None):
        """A search of K_n^lam; ``table``, when given, is ``_table(n)``,
        built once by a caller that searches several lam at one n."""
        if table is None:
            count = (3**n - 2**(n + 1) + 1) // 2  # blocks in the table
            if count > budget.node_limit:  # charged to the budget, refused unbuilt
                raise BudgetExhausted(f"{count} blocks exceed the node limit "
                                      f"{budget.node_limit}",
                                      lower=_start(n, lam), nodes=0)
            table = _table(n)
        self.table = table
        self.lam = lam
        self.budget = budget
        self.nodes = 0

    def _step(self, state, chosen):
        """The canonical-form state of ``chosen`` from its parent's, or None.

        ``chosen`` holds block indices in nondecreasing order, and the block
        list is sorted by the (total size, a, b) key, so a list's sorted key
        list is its index list: ``chosen`` is canonical iff, for every
        relabeling g, sorted(g(chosen)) >= chosen.  ``state`` holds, per g,
        the first position d where sorted(g(parent)) and the parent differ,
        or the parent's length k when they are equal; the root's is all
        zeros.  Appending x (the last entry of ``chosen``) inserts y = g(x)
        into g's image, and y is compared with c = chosen[d]: y < c makes
        the image smaller, so ``chosen`` is not canonical; y > c leaves d;
        y == c at d == k extends the equal prefix, and y == c at d < k ties,
        so only then is g's whole image re-sorted.  Prefixes of canonical
        lists are canonical, so pruning at the first non-canonical prefix
        keeps the search complete.
        """
        if not state:
            return state  # no relabelings: above _PERM_LIMIT
        k = len(chosen) - 1
        out = state[:]
        for g, (d, y) in enumerate(zip(state, self.table.cols[chosen[-1]])):
            c = chosen[d]
            if y > c:
                continue
            if y < c:
                return None
            if d == k:
                out[g] = k + 1
                continue
            pm = self.table.perm_maps[g]
            image = sorted([pm[i] for i in chosen])
            while d <= k and image[d] == chosen[d]:
                d += 1
            if d <= k and image[d] < chosen[d]:
                return None
            out[g] = d
        return out

    def _children(self, start, deficit, rem):
        """The blocks from ``start`` on that a child may append, in index order.

        A block is kept when it fits in ``rem``, covers a pair still short,
        and leaves a deficit that the capacity left after it can meet by
        both counting bounds.  Per vertex: a block containing j separates
        each pair at j at most once, so the child needs the sum over j of
        j's largest deficit.  Per pair slot: a block on s vertices separates
        at most floor(s^2/4) pairs, and floor(s^2/4)/s does not decrease in
        s, so capacity R covers at most R*q/n pair slots.  Both tests are
        read off the parent's deficit: a block covering t short pairs lowers
        the slot count by t, and lowers vertex j's largest deficit by one
        exactly when j is in the block and every pair at j that attains it
        crosses the block.  Only the waste groups within the slot slack are
        walked, each from ``start`` to its last block that fits in ``rem``.
        """
        tab = self.table
        n, q = tab.n, tab.q
        top = [0] * (n + 1)  # per vertex, its largest deficit
        crit = [0] * (n + 1)  # per vertex, the partners that attain it
        short = 0  # the pairs still short, as a mask
        for i, ((u, v), d) in enumerate(zip(tab.pairs, deficit)):
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
        # A block of size s that covers t short pairs leaves a child within
        # both bounds iff it lowers the per-vertex sum by at least
        # s - vertex_slack and q*s - n*t <= slot_slack.
        vertex_slack = rem - sum(top)
        slot_slack = q * rem - n * sum(deficit)
        sizes, pair_masks = tab.sizes, tab.pair_masks
        blocks, sides = tab.blocks, tab.sides
        out = []
        for waste, group in tab.by_waste:
            if waste > slot_slack:
                break  # the groups come in ascending waste
            for bi in group[bisect_left(group, start):
                            bisect_right(group, rem, key=sizes.__getitem__)]:
                size = sizes[bi]
                t = (pair_masks[bi] & short).bit_count()
                if not t:
                    continue  # a useless block never appears in a minimum covering
                if q * size - n * t > slot_slack:
                    continue
                if size > vertex_slack:
                    # A vertex with no deficit has every pair attain its 0,
                    # and only the star at it, which covers nothing, crosses
                    # them all.
                    a, b = blocks[bi]
                    am, bm = sides[bi]
                    drops = (sum(1 for j in a if not crit[j] & ~bm)
                             + sum(1 for j in b if not crit[j] & ~am))
                    if drops < size - vertex_slack:
                        continue
                out.append(bi)
        out.sort()
        return out

    def _dfs(self, start, deficit, rem, chosen, state):
        """A covering that extends ``chosen`` within capacity ``rem``, or None.

        Every node is entered with a deficit that ``rem`` meets by both
        counting bounds: a child's bounds are tested in its parent, by
        ``_children``, before the canonical-form step over every relabeling
        is paid for.
        """
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise BudgetExhausted(
                f"node limit {self.budget.node_limit} hit", nodes=self.nodes)
        if not any(deficit):
            return list(chosen)
        block_pairs, sizes = self.table.block_pairs, self.table.sizes
        for bi in self._children(start, deficit, rem):
            chosen.append(bi)
            child = self._step(state, chosen)
            if child is not None:
                touched = [p for p in block_pairs[bi] if deficit[p] > 0]
                for p in touched:
                    deficit[p] -= 1
                found = self._dfs(bi, deficit, rem - sizes[bi], chosen, child)
                for p in touched:
                    deficit[p] += 1
                if found is not None:
                    chosen.pop()
                    return found
            chosen.pop()
        return None

    def run(self):
        """Iterative deepening from ``_start``: the first feasible level is the minimum.

        Every level below ``_start`` is refuted by the pair-slot bound or
        by Hansel's bound alone, so deepening starts there; every later
        level the search passes is refuted by a completed search.  The
        returned value is settled by these counting bounds and searches
        alone; the closed-form lower bounds stay an independent
        cross-check.  When the capacity budget runs out, the bracket's
        lower end is the first level not refuted, never below ``_start``.
        """
        tab = self.table
        deficit = [self.lam] * len(tab.pairs)
        start = _start(tab.n, self.lam)
        for cap in range(start, self.budget.max_capacity + 1):
            try:
                found = self._dfs(0, deficit, cap, [], [0] * len(tab.perm_maps))
            except BudgetExhausted as e:
                e.lower = cap
                raise
            if found is not None:
                return cap, [tab.blocks[i] for i in found]
        raise BudgetExhausted(
            f"no covering within capacity {self.budget.max_capacity}",
            lower=max(start, self.budget.max_capacity + 1), nodes=self.nodes)


def _check_instance(n, lam):
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if lam < 1:
        raise DomainError(f"need lam >= 1, got {lam}")


def exact_cap(n, lam, budget=SearchBudget()):
    """Exact minimum capacity of a bipartite covering of K_n^lam, with witness.

    Iterative deepening on total capacity from the larger of the pair-slot
    bound and Hansel's integer bound n*k + 2*(n - 2^k), k = floor(log2 n):
    the first capacity admitting a covering is the minimum, and every
    smaller capacity is refuted by those bounds or by a completed
    search.  Within one capacity level the search
    visits block multisets in the fixed block order, pruning non-canonical
    vertex relabelings, so the returned witness is the deterministic
    canonical optimum.  Raises BudgetExhausted (carrying the proven
    bracket's lower end, never below the start bound) when the budget runs
    out.
    """
    _check_instance(n, lam)
    if n == 1:
        return 0, Covering(1, ())
    search = _CapSearch(n, lam, budget)
    value, blocks = search.run()
    words = np.zeros((2, n, len(blocks)), dtype=bool)  # defined, then bits
    for j, (a, b) in enumerate(blocks):
        words[:, [v - 1 for v in b], j] = words[0, [v - 1 for v in a], j] = True
    witness = from_words(*words)
    return value, witness


def exact_values(n, lams, budget=SearchBudget()):
    """``exact_cap``'s value of K_n^lam for each lam in ``lams``, None where
    the budget runs out.

    The tables of n are built once for every lam, each lam's search gets
    the whole budget, and no witness covering is built.
    """
    for lam in lams:
        _check_instance(n, lam)
    if n == 1:
        return [0 for _ in lams]
    table, out = None, []
    for lam in lams:
        try:
            search = _CapSearch(n, lam, budget, table)
            table = search.table
            out.append(search.run()[0])
        except BudgetExhausted:
            out.append(None)
    return out
