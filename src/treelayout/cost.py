"""Transfer-cost model: simulator, piecewise bound, and a tiny-instance
optimal-layout oracle.

The cost of reaching a node is the number of distinct blocks met on the
root-to-node path (cold cache, downward walk: each block faults at most
once, so distinct-block counting is the transfer count).  One preorder
scan prices both kinds of layout: a node adds 1 to its parent's cost iff
no ancestor shares its block, and the scan tests that against the
current root path and the node that last opened each block.
``cost_report`` reads int block ids from a list or a dict, connected
blocks or not, in O(height + id range) memory; ``order_report`` reads
the aligned size-B slice ``p // B`` of the node in slot p of a linear
order, in O(height + slots / B).

``worst_by_offset`` prices a linear order under all B alignments of its
slots at once.  A node at slot p opens a new block exactly at the
offsets o with ``(p + o) mod B`` in ``[B - a, b)``, where b and a are
the distances to the nearest ancestor slot before and after p (B when
none lies within B - 1 slots).  So a node's costs over all offsets are
its parent's plus 1 on one cyclic run of offsets, and one depth-first
scan prices every alignment.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Optional, Sequence

from .tree import TreeError, ResourceLimitError, TreeTopology, compute_weights

# only solve_p and budget_along_path make a Fraction, and each imports
# it, so a command that makes none never loads fractions, decimal or
# numbers
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "CostReport",
    "path_cost",
    "cost_report",
    "order_report",
    "worst_by_offset",
    "theoretical_bound",
    "solve_p",
    "budget_along_path",
    "brute_force_optimal",
]


@dataclass
class CostReport:
    """Worst-case transfer counts per depth for one (tree, layout) pair.

    ``worst_exact[D]`` is the max cost over nodes at depth exactly D, any
    sequence of ints from depth 0 to the tree height inclusive; the
    report keeps it as given.  ``worst_cum[D]``, the max over depths
    <= D, is derived from it as a list.
    """

    worst_exact: Sequence[int]
    worst_cum: list = field(init=False)

    def __post_init__(self):
        self.worst_cum = _running_max(self.worst_exact)


def path_cost(block_of, tree: TreeTopology, node: int) -> int:
    """Distinct blocks on the root-to-``node`` path."""
    if not 0 <= node < tree.n:
        raise TreeError("node %r not in tree" % (node,))
    parent = tree.parent
    seen = set()
    x: Optional[int] = node
    while x is not None:
        seen.add(block_of[x])
        x = parent[x]
    return len(seen)


def _running_max(xs) -> list:
    """``list(accumulate(xs, max))`` without a ``max`` call per item, which
    takes about five times as long."""
    top = -math.inf
    return [(top := x) if x > top else top for x in xs]


def _scan(tree: TreeTopology, slot, B: int, top: list) -> CostReport:
    """Worst path cost per depth when node x sits in block ``slot[x] // B``.

    One preorder pass keeps the current root path: ``path[d]`` is its node
    at depth d and ``cost[d]`` that node's cost.  ``top[b]`` is the node
    that last opened block b, or -1 if none has.  x opens a new block iff
    no ancestor shares it, and then the shallowest such ancestor is
    ``top[b]`` (nothing under it can open b), so the test is whether
    y = ``top[b]`` lies on x's path: ``path[depth[y]] == y`` and
    ``depth[y] < depth[x]``.  No path slot holds -1.
    """
    depth, root = tree.depth, tree.root
    path = [0] * (tree.height + 1)
    # every cost is >= 1 and every depth up to the height holds a node
    cost = [1] * (tree.height + 1)
    worst = [1] * (tree.height + 1)
    top[slot[root] // B] = path[0] = root
    for x in islice(tree.preorder(), 1, None):
        d = depth[x]
        b = slot[x] // B
        y = top[b]
        e = depth[y]
        if path[e] == y and e < d:
            c = cost[d - 1]
        else:
            c = cost[d - 1] + 1
            top[b] = x
        path[d] = x
        cost[d] = c
        if c > worst[d]:
            worst[d] = c
    return CostReport(worst)


def cost_report(tree: TreeTopology, block_of) -> CostReport:
    """Worst-case path cost at every depth in one O(N) preorder scan.

    ``block_of`` maps each node to an int block id, as a list or a dict.
    A node opens a new block iff no ancestor shares its id, which the
    scan tests against the current root path and the node that last
    opened each id.  Ids may be negative (``phase2_layout`` leaves -1
    outside its subtree) and blocks may be scattered across the tree
    (aligned slices of a linear order).  Memory: O(height + id range),
    one list slot per int between the smallest and largest id.
    """
    ids = block_of.values() if isinstance(block_of, dict) else block_of
    lo, hi = min(ids), max(ids)
    # negative ids index the list's tail
    return _scan(tree, block_of, 1, [-1] * (max(hi, -1) + 1 + max(-lo, 0)))


def _check_order(tree: TreeTopology, order, B: int) -> None:
    if B < 1:
        raise TreeError("B must be positive")
    if order.n != tree.n:
        raise TreeError("order holds %d nodes, the tree %d"
                        % (order.n, tree.n))


def order_report(tree: TreeTopology, order, B: int) -> CostReport:
    """``cost_report`` of a linear order cut into aligned size-B slices.

    ``order`` is a ``LinearOrder`` of the tree's nodes; padding slots are
    allowed and any node may come first.  The result equals
    ``cost_report(tree, block_ids(order, B))``: the same root-path scan
    reads the node in slot p's slice as ``p // B``, so it builds no
    per-node block id list.  Memory: O(height + slots / B), one list slot
    per slice.
    """
    _check_order(tree, order, B)
    return _scan(tree, order.position, B,
                 [-1] * ((len(order.order) - 1) // B + 1))


# the most (depth, offset) cells worst_by_offset tabulates: at 1, 2 or 4
# bytes a cell (4 once a cost can pass 32,767) a table of up to 64 MB,
# built from per-depth ints of as many bytes again plus a header each
_OFFSET_CELL_BUDGET = 1 << 24


def worst_by_offset(tree: TreeTopology, order, B: int) -> list:
    """``worst_exact`` per depth under every alignment of a linear order.

    ``order`` is a ``LinearOrder`` of the tree's nodes; padding slots are
    allowed and any node may come first.  Returns B columns: column o
    lists, for D = 0..height, the ``worst_exact[D]`` of
    ``cost_report(tree, block_ids(order, B, o))``.  Each column is a read-only
    sequence of ints (a memoryview; ``tolist()`` copies it).

    One depth-first scan finds, for the node at slot p, the nearest
    ancestor slots before and after p with ``bytearray.rfind``/``find`` on
    a mask of the slots on the current root path; b and a are their
    distances, B when none lies within B - 1 slots.  The node opens a new
    block at exactly the offsets o with ``(p + o) mod B`` in ``[B - a, b)``,
    so its costs over all offsets are its parent's plus 1 on that cyclic
    run.  The B costs of a node are the k-bit fields of one int (k = 8,
    16, 32 or 64, whose top bit no cost reaches), so adding a run is one
    shift and one add, and each depth keeps its fieldwise maximum as one
    int too.

    Memory: the (height+1) x B table of k-bit cells, which becomes the
    result; O(N) ints and bytes for the subtree sizes, the mask and the
    root path; and the cost vectors of the ancestors whose other child is
    still to come.  The scan goes on into the lighter child in place and
    stacks the heavier one with its parent's costs, so at most lg N
    vectors are pending.  A table of more than ``_OFFSET_CELL_BUDGET``
    cells raises ResourceLimitError before anything is allocated.
    """
    _check_order(tree, order, B)
    if B * (tree.height + 1) > _OFFSET_CELL_BUDGET:
        raise ResourceLimitError(
            "pricing every offset at B=%d takes %d x %d cells, over the "
            "budget of %d" % (B, tree.height + 1, B, _OFFSET_CELL_BUDGET))
    pos, nslots, height = order.position, len(order.order), tree.height
    # no cost exceeds the path length or the number of slices met
    most = min(height + 1, nslots // B + 2)
    k = 8
    while most >> (k - 1):
        k *= 2
    k1, BK = k - 1, B * k
    full = (1 << BK) - 1
    ones = full // ((1 << k) - 1)               # 1 in every field
    high = ones << k1                           # every field's top bit
    left, right, depth = tree.left, tree.right, tree.depth
    w = compute_weights(tree)
    # mask[p + B] is 1 while the node in slot p is on the root path; the B
    # leading bytes keep every search window inside the array
    mask = bytearray(B + nslots)
    rfind, find = mask.rfind, mask.find
    # for the path node at depth d: path[d + 1] is its mask index and
    # top[d + 1] the largest mask index from the root down to it
    path = [-1] * (height + 2)
    top = [0] * (height + 2)
    last = 0                                    # 1 + depth of the path's end
    worst = [0] * (height + 1)
    stack: list = []                            # (node, parent's costs)
    pop, push = stack.pop, stack.append
    x, v = tree.root, 0
    while True:
        d = depth[x]
        while last > d:
            mask[path[last]] = 0
            last -= 1
        i = pos[x] + B
        if path[d] == i - 1:                    # the parent is the slot before
            b = 1
        else:
            q = rfind(1, i - B + 1, i)
            b = i - q if q >= 0 else B
        m = top[d]
        if m > i:
            q = find(1, i + 1, i + B)
            a = q - i if q >= 0 else B
        else:                                   # no ancestor after slot p
            a = B
            m = i
        run = a + b - B
        if run > 0:
            s = -(a + i) % B                    # (p + s) mod B == B - a
            v += (ones >> (BK - run * k)) << (s * k)
            if s + run > B:                     # wrap past offset B - 1
                v = (v & full) + (v >> BK)
        # fieldwise max(u, v): no field borrows from the next, and a top
        # bit that survives the subtraction marks u >= v in its field
        u = worst[d]
        diff = (u | high) - v
        ge = diff & high
        worst[d] = v + (diff & (ge - (ge >> k1)))
        last = d + 1
        path[last] = i
        top[last] = m
        mask[i] = 1
        l, r = left[x], right[x]
        if r is None:
            x = l
        elif l is None:
            x = r
        elif w[l] < w[r]:
            push((r, v))
            x = l
        else:
            push((l, v))
            x = r
        if x is None:
            if not stack:
                break
            x, v = pop()
    # rows go into one table as they are freed, so the ints and the table
    # never both hold all of it
    nb = BK // 8
    table = bytearray()
    for d in range(height + 1):
        table += worst[d].to_bytes(nb, sys.byteorder)
        worst[d] = None
    cells = memoryview(table).cast("BHIQ"[k.bit_length() - 4]).toreadonly()
    if sys.byteorder == "big":                  # rows hold the last field first
        return [cells[B - 1 - o::B] for o in range(B)]
    return [cells[o::B] for o in range(B)]


def theoretical_bound(N: int, D: int, B: int) -> float:
    """Piecewise worst-case transfer bound for a depth-D search.

    ``D / lg(1+B)`` while ``D <= lg N`` (B-tree regime),
    ``lg N / lg(1 + B lg N / D)`` while ``lg N <= D <= B lg N``,
    ``D / B`` beyond (scan regime).  Continuous across both boundaries;
    0 when D = 0.  When comparing against measured costs use
    ``max(value, 1)`` for D >= 1, since any nonempty walk costs a
    transfer.
    """
    if N < 1 or B < 1 or D < 0:
        raise TreeError("need N >= 1, B >= 1, D >= 0")
    if D == 0:
        return 0.0
    lgN = math.log2(N)
    if D <= lgN:
        return D / math.log2(1 + B)
    if D <= B * lgN:
        return lgN / math.log2(1 + B * lgN / D)
    return D / B


def solve_p(N: int, D: int, B: int) -> Fraction:
    """Solve ``u * lg u = B * lg N / (2 D)`` for ``u = 1/p``.

    Monotone bisection to relative tolerance 1e-9, with p clamped to
    ``[1/N, 1]``.  The result is exact: ``1 / p`` equals the bisection's
    float ``u``, so callers get bit-identical values for identical inputs.
    """
    from fractions import Fraction

    if D < 1:
        raise TreeError("D must be >= 1")
    if N < 1 or B < 1:
        raise TreeError("need N >= 1, B >= 1")
    R = B * math.log2(N) / (2.0 * D)
    hi = float(N)
    if N == 1 or hi * math.log2(hi) <= R:
        return Fraction(1, N)
    lo = 1.0
    while hi - lo > 1e-9 * lo:
        mid = (lo + hi) / 2.0
        if mid * math.log2(mid) < R:
            lo = mid
        else:
            hi = mid
    u = (lo + hi) / 2.0         # > 1: lo stays >= 1 and hi > 1
    return Fraction(1) / Fraction(u)


def budget_along_path(tree: TreeTopology, weights, B: int, path):
    """Budget sequence along a descending path, computed two ways.

    The step recurrence starts at ``m_0 = B`` and applies
    ``m_k = (m_{k-1} - 1) * w_k / w_{k-1}``; the closed form is
    ``p_k * (B - sum_{i<k} 1/p_i)`` with ``p_i = w_i / w_0``.  Returns
    ``(by_recurrence, by_closed_form)`` as lists of exact rationals; the
    two must be identical, which is exactly the algebra being tested.
    Budgets keep evolving past the point where they drop below 1.
    """
    from fractions import Fraction

    if not path:
        raise TreeError("path must be nonempty")
    parent = tree.parent
    for a, b in zip(path, path[1:]):
        if parent[b] != a:
            raise TreeError("not a parent-to-child path at (%r, %r)" % (a, b))
    w0 = weights[path[0]]

    m = Fraction(B)
    recur = [m]
    for prev, cur in zip(path, path[1:]):
        m = (m - 1) * weights[cur] / weights[prev]
        recur.append(m)

    closed = []
    T = Fraction(0)  # running sum of 1/p_i
    for x in path:
        pk = Fraction(weights[x], w0)
        closed.append(pk * (B - T))
        T += 1 / pk
    return recur, closed


# -- brute-force oracle -------------------------------------------------

_STATE_BUDGET = 10_000_000


def brute_force_optimal(tree: TreeTopology, B: int, D: int):
    """Exact minimum worst-case cost over *all* block partitions.

    Searches partitions of the node set into parts of size <= B (parts
    need not be connected; only the size cap is a model constraint),
    minimizing the max number of distinct parts met on root-to-node paths
    of length exactly D.  Returns ``(optimum, parts)`` with one witness
    partition covering every node.

    Only nodes that lie on some root-to-depth-D path influence the cost;
    the remaining nodes are packed into leftover space afterwards.  The
    search tries answers in increasing order and, for each, assigns the
    relevant nodes one at a time in preorder, backtracking chronologically
    (a dead end revisits the latest choice, whichever subtree it was made
    in) over first-use-canonical part choices, so the result is
    exhaustive-exact while visiting far fewer states; beyond
    ``_STATE_BUDGET`` visited states it raises ResourceLimitError.
    """
    n = tree.n
    if B < 1:
        raise TreeError("B must be positive")
    if not 0 <= D <= tree.height:
        raise TreeError("no nodes at depth %d (height %d)" % (D, tree.height))
    if n > 12:
        raise ResourceLimitError("brute force limited to 12 nodes, got %d" % n)

    depth, parent = tree.depth, tree.parent
    relevant = [False] * n
    for x in range(n):
        if depth[x] == D:
            y: Optional[int] = x
            while y is not None and not relevant[y]:
                relevant[y] = True
                y = parent[y]
    rnodes = [x for x in tree.preorder() if relevant[x]]

    # sizes/part_of are the assignment of rnodes[:i]; path[d] is the part
    # of rnodes[i]'s ancestor at depth d, and cnt/distinct/room describe
    # that path only (room = free slots in the parts met on it).  Parts
    # are made in order and undone in reverse, so none is ever empty.
    sizes: list = []
    cnt: list = []
    part_of: list = [-1] * n
    path: list = []
    distinct = room = visited = 0

    def join(j):
        nonlocal distinct, room
        cnt[j] += 1
        if cnt[j] == 1:
            distinct += 1
            room += B - sizes[j]

    def drop(j):
        nonlocal distinct, room
        cnt[j] -= 1
        if cnt[j] == 0:
            distinct -= 1
            room -= B - sizes[j]

    def solve(i, c) -> bool:
        nonlocal room, visited
        if i == len(rnodes):
            return True
        visited += 1
        if visited > _STATE_BUDGET:
            raise ResourceLimitError("brute-force state budget exceeded")
        x = rnodes[i]
        d = depth[x]
        # the previous node's path below x's parent is not x's path
        gone = path[d:]
        del path[d:]
        for j in gone:
            drop(j)
        nparts = len(sizes)
        onpath = [j for j in range(nparts) if cnt[j] and sizes[j] < B]
        offpath = [j for j in range(nparts) if not cnt[j] and sizes[j] < B]
        for j in onpath + [nparts] + offpath:
            if j == nparts:
                sizes.append(0)
                cnt.append(0)
            sizes[j] += 1
            if cnt[j]:
                room -= 1
            join(j)
            part_of[x] = j
            need = D - d - room
            if distinct <= c and (need <= 0
                                  or distinct + (need + B - 1) // B <= c):
                path.append(j)
                if solve(i + 1, c):
                    return True
                path.pop()
            drop(j)
            if cnt[j]:
                room += 1
            sizes[j] -= 1
            if j == nparts:
                sizes.pop()
                cnt.pop()
        for j in gone:
            join(j)
        path.extend(gone)
        return False

    lb = (D + 1 + B - 1) // B
    try:
        # c = D + 1 always admits singleton parts
        best = next(c for c in range(max(1, lb), D + 2) if solve(0, c))
    finally:
        # solve calls itself through its own closure cell; emptying the
        # cell breaks that cycle, so reference counting frees the search
        del solve

    # pack the nodes that sit on no depth-D path into leftover space
    for x in range(n):
        if relevant[x]:
            continue
        for j in range(len(sizes)):
            if sizes[j] < B:
                part_of[x] = j
                sizes[j] += 1
                break
        else:
            part_of[x] = len(sizes)
            sizes.append(1)
    parts: list = [[] for _ in range(len(sizes))]
    for x in range(n):
        parts[part_of[x]].append(x)
    return best, parts
