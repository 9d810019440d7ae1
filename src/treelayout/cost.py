"""Transfer-cost model: simulator, piecewise bound, and a tiny-instance
optimal-layout oracle.

The cost of reaching a node is the number of distinct blocks met on the
root-to-node path (cold cache, downward walk: each block faults at most
once, so distinct-block counting is the transfer count).  The simulator
works for any per-node block id function, connected blocks or not.

``worst_by_offset`` prices a linear order under all B alignments of its
slots at once.  A node at slot p opens a new block exactly at the offsets
o with ``(p + o) mod B`` in ``[B - a, b)``, where b and a are the
distances to the nearest ancestor slot before and after p (B when none
lies within B - 1 slots).  So a node's costs over all offsets are its
parent's plus 1 on one cyclic run of offsets, and one depth-first scan
prices every alignment.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .tree import TreeError, ResourceLimitError, TreeTopology, compute_weights

__all__ = [
    "CostReport",
    "path_cost",
    "cost_report",
    "worst_by_offset",
    "theoretical_bound",
    "solve_p",
    "budget_along_path",
    "brute_force_optimal",
]


@dataclass
class CostReport:
    """Worst-case transfer counts per depth for one (tree, layout) pair.

    ``worst_exact[D]`` is the max cost over nodes at depth exactly D;
    ``worst_cum[D]`` the max over depths <= D.  Lists run from depth 0 to
    the tree height inclusive.
    """

    worst_exact: list
    worst_cum: list


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


def cost_report(tree: TreeTopology, block_of) -> CostReport:
    """Worst-case path cost at every depth in one O(N) preorder scan.

    A node opens a new block iff no ancestor shares its block id.  An
    earlier node y in preorder is an ancestor of the node at rank i iff
    ``i < rank(y) + w(y)``, so per block id it suffices to keep the
    largest subtree end seen so far.  That is correct for any hashable
    block ids, including blocks scattered across the tree (aligned
    slices of a linear order) and the ``-1`` that ``phase2_layout``
    leaves outside its subtree.
    """
    pre, parent, depth = tree.preorder(), tree.parent, tree.depth
    root = tree.root
    worst = [0] * (tree.height + 1)
    worst[0] = 1
    # subtree sizes, overwritten in preorder by path costs: w[x] is read
    # before x's own cost replaces it, and parents precede children
    cost = compute_weights(tree)
    cost[root] = 1
    end = {block_of[root]: tree.n}
    get = end.get
    for i in range(1, tree.n):
        x = pre[i]
        b = block_of[x]
        if i < get(b, 0):
            c = cost[parent[x]]
        else:
            c = cost[parent[x]] + 1
            end[b] = i + cost[x]
        cost[x] = c
        d = depth[x]
        if c > worst[d]:
            worst[d] = c
    return CostReport(worst_exact=worst,
                      worst_cum=list(accumulate(worst, max)))


def worst_by_offset(tree: TreeTopology, order, B: int) -> list:
    """``worst_exact`` per depth under every alignment of a linear order.

    ``order`` is a ``LinearOrder`` of the tree's nodes; padding slots are
    allowed and any node may come first.  Returns B columns: column o
    lists, for D = 0..height, the ``worst_exact[D]`` of
    ``cost_report(tree, block_ids(order, B, o))``.  Each column is a
    read-only sequence of ints (a memoryview; ``tolist()`` copies it).

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
    vectors are pending.
    """
    if B < 1:
        raise TreeError("B must be positive")
    if order.n != tree.n:
        raise TreeError("order holds %d nodes, the tree %d"
                        % (order.n, tree.n))
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
    ``[1/N, 1]``.  The result is an exact dyadic rational, so callers get
    bit-identical values for identical inputs.
    """
    if D < 1:
        raise TreeError("D must be >= 1")
    if N < 1 or B < 1:
        raise TreeError("need N >= 1, B >= 1")
    R = B * math.log2(N) / (2.0 * D)
    if R <= 0.0:
        return Fraction(1)
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
    u = (lo + hi) / 2.0
    if u <= 1.0:
        return Fraction(1)
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


def brute_force_optimal(tree: TreeTopology, B: int, D: int,
                        state_budget: int = 10_000_000):
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
    exhaustive-exact while visiting far fewer states; ``state_budget``
    caps the visited states (ResourceLimitError beyond).
    """
    n = tree.n
    if n > 12:
        raise ResourceLimitError("brute force limited to 12 nodes, got %d" % n)
    if B < 1:
        raise TreeError("B must be positive")
    if not 0 <= D <= tree.height:
        raise TreeError("no nodes at depth %d (height %d)" % (D, tree.height))

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
        if visited > state_budget:
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
    # c = D + 1 always admits singleton parts
    best = next(c for c in range(max(1, lb), D + 2) if solve(0, c))

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
