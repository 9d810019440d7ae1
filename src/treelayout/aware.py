"""Block-size-aware tree layout.

Two cooperating mechanisms produce blocks of at most B nodes:

* the top ``ceil(lg N)`` levels of the tree (capped at the height) are
  packed by whole levels: a block takes as many complete levels of its
  root's subtree as fit in B, never fewer than ``floor(lg(B+1))``, so that
  shallow queries behave like a B-tree search and narrow levels share a
  block;
* every remaining subtree is split by a budget recursion: its root block
  receives capacity ``A = B``, a node keeps ``A - 1`` for its children and
  hands each child a share proportional to the child's subtree weight,
  and a node joins the block exactly when its budget is still >= 1.
  Children that fall out of the block start fresh blocks with full
  capacity B.

Budgets are exact rationals.  The literal recursion is exposed as
:func:`k_set`; the production engine uses an equivalent reciprocal-sum
membership test (a node x with block root r is in r's block iff
``sum(1/w(y) for y on the r..x path) <= B / w(r)``) evaluated in floating
point against one error bound per piece, with an exact rational fallback
when a comparison is too close to call.  Decisions are therefore exact and
bit-reproducible while staying O(1) per node in the common case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Optional

from .tree import (MAX_NODES, ResourceLimitError, TreeError, TreeTopology,
                   _field, compute_weights)

__all__ = [
    "BlockAssignment",
    "k_set",
    "phase2_layout",
    "layout_aware",
    "exclusion_violations",
    "padded_order",
    "layout_to_json",
    "layout_from_json",
]

# twice the unit roundoff 2**-53, per term of a float sum; overestimating
# only costs extra exact fallbacks, never wrong answers
_U = 2.3e-16


@dataclass
class BlockAssignment:
    """Partition of (a region of) a tree of ``n`` nodes into blocks of at
    most B nodes.

    ``blocks[i]`` lists the members of block ``i`` with the block's
    topmost node first; block ids follow preorder of the block roots.
    Nodes strictly shallower than ``phase1_levels`` were clustered
    level-by-level, the rest split by the budget recursion (None for
    layouts read from disk).  ``block_of``, a cached property derived from
    ``blocks`` on first read, maps node id ``0..n-1`` -> block id, -1 for
    nodes outside the covered region.  It raises TreeError unless each
    block holds 1..B ints in ``0..n-1``, none twice.
    """

    B: int
    blocks: list
    n: int
    phase1_levels: Optional[int] = None

    @cached_property
    def block_of(self) -> list:
        B, n = self.B, self.n
        block_of = [-1] * n
        for i, mem in enumerate(self.blocks):
            if not mem:
                raise TreeError("block %d is empty" % i)
            if len(mem) > B:
                raise TreeError("block %d exceeds size B=%d" % (i, B))
            for v in mem:
                if type(v) is not int or not 0 <= v < n:
                    raise TreeError("node id out of range in layout: %r"
                                    % (v,))
                if block_of[v] != -1:
                    raise TreeError("node %d in two blocks" % v)
                block_of[v] = i
        return block_of


def k_set(tree: TreeTopology, x: int, A, weights) -> set:
    """Node set claimed for the block rooted at ``x`` by the budget
    recursion, evaluated literally with exact rationals.

    ``x`` keeps the budget ``A`` if ``A >= 1`` and passes
    ``(A - 1) * w(child) / w(x)`` to each child; a missing child absorbs
    nothing.  Returns the empty set when ``A < 1``.
    """
    # imported on use, as in cost.py: the layout commands make no Fraction
    from fractions import Fraction

    a0 = Fraction(A)
    out = set()
    left, right = tree.left, tree.right
    stack = [(x, a0)]
    while stack:
        y, a = stack.pop()
        if a < 1:
            continue
        out.add(y)
        rem = a - 1
        wy = weights[y]
        c = left[y]
        if c is not None:
            stack.append((c, rem * weights[c] / wy))
        c = right[y]
        if c is not None:
            stack.append((c, rem * weights[c] / wy))
    return out


def _exact_reciprocal_le(ws, B: int, wr: int) -> bool:
    """Exact test ``sum(1/w for w in ws) <= B / wr`` in integers."""
    num, den = 0, 1
    for w in ws:
        num, den = num * w + den, den * w
    return num * wr <= B * den


def _budget_partition(left, right, depth, w, root: int, B: int, blocks: list,
                      free: bytearray) -> None:
    """Split the piece rooted at ``root`` into budget-rule blocks.

    The piece is ``root`` plus every node reachable from it through
    children whose ``free`` entry is 1: blocks grow only into nodes still
    to place.  Appends member lists (preorder within the piece, root
    first) to ``blocks`` and clears the ``free`` entry of every node it
    places.  ``w`` must hold subtree sizes *within the piece*.  The whole
    piece is finished before returning, so block ids follow preorder of
    the block roots.

    The walk goes on into a placed node's left child with its state in
    local variables and stacks only the right child, as ``(node, block,
    S)``: the placed parent's member list and the reciprocal sum ``S``
    from that block's root r down to the parent.  Those m nodes are
    members, so ``m / w(r) <= S <= B / w(r)`` exactly and
    ``m <= min(B, w[root])``: the one tolerance ``k * (s2 + tgt)`` covers
    the rounding of an m-term ``S``, of the new term, of the target and of
    the margin.

    ``depth`` holds the tree's node depths.  A sum too close to call is
    decided exactly over the weights of the path from x up to r, which
    are read off ``mem``: it is in preorder and holds every ancestor of x
    up to r, and every member after an ancestor lies in that ancestor's
    subtree.  So, scanning ``mem`` backwards, the first member shallower
    than the last one taken is that one's parent.  The scan costs
    O(|block|) per fallback, and fallbacks are rare.
    """
    mem = [root]
    blocks.append(mem)
    free[root] = 0
    k = (min(B, w[root]) + 2) * _U
    stack: list = []
    push = stack.append
    pop = stack.pop
    # x is placed in block mem; s2 sums 1/w from the block's root down to x
    x = root
    s2 = 1.0 / w[root]
    tgt = B / w[root]
    while True:
        c = right[x]
        if c is not None and free[c]:
            push((c, mem, s2))
        c = left[x]
        if c is not None and free[c]:
            x, S = c, s2
        elif stack:
            x, mem, S = pop()
            tgt = B / w[mem[0]]
        else:
            return
        free[x] = 0
        wx = w[x]
        t = 1.0 / wx
        s2 = S + t
        margin = tgt - s2
        tol = k * (s2 + tgt)
        if margin > tol:
            include = True
        elif margin < -tol:
            include = False
        else:
            ws = [wx]
            e = depth[x]
            for y in reversed(mem):
                if depth[y] < e:
                    e = depth[y]
                    ws.append(w[y])
            include = _exact_reciprocal_le(ws, B, w[mem[0]])
        if include:
            mem.append(x)
        else:
            mem = [x]
            blocks.append(mem)
            s2 = t
            tgt = B / wx


def phase2_layout(tree: TreeTopology, root: int, B: int) -> BlockAssignment:
    """Lay out the subtree of ``root`` with the budget recursion alone.

    Block 0 is the node set of :func:`k_set` at ``(root, B)``; each child
    of an included node that fell outside restarts with full capacity B.
    ``block_of`` has an entry for every node of the tree.
    """
    if B < 1:
        raise TreeError("B must be positive")
    blocks: list = []
    _budget_partition(tree.left, tree.right, tree.depth,
                      compute_weights(tree), root, B, blocks,
                      bytearray(b"\1") * tree.n)
    return BlockAssignment(B, blocks, tree.n, tree.depth[root])


def layout_aware(tree: TreeTopology, B: int) -> BlockAssignment:
    """Full layout for a known block size: whole-level packing on the top
    ``ceil(lg2 N)`` levels (capped at the height), budget recursion below.

    A node above depth ``phase1_levels`` that does not fit in its parent's
    block starts a new one, which takes whole levels of the node's
    subtree, top down, while their total stays <= B, and stops at depth
    ``phase1_levels`` at the latest.  The first k levels of a binary
    subtree hold at most ``2**k - 1`` nodes, so every block spans at least
    ``floor(lg(B+1))`` levels, or reaches the subtree's last level or depth
    ``phase1_levels``: no root path meets more of these blocks than fixed
    strata of that height would give it.  On a perfect tree every level
    is complete, ``floor(lg(B+1))`` levels hold at most B nodes and one
    more level holds more, so the blocks are exactly those strata and the
    levels are not counted.  A block of the bottom stratum is then its
    root's whole subtree, a run of the preorder, and when the stratum has
    3 levels or more the walk takes each block as one run.  Elsewhere the
    counting visits a region node at most twice: once for its own block
    and once as the level that overflowed the block above.

    Each node at depth ``phase1_levels`` is a recursion root whose subtree
    :func:`_budget_partition` splits before the next node is visited, so
    block ids follow preorder of the block roots (root block first,
    children left to right).  The walk runs down the tree's preorder and
    skips each recursion root's subtree.  A node that joins its parent's
    block joins the last block met at the depth above: ``on_path[d]`` is
    the block of the preorder path's node at depth d.  Runs in O(N).
    """
    if B < 1:
        raise TreeError("B must be positive")
    # the least L with 2**L >= N
    L1 = min((tree.n - 1).bit_length(), tree.height + 1)
    # only phase 2, below depth L1, reads subtree sizes
    w = compute_weights(tree) if L1 <= tree.height else None
    left, right, depth = tree.left, tree.right, tree.depth

    blocks: list = []
    # every node below the recursion roots is still to place
    free = bytearray(b"\1") * tree.n
    on_path: list = [None] * L1
    # ends[d] is the depth where the block of the path's node at depth
    # d - 1 stops: a node at depth d < ends[d] joins it, on_path[d - 1].  A
    # block from depth d to e writes ends[d + 1..e]; until the walk leaves
    # it, every node that reaches those depths is its member, so no other
    # block overwrites them
    perfect = tree.n == (2 << tree.height) - 1
    # a node at depth cut or below is handed off whole with its subtree
    cut = L1
    if perfect:
        # every level is complete, so whole levels are fixed strata of
        # floor(lg(B+1)) levels, and no level needs counting
        stride = (B + 1).bit_length() - 1
        ends = [min((d - 1) // stride * stride + stride, L1)
                for d in range(L1 + 1)]
        # a root of the bottom stratum heads a block of its whole
        # subtree, itself and the next 2**(L1 - d) - 2 entries of the
        # preorder; taking them as one run pays from 3 levels on
        bottom = max(L1 - 1, 0) // stride * stride
        if L1 - bottom >= 3:
            cut = bottom
            run = (1 << (L1 - cut)) - 2
    else:
        ends = [0] * (L1 + 1)
    walk = iter(tree.preorder())
    for x in walk:
        d = depth[x]
        if d >= cut:
            if d < L1:
                blocks.append([x, *islice(walk, run)])
                continue
            _budget_partition(left, right, depth, w, x, B, blocks, free)
            # skip the rest of x's subtree, its next w[x] - 1 entries
            k = w[x] - 1
            next(islice(walk, k, k), None)
        elif d < ends[d]:
            mem = on_path[d] = on_path[d - 1]
            mem.append(x)
        else:
            mem = on_path[d] = [x]
            blocks.append(mem)
            if perfect:
                continue
            # take x's subtree level by level while the block stays
            # within B, up to depth L1
            e = d + 1
            level = [x]
            size = 1
            while e < L1:
                level = [c for y in level for c in (left[y], right[y])
                         if c is not None]
                size += len(level)
                if not level or size > B:
                    break
                e += 1
            ends[d + 1:e + 1] = [e] * (e - d)
    return BlockAssignment(B, blocks, tree.n, phase1_levels=L1)


def exclusion_violations(tree: TreeTopology, weights,
                         asg: BlockAssignment) -> int:
    """Count budget-rule block boundaries violating the depth bound.

    Whenever a block root y sits strictly below the recursion roots, the
    path index k of y from the enclosing block's root r must satisfy
    ``k > B * w(y)/w(r) - 1``, i.e. ``(k+1) * w(r) > B * w(y)``.  Returns
    the number of violations; the layout algorithm should produce none.
    """
    if asg.phase1_levels is None:
        raise TreeError("assignment lacks phase information")
    L1 = asg.phase1_levels
    depth, parent = tree.depth, tree.parent
    B = asg.B
    blocks, block_of = asg.blocks, asg.block_of
    bad = 0
    for mem in blocks:
        y = mem[0]
        if depth[y] <= L1:
            continue
        r = blocks[block_of[parent[y]]][0]
        k = depth[y] - depth[r]
        if not (k + 1) * weights[r] > B * weights[y]:
            bad += 1
    return bad


def padded_order(asg: BlockAssignment) -> list:
    """Aware layout as a linear order with aligned B-slot regions.

    Block i occupies slots ``[i*B, (i+1)*B)``; unused slots are None.
    Mapping a slot index s to block ``s // B`` reproduces ``block_of``
    exactly, which lets the block-assignment and linear-order cost paths
    cross-check each other.  An order of more than ``MAX_NODES`` slots
    raises ``ResourceLimitError`` before any of it is allocated.
    """
    B = asg.B
    size = len(asg.blocks) * B
    if size > MAX_NODES:
        raise ResourceLimitError(
            "a padded order of %d blocks at B=%d needs %d slots, over "
            "the limit of %d" % (len(asg.blocks), B, size, MAX_NODES))
    out: list = [None] * size
    for i, mem in enumerate(asg.blocks):
        out[i * B:i * B + len(mem)] = mem
    return out


def layout_to_json(asg: BlockAssignment) -> dict:
    return {"B": asg.B, "blocks": asg.blocks}


def layout_from_json(obj, n: Optional[int] = None) -> BlockAssignment:
    """Read ``{"B": int, "blocks": [[node, ...], ...]}`` for a tree of
    ``n`` nodes, by default as many as the blocks hold; every node must
    sit in exactly one block of 1..B nodes.  Other keys are ignored."""
    B = _field(obj, "B", "layout")
    blocks = _field(obj, "blocks", "layout")
    if type(B) is not int or B < 1:
        raise TreeError("B must be a positive integer")
    if type(blocks) is not list or not set(map(type, blocks)) <= {list}:
        raise TreeError("blocks must be a list of node-id lists")
    if n is None:
        n = sum(map(len, blocks))
    # the parsed lists become the blocks as they are; copying them would
    # hold two copies while the parsed object is still alive
    asg = BlockAssignment(B, blocks, n)
    if -1 in asg.block_of:
        raise TreeError("layout does not cover node %d"
                        % asg.block_of.index(-1))
    return asg
