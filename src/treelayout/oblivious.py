"""Block-size-independent ("cache-oblivious") linear order.

The order is built in rounds.  Round 0 is the aware layout (top-level
clustering plus budget recursion) at a power-of-two block size near
sqrt(N); each later round re-splits every piece of more than two nodes
with the budget recursion alone at the square root of that piece's own
size, until no piece has more than two nodes.  Pieces are connected and
kept in preorder; the last round's pieces, concatenated, are the order.
A piece of 3-7 nodes has budget 2, under which a child's share
``(2 - 1) * w(child) / w(parent)`` is below 1: such a piece splits into
single nodes in preorder, which a round writes down without running the
recursion.

Halving the exponent at every round splits pieces at roughly half their
height, so a root-to-node path stays inside few pieces of any given
scale; since every round's blocks occupy consecutive runs of the final
order, an aligned size-B slice overlaps few blocks of the scale just
above B, for every B at once.  (Refining by plain halving of the block
size instead would shave one level per round and degenerate to a
breadth-first order, whose deep-path cost grows with N; see the
measured ratio checks in the test suite.)  Runs in O(N lg lg N).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .aware import _budget_partition, layout_aware
from .tree import TreeError, TreeTopology

__all__ = [
    "LinearOrder",
    "layout_oblivious",
    "refinement_levels",
    "block_ids",
    "order_to_json",
    "order_from_json",
]


@dataclass
class LinearOrder:
    """Storage order of a tree's nodes.

    ``order[i]`` is the node in slot ``i``, or None for an empty padding
    slot (see ``padded_order``); ``position[x]`` is the slot of node x.
    Every node ``0..n-1`` appears exactly once.  Orders built by
    :func:`layout_oblivious` have no padding and put the root first.
    """

    order: tuple
    position: tuple = field(init=False)

    def __post_init__(self):
        order = tuple(self.order)
        object.__setattr__(self, "order", order)
        # one pass in C: bools are not node ids
        if not set(map(type, order)) <= {int, type(None)}:
            raise TreeError("order entries must be node ids or null")
        n = len(order) - order.count(None)
        pos = [-1] * n
        for i, x in enumerate(order):
            if x is not None:
                if not 0 <= x < n or pos[x] != -1:
                    raise TreeError("order is not a permutation of 0..%d"
                                    % (n - 1))
                pos[x] = i
        object.__setattr__(self, "position", tuple(pos))

    @property
    def n(self) -> int:
        return len(self.position)


def _piece_budget(size: int) -> int:
    """Power-of-two budget near sqrt(size); always in [2, size)."""
    return 1 << max(1, size.bit_length() // 2)


def _rounds(tree: TreeTopology):
    """Yield the partition of every refinement round, coarsest first,
    down to pieces of at most two nodes.  Pieces list their nodes in
    preorder, root first."""
    top = layout_aware(tree, _piece_budget(tree.n))
    pieces, block_of = top.blocks, top.block_of
    left, right, parent = tree.left, tree.right, tree.parent
    w = [0] * tree.n
    yield pieces
    while any(len(P) > 2 for P in pieces):
        finer: list = []
        for P in pieces:
            if len(P) <= 2:
                finer.append(P)
                continue
            B = _piece_budget(len(P))
            if B == 2:
                # a block root y hands each child c the budget
                # (2 - 1) * w(c) / w(y) < 1, as w(c) < w(y); so every
                # block is one node, emitted in preorder of the piece,
                # which is what _budget_partition would return.
                # The nodes keep their old block ids; later rounds only
                # ask whether a node is -1.
                finer += [[x] for x in P]
                continue
            # unassign the piece bottom-up, counting subtree sizes within
            # it; every other node holds a block id, so a child is in the
            # piece iff it is already unassigned
            for x in reversed(P):
                s = 1
                c = left[x]
                if c is not None and block_of[c] == -1:
                    s += w[c]
                c = right[x]
                if c is not None and block_of[c] == -1:
                    s += w[c]
                w[x] = s
                block_of[x] = -1
            _budget_partition(left, right, parent, w, P[0], B, finer,
                              block_of)
        pieces = finer
        yield pieces


def layout_oblivious(tree: TreeTopology) -> LinearOrder:
    """Single linear order serving every block size at once."""
    for pieces in _rounds(tree):
        pass
    return LinearOrder(tuple(x for P in pieces for x in P))


def refinement_levels(tree: TreeTopology) -> list:
    """Partitions from coarsest to finest, one per refinement round.

    Verification hook: every partition covers all nodes, its blocks are
    contiguous in the final order, and each block nests inside one block
    of the round before.
    """
    return list(_rounds(tree))


def block_ids(order: LinearOrder, B: int, offset: int = 0) -> list:
    """Per-node block ids of an order cut into aligned size-B slices: the
    node in slot p lands in block ``(p + offset) // B``.  Offset 0 is the
    canonical alignment; other offsets model unknown alignment of the
    storage start."""
    if B < 1:
        raise TreeError("B must be positive")
    if not 0 <= offset < B:
        raise TreeError("offset must lie in [0, B)")
    return [(p + offset) // B for p in order.position]


def order_to_json(order: LinearOrder) -> dict:
    return {"order": list(order.order)}


def order_from_json(obj, n: int) -> LinearOrder:
    """Read ``{"order": [node | null, ...]}`` for a tree of ``n`` nodes:
    each of ``0..n-1`` exactly once, padding allowed anywhere."""
    try:
        seq = obj["order"]
    except (TypeError, KeyError) as exc:
        raise TreeError("order json missing field: %s" % exc) from None
    if type(seq) is not list:
        raise TreeError("order must be a list of node ids and nulls")
    order = LinearOrder(seq)
    if order.n != n:
        raise TreeError("order holds %d nodes, the tree %d" % (order.n, n))
    return order
