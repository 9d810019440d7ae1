"""Block-size-independent ("cache-oblivious") linear order.

The order is built by one depth-first walk over pieces.  The pieces
of level 0 are the blocks of the aware layout (top-level clustering plus
budget recursion) at a power-of-two block size near sqrt(N).  A piece of
more than seven nodes is split by one step, :func:`_sub_pieces`: the
budget recursion alone, at a budget near the square root of its own
size, makes the pieces of the next level, and each of those is refined
in turn before the next one starts, as in the recursive van Emde Boas
layout.  Pieces are connected and kept in preorder, so a piece's
subtree sizes follow from depths alone, and a piece of at most seven
nodes is final: it has at most two nodes or budget 2, under which a
child's share ``(2 - 1) * w(child) / w(parent)`` is below 1 and every
block is one node in preorder.  Every piece of a perfect tree is a
perfect subtree, whose refinement depends on its size alone: the walk
runs once per piece size, on a perfect tree of that size, and each piece
of that size takes its final order out of its preorder list in one
gather.  The final pieces, concatenated in the order the walk reaches
them, are the order.  The walk's stack is as deep as the number of
levels, about lg lg N.

:func:`refinement_levels` refines round by round with the same step, on
every tree, perfect ones included: each round splits every piece of
more than two nodes of the round before, and keeps the others whole,
until none is left.  A piece of 3-7 nodes splits at budget 2 into its
single nodes, so the last round is the order.

Halving the exponent at every level splits pieces at roughly half their
height, so a root-to-node path stays inside few pieces of any given
scale; since every level's pieces occupy consecutive runs of the final
order, an aligned size-B slice overlaps few pieces of the scale just
above B, for every B at once.  (Refining by plain halving of the block
size instead would shave one level per round and degenerate to a
breadth-first order, whose deep-path cost grows with N; see the
measured ratio checks in the test suite.)  Runs in O(N lg lg N).
"""
from __future__ import annotations

from array import array
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter

from .aware import _budget_partition, layout_aware
from .tree import TreeError, TreeTopology, _field, gen_perfect

__all__ = [
    "LinearOrder",
    "layout_oblivious",
    "refinement_levels",
    "block_ids",
    "order_to_json",
    "order_from_json",
]


def _slot_table(seq) -> array:
    """The slot of each node of ``seq``, a tuple or list of node ids and
    None padding, in one checking pass: every entry is an int id or None
    (bools are not ids), and each node ``0..n-1`` is in one slot."""
    # one pass in C, and a count of padding only if there is some
    types = set(map(type, seq))
    if not types <= {int, type(None)}:
        raise TreeError("order entries must be node ids or null")
    n = len(seq) - seq.count(None) if type(None) in types else len(seq)
    pos = array("i", [-1]) * n
    for i, x in enumerate(seq):
        if x is not None:
            if not 0 <= x < n or pos[x] >= 0:
                raise TreeError("order is not a permutation of 0..%d"
                                % (n - 1))
            pos[x] = i
    return pos


class LinearOrder:
    """Storage order of a tree's nodes.

    ``order[i]`` is the node in slot ``i``, or None for an empty padding
    slot (see ``padded_order``); ``slots`` is its length.
    ``position[x]``, the slot of node x, is a packed ``array('i')``, 4
    bytes a node.  Orders from :func:`layout_oblivious` have no padding
    and put the root first.

    An order keeps the table it was built from and derives the other on
    first read, as ``BlockAssignment.block_of`` is derived:
    ``LinearOrder(order)`` keeps ``order``, and deriving ``position``
    raises TreeError unless each node ``0..n-1`` is in one slot; an
    order file is read down to ``position`` and ``slots`` (see
    :func:`order_from_json`), and ``order`` is built from them.
    """

    def __init__(self, order):
        # a tuple is kept as it is, not copied
        self.order = tuple(order)

    @classmethod
    def _of_slots(cls, position: array, slots: int) -> LinearOrder:
        """The order of ``slots`` slots whose node x sits in slot
        ``position[x]``, a table :func:`_slot_table` built and checked."""
        self = cls.__new__(cls)
        self.position, self.slots = position, slots
        return self

    @cached_property
    def order(self) -> tuple:
        order = [None] * self.slots
        for x, p in enumerate(self.position):
            order[p] = x
        return tuple(order)

    @cached_property
    def position(self) -> array:
        return _slot_table(self.order)

    @cached_property
    def slots(self) -> int:
        return len(self.order)

    @property
    def n(self) -> int:
        return len(self.position)


def _piece_budget(size: int) -> int:
    """Power-of-two budget near sqrt(size); in [2, size) for size >= 3,
    the only sizes :func:`_sub_pieces` splits, and 2 below."""
    return 1 << max(1, size.bit_length() // 2)


# a piece of at most this many nodes has at most two nodes or budget 2,
# and its preorder is its final order
_FINAL = 7


def _sub_pieces(tree: TreeTopology, P, free, w, below) -> list:
    """The engine's sub-pieces of ``P``, a connected piece of more than
    two nodes in preorder, at ``_piece_budget(len(P))``, in preorder.
    ``free`` (1 marks a node blocks may grow into), ``w`` and ``below``
    are the caller's scratch tables, one entry a node or depth; the
    split leaves ``free`` and ``below`` all 0.
    """
    depth = tree.depth
    # free the piece, which the split places again, and size it by
    # depth: it is connected and in preorder, so in reverse a node's
    # parent is the next node one level up; below[d] sums the sizes met
    # at depth d since the last node at depth d - 1
    for x in reversed(P):
        free[x] = 1
        d = depth[x]
        s = below[d + 1] + 1
        below[d + 1] = 0
        w[x] = s
        below[d] += s
    below[depth[P[0]]] = 0          # the root's, which no parent takes
    sub: list = []
    _budget_partition(tree.left, tree.right, depth, w, P[0],
                      _piece_budget(len(P)), sub, free)
    return sub


def _split(tree: TreeTopology, pieces) -> list:
    """The final pieces of the refinement of ``pieces``, pieces of level
    0 of ``tree``, concatenated in order.  Pieces list their nodes in
    preorder, root first.

    ``stack[k]`` iterates over the pieces of level k still to refine
    under one piece of level k - 1.  A final piece goes to ``order`` in
    its parent's loop; a larger one is split by :func:`_sub_pieces`,
    and its sub-pieces are refined before its next sibling.  The loop
    makes no closure, so it leaves nothing for the cyclic collector.
    """
    free, w = bytearray(tree.n), [0] * tree.n
    below = [0] * (tree.height + 2)
    order: list = []
    stack = [iter(pieces)]
    while stack:
        for P in stack[-1]:
            if len(P) <= _FINAL:
                order += P
                continue
            stack.append(iter(_sub_pieces(tree, P, free, w, below)))
            break
        else:
            stack.pop()
    return order


@cache
def _perfect_piece(size: int) -> itemgetter:
    """A getter that picks the final order of a piece of a perfect tree
    of ``size`` > 7 nodes out of the piece's preorder list.

    Such a piece is a perfect subtree, and the refinement depends on its
    shape alone, so :func:`_split` refines a perfect tree of that size,
    taken whole as one piece, and each node of its result is named by
    its slot in that tree's preorder.
    """
    t = gen_perfect(size.bit_length() - 1)
    P = list(t.preorder())
    rank = [0] * size
    for i, x in enumerate(P):
        rank[x] = i
    return itemgetter(*[rank[x] for x in _split(t, [P])])


def layout_oblivious(tree: TreeTopology) -> LinearOrder:
    """Single linear order serving every block size at once."""
    top = layout_aware(tree, _piece_budget(tree.n)).blocks
    if tree.n != (2 << tree.height) - 1:
        return LinearOrder(_split(tree, top))
    # every piece of a perfect tree is a perfect subtree, in preorder
    # one tuple, built from the pieces with no list beside it
    return LinearOrder(chain.from_iterable(
        P if len(P) <= _FINAL else _perfect_piece(len(P))(P) for P in top))


def refinement_levels(tree: TreeTopology) -> list:
    """Partitions from coarsest to finest, one per refinement round,
    down to pieces of at most two nodes.

    Round 0 is the level-0 pieces; each later round splits every piece
    of more than two nodes of the round before with
    :func:`_sub_pieces`, and keeps the others whole.  Verification hook:
    every partition covers all nodes, its blocks are contiguous in the
    final order, and each block nests inside one block of the round
    before.  A piece of 3-7 nodes has budget 2, at which the engine
    makes single nodes in preorder, so the last round is the order
    :func:`_split` walks to; it runs the engine on a perfect tree too,
    against which tests hold the orders :func:`_perfect_piece` caches.
    """
    pieces = layout_aware(tree, _piece_budget(tree.n)).blocks
    free, w = bytearray(tree.n), [0] * tree.n
    below = [0] * (tree.height + 2)
    rounds = [pieces]
    while any(len(P) > 2 for P in pieces):
        pieces = [Q for P in pieces
                  for Q in ([P] if len(P) <= 2
                            else _sub_pieces(tree, P, free, w, below))]
        rounds.append(pieces)
    return rounds


def block_ids(order: LinearOrder, B: int, offset: int = 0) -> list:
    """Per-node block ids of an order cut into aligned size-B slices: the
    node in slot p lands in block ``(p + offset) // B``.  Offset 0 is the
    canonical alignment; other offsets model unknown alignment of the
    storage start.

    This is the reference definition of an order's blocks:
    ``cost_report(tree, block_ids(order, B, offset))`` is what
    ``order_report`` computes at offset 0 and ``worst_by_offset`` at every
    offset, without the list."""
    if B < 1:
        raise TreeError("B must be positive")
    if not 0 <= offset < B:
        raise TreeError("offset must lie in [0, B)")
    return [(p + offset) // B for p in order.position]


def order_to_json(order: LinearOrder) -> dict:
    """The order file, ``{"order": [node | null, ...]}``, written as it
    is: :func:`order_from_json` checks it on reading."""
    return {"order": list(order.order)}


def order_from_json(obj, n: int) -> LinearOrder:
    """Read ``{"order": [node | null, ...]}`` for a tree of ``n`` nodes:
    each of ``0..n-1`` exactly once, padding allowed anywhere.  ``obj``
    is left unchanged.  The order keeps only its slot table and slot
    count (see :class:`LinearOrder`)."""
    order = _read_order(dict(obj) if type(obj) is dict else obj)
    _check_nodes(order, n)
    return order


def _read_order(obj) -> LinearOrder:
    """``order_from_json`` for no tree in particular, taking the order
    list out of ``obj``: the list, and its ints, go once the slot table
    is built from it."""
    seq = _field(obj, "order", "order")
    if type(seq) is not list:
        raise TreeError("order must be a list of node ids and nulls")
    del obj["order"]
    return LinearOrder._of_slots(_slot_table(seq), len(seq))


def _check_nodes(order: LinearOrder, n: int) -> None:
    """Raise TreeError unless ``order`` holds ``n`` nodes."""
    if order.n != n:
        raise TreeError("order holds %d nodes, the tree %d" % (order.n, n))
