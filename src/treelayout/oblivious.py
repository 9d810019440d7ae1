"""Block-size-independent ("cache-oblivious") linear order.

The order is built by one depth-first walk over pieces.  The pieces
of level 0 are the blocks of the aware layout (top-level clustering plus
budget recursion) at a power-of-two block size near sqrt(N).  A piece of
more than seven nodes is split with the budget recursion alone, at a
budget near the square root of its own size, into the pieces of the next
level, and each of those is refined in turn before the next one starts,
as in the recursive van Emde Boas layout.  Pieces are connected and kept
in preorder, so a piece's subtree sizes follow from parent links alone,
and a piece of at most seven nodes is final: it has at most two nodes or
budget 2, under which a child's share
``(2 - 1) * w(child) / w(parent)`` is below 1 and every block is one
node in preorder.  Every piece of a perfect tree is a perfect subtree,
whose refinement depends on its size alone: the walk runs once per piece
size, on a perfect tree of that size, and each piece of that size takes
its final order out of its preorder list in one gather.
The final pieces, concatenated in the order the walk reaches them, are
the order.  The walk's stack is as deep as the number of levels, about
lg lg N.

:func:`refinement_levels` regroups the walk, run piece by piece on
every tree, perfect ones included, into rounds: round k holds every
piece made at level k, and every final piece of an earlier level, as
itself if it has at most two nodes, else as its single nodes.

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

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, islice
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


@dataclass
class LinearOrder:
    """Storage order of a tree's nodes.

    ``order[i]`` is the node in slot ``i``, or None for an empty padding
    slot (see ``padded_order``).  ``position[x]``, the slot of node x, is
    derived on first read, as ``BlockAssignment.block_of`` is, and raises
    TreeError unless each node ``0..n-1`` is in one slot.  Orders from
    :func:`layout_oblivious` have no padding and put the root first.

    The two tuples share one set of ints: the slot ``i < n`` in
    ``position`` is the very int that ``order`` holds for node ``i``, so
    only the slots of a padded order from ``n`` on are ints of their own.
    """

    order: tuple

    def __post_init__(self):
        # a tuple is kept as it is, not copied
        self.order = tuple(self.order)

    @cached_property
    def position(self) -> tuple:
        order = self.order
        # one pass in C: bools are not node ids
        if not set(map(type, order)) <= {int, type(None)}:
            raise TreeError("order entries must be node ids or null")
        n = len(order) - order.count(None)
        # ids[v] is the order's own int for node v, in node order
        ids = [None] * n
        for x in order:
            if x is not None:
                if not 0 <= x < n or ids[x] is not None:
                    raise TreeError("order is not a permutation of 0..%d"
                                    % (n - 1))
                ids[x] = x
        pos = [None] * n
        for x, i in zip(order, chain(ids, range(n, len(order)))):
            if x is not None:
                pos[x] = i
        del ids
        return tuple(pos)

    @property
    def n(self) -> int:
        return len(self.position)


def _piece_budget(size: int) -> int:
    """Power-of-two budget near sqrt(size); in [2, size) for size >= 3,
    the only sizes :func:`_split` splits, and 2 below."""
    return 1 << max(1, size.bit_length() // 2)


# a piece of at most this many nodes has at most two nodes or budget 2,
# and its preorder is its final order
_FINAL = 7


def _split(tree: TreeTopology, pieces, made=None) -> list:
    """The final pieces of the refinement of ``pieces``, pieces of level
    0 of ``tree``, concatenated in order.  When ``made`` is a list,
    append ``(level, piece)`` to it for every piece, depth first: each
    piece before its sub-pieces, sub-pieces in order.  Pieces list their
    nodes in preorder, root first.

    ``stack[k]`` iterates over the pieces of level k still to refine
    under one piece of level k - 1.  A final piece goes to ``order`` in
    its parent's loop; a larger one is sized and handed to the engine,
    and its sub-pieces are refined before its next sibling.  The loop
    makes no closure, so it leaves nothing for the cyclic collector.
    """
    # 1 marks a node of the piece being split: blocks grow only into those
    free = bytearray(tree.n)
    left, right, parent = tree.left, tree.right, tree.parent
    w = [0] * tree.n
    order: list = []
    stack = [iter(pieces)]
    while stack:
        for P in stack[-1]:
            if made is not None:
                made.append((len(stack) - 1, P))
            if len(P) <= _FINAL:
                order += P
                continue
            # free the piece, which the split places again, and size it
            # from parent links: it is connected and in preorder, so each
            # node but its root adds into a parent met later in reverse
            for x in P:
                w[x] = 1
                free[x] = 1
            for x in islice(reversed(P), len(P) - 1):
                w[parent[x]] += w[x]
            sub: list = []
            _budget_partition(left, right, parent, w, P[0],
                              _piece_budget(len(P)), sub, free)
            stack.append(iter(sub))
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
        return LinearOrder(tuple(_split(tree, top)))
    # every piece of a perfect tree is a perfect subtree, in preorder
    order: list = []
    for P in top:
        order += P if len(P) <= _FINAL else _perfect_piece(len(P))(P)
    return LinearOrder(tuple(order))


def refinement_levels(tree: TreeTopology) -> list:
    """Partitions from coarsest to finest, one per refinement round,
    down to pieces of at most two nodes.

    Round k holds the pieces made at level k, and every final piece of
    an earlier level: itself if it has at most two nodes, else its
    single nodes.  Verification hook: every partition covers all nodes,
    its blocks are contiguous in the final order, and each block nests
    inside one block of the round before.  Every piece is split by the
    engine, on a perfect tree too, so the last round is the engine's
    order, against which tests hold the orders :func:`_perfect_piece`
    caches.
    """
    made: list = []
    _split(tree, layout_aware(tree, _piece_budget(tree.n)).blocks, made)
    # a final piece of 3-7 nodes still splits one round after its own
    last = max(level + (len(P) > 2) for level, P in made
               if len(P) <= _FINAL)
    rounds = []
    for k in range(last + 1):
        part: list = []
        for level, P in made:
            if level == k or level < k and len(P) <= 2:
                part.append(P)
            elif level < k and len(P) <= _FINAL:
                part += [[x] for x in P]
        rounds.append(part)
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
    is left unchanged."""
    return _read_order(dict(obj) if type(obj) is dict else obj, n)


def _read_order(obj, n: int) -> LinearOrder:
    """``order_from_json(obj, n)``, taking the order list out of ``obj``
    so that the list goes as soon as its tuple exists, before
    ``LinearOrder`` sizes its positions."""
    seq = _field(obj, "order", "order")
    if type(seq) is not list:
        raise TreeError("order must be a list of node ids and nulls")
    del obj["order"]
    seq = tuple(seq)    # drops the list: obj no longer holds it
    order = LinearOrder(seq)
    if order.n != n:
        raise TreeError("order holds %d nodes, the tree %d" % (order.n, n))
    return order
