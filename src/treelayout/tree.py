"""Static binary-tree topologies, subtree weights, and tree generators.

Trees are immutable once built: node ids are dense integers ``0..n-1`` and
every structural query is an O(1) array lookup.  The generators cover the
shapes used by the benchmark harness: perfect trees, left-spine paths,
uniformly random shapes, and an adversarial branching-plus-paths family
that is expensive for any block layout.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from typing import Iterator, Optional, Sequence

__all__ = [
    "TreeError",
    "ResourceLimitError",
    "TreeTopology",
    "compute_weights",
    "gen_perfect",
    "gen_path",
    "gen_random",
    "gen_lower_bound",
    "iter_shapes",
    "shape_of",
    "shape_to_tree",
    "mirror_shape",
    "json_text",
    "read_json",
    "tree_to_json",
    "tree_from_json",
    "save_tree",
    "load_tree",
]


class TreeError(ValueError):
    """Raised for malformed tree structures or inputs."""


class ResourceLimitError(RuntimeError):
    """Raised when an operation would exceed its configured size guard."""


MAX_PERFECT_HEIGHT = 40

_CHILD_TYPES = {int, type(None)}


class TreeTopology:
    """Immutable rooted binary tree over dense node ids.

    Parameters
    ----------
    left, right:
        Per-node child ids, ``None`` where a child is absent.
    root:
        Id of the root node.

    Construction validates that the arrays describe a single connected
    tree: every child id is an ``int`` in ``0..n-1``, every non-root node
    has exactly one parent, and there are no cycles.  Parents, depths and
    preorder come out of the same single traversal from the root, which
    walks down left children in place and stacks only right children.
    """

    __slots__ = ("n", "root", "left", "right", "parent", "depth", "height",
                 "_pre")

    def __init__(self, left: Sequence[Optional[int]],
                 right: Sequence[Optional[int]], root: int = 0):
        left = tuple(left)
        right = tuple(right)
        n = len(left)
        if n == 0:
            raise TreeError("tree must have at least one node")
        if len(right) != n:
            raise TreeError("left/right arrays differ in length")
        if type(root) is not int or not 0 <= root < n:
            raise TreeError("root id out of range: %r" % (root,))
        # whole-list checks, each one pass in C
        if not set(map(type, left)).union(map(type, right)) <= _CHILD_TYPES:
            bad = next(c for c in left + right
                       if c is not None and type(c) is not int)
            raise TreeError("child id must be an integer, got %r" % (bad,))
        kids = set(left)
        kids.update(right)
        kids.discard(None)
        nkids = 2 * n - left.count(None) - right.count(None)
        if kids and (min(kids) < 0 or max(kids) >= n):
            bad = min(kids) if min(kids) < 0 else max(kids)
            raise TreeError("child id out of range: %r" % (bad,))
        if len(kids) != nkids:
            dup = next(c for c, k in Counter(left + right).items()
                       if k > 1 and c is not None)
            raise TreeError("duplicate child slot: node %d has two parents"
                            % dup)
        if nkids >= n:
            raise TreeError("cycle detected: every node has a parent")
        if nkids < n - 1:
            raise TreeError("disconnected node: %d parentless nodes"
                            % (n - nkids))
        if root in kids:
            raise TreeError("declared root %d is not the parentless node" % root)

        # every node but the root now has exactly one parent, so one DFS
        # from the root reaches each node at most once
        parent: list = [None] * n
        depth = [0] * n
        pre: list = []
        visit = pre.append
        stack: list = []
        pop = stack.pop
        push = stack.append
        x, d = root, 0
        while True:
            visit(x)
            d += 1                              # the children's depth
            c = right[x]
            if c is not None:
                parent[c] = x
                depth[c] = d
                push(c)
            c = left[x]
            if c is not None:
                parent[c] = x
                depth[c] = d
                x = c
            elif stack:
                x = pop()
                d = depth[x]
            else:
                break
        if len(pre) != n:
            # unreachable nodes all have parents here, so they sit on cycles
            raise TreeError("cycle detected: %d nodes unreachable from root"
                            % (n - len(pre)))

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "depth", tuple(depth))
        object.__setattr__(self, "height", max(depth))
        object.__setattr__(self, "_pre", tuple(pre))

    def __setattr__(self, name, value):
        raise AttributeError("TreeTopology is immutable")

    def preorder(self) -> tuple:
        """Node ids in preorder (parent before children, left first)."""
        return self._pre

    def __eq__(self, other):
        return (isinstance(other, TreeTopology)
                and self.root == other.root
                and self.left == other.left
                and self.right == other.right)

    def __hash__(self):
        return hash((self.root, self.left, self.right))

    def __repr__(self):
        return "TreeTopology(n=%d, root=%d, height=%d)" % (self.n, self.root, self.height)


def compute_weights(tree: TreeTopology) -> list:
    """Subtree size of every node; ``w[x] = 1 + w(left) + w(right)``.

    Missing children count as 0.  Returned list is treated as read-only.
    """
    w = [1] * tree.n
    parent = tree.parent
    for x in reversed(tree.preorder()):
        p = parent[x]
        if p is not None:
            w[p] += w[x]
    return w


# -- generators ---------------------------------------------------------


def gen_perfect(height: int) -> TreeTopology:
    """Perfect binary tree with all ``2**height`` leaves at depth ``height``."""
    if height < 0:
        raise TreeError("height must be nonnegative")
    if height > MAX_PERFECT_HEIGHT:
        raise ResourceLimitError("perfect-tree height %d exceeds guard %d"
                                 % (height, MAX_PERFECT_HEIGHT))
    n = (1 << (height + 1)) - 1
    left: list = [None] * n
    right: list = [None] * n
    limit = (n - 1) // 2
    for x in range(limit):
        left[x] = 2 * x + 1
        right[x] = 2 * x + 2
    return TreeTopology(left, right, 0)


def gen_path(n: int) -> TreeTopology:
    """Left-spine path: node ``i`` has single left child ``i+1``."""
    if n < 1:
        raise TreeError("n must be positive")
    left: list = [i + 1 for i in range(n - 1)] + [None]
    right: list = [None] * n
    return TreeTopology(left, right, 0)


def gen_random(n: int, seed: int) -> TreeTopology:
    """Uniformly random binary-tree shape on ``n`` nodes.

    Grows a random full binary tree one leaf at a time (each of the
    ``4k+2`` insertion positions equally likely, which makes all shapes
    equally likely), then strips the leaves so the internal nodes form the
    returned n-node tree.  Node ids are assigned in preorder by a walk
    that goes on into each left child in place and stacks only right
    children, each with its parent's new id.  Deterministic for a fixed
    ``(n, seed)``.
    """
    if n < 1:
        raise TreeError("n must be positive")
    rng = random.Random(seed)
    size = 2 * n + 1
    left = [None] * size
    right = [None] * size
    par: list = [None] * size
    root = 0  # lone leaf; leaves get even ids, internals odd ids
    for k in range(n):
        x = rng.randrange(4 * k + 2)
        j = x >> 1
        m = 2 * k + 1
        leaf = 2 * k + 2
        p = par[j]
        par[m] = p
        if p is None:
            root = m
        elif left[p] == j:
            left[p] = m
        else:
            right[p] = m
        if x & 1:
            left[m], right[m] = leaf, j
        else:
            left[m], right[m] = j, leaf
        par[j] = m
        par[leaf] = m

    # strip leaves (even ids), relabel internals in preorder; an internal
    # node always has two children.  The node with new id i is followed
    # by its left child when that is internal, else by the right child
    # last stacked, as (node, its parent's new id)
    out_left: list = [None] * n
    out_right: list = [None] * n
    stack: list = []
    x = root
    for i in range(n):
        c = right[x]
        if c & 1:
            stack.append((c, i))
        c = left[x]
        if c & 1:
            out_left[i] = i + 1
            x = c
        elif stack:
            x, p = stack.pop()
            out_right[p] = i + 1
    return TreeTopology(out_left, out_right, 0)


def gen_lower_bound(B: int, inv_p: int, target_n: int) -> TreeTopology:
    """Adversarial tree: branching bursts separated by long paths.

    One gadget is a perfect binary tree with ``inv_p`` leaves, each leaf
    extended by a path of ``L = max(1, round(B/inv_p))`` nodes; every path
    end roots a recursive copy.  A gadget has ``S = 2*inv_p - 1 + inv_p*L``
    nodes, which always exceeds ``B``, so any block layout pays at least
    one extra transfer per gadget level.  Complete gadgets are attached
    breadth-first left-to-right; a final partial gadget (a breadth-first
    prefix) lands the total node count on ``target_n`` exactly.

    Ids are plain arithmetic.  Gadget g holds ids ``[g*S, (g+1)*S)``, cut
    at ``target_n``; with ``base = g*S``:

    * its top ``2*inv_p - 1`` ids form a heap: ``base+k`` is a child of
      ``base+(k-1)//2``, the left one when k is odd;
    * every later id x is a path node, the left child of ``x - inv_p``;
    * its root (g >= 1) is the left child of path end ``g - 1``, where
      gadget j's path ends are its last ``inv_p`` ids and are numbered
      ``j*inv_p`` onward, left to right.
    """
    if B < 1:
        raise TreeError("B must be positive")
    if inv_p < 2 or inv_p & (inv_p - 1):
        raise TreeError("inv_p must be a power of two >= 2, got %r" % (inv_p,))
    L = max(1, round(Fraction(B, inv_p)))
    S = 2 * inv_p - 1 + inv_p * L
    if target_n < S:
        raise TreeError("target_n=%d smaller than one gadget (%d nodes)"
                        % (target_n, S))

    top = 2 * inv_p - 1
    left: list = [None] * target_n
    right: list = [None] * target_n
    for base in range(0, target_n, S):
        if base:
            # path end g - 1 is end (g - 1) % inv_p of gadget (g - 1) // inv_p
            j, i = divmod(base // S - 1, inv_p)
            left[(j + 1) * S - inv_p + i] = base
        end = min(base + S, target_n)
        for x in range(base + 1, min(base + top, end)):
            k = x - base
            (left if k & 1 else right)[base + (k - 1) // 2] = x
        for x in range(base + top, end):
            left[x - inv_p] = x
    return TreeTopology(left, right, 0)


# -- shape enumeration --------------------------------------------------

_SHAPE_MEMO: dict = {0: (None,)}


def _shapes(n: int) -> tuple:
    got = _SHAPE_MEMO.get(n)
    if got is not None:
        return got
    out = []
    for i in range(n):
        for l in _shapes(i):
            for r in _shapes(n - 1 - i):
                out.append((l, r))
    got = tuple(out)
    _SHAPE_MEMO[n] = got
    return got


def iter_shapes(n: int) -> Iterator:
    """All binary-tree shapes on ``n`` nodes as nested ``(left, right)``
    tuples (``None`` = empty), in a fixed deterministic order.  The count
    is the n-th Catalan number."""
    if n < 0:
        raise TreeError("n must be nonnegative")
    return iter(_shapes(n))


def mirror_shape(shape):
    """Left-right reflection of a shape tuple."""
    if shape is None:
        return None
    l, r = shape
    return (mirror_shape(r), mirror_shape(l))


def shape_to_tree(shape) -> TreeTopology:
    """Materialize a shape tuple as a topology with preorder ids."""
    if shape is None:
        raise TreeError("empty shape has no tree")
    left: list = []
    right: list = []
    stack = [(shape, None, "L")]
    while stack:
        s, parent, side = stack.pop()
        nid = len(left)
        left.append(None)
        right.append(None)
        if parent is not None:
            if side == "L":
                left[parent] = nid
            else:
                right[parent] = nid
        l, r = s
        if r is not None:
            stack.append((r, nid, "R"))
        if l is not None:
            stack.append((l, nid, "L"))
    return TreeTopology(left, right, 0)


def shape_of(tree: TreeTopology) -> tuple:
    """Shape tuple of a topology (inverse of :func:`shape_to_tree`)."""
    key: list = [None] * tree.n
    left, right = tree.left, tree.right
    for x in reversed(tree.preorder()):
        l, r = left[x], right[x]
        key[x] = (None if l is None else key[l],
                  None if r is None else key[r])
    return key[tree.root]


# -- serialization ------------------------------------------------------


TREE_FORMAT_VERSION = 2


def json_text(obj) -> str:
    """The one artifact encoding: compact, sorted keys, trailing newline.

    Without ``indent`` the ``json`` module encodes in C, several times
    faster than its pure-Python indenting encoder.
    """
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"


def read_json(path):
    """The one artifact reader: the parsed JSON file at ``path``.

    Malformed JSON, and JSON nested too deeply for the parser, raise
    ``TreeError`` like every other invalid input.
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise TreeError("%s: invalid json: %s" % (path, exc)) from None
        except RecursionError:
            raise TreeError("%s: json nested too deeply" % (path,)) from None


def tree_to_json(tree: TreeTopology) -> dict:
    """Columnar tree file: child id lists, ``None`` for an absent child."""
    return {
        "version": TREE_FORMAT_VERSION,
        "n": tree.n,
        "root": tree.root,
        "left": list(tree.left),
        "right": list(tree.right),
    }


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError:
        raise TreeError("tree json missing field: %r" % key) from None


def _node_list(obj: dict, key: str, n: int) -> list:
    seq = _field(obj, key)
    if type(seq) is not list:
        raise TreeError("tree json %r must be a list, got %s"
                        % (key, type(seq).__name__))
    if len(seq) != n:
        raise TreeError("tree json %r has %d entries, expected n=%d"
                        % (key, len(seq), n))
    return seq


def _legacy_children(nodes: list, n: int):
    """``left``/``right`` lists from one ``{"id", "left", "right"}`` record
    per node (the version-1 layout, which carries no version field)."""
    left: list = [None] * n
    right: list = [None] * n
    seen = [False] * n
    for rec in nodes:
        if type(rec) is not dict:
            raise TreeError("node record must be an object, got %r" % (rec,))
        x = rec.get("id")
        if type(x) is not int or not 0 <= x < n:
            raise TreeError("node id out of range: %r" % (x,))
        if seen[x]:
            raise TreeError("duplicate node id %d" % x)
        seen[x] = True
        left[x] = rec.get("left")
        right[x] = rec.get("right")
    return left, right


def tree_from_json(obj) -> TreeTopology:
    """Read a version-2 columnar tree, or a legacy one-record-per-node tree.

    Both go through the same :class:`TreeTopology` validation.
    """
    if type(obj) is not dict:
        raise TreeError("tree json must be an object, got %s"
                        % type(obj).__name__)
    n = _field(obj, "n")
    root = _field(obj, "root")
    if type(n) is not int or n < 1:
        raise TreeError("n must be a positive integer, got %r" % (n,))
    if type(root) is not int:
        raise TreeError("root must be an integer, got %r" % (root,))
    version = obj.get("version")
    if version is None:
        left, right = _legacy_children(_node_list(obj, "nodes", n), n)
    elif type(version) is int and version == TREE_FORMAT_VERSION:
        left = _node_list(obj, "left", n)
        right = _node_list(obj, "right", n)
    else:
        raise TreeError("unsupported tree file version %r" % (version,))
    return TreeTopology(left, right, root)


def save_tree(tree: TreeTopology, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(tree_to_json(tree)))


def load_tree(path) -> TreeTopology:
    return tree_from_json(read_json(path))
