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
from array import array
from collections import Counter
from itertools import islice
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


# the most nodes a generator builds: gen_random's full tree has 2n + 1
# ids, which its int32 slot tables can index up to this n
MAX_NODES = 2**30 - 1

_CHILD_TYPES = {int, type(None)}


def _diagnose(left: tuple, right: tuple, root: int) -> None:
    """Raise the error that names what is wrong with child lists the
    construction walk rejected.

    Runs only after the walk has failed, so a valid tree never pays for
    these whole-list passes.  Returns only when every node but the root
    has exactly one parent; the nodes the walk missed then sit on cycles.
    """
    n = len(left)
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
    has exactly one parent, and there are no cycles.  One traversal from
    the root, which walks down left children in place and stacks only
    right children, both validates and derives parents, depths and
    preorder.  It stops at the first child id that is negative or names
    a node already reached (a second parent, or the root again), and an
    id of ``n`` or more or a non-integer fails to index.  It must reach
    all ``n`` nodes, and only ``int`` ids may land in the preorder (a
    ``bool`` indexes like one).  Only when the walk fails do the
    whole-list checks of ``_diagnose`` run, to name the error.
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

        # depth -1 marks a node not yet reached.  Depths are read from
        # the table nxt, whose entry k is the int k + 1, so the nodes of
        # one level share one int where adding 1 per visit would make one
        # per parent.  The table doubles when the walk reaches its end, so
        # it can run past the deepest level: h is the largest children's
        # depth met at a node without a left child, as the deepest leaf is
        parent: list = [None] * n
        depth = [-1] * n
        depth[root] = 0
        nxt: list = []
        deep = 0                                # len(nxt)
        h = 1
        pre: list = []
        visit = pre.append
        stack: list = []
        pop = stack.pop
        push = stack.append
        x, d = root, 0
        done = False
        try:
            while True:
                visit(x)
                if d == deep:                   # no depth is n or more
                    nxt += range(d + 1, min(2 * d + 2, n + 1))
                    deep = len(nxt)
                d = nxt[d]                      # the children's depth
                c = right[x]
                if c is not None:
                    if c < 0 or depth[c] >= 0:
                        break
                    parent[c] = x
                    depth[c] = d
                    push(c)
                c = left[x]
                if c is not None:
                    if c < 0 or depth[c] >= 0:
                        break
                    parent[c] = x
                    depth[c] = d
                    x = c
                else:
                    if d > h:
                        h = d
                    if stack:
                        x = pop()
                        d = depth[x]
                    else:
                        done = True
                        break
        except (IndexError, TypeError):
            pass                                # an id >= n, or a non-int
        # every child id of a reached node is in pre, so this one type
        # pass covers every id that matters
        if not done or len(pre) != n or set(map(type, pre)) != {int}:
            _diagnose(left, right, root)
            raise TreeError("cycle detected: %d nodes unreachable from root"
                            % (n - len(pre)))

        # each list goes as soon as its tuple exists, so at most one
        # list and its copy are alive at once; on a path the table is as
        # long as the lists
        del nxt
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "parent", tuple(parent))
        del parent
        object.__setattr__(self, "depth", tuple(depth))
        del depth
        object.__setattr__(self, "height", h - 1)
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
    # every node but the root, children before parents
    for x in islice(reversed(tree.preorder()), tree.n - 1):
        w[parent[x]] += w[x]
    return w


# -- generators ---------------------------------------------------------
#
# Each generator's child lists come from a private builder that returns
# ``(left, right)`` with root 0.  The public ``gen_*`` functions pass them
# through ``TreeTopology``'s validation; the CLI's ``gen`` writes them to
# a tree file as they are, with ``_tree_json``.


def _check_node_count(n: int) -> None:
    """Refuse a tree of more than ``MAX_NODES`` nodes, before any of it is
    allocated."""
    if n > MAX_NODES:
        raise ResourceLimitError("%d nodes exceed the limit of %d"
                                 % (n, MAX_NODES))


def gen_perfect(height: int) -> TreeTopology:
    """Perfect binary tree with all ``2**height`` leaves at depth ``height``."""
    return TreeTopology(*_build_perfect(height), 0)


def _build_perfect(height: int) -> tuple:
    """The child lists of ``gen_perfect(height)``, root 0."""
    if height < 0:
        raise TreeError("height must be nonnegative")
    # 2**(height + 1) - 1 nodes: the limit on them caps the height at 29
    if height >= MAX_NODES.bit_length():
        raise ResourceLimitError("perfect-tree height %d exceeds the limit "
                                 "of %d (at most %d nodes)"
                                 % (height, MAX_NODES.bit_length() - 1,
                                    MAX_NODES))
    n = (1 << (height + 1)) - 1
    # node x < n // 2 has children 2x + 1 and 2x + 2; the rest are leaves
    leaves = [None] * (n - n // 2)
    return [*range(1, n, 2), *leaves], [*range(2, n + 1, 2), *leaves]


def gen_path(n: int) -> TreeTopology:
    """Left-spine path: node ``i`` has single left child ``i+1``."""
    return TreeTopology(*_build_path(n), 0)


def _build_path(n: int) -> tuple:
    """The child lists of ``gen_path(n)``, root 0."""
    if n < 1:
        raise TreeError("n must be positive")
    _check_node_count(n)
    return [*range(1, n), None], [None] * n


def gen_random(n: int, seed: int) -> TreeTopology:
    """Uniformly random binary-tree shape on ``n`` nodes.

    Grows a random full binary tree one leaf at a time by Remy's
    algorithm (each of the ``4k+2`` insertion positions equally likely,
    which makes all shapes equally likely), then strips the leaves so the
    internal nodes form the returned n-node tree.  Node ids are in
    preorder.  Deterministic for a fixed ``(n, seed)``.
    """
    return TreeTopology(*_build_random(n, seed), 0)


def _build_random(n: int, seed: int) -> tuple:
    """The child lists of ``gen_random(n, seed)``, root 0.

    Each of Remy's insertion positions is drawn by the rejection loop of
    ``random.Random.randrange`` inlined, so the draws are the ones
    ``randrange(4k+2)`` makes, without its per-call argument checks;
    ``k`` runs over one power-of-two range at a time, in which
    ``(4k+2).bit_length()`` is fixed.

    The full tree's ``2n + 1`` ids are its leaves (even) and internal
    nodes (odd).  It is held in two tables: internal node ``m`` has its
    children at ``kids[m - 1]`` (left) and ``kids[m]`` (right),
    ``kids[2n]`` holds the root, and ``slot[v]`` is the index of ``kids``
    that holds node v.  Inserting internal node m with new leaf ``m + 1``
    above node j reads ``slot[j]`` and writes ``kids[slot[j]]`` and
    ``slot[j]``: one random read and two random writes, while the other
    writes go to ids m - 1 to m + 1.  Both tables are arrays of C ints:
    they hold no int objects, so a random write moves no refcount of a
    randomly placed int, and an id takes 4 bytes.

    Node ids are assigned in preorder by a walk that goes on into each
    left child in place and stacks only right children, each with its
    parent's new id.
    """
    if n < 1:
        raise TreeError("n must be positive")
    _check_node_count(n)
    getrandbits = random.Random(seed).getrandbits
    kids = array("i", [0]) * (2 * n + 1)
    slot = array("i", [0]) * (2 * n + 1)
    slot[0] = 2 * n             # kids[2n] = 0: the lone leaf 0 is the root
    # internal node m = 2k + 1 has 4k + 2 = 2m insertion positions, a
    # number of nbits bits for every k in [lo, hi)
    lo, hi, nbits = 0, 1, 2
    while lo < n:
        for m in range(2 * lo + 1, 2 * min(hi, n) + 1, 2):
            span = 2 * m
            x = getrandbits(nbits)
            while x >= span:
                x = getrandbits(nbits)
            j = x >> 1
            s = slot[j]
            kids[s] = m
            slot[m] = s
            if x & 1:
                kids[m - 1] = m + 1
                kids[m] = j
                slot[j] = m
                slot[m + 1] = m - 1
            else:
                kids[m - 1] = j
                kids[m] = m + 1
                slot[j] = m - 1
                slot[m + 1] = m
        lo, hi, nbits = hi, 2 * hi, nbits + 1
    del slot                    # each table goes once it is last read

    # strip leaves (even ids), relabel internals in preorder; an internal
    # node always has two children.  The node with new id i is followed
    # by its left child when that is internal, else by the right child
    # last stacked, as (node, its parent's new id)
    out_left: list = [None] * n
    out_right: list = [None] * n
    stack: list = []
    x = kids[2 * n]
    for i in range(n):
        c = kids[x]
        if c & 1:
            stack.append((c, i))
        c = kids[x - 1]
        if c & 1:
            out_left[i] = i + 1
            x = c
        elif stack:
            x, p = stack.pop()
            out_right[p] = i + 1
    del kids
    return out_left, out_right


def _gadget_path_len(B: int, inv_p: int) -> int:
    """``max(1, round(B / inv_p))``, with the exact quotient rounded half to
    even in integers: a remainder of exactly half rounds up from odd q."""
    q, r = divmod(B, inv_p)
    return max(1, q + (2 * r + q % 2 > inv_p))


def gen_lower_bound(B: int, inv_p: int, target_n: int) -> TreeTopology:
    """Adversarial tree: branching bursts separated by long paths.

    One gadget is a perfect binary tree with ``inv_p`` leaves, each leaf
    extended by a path of ``L = max(1, round(B/inv_p))`` nodes; every path
    end roots a recursive copy.  A gadget has ``S = 2*inv_p - 1 + inv_p*L``
    nodes, which always exceeds ``B``, so any block layout pays at least
    one extra transfer per gadget level.  Complete gadgets are attached
    breadth-first left-to-right; a final partial gadget (a breadth-first
    prefix) lands the total node count on ``target_n`` exactly.
    """
    return TreeTopology(*_build_lower_bound(B, inv_p, target_n), 0)


def _build_lower_bound(B: int, inv_p: int, target_n: int) -> tuple:
    """The child lists of ``gen_lower_bound(B, inv_p, target_n)``, root 0.

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
    L = _gadget_path_len(B, inv_p)
    S = 2 * inv_p - 1 + inv_p * L
    if target_n < S:
        raise TreeError("target_n=%d smaller than one gadget (%d nodes)"
                        % (target_n, S))
    _check_node_count(target_n)

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
    return left, right


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


# -- serialization ------------------------------------------------------


TREE_FORMAT_VERSION = 2


def json_text(obj) -> str:
    """The one artifact encoding: compact, sorted keys, trailing newline.

    Without ``indent`` the ``json`` module encodes in C, several times
    faster than its pure-Python indenting encoder.  The artifacts are
    lists, tuples and dicts of ints, floats, strings and None that the
    package builds itself, and none contains itself, so the encoder skips
    its circular-reference check, which records and clears every list it
    enters.
    """
    return json.dumps(obj, separators=(",", ":"), sort_keys=True,
                      check_circular=False) + "\n"


def read_json(path):
    """The one artifact reader: the parsed JSON file at ``path``.

    Malformed JSON, bytes that are not UTF-8, and JSON nested too deeply
    for the parser raise ``TreeError`` like every other invalid input.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TreeError("%s: invalid json: %s" % (path, exc)) from None
        except RecursionError:
            raise TreeError("%s: json nested too deeply" % (path,)) from None


def _tree_json(left: list, right: list, root: int = 0) -> dict:
    """The columnar tree file of child lists ``left`` and ``right``, held
    as they are: ``None`` for an absent child.  The lists are not
    validated; :func:`tree_from_json` checks them on reading."""
    return {
        "version": TREE_FORMAT_VERSION,
        "n": len(left),
        "root": root,
        "left": left,
        "right": right,
    }


def tree_to_json(tree: TreeTopology) -> dict:
    """Columnar tree file: child id lists, ``None`` for an absent child."""
    return _tree_json(list(tree.left), list(tree.right), tree.root)


def _field(obj, key: str, kind: str = "tree"):
    """``obj[key]``, or a ``TreeError`` naming the key ``obj`` lacks."""
    try:
        return obj[key]
    except (TypeError, KeyError):
        raise TreeError("%s json missing field: %r" % (kind, key)) from None


def _node_list(obj: dict, key: str, n: int) -> list:
    seq = _field(obj, key)
    if type(seq) is not list:
        raise TreeError("tree json %r must be a list, got %s"
                        % (key, type(seq).__name__))
    if len(seq) != n:
        raise TreeError("tree json %r has %d entries, expected n=%d"
                        % (key, len(seq), n))
    return seq


def tree_from_json(obj) -> TreeTopology:
    """Read a version-2 columnar tree through :class:`TreeTopology`'s
    validation.  ``obj`` is left unchanged."""
    return _read_tree(dict(obj) if type(obj) is dict else obj)


def _read_tree(obj) -> TreeTopology:
    """``tree_from_json(obj)``, taking the child lists out of ``obj`` so
    that each list goes as soon as its tuple exists."""
    if type(obj) is not dict:
        raise TreeError("tree json must be an object, got %s"
                        % type(obj).__name__)
    version = _field(obj, "version")
    if type(version) is not int or version != TREE_FORMAT_VERSION:
        raise TreeError("unsupported tree file version %r" % (version,))
    n = _field(obj, "n")
    root = _field(obj, "root")
    if type(n) is not int or n < 1:
        raise TreeError("n must be a positive integer, got %r" % (n,))
    if type(root) is not int:
        raise TreeError("root must be an integer, got %r" % (root,))
    left = _node_list(obj, "left", n)
    right = _node_list(obj, "right", n)
    del obj["left"], obj["right"]
    left = tuple(left)
    right = tuple(right)
    return TreeTopology(left, right, root)


def save_tree(tree: TreeTopology, path) -> None:
    with open(path, "w") as fh:
        fh.write(json_text(tree_to_json(tree)))


def load_tree(path) -> TreeTopology:
    return _read_tree(read_json(path))
