"""Topology construction, generators, weights, and the tree file format."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treelayout import (TreeError, TreeTopology, compute_weights,
                        gen_lower_bound, gen_path, gen_perfect, gen_random,
                        iter_shapes, load_tree, mirror_shape, save_tree,
                        shape_to_tree, tree_from_json, tree_to_json)
from treelayout.aware import layout_from_json
from treelayout.oblivious import _read_order
from treelayout.tree import (_build_lower_bound, _build_path, _build_perfect,
                             _build_random, _gadget_path_len, json_text)


# ------------------------------------------------------------ TreeTopology

def test_single_node():
    t = TreeTopology([None], [None], 0)
    assert t.n == 1 and t.root == 0
    assert t.depth[0] == 0


def test_topology_is_immutable():
    t = TreeTopology([None], [None], 0)
    with pytest.raises(AttributeError, match="TreeTopology is immutable"):
        t.n = 2
    assert t.n == 1


def test_three_node_depths():
    t = TreeTopology([1, None, None], [2, None, None], 0)
    assert t.n == 3
    assert [t.depth[i] for i in range(3)] == [0, 1, 1]
    assert t.parent[1] == 0 and t.parent[2] == 0
    assert repr(t) == "TreeTopology(n=3, root=0, height=1)"


def test_cycle_detected():
    with pytest.raises(TreeError, match="cycle"):
        TreeTopology([1, None], [None, 0], 0)


def test_two_parents_rejected():
    with pytest.raises(TreeError):
        TreeTopology([1, None, 1], [2, None, None], 0)


def test_disconnected_node_rejected():
    with pytest.raises(TreeError, match="disconnected"):
        TreeTopology([1, None, None], [None, None, None], 0)


# ------------------------------------------------------------ weights

def test_weights_perfect7():
    w = compute_weights(gen_perfect(2))
    assert w == [7, 3, 3, 1, 1, 1, 1]


def test_weights_path4():
    assert compute_weights(gen_path(4)) == [4, 3, 2, 1]


def test_weights_single():
    assert compute_weights(gen_path(1)) == [1]


@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_weight_recurrence(n, seed):
    t = gen_random(n, seed)
    w = compute_weights(t)
    assert w[t.root] == n
    total = 0
    for x in range(n):
        wl = w[t.left[x]] if t.left[x] is not None else 0
        wr = w[t.right[x]] if t.right[x] is not None else 0
        assert w[x] == 1 + wl + wr
        total += w[x] - wl - wr
    assert total == n  # each node counted exactly once


def _weights_by_parent(t):
    """Subtree sizes summed up parent links, children before parents."""
    w = [1] * t.n
    for x in reversed(t.preorder()):
        if t.parent[x] is not None:
            w[t.parent[x]] += w[x]
    return w


def test_weights_from_child_links_match_parent_links():
    trees = [shape_to_tree(s) for n in range(1, 9) for s in iter_shapes(n)]
    trees += [shape_to_tree(mirror_shape(s)) for n in range(1, 9)
              for s in iter_shapes(n)]
    trees += [gen_random(n, seed) for n in (1, 2, 50, 1000, 1 << 12)
              for seed in range(3)]
    trees += [gen_perfect(10), gen_lower_bound(16, 4, 5000),
              gen_path(1 << 15)]
    for t in trees:
        assert compute_weights(t) == _weights_by_parent(t)


# ------------------------------------------------------------ generators

def test_gen_perfect_sizes():
    assert gen_perfect(0).n == 1
    assert gen_perfect(2).n == 7
    t = gen_perfect(10)
    assert t.n == 2047
    assert sum(1 for x in range(t.n) if t.left[x] is None) == 1024


def test_gen_perfect_guard():
    from treelayout import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        gen_perfect(41)


def test_gen_path():
    assert gen_path(1).n == 1
    t = gen_path(4)
    assert max(t.depth) == 3
    assert all(t.right[x] is None for x in range(4))
    assert compute_weights(gen_path(100)) == list(range(100, 0, -1))


def test_gen_path_rejects_zero():
    with pytest.raises(TreeError):
        gen_path(0)


def test_gen_random_single():
    assert gen_random(1, seed=7).n == 1


def test_gen_random_rejects_zero():
    with pytest.raises(TreeError):
        gen_random(0, seed=1)


def test_gen_random_deterministic():
    a = gen_random(3, seed=123)
    b = gen_random(3, seed=123)
    assert a == b
    # both number nodes in preorder, so equal trees have equal shapes
    assert a in set(map(shape_to_tree, iter_shapes(3)))


def test_gen_random_uniform_chi_square():
    """n=4 shape frequencies vs uniform at 1e5 draws; 5% tolerance."""
    shapes = list(map(shape_to_tree, iter_shapes(4)))
    assert len(set(shapes)) == 14
    counts = dict.fromkeys(shapes, 0)
    trials = 100_000
    for i in range(trials):
        counts[gen_random(4, seed=i)] += 1
    expect = trials / 14
    for s, c in counts.items():
        assert abs(c - expect) <= 0.05 * expect, (s, c)


def _reference_random_lists(n, seed):
    """``gen_random``'s growth and relabel loops as they were when each
    insertion position came from ``randrange``: the child lists."""
    rng = random.Random(seed)
    size = 2 * n + 1
    left = [None] * size
    right = [None] * size
    par = [None] * size
    root = 0
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
    out_left = [None] * n
    out_right = [None] * n
    stack = []
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
    return out_left, out_right


# every n up to 70; n on each side of the points where 4k + 2 passes
# 2^12, 2^14 and 2^18 and gets one more bit; and n on each side of the
# list/array switch at 2^15 nodes
_REFERENCE_SIZES = [*range(1, 71), 1023, 1024, 1025, 4095, 4096, 4097,
                    (1 << 15) - 1, 1 << 15, (1 << 16) + 1]


@pytest.mark.parametrize("n,seed", sorted(
    {(n, seed) for seed in (0, 1, 7, 2**40 + 3)
     for n in (1, 2, 3, 5, 1000, 4097)}
    | {(n, seed) for seed in (0, 2**40 + 3) for n in _REFERENCE_SIZES}))
def test_gen_random_matches_randrange_reference(n, seed):
    t = gen_random(n, seed)
    left, right = _reference_random_lists(n, seed)
    assert t.root == 0
    assert (list(t.left), list(t.right)) == (left, right)


def test_gen_lower_bound_single_gadget():
    t = gen_lower_bound(16, 4, 23)
    assert t.n == 23  # 2*4-1 + 4*4, exceeds B=16
    assert t.n > 16


def test_gen_lower_bound_b1():
    assert gen_lower_bound(1, 2, 5).n == 5  # 3 + 2*1


def test_gen_lower_bound_gadget_formula():
    # one full gadget always has 2*inv_p - 1 + inv_p*L nodes, more than B
    for B, inv_p in [(4, 2), (16, 4), (64, 8), (256, 4), (7, 2)]:
        L = max(1, round(Fraction(B, inv_p)))
        size = 2 * inv_p - 1 + inv_p * L
        t = gen_lower_bound(B, inv_p, size)
        assert t.n == size
        assert t.n > B


def test_gen_lower_bound_recursive_and_truncated():
    t = gen_lower_bound(16, 4, 200)
    assert t.n == 200
    # deepest chain passes through at least one full gadget of depth 2+4
    assert max(t.depth) >= 6


# sha256 prefix of the left/right lists of gen_lower_bound(B, inv_p, N) for
# N in (S, S+1, 2S-1, 3S+5, 5000), S the gadget size, hashed in that order.
# Recorded with the closure-based generator that emitted one node at a time.
LOWER_BOUND_DIGESTS = {
    (1, 2): "ad80a15eba8019fc",
    (1, 4): "90080b78c4b41ff8",
    (1, 8): "6e9e910c78a41203",
    (1, 64): "c318d9e922c19d93",
    (4, 2): "4416b1bd7a9eb3fe",
    (4, 4): "90080b78c4b41ff8",
    (4, 8): "6e9e910c78a41203",
    (4, 64): "c318d9e922c19d93",
    (7, 2): "7282902da082f1ac",
    (7, 4): "60f15395a0ec8c58",
    (7, 8): "6e9e910c78a41203",
    (7, 64): "c318d9e922c19d93",
    (16, 2): "5064679ba438e57e",
    (16, 4): "7ebea4dce18a2cd9",
    (16, 8): "5d2a6f1828189ef7",
    (16, 64): "c318d9e922c19d93",
    (64, 2): "086b4b217e2a7532",
    (64, 4): "09fff72c1b491213",
    (64, 8): "5b86106ed1c1cbd0",
    (64, 64): "c318d9e922c19d93",
    (256, 2): "768aa78f90cbf93c",
    (256, 4): "19477b968bbd6159",
    (256, 8): "f13dd822ba4a8efe",
    (256, 64): "67fe6b22fd20dccf",
}


@pytest.mark.parametrize("B,inv_p", sorted(LOWER_BOUND_DIGESTS))
def test_gen_lower_bound_ids_unchanged(B, inv_p):
    L = max(1, round(Fraction(B, inv_p)))
    S = 2 * inv_p - 1 + inv_p * L
    h = hashlib.sha256()
    for N in (S, S + 1, 2 * S - 1, 3 * S + 5, 5000):
        t = gen_lower_bound(B, inv_p, N)
        assert t.n == N
        h.update(json.dumps([t.left, t.right], separators=(",", ":")).encode())
    assert h.hexdigest()[:16] == LOWER_BOUND_DIGESTS[B, inv_p]


def test_gadget_path_len_rounds_half_to_even():
    # gen_lower_bound's path length, rounded in integers, is the exact
    # quotient rounded half to even for every inv_p, not only powers of two
    for inv_p in range(2, 1025):
        for B in range(1, 513):
            assert (_gadget_path_len(B, inv_p)
                    == max(1, round(Fraction(B, inv_p)))), (B, inv_p)


def test_gen_lower_bound_errors():
    with pytest.raises(TreeError):
        gen_lower_bound(16, 3, 100)  # not a power of two
    with pytest.raises(TreeError):
        gen_lower_bound(16, 1, 100)
    with pytest.raises(TreeError):
        gen_lower_bound(16, 4, 10)  # smaller than one gadget


@pytest.mark.parametrize("build,message", [
    (lambda: gen_perfect(-1), "height must be nonnegative"),
    (lambda: gen_lower_bound(0, 2, 100), "B must be positive"),
    (lambda: iter_shapes(-1), "n must be nonnegative"),
    (lambda: shape_to_tree(None), "empty shape has no tree"),
], ids=["perfect-height", "lowerbound-B", "shapes-n", "shape-empty"])
def test_generators_name_a_bad_argument(build, message):
    with pytest.raises(TreeError, match=message):
        build()


# each family's builder, the generator that validates its lists, and
# arguments: the smallest trees, and lower-bound trees of one whole gadget
# (23 nodes at B=16, inv_p=4) and with the last gadget cut short
GENERATOR_CASES = (
    [(_build_perfect, gen_perfect, (h,)) for h in range(7)]
    + [(_build_path, gen_path, (n,)) for n in (1, 2, 50)]
    + [(_build_random, gen_random, case)
       for case in ((1, 0), (1, 7), (2, 3), (50, 9), (300, 12345))]
    + [(_build_lower_bound, gen_lower_bound, case)
       for case in ((16, 4, 23), (16, 4, 200), (1, 2, 5), (5, 2, 23))])


@pytest.mark.parametrize(
    "build,gen,args", GENERATOR_CASES,
    ids=["%s%s" % (gen.__name__, args) for _, gen, args in GENERATOR_CASES])
def test_builder_lists_make_the_generator_tree(build, gen, args):
    # the CLI writes a builder's lists without validating them, so they
    # must be exactly the tree the public generator returns
    left, right = build(*args)
    assert type(left) is list and type(right) is list
    got, want = TreeTopology(left, right, 0), gen(*args)
    for name in ("n", "root", "left", "right", "parent", "depth", "height"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.preorder() == want.preorder()


# ------------------------------------------------------------ shapes

def test_shape_counts_are_catalan():
    assert [len(list(iter_shapes(n))) for n in range(7)] == \
        [1, 1, 2, 5, 14, 42, 132]


def test_shape_order_is_the_plain_recursive_enumeration():
    # left subtree sizes ascend; for each, the left shape varies slowest
    def shapes(n):
        if n == 0:
            return [None]
        out = []
        for i in range(n):
            for l in shapes(i):
                for r in shapes(n - 1 - i):
                    out.append((l, r))
        return out

    for n in range(8):
        assert list(iter_shapes(n)) == shapes(n)


def test_shape_roundtrip():
    def shape(t, x):
        if x is None:
            return None
        return (shape(t, t.left[x]), shape(t, t.right[x]))

    for n in range(1, 6):
        for s in iter_shapes(n):
            t = shape_to_tree(s)
            assert t.preorder() == tuple(range(n))
            assert shape(t, t.root) == s


def test_mirror_is_involution():
    for s in iter_shapes(5):
        assert mirror_shape(mirror_shape(s)) == s


# ------------------------------------------------------------ validation

@st.composite
def edge_lists(draw):
    """Small edge lists: trees, and near-trees with cycles, self-loops,
    two-parent nodes, missing edges and reused child slots."""
    n = draw(st.integers(1, 8))
    acyclic = draw(st.booleans())
    edges = [(draw(st.integers(0, c - 1 if acyclic else n - 1)), c,
              draw(st.sampled_from("LR"))) for c in range(1, n)]
    if edges and draw(st.booleans()):
        del edges[draw(st.integers(0, len(edges) - 1))]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1),
                                     st.sampled_from("LR")), max_size=2))
    perm = draw(st.permutations(range(n)))
    edges = [(perm[p], perm[c], side) for p, c, side in edges]
    return n, draw(st.permutations(edges))


def _reference_root(edges, n):
    """The root if ``edges`` form one binary tree on ``0..n-1``, else None.

    Written from the definition: each child slot used once, each node at
    most one parent, exactly one parentless node, and no node that climbs
    its parent chain back to itself."""
    slots, parent = set(), {}
    for p, c, side in edges:
        if (p, side) in slots or c in parent:
            return None
        slots.add((p, side))
        parent[c] = p
    roots = [x for x in range(n) if x not in parent]
    if len(roots) != 1:
        return None
    for x in range(n):
        seen = set()
        while x in parent:
            if x in seen:
                return None
            seen.add(x)
            x = parent[x]
    return roots[0]


@given(edge_lists())
@settings(max_examples=400, deadline=None)
def test_validation_matches_reference(case):
    """The columnar reader (and so ``TreeTopology``) accepts exactly the
    edge lists that form a tree, at their root only, and derives
    parents/depths/preorder."""
    n, edges = case
    want = _reference_root(edges, n)
    slot_clash = len({(p, side) for p, _c, side in edges}) != len(edges)
    if slot_clash:
        assert want is None
        return  # not expressible as left/right lists
    left, right = [None] * n, [None] * n
    for p, c, side in edges:
        (left if side == "L" else right)[p] = c
    for root in range(n):
        obj = {"version": 2, "n": n, "root": root, "left": left, "right": right}
        try:
            got = tree_from_json(obj)
        except TreeError:
            got = None
        assert (got is not None) == (root == want)
    if want is None:
        return
    t = tree_from_json({"version": 2, "n": n, "root": want, "left": left,
                        "right": right})
    parent = {c: p for p, c, _side in edges}
    assert t.parent == tuple(parent.get(x) for x in range(n))
    for x in range(n):
        d, y = 0, x
        while y in parent:
            d, y = d + 1, parent[y]
        assert t.depth[x] == d

    def pre(x):
        if x is None:
            return []
        return [x] + pre(left[x]) + pre(right[x])

    assert list(t.preorder()) == pre(want)


def _mirror(t):
    return TreeTopology(t.right, t.left, t.root)


def _zigzag(n):
    """A path whose node i hangs on the left of i - 1 when i is odd and
    on the right when i is even."""
    left = [i + 1 if i % 2 == 0 else None for i in range(n - 1)] + [None]
    right = [i + 1 if i % 2 == 1 else None for i in range(n - 1)] + [None]
    return TreeTopology(left, right, 0)


def _caterpillar(spine):
    """A left spine of ``spine`` nodes, each but the last with a right
    leaf."""
    left = [i + 1 for i in range(spine - 1)] + [None] * spine
    right = [spine + i for i in range(spine - 1)] + [None] * spine
    return TreeTopology(left[:2 * spine - 1], right[:2 * spine - 1], 0)


DEEP_SHAPES = {
    "path": lambda: gen_path(5000),
    "path-mirrored": lambda: _mirror(gen_path(5000)),
    "zigzag": lambda: _zigzag(5000),
    "caterpillar": lambda: _caterpillar(2500),
    "caterpillar-mirrored": lambda: _mirror(_caterpillar(2500)),
    "random": lambda: gen_random(4096, seed=3),
    "random-mirrored": lambda: _mirror(gen_random(4096, seed=3)),
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_topology_on_deep_and_one_sided_shapes(shape):
    """Parents, depths, preorder and height against a reference that
    uses neither recursion nor the constructor's walk: parents straight
    from the child lists, depths level by level, and preorder from a
    stack that holds both children of every node visited."""
    t = DEEP_SHAPES[shape]()
    left, right, n = t.left, t.right, t.n
    parent = [None] * n
    for x in range(n):
        for c in (left[x], right[x]):
            if c is not None:
                parent[c] = x
    depth = [0] * n
    level, d = [t.root], 0
    while level:
        for x in level:
            depth[x] = d
        level = [c for x in level for c in (left[x], right[x])
                 if c is not None]
        d += 1
    pre, stack = [], [t.root]
    while stack:
        x = stack.pop()
        pre.append(x)
        stack += [c for c in (right[x], left[x]) if c is not None]
    assert t.parent == tuple(parent)
    assert t.depth == tuple(depth)
    assert t.preorder() == tuple(pre)
    assert t.height == d - 1


@pytest.mark.parametrize("left,right", [
    ([True, None], [None, None]),      # a bool is not a node id
    ([1.0, None], [None, None]),
    (["1", None], [None, None]),
    ([-1, None], [None, None]),
    ([2, None], [None, None]),
])
def test_topology_rejects_bad_child_ids(left, right):
    with pytest.raises(TreeError):
        TreeTopology(left, right, 0)


def test_topology_error_messages():
    cases = [
        (([1, 0], [None, None], 0), "cycle"),
        (([0], [None], 0), "cycle"),
        (([1, None, None], [None, None, None], 0), "disconnected"),
        (([1, None, 1], [2, None, None], 0), "duplicate child slot"),
        (([5, None], [None, None], 0), "out of range"),
        (([1, None], [None, None], 1), "not the parentless node"),
        (([], [], 0), "at least one node"),
        (([1, None], [None], 0), "differ in length"),
        (([None], [None], 1), "root id out of range: 1"),
    ]
    for args, word in cases:
        with pytest.raises(TreeError, match=word):
            TreeTopology(*args)


def _reference_topology(left, right, root):
    """The constructor as it was before validation moved into its walk:
    five whole-list checks, then the walk.  Returns ``(parent, depth,
    preorder)`` of a valid tree, else the ``TreeError`` message."""
    left, right = tuple(left), tuple(right)
    n = len(left)
    if not set(map(type, left)).union(map(type, right)) <= {int, type(None)}:
        bad = next(c for c in left + right
                   if c is not None and type(c) is not int)
        return "child id must be an integer, got %r" % (bad,)
    kids = set(left)
    kids.update(right)
    kids.discard(None)
    nkids = 2 * n - left.count(None) - right.count(None)
    if kids and (min(kids) < 0 or max(kids) >= n):
        bad = min(kids) if min(kids) < 0 else max(kids)
        return "child id out of range: %r" % (bad,)
    if len(kids) != nkids:
        dup = next(c for c, k in Counter(left + right).items()
                   if k > 1 and c is not None)
        return "duplicate child slot: node %d has two parents" % dup
    if nkids >= n:
        return "cycle detected: every node has a parent"
    if nkids < n - 1:
        return "disconnected node: %d parentless nodes" % (n - nkids)
    if root in kids:
        return "declared root %d is not the parentless node" % root
    parent, depth, pre, stack = [None] * n, [0] * n, [], [root]
    while stack:
        x = stack.pop()
        pre.append(x)
        for c in (right[x], left[x]):
            if c is not None:
                parent[c], depth[c] = x, depth[x] + 1
                stack.append(c)
    if len(pre) != n:
        return "cycle detected: %d nodes unreachable from root" % (n - len(pre))
    return tuple(parent), tuple(depth), tuple(pre)


def _check_against_reference(left, right, root):
    want = _reference_topology(left, right, root)
    try:
        t = TreeTopology(left, right, root)
    except TreeError as exc:
        assert str(exc) == want
    else:
        assert (t.parent, t.depth, t.preorder()) == want


ODD_IDS = [True, False, 1.0, 0.5, float("nan"), "1", "", 10**30, -10**30]


@st.composite
def child_lists(draw):
    """A random tree on up to 7 nodes with its ids permuted, then up to
    three child slots overwritten by None, an int in -3..n+2, a bool, a
    float, a string or 10**30."""
    n = draw(st.integers(1, 7))
    t = gen_random(n, draw(st.integers(0, 2**16)))
    perm = draw(st.permutations(range(n)))
    left, right = [None] * n, [None] * n
    for x in range(n):
        for src, dst in ((t.left, left), (t.right, right)):
            if src[x] is not None:
                dst[perm[x]] = perm[src[x]]
    value = st.one_of(st.none(), st.integers(-3, n + 2),
                      st.sampled_from(ODD_IDS))
    for _ in range(draw(st.integers(0, 3))):
        side = draw(st.sampled_from((left, right)))
        side[draw(st.integers(0, n - 1))] = draw(value)
    return left, right


@given(child_lists())
@settings(max_examples=500, deadline=None)
def test_topology_errors_match_reference(case):
    """At every root, the constructor raises exactly when the reference
    does, with the same message, and otherwise derives the same parents,
    depths and preorder."""
    left, right = case
    for root in range(len(left)):
        _check_against_reference(left, right, root)


@pytest.mark.parametrize("left,right,root", [
    ([1, None, None], [-1, None, None], 0),    # -1 would index node n-1
    ([1, None, None], [-3, None, None], 0),    # -n would index node 0
    ([1, None], [2, None], 0),                 # an id of exactly n
    ([1, None, None], [10**30, None, None], 0),
    ([1, "2", None], [None, None, None], 0),   # a string below the root
    ([1, None, None], [1, None, None], 0),     # one child in both slots
    ([1, 2, 3, 0], [None] * 4, 0),             # the root as a deep child
    ([1, 2, 0, None], [None] * 4, 0),
    ([1, 2, 0, None], [None] * 4, 3),
    ([1, None, 3, 2], [None] * 4, 0),          # plus a detached 2-cycle
    ([1, True, None], [None] * 3, 0),          # a bool aliasing node 1
    ([None, None], [1, False], 0),             # a bool aliasing the root
])
def test_topology_error_messages_match_reference(left, right, root):
    with pytest.raises(TreeError):
        TreeTopology(left, right, root)
    _check_against_reference(left, right, root)


# ------------------------------------------------------------ serialization

@given(n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(n, seed):
    t = gen_random(n, seed)
    assert tree_from_json(tree_to_json(t)) == t


def test_json_v2_columns():
    obj = tree_to_json(gen_perfect(1))
    assert obj == {"version": 2, "n": 3, "root": 0,
                   "left": [1, None, None], "right": [2, None, None]}
    assert tree_from_json(json.loads(json.dumps(obj))) == gen_perfect(1)


def test_tree_from_json_leaves_its_argument_unchanged():
    t = gen_random(50, seed=6)
    obj = tree_to_json(t)
    before = json.dumps(obj)
    assert tree_from_json(obj) == t
    assert json.dumps(obj) == before


def test_file_roundtrip(tmp_path):
    t = gen_perfect(3)
    p = tmp_path / "t.json"
    save_tree(t, p)
    assert load_tree(p) == t
    assert p.read_text() == json_text(tree_to_json(t))


def test_loaded_tree_memory_per_node(tmp_path, peak_bytes):
    # a loaded tree holds five tuples of n entries and one int per node
    # id; an int per depth level rather than per parent takes a random
    # tree from about 84 to 68 bytes a node.  The load peaks at about 94
    # bytes a node with both parsed child lists alive beside their
    # tuples, and at about 77 when each list goes once its tuple exists
    p = tmp_path / "t.json"
    save_tree(gen_random(1 << 15, 3), p)
    tree, peak, held = peak_bytes(lambda: load_tree(p))
    assert held <= 72 * tree.n
    assert peak <= 84 * tree.n
    assert len(set(map(id, tree.depth))) == tree.height + 1


def test_loaded_tree_holds_four_tuples(tmp_path, peak_bytes):
    # left, right, depth and preorder, and one int per node id: about 60
    # bytes a node on a random tree, 4 below this bound.  A parent tuple
    # built by the load would add 8 more; it is derived on first read
    p = tmp_path / "t.json"
    save_tree(gen_random(1 << 15, 3), p)
    tree, _, held = peak_bytes(lambda: load_tree(p))
    assert held <= 64 * tree.n
    assert not hasattr(tree, "_parent")
    assert tree.parent is tree.parent       # derived once, then cached


@pytest.mark.parametrize("n", [1 << 12, 1 << 15])
def test_gen_random_memory_per_node(peak_bytes, n):
    # the slot tables are arrays of C ints, 8 bytes a node for both, and
    # are gone before the topology is built.  List tables would peak at
    # about 136 bytes a node at 2^12 and 219 at 2^15
    tree, peak, _ = peak_bytes(lambda: gen_random(n, 3))
    assert tree.n == n
    assert peak <= 120 * n


def test_json_text_is_compact_and_sorted():
    assert json_text({"b": [1, None], "a": 2}) == '{"a":2,"b":[1,null]}\n'


def test_json_rejects_bad_ids():
    columnar = tree_to_json(gen_perfect(1))
    columnar["left"][0] = 7
    with pytest.raises(TreeError, match="out of range"):
        tree_from_json(columnar)


def test_json_rejects_wrong_root():
    obj = tree_to_json(gen_perfect(1))
    obj["root"] = 2
    with pytest.raises(TreeError):
        tree_from_json(obj)


def test_json_rejects_cycle():
    with pytest.raises(TreeError, match="cycle"):
        tree_from_json({"version": 2, "n": 2, "root": 0,
                        "left": [1, 0], "right": [None, None]})


def test_json_rejects_unknown_version():
    obj = tree_to_json(gen_perfect(1))
    obj["version"] = 3
    with pytest.raises(TreeError, match="version"):
        tree_from_json(obj)


_READERS = {
    "tree": (tree_from_json, {"version": 2, "n": 1, "root": 0,
                              "left": [None], "right": [None]}),
    "layout": (layout_from_json, {"B": 1, "blocks": [[0]]}),
    "order": (_read_order, {"order": [0]}),
}


@pytest.mark.parametrize("kind,key", [
    *(("tree", key) for key in ("version", "n", "root", "left", "right")),
    ("layout", "B"), ("layout", "blocks"), ("order", "order")])
def test_readers_name_a_missing_field(kind, key):
    read, full = _READERS[kind]
    assert read(dict(full)) is not None
    obj = {k: v for k, v in full.items() if k != key}
    with pytest.raises(TreeError) as exc:
        read(obj)
    assert str(exc.value) == f"{kind} json missing field: '{key}'"
    if kind != "tree":          # the tree reader asks for an object first
        # a non-object misses the first field read
        with pytest.raises(TreeError) as exc:
            read(list(obj.values()))
        first = next(iter(full))
        assert str(exc.value) == f"{kind} json missing field: '{first}'"


def test_json_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"nodes": []}))
    with pytest.raises(TreeError, match="missing field: 'version'"):
        load_tree(p)
