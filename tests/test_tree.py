"""Topology construction, generators, weights, and the tree file format."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treelayout import (TreeError, TreeTopology, compute_weights,
                        gen_lower_bound, gen_path, gen_perfect, gen_random,
                        iter_shapes, load_tree, mirror_shape, save_tree,
                        shape_of, shape_to_tree, tree_from_json, tree_to_json)
from treelayout.tree import json_text


# ------------------------------------------------------------ TreeTopology

def test_single_node():
    t = TreeTopology([None], [None], 0)
    assert t.n == 1 and t.root == 0
    assert t.depth[0] == 0


def test_three_node_depths():
    t = TreeTopology([1, None, None], [2, None, None], 0)
    assert t.n == 3
    assert [t.depth[i] for i in range(3)] == [0, 1, 1]
    assert t.parent[1] == 0 and t.parent[2] == 0


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
    assert shape_of(a) in set(iter_shapes(3))


def test_gen_random_uniform_chi_square():
    """n=4 shape frequencies vs uniform at 1e5 draws; 5% tolerance."""
    shapes = list(iter_shapes(4))
    assert len(shapes) == 14
    counts = dict.fromkeys(shapes, 0)
    trials = 100_000
    for i in range(trials):
        counts[shape_of(gen_random(4, seed=i))] += 1
    expect = trials / 14
    for s, c in counts.items():
        assert abs(c - expect) <= 0.05 * expect, (s, c)


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


def test_gen_lower_bound_errors():
    with pytest.raises(TreeError):
        gen_lower_bound(16, 3, 100)  # not a power of two
    with pytest.raises(TreeError):
        gen_lower_bound(16, 1, 100)
    with pytest.raises(TreeError):
        gen_lower_bound(16, 4, 10)  # smaller than one gadget


# ------------------------------------------------------------ shapes

def test_shape_counts_are_catalan():
    assert [len(list(iter_shapes(n))) for n in range(7)] == \
        [1, 1, 2, 5, 14, 42, 132]


def test_shape_roundtrip():
    for n in range(6):
        for s in iter_shapes(n):
            if n == 0:
                continue
            assert shape_of(shape_to_tree(s)) == s


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
    ]
    for args, word in cases:
        with pytest.raises(TreeError, match=word):
            TreeTopology(*args)


# ------------------------------------------------------------ serialization

def _legacy_json(t):
    """A tree in the version-1 layout: one record per node, no version."""
    return {"n": t.n, "root": t.root,
            "nodes": [{"id": x, "left": t.left[x], "right": t.right[x]}
                      for x in reversed(range(t.n))]}


@given(n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(n, seed):
    t = gen_random(n, seed)
    assert tree_from_json(tree_to_json(t)) == t
    assert tree_from_json(_legacy_json(t)) == t


def test_json_v2_columns():
    obj = tree_to_json(gen_perfect(1))
    assert obj == {"version": 2, "n": 3, "root": 0,
                   "left": [1, None, None], "right": [2, None, None]}
    assert tree_from_json(json.loads(json.dumps(obj))) == gen_perfect(1)


def test_file_roundtrip(tmp_path):
    t = gen_perfect(3)
    p = tmp_path / "t.json"
    save_tree(t, p)
    assert load_tree(p) == t
    assert p.read_text() == json_text(tree_to_json(t))


def test_legacy_file_loads(tmp_path):
    t = gen_random(200, seed=4)
    p = tmp_path / "legacy.json"
    p.write_text(json.dumps(_legacy_json(t), indent=2))
    got = load_tree(p)
    assert got == t
    assert got.parent == t.parent and got.depth == t.depth
    assert got.preorder() == t.preorder()


def test_json_text_is_compact_and_sorted():
    assert json_text({"b": [1, None], "a": 2}) == '{"a":2,"b":[1,null]}\n'


def test_json_rejects_bad_ids():
    legacy = {"n": 3, "root": 0,
              "nodes": [{"id": 0, "left": 1, "right": 2},
                        {"id": 7, "left": None, "right": None},
                        {"id": 2, "left": None, "right": None}]}
    with pytest.raises(TreeError, match="out of range"):
        tree_from_json(legacy)
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
    obj = {"n": 2, "root": 0,
           "nodes": [{"id": 0, "left": 1, "right": None},
                     {"id": 1, "left": 0, "right": None}]}
    with pytest.raises(TreeError):
        tree_from_json(obj)
    with pytest.raises(TreeError, match="cycle"):
        tree_from_json({"version": 2, "n": 2, "root": 0,
                        "left": [1, 0], "right": [None, None]})


def test_json_rejects_unknown_version():
    obj = tree_to_json(gen_perfect(1))
    obj["version"] = 3
    with pytest.raises(TreeError, match="version"):
        tree_from_json(obj)


def test_json_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"nodes": []}))
    with pytest.raises(TreeError):
        load_tree(p)
