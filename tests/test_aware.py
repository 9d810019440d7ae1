"""Two-phase block layout for a known block size: K-recursion, whole-level
packing, blocks."""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treelayout import (TreeError, compute_weights, cost_report,
                        exclusion_violations, gen_lower_bound, gen_path,
                        gen_perfect, gen_random, iter_shapes, k_set,
                        layout_aware, layout_from_json, layout_to_json,
                        padded_order, phase2_layout, shape_to_tree)
from treelayout import aware
from treelayout.aware import _budget_partition
from treelayout.oblivious import _perfect_piece, _piece_budget


def assert_valid_assignment(tree, asg):
    """Partition, size cap, per-block connectivity with a unique top node."""
    seen = set()
    for bid, members in enumerate(asg.blocks):
        assert 0 < len(members) <= asg.B
        for x in members:
            assert x not in seen
            seen.add(x)
            assert asg.block_of[x] == bid
        tops = [x for x in members
                if tree.parent[x] is None or tree.parent[x] not in members]
        assert len(tops) == 1  # connected with a unique topmost node
    assert seen == set(range(tree.n))


# ------------------------------------------------------------ k_set

def test_kset_below_one_is_empty():
    t = gen_path(4)
    w = compute_weights(t)
    assert k_set(t, 0, Fraction(1, 2), w) == set()


def test_kset_perfect7_budget3():
    t = gen_perfect(2)
    w = compute_weights(t)
    # each child budget (3-1)*(3/7) = 6/7 < 1
    assert k_set(t, 0, 3, w) == {0}


def test_kset_path4_budget4():
    t = gen_path(4)
    w = compute_weights(t)
    # x1 gets 3*(3/4) = 9/4; x2 gets (9/4 - 1)*(2/3) = 5/6 < 1
    assert k_set(t, 0, 4, w) == {0, 1}


@given(n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
       num=st.integers(0, 64 * 8), den=st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_kset_size_and_shape(n, seed, num, den):
    t = gen_random(n, seed)
    w = compute_weights(t)
    A = Fraction(num, den)
    K = k_set(t, t.root, A, w)
    assert len(K) <= A  # |K| <= floor(A)
    if A >= 1:
        assert t.root in K
    for x in K:  # connected and downward closed from the root
        p = t.parent[x]
        assert p is None or p in K


# ------------------------------------------------------------ phase 1

def phase1_blocks(tree, asg):
    """The level-clustered blocks: those rooted above ``phase1_levels``."""
    return [b for b in asg.blocks if tree.depth[b[0]] < asg.phase1_levels]


def test_phase1_perfect7_fits_one_block():
    t = gen_perfect(2)
    asg = layout_aware(t, 7)
    assert [sorted(b) for b in phase1_blocks(t, asg)] == [list(range(7))]
    assert asg.phase1_levels == t.height + 1


def test_phase1_perfect7_b3():
    t = gen_perfect(2)
    asg = layout_aware(t, 3)
    blocks = phase1_blocks(t, asg)
    assert sorted(blocks[0]) == [0, 1, 2]  # top floor(lg 4) = 2 levels
    assert len(blocks) == 5
    assert asg.phase1_levels == t.height + 1


def test_phase1_path1024_b15():
    t = gen_path(1024)
    asg = layout_aware(t, 15)
    # the 10 phase-1 levels of a path hold 10 <= 15 nodes: one block
    assert [len(b) for b in phase1_blocks(t, asg)] == [10]
    assert [x for x in range(t.n) if t.depth[x] == asg.phase1_levels] == [10]


def test_phase1_b1_singletons():
    t = gen_perfect(2)
    asg = layout_aware(t, 1)
    assert all(len(b) == 1 for b in phase1_blocks(t, asg))
    assert len(asg.blocks) == 7
    assert asg.phase1_levels == t.height + 1


def fixed_stride_layout(tree, B):
    """The aware layout with phase 1 cut into fixed strata of
    ``floor(lg(B+1))`` levels, whatever their width: a stratum root starts
    a block, and every other phase-1 node joins its parent's."""
    L1 = min((tree.n - 1).bit_length(), tree.height + 1)
    stride = (B + 1).bit_length() - 1
    w = compute_weights(tree)
    blocks = []
    free = bytearray(b"\1") * tree.n
    on_path = [None] * L1
    for x in tree.preorder():
        d = tree.depth[x]
        if d >= L1:
            if free[x]:
                _budget_partition(tree.left, tree.right, tree.depth, w, x,
                                  B, blocks, free)
        elif d % stride == 0:
            on_path[d] = [x]
            blocks.append(on_path[d])
        else:
            on_path[d] = on_path[d - 1]
            on_path[d].append(x)
    return aware.BlockAssignment(B, blocks, tree.n, phase1_levels=L1)


def levels_below(tree, r):
    """The nonempty levels of ``r``'s subtree, top down, as node lists."""
    out = []
    level = [r]
    while level:
        out.append(level)
        level = [c for y in level for c in (tree.left[y], tree.right[y])
                 if c is not None]
    return out


def test_whole_levels_never_cost_more_than_strata():
    # every shape of up to 10 nodes: no depth of any layout is worse than
    # with fixed strata, and some are better
    better = 0
    for n in range(1, 11):
        for shape in iter_shapes(n):
            t = shape_to_tree(shape)
            for B in (1, 2, 3, 4, 5, 7, 8, 16):
                new = layout_aware(t, B)
                strata = fixed_stride_layout(t, B)
                if new.blocks == strata.blocks:
                    continue
                got = cost_report(t, new.block_of).worst_exact
                old = cost_report(t, strata.block_of).worst_exact
                assert all(a <= b for a, b in zip(got, old)), (shape, B)
                better += got != old
    assert better > 0


@given(family=st.sampled_from(["random", "path", "lowerbound"]),
       n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1),
       B=st.sampled_from([1, 2, 3, 4, 5, 8, 16, 64, 256]))
@settings(max_examples=120, deadline=None)
def test_phase1_blocks_are_maximal_runs_of_whole_levels(family, n, seed, B):
    if family == "random":
        t = gen_random(n, seed)
    elif family == "path":
        t = gen_path(n)
    else:
        # n nodes past one gadget of 7 + 4 * max(1, round(B / 4)) nodes
        t = gen_lower_bound(B, 4, n + 7 + 4 * max(1, round(B / 4)))
    asg = layout_aware(t, B)
    assert_valid_assignment(t, asg)
    L1 = asg.phase1_levels
    for mem in phase1_blocks(t, asg):
        r = mem[0]
        levels = levels_below(t, r)
        k = 0
        while k < len(levels) and sum(map(len, levels[:k + 1])) <= len(mem):
            k += 1
        # whole levels of r's subtree, top down, and nothing else
        assert sorted(mem) == sorted(x for lv in levels[:k] for x in lv)
        assert len(mem) <= B
        assert t.depth[r] + k <= L1
        # the next level is empty, lies at depth L1 or overflows B
        assert (k == len(levels) or t.depth[r] + k == L1
                or len(mem) + len(levels[k]) > B)


@pytest.mark.parametrize("h", range(20))
def test_phase1_on_perfect_trees_is_fixed_strata(h):
    # complete levels: the first floor(lg(B+1)) of them hold at most B
    # nodes and one more holds more, so whole levels are the strata
    t = gen_perfect(h)
    if h <= 10:
        Bs = range(1, 1025)
    elif h <= 14:
        Bs = sorted({B for k in range(1, 11)
                     for B in (2**k - 1, 2**k, 2**(k + 1) - 2)})
    else:
        # the budget of the oblivious order's level 0, whose bottom
        # stratum has 8, 1, 9, 1 and 10 levels at heights 15 to 19
        Bs = [_piece_budget(t.n)]
    for B in Bs:
        assert layout_aware(t, B).blocks == fixed_stride_layout(t, B).blocks


# ------------------------------------------------------------ phase 2

def test_phase2_path4_b4():
    t = gen_path(4)
    asg = phase2_layout(t, 0, 4)
    assert [sorted(b) for b in asg.blocks] == [[0, 1], [2, 3]]


def test_phase2_perfect7_b3_singletons():
    t = gen_perfect(2)
    asg = phase2_layout(t, 0, 3)
    assert all(len(b) == 1 for b in asg.blocks)
    assert len(asg.blocks) == 7


def test_phase2_perfect7_b7():
    # K(root, 7) = {0, 1, 2}: children get (7-1)*(3/7) = 18/7, their
    # leaves (18/7 - 1)*(1/3) = 11/21 < 1, so the four leaves restart
    # with fresh budgets and become singleton blocks
    t = gen_perfect(2)
    asg = phase2_layout(t, 0, 7)
    assert sorted(asg.blocks[0]) == [0, 1, 2]
    assert sorted(len(b) for b in asg.blocks) == [1, 1, 1, 1, 3]


def test_phase2_block0_equals_kset():
    # the streaming engine must agree with the literal recursion
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        B = rng.choice([1, 2, 3, 4, 7, 8, 15, 64])
        t = gen_random(n, seed=seed * 977 + 3)
        w = compute_weights(t)
        asg = phase2_layout(t, t.root, B)
        assert set(asg.blocks[0]) == k_set(t, t.root, B, w), (n, B, seed)


def test_phase2_fresh_budget_at_every_block_root():
    # every block equals the K-set of its own root with a fresh budget;
    # subtree weights don't depend on where the enclosing recursion cut
    t = gen_random(300, seed=5)
    B = 8
    asg = phase2_layout(t, t.root, B)
    w = compute_weights(t)
    for members in asg.blocks:
        assert set(members) == k_set(t, members[0], B, w)


def test_exact_fallback_reads_the_path_off_the_block(monkeypatch):
    # at every exact fallback, the weights the engine collects by scanning
    # its block for ever shallower members are the weights of the path
    # from the tested node up to the block's root, in that order
    exact = aware._exact_reciprocal_le
    fired = []

    def spy(ws, B, wr):
        f = sys._getframe(1).f_locals
        y, mem, w = f["x"], f["mem"], f["w"]
        walk = [w[y]]
        while y != mem[0]:
            y = parent[y]
            walk.append(w[y])
        assert ws == walk
        fired[-1] += 1
        return exact(ws, B, wr)

    monkeypatch.setattr(aware, "_exact_reciprocal_le", spy)
    runs = [(gen_random(1 << 12, seed), lambda t: layout_aware(t, 4))
            for seed in range(4)]
    runs += [(gen_lower_bound(16, 8, 2**16), lambda t, B=B: layout_aware(t, B))
             for B in (64, 1024)]
    # the entry of each perfect piece size splits a perfect tree of that
    # size, the same as t, whole as one piece
    runs += [(gen_perfect(m - 1), lambda t: _perfect_piece.__wrapped__(t.n))
             for m in range(4, 14)]
    for tree, make in runs:
        parent = tree.parent
        fired.append(0)
        make(tree)
    # random trees at B=4 fall back about 80 times in 4096 nodes, the
    # lower-bound tree never, and perfect pieces of 4, 8-11 levels do
    assert all(fired[:4]) and fired[4:6] == [0, 0] and any(fired[6:])


@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       B=st.sampled_from([1, 2, 3, 4, 8, 64]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_budget_partition_grows_only_into_unassigned_nodes(n, seed, B, data):
    # pre-place a few nodes, some with their whole subtree; the engine
    # must cover exactly the free nodes reachable from the root without
    # crossing a placed node, and clear only their free entries
    t = gen_random(n, seed)
    free = bytearray(b"\1") * n
    marks = data.draw(st.lists(st.tuples(st.integers(1, max(1, n - 1)),
                                         st.booleans()),
                               max_size=4 if n > 1 else 0))
    for x, whole in marks:
        stack = [x]
        while stack:
            y = stack.pop()
            free[y] = 0
            if whole:
                stack += [c for c in (t.left[y], t.right[y]) if c is not None]
    before = bytes(free)
    region = []
    stack = [t.root]
    while stack:
        y = stack.pop()
        region.append(y)
        stack += [c for c in (t.left[y], t.right[y])
                  if c is not None and before[c]]
    w = [0] * n
    for y in reversed(region):  # region lists parents before children
        w[y] = 1 + sum(w[c] for c in (t.left[y], t.right[y])
                       if c is not None and before[c])

    blocks = [[]]  # a placeholder: new blocks go after it
    _budget_partition(t.left, t.right, t.depth, w, t.root, B, blocks, free)
    assert sorted(x for P in blocks[1:] for x in P) == sorted(region)
    for P in blocks[1:]:
        assert 0 < len(P) <= B
        assert not any(free[x] for x in P)
    inside = set(region)
    assert all(free[x] == before[x] for x in range(n) if x not in inside)


# ------------------------------------------------------------ full layout

def test_aware_single_node():
    t = gen_path(1)
    for B in (1, 2, 64):
        asg = layout_aware(t, B)
        assert asg.blocks == ([0],) or list(asg.blocks) == [[0]]


def test_aware_perfect2047_b7_all_phase1():
    t = gen_perfect(10)
    asg = layout_aware(t, 7)
    assert asg.phase1_levels == t.height + 1 == 11
    assert_valid_assignment(t, asg)


def test_aware_path1024_b15():
    t = gen_path(1024)
    asg = layout_aware(t, 15)
    sizes = [len(b) for b in asg.blocks]
    # the 10 phase-1 levels in one block, then the budget recursion
    assert sizes[:3] == [10, 14, 14]
    # near-1 densities deliver ~B - k nodes per block; only the last few
    # blocks underfill further as the leftover path gets short
    assert all(s == 14 for s in sizes[3:-8])
    assert all(1 <= s <= 15 for s in sizes)
    assert sum(sizes) == 1024


def test_aware_block_ids_follow_discovery_order():
    t = gen_random(500, seed=11)
    asg = layout_aware(t, 16)
    rank = {x: i for i, x in enumerate(t.preorder())}
    roots = [b[0] for b in asg.blocks]
    assert roots == sorted(roots, key=rank.__getitem__)


@given(family=st.sampled_from(["random", "path", "perfect"]),
       n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       B=st.sampled_from([1, 2, 4, 16, 256]))
@settings(max_examples=80, deadline=None)
def test_phase1_depth_is_ceil_lg_n(family, n, seed, B):
    # the least L with 2**L >= N, capped at the height
    if family == "random":
        t = gen_random(n, seed)
    elif family == "path":
        t = gen_path(n)
    else:
        t = gen_perfect(n.bit_length() - 1)
    asg = layout_aware(t, B)
    assert asg.phase1_levels == min((t.n - 1).bit_length(), t.height + 1)


@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       B=st.sampled_from([1, 2, 3, 4, 8, 16, 64, 256]))
@settings(max_examples=80, deadline=None)
def test_aware_partition_properties(n, seed, B):
    t = gen_random(n, seed)
    asg = layout_aware(t, B)
    assert_valid_assignment(t, asg)


def test_aware_deterministic():
    t = gen_random(2000, seed=99)
    a = layout_aware(t, 32)
    b = layout_aware(t, 32)
    assert a.blocks == b.blocks and a.block_of == b.block_of


@pytest.mark.parametrize("make", [lambda: gen_random(1 << 15, 3),
                                  lambda: gen_path(1 << 15),
                                  lambda: gen_perfect(14)],
                         ids=["random", "path", "perfect"])
def test_aware_layout_memory_per_node(make, peak_bytes):
    # a block_of list built during the layout, with one id object per
    # block, peaks at 45.9 (random), 57.2 (path) and 28.6 (perfect) bytes
    # a node; a one-byte free mask and no block_of peak at 34.3, 50.0 and
    # 18.3.  The bound leaves the path, the largest, 4 bytes a node (8%)
    tree = make()
    asg, peak, _ = peak_bytes(lambda: layout_aware(tree, 64))
    assert len(asg.block_of) == tree.n
    assert peak <= 54 * tree.n


def _block_index(blocks, n):
    """Block id of every node ``0..n-1``, -1 for nodes in no block."""
    out = [-1] * n
    for i, mem in enumerate(blocks):
        for x in mem:
            out[x] = i
    return out


@pytest.mark.parametrize("make", [lambda: gen_random(500, 4),
                                  lambda: gen_path(70),
                                  lambda: gen_perfect(7)],
                         ids=["random", "path", "perfect"])
@pytest.mark.parametrize("B", [1, 3, 64])
def test_block_of_is_derived_from_blocks_on_first_read(make, B):
    t = make()
    asg = layout_aware(t, B)
    assert "block_of" not in vars(asg)  # `layout aware` never builds it
    assert asg.block_of == _block_index(asg.blocks, t.n)
    assert asg.block_of is asg.block_of  # kept after the first read
    # a region's layout: -1 outside it, and an entry for every node
    for root in sorted({0, t.n // 2, t.n - 1}):
        part = phase2_layout(t, root, B)
        assert "block_of" not in vars(part)
        assert part.block_of == _block_index(part.blocks, t.n)
    # a layout read from disk keeps the index its validation built
    got = layout_from_json(layout_to_json(asg))
    assert vars(got)["block_of"] == asg.block_of


def test_replace_keeps_block_of_and_the_exclusion_rule():
    # the benchmark's checks give a layout read from disk its phase-1
    # depth with dataclasses.replace; a fresh layout is replaced before
    # its block_of is first read
    for seed in (0, 1):
        t = gen_random(3000, seed=seed)
        w = compute_weights(t)
        for B in (2, 8, 64):
            asg = layout_aware(t, B)
            want = _block_index(asg.blocks, t.n)
            for src in (asg, layout_from_json(layout_to_json(asg), n=t.n)):
                got = dataclasses.replace(src,
                                          phase1_levels=asg.phase1_levels)
                assert got.blocks == asg.blocks
                assert got.block_of == want
                assert exclusion_violations(t, w, got) == 0


@pytest.mark.parametrize("root", [0, 5, 31])
def test_replace_copy_of_a_region_prices_like_the_original(root):
    # the copy indexes the whole tree too, not the region's largest id
    t = gen_random(50, 3)
    part = phase2_layout(t, root, 4)
    copy = dataclasses.replace(part)
    assert copy.n == t.n and "block_of" not in vars(copy)
    assert copy.block_of == part.block_of
    assert cost_report(t, copy.block_of) == cost_report(t, part.block_of)


@pytest.mark.parametrize("make,calls", [
    (lambda: gen_perfect(10), 0),
    (lambda: gen_random(500, 2), 1),
    (lambda: gen_path(50), 1),
], ids=["perfect", "random", "path"])
def test_subtree_sizes_only_for_phase_2(monkeypatch, make, calls):
    # phase 1 reaches every level of a perfect tree, and only phase 2
    # reads the sizes
    seen = []

    def counting(tree):
        seen.append(tree)
        return compute_weights(tree)

    tree = make()
    want = layout_aware(tree, 4)
    monkeypatch.setattr(aware, "compute_weights", counting)
    got = layout_aware(tree, 4)
    assert (got.blocks, got.block_of) == (want.blocks, want.block_of)
    assert len(seen) == calls


def test_exclusion_bound_zero_violations():
    for seed in (0, 1, 2):
        t = gen_random(3000, seed=seed)
        w = compute_weights(t)
        for B in (2, 8, 64):
            asg = layout_aware(t, B)
            assert exclusion_violations(t, w, asg) == 0


def test_exclusion_violations_counts_a_violation():
    # on a path w(x) = 8 - x.  Node 1 starts a block at k = 1 below node
    # 0, where the rule needs (1 + 1) * w(0) = 16 > 4 * w(1) = 28, which
    # fails; node 5 starts one at k = 4 below node 1, where
    # (4 + 1) * w(1) = 35 > 4 * w(5) = 12 holds
    t = gen_path(8)
    asg = aware.BlockAssignment(
        B=4, blocks=[[0], [1, 2, 3, 4], [5, 6, 7]], n=8, phase1_levels=0)
    assert exclusion_violations(t, compute_weights(t), asg) == 1


@pytest.mark.parametrize("call,message", [
    (lambda t: phase2_layout(t, 0, 0), "B must be positive"),
    (lambda t: layout_aware(t, 0), "B must be positive"),
    (lambda t: exclusion_violations(
        t, compute_weights(t),
        layout_from_json(layout_to_json(layout_aware(t, 2)))),
     "assignment lacks phase information"),
    (lambda t: layout_from_json({"B": 2, "blocks": [[0, 1], [2]]}, n=4),
     "layout does not cover node 3"),
], ids=["phase2-B", "aware-B", "no-phase", "uncovered"])
def test_aware_inputs_are_checked(call, message):
    with pytest.raises(TreeError, match=message):
        call(gen_perfect(2))


# ------------------------------------------------------------ serialization

def test_layout_json_roundtrip():
    t = gen_random(200, seed=3)
    asg = layout_aware(t, 9)
    obj = layout_to_json(asg)
    assert sorted(obj) == ["B", "blocks"]
    back = layout_from_json(obj, t.n)
    assert list(back.blocks) == [list(b) for b in asg.blocks]
    assert back.B == 9
    # without n, the layout is read for as many nodes as its blocks hold
    assert layout_from_json(obj).block_of == back.block_of


def test_layout_json_sized_by_its_blocks_rejects_gaps():
    with pytest.raises(TreeError, match="out of range"):
        layout_from_json({"B": 2, "blocks": [[0, 1], [3]]})


def test_layout_json_rejects_oversized_block():
    obj = {"B": 2, "c": "1", "blocks": [[0, 1, 2]]}
    with pytest.raises(Exception):
        layout_from_json(obj, n=3)


def test_layout_json_rejects_duplicates():
    obj = {"B": 4, "c": "1", "blocks": [[0, 1], [1, 2]]}
    with pytest.raises(Exception):
        layout_from_json(obj, n=3)


@pytest.mark.parametrize("B,blocks,message", [
    (4, [[0, 1], [1, 2]], "node 1 in two blocks"),
    (2, [[0, 1, 2]], "block 0 exceeds size B=2"),
    (2, [[0], []], "block 1 is empty"),
    (2, [[0, True]], "node id out of range in layout: True"),
    (2, [[0, "a"]], "node id out of range in layout: 'a'"),
    (2, [[0, None]], "node id out of range in layout: None"),
    (2, [[0, 1.5]], "node id out of range in layout: 1.5"),
], ids=["two-blocks", "over-B", "empty", "bool", "str", "None", "float"])
def test_hand_built_assignment_is_checked_on_first_read(B, blocks, message):
    # the index is built by the code that checks a layout file, for as
    # many nodes as the blocks hold
    asg = aware.BlockAssignment(B, blocks, sum(map(len, blocks)))
    with pytest.raises(TreeError, match=message):
        asg.block_of


def test_padded_order_shape():
    t = gen_random(50, seed=21)
    asg = layout_aware(t, 8)
    slots = padded_order(asg)
    assert len(slots) == 8 * len(asg.blocks)
    ids = [x for x in slots if x is not None]
    assert sorted(ids) == list(range(50))
    for i, members in enumerate(asg.blocks):
        chunk = [x for x in slots[8 * i:8 * (i + 1)] if x is not None]
        assert chunk == list(members)
