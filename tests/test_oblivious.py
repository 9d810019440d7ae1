"""Single linear order serving every block size; aligned-slice evaluation."""

import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from treelayout import (LinearOrder, TreeError, TreeTopology, block_ids,
                        cost_report, gen_lower_bound, gen_path, gen_perfect,
                        gen_random, layout_aware, layout_oblivious,
                        order_from_json, order_to_json, refinement_levels)
from treelayout import aware, oblivious
from treelayout.aware import _budget_partition
from treelayout.oblivious import (_perfect_piece, _piece_budget, _read_order,
                                  _split)


def test_single_node():
    t = gen_path(1)
    assert layout_oblivious(t).order == (0,)


def test_path_orders_are_path_order():
    for n in (2, 4, 100, 513):
        t = gen_path(n)
        assert layout_oblivious(t).order == tuple(range(n))


def test_perfect7_root_first_subtrees_contiguous():
    t = gen_perfect(2)
    order = layout_oblivious(t).order
    assert order == (0, 1, 3, 4, 2, 5, 6)
    assert order[0] == t.root
    pos = {x: i for i, x in enumerate(order)}
    for sub in ({1, 3, 4}, {2, 5, 6}):
        ps = sorted(pos[x] for x in sub)
        assert ps == list(range(ps[0], ps[0] + 3))


@given(n=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_order_is_bijection_with_root_first(n, seed):
    t = gen_random(n, seed)
    order = layout_oblivious(t)
    assert sorted(order.order) == list(range(n))
    assert order.order[0] == t.root
    assert order.position[t.root] == 0


def test_deterministic():
    t = gen_random(4000, seed=17)
    assert layout_oblivious(t).order == layout_oblivious(t).order


def test_refinement_levels_nest_and_stay_contiguous():
    for seed in (0, 5, 9):
        t = gen_random(700, seed=seed)
        levels = refinement_levels(t)
        order = layout_oblivious(t)
        pos = order.position
        prev_block_of = None
        for part in levels:
            covered = []
            block_of = {}
            for i, P in enumerate(part):
                covered += P
                ps = sorted(pos[x] for x in P)
                # contiguous run of the final order
                assert ps == list(range(ps[0], ps[0] + len(P)))
                for x in P:
                    block_of[x] = i
            assert sorted(covered) == list(range(t.n))
            if prev_block_of is not None:
                # each finer block sits inside one coarser block
                for P in part:
                    assert len({prev_block_of[x] for x in P}) == 1
            prev_block_of = block_of
        assert all(len(P) <= 2 for P in levels[-1])


@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=2, seed=0)
@example(n=3, seed=0)
@settings(max_examples=40, deadline=None)
def test_last_round_is_the_order(n, seed):
    t = gen_random(n, seed)
    last = refinement_levels(t)[-1]
    assert tuple(x for P in last for x in P) == layout_oblivious(t).order


@pytest.mark.parametrize("h", range(18))
def test_last_round_is_the_order_on_perfect_trees(h):
    # refinement_levels splits every piece with the engine, and
    # layout_oblivious gathers each piece of a perfect tree through the
    # entry for its size: height 17 has pieces of 9 levels
    t = gen_perfect(h)
    last = refinement_levels(t)[-1]
    assert tuple(x for P in last for x in P) == layout_oblivious(t).order


def test_refinement_pieces_are_connected():
    t = gen_random(300, seed=3)
    for part in refinement_levels(t):
        for P in part:
            members = set(P)
            tops = [x for x in P if t.parent[x] not in members]
            assert len(tops) == 1


def _region(t, root, free):
    """``root`` plus every node reachable through children whose
    ``free`` entry is 1, in preorder, and subtree sizes within it."""
    region, stack = [], [root]
    while stack:
        x = stack.pop()
        region.append(x)
        for c in (t.right[x], t.left[x]):
            if c is not None and free[c]:
                stack.append(c)
    w = [0] * t.n
    inside = set(region)
    for x in reversed(region):
        w[x] = 1 + sum(w[c] for c in (t.left[x], t.right[x]) if c in inside)
    return region, w


_trees = st.one_of(
    st.builds(gen_random, st.integers(1, 300), st.integers(0, 2**32 - 1)),
    st.builds(gen_path, st.integers(1, 300)),
    st.builds(gen_perfect, st.integers(0, 8)))


@given(t=_trees, cut=st.integers(0, 2**32 - 1), density=st.sampled_from(
    [0.0, 0.1, 0.5]))
@settings(max_examples=80, deadline=None)
def test_budget_two_splits_into_single_nodes_in_preorder(t, cut, density):
    # the fact the rounds rely on to split a piece of budget 2 without
    # the engine; density > 0 cuts the region off at pre-assigned nodes
    rng = random.Random(cut)
    root = rng.randrange(t.n) if density else t.root
    free = bytearray(b"\1") * t.n
    for x in range(t.n):
        if x != root and rng.random() < density:
            free[x] = 0
    region, w = _region(t, root, free)
    if not density:
        assert region == list(t.preorder())
    blocks = []
    _budget_partition(t.left, t.right, t.parent, w, root, 2, blocks, free)
    assert blocks == [[x] for x in region]


def _reference_rounds(tree):
    """Every refinement round with each piece of more than two nodes split
    by ``_budget_partition``, budget 2 included."""
    top = layout_aware(tree, _piece_budget(tree.n))
    pieces, free = top.blocks, bytearray(tree.n)
    left, right, parent = tree.left, tree.right, tree.parent
    w = [0] * tree.n
    out = [pieces]
    while any(len(P) > 2 for P in pieces):
        finer = []
        for P in pieces:
            if len(P) <= 2:
                finer.append(P)
                continue
            # child checks on purpose: a reference for _split's parent links
            for x in reversed(P):
                s = 1
                for c in (left[x], right[x]):
                    if c is not None and free[c]:
                        s += w[c]
                w[x] = s
                free[x] = 1
            _budget_partition(left, right, parent, w, P[0],
                              _piece_budget(len(P)), finer, free)
        pieces = finer
        out.append(pieces)
    return out


@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rounds_match_reference_on_random_trees(n, seed):
    t = gen_random(n, seed)
    assert refinement_levels(t) == _reference_rounds(t)


@pytest.mark.parametrize("t", [gen_perfect(h) for h in range(11)]
                         + [gen(n) for n in (1, 2, 3, 7, 8, 9)
                            for gen in (gen_path,
                                        lambda n: gen_random(n, seed=n))]
                         # top-level pieces of 6-8 levels
                         + [gen_perfect(h) for h in range(11, 17)])
def test_rounds_match_reference(t):
    assert refinement_levels(t) == _reference_rounds(t)


def test_perfect_piece_entry_is_the_engine_on_one_piece(monkeypatch):
    # every piece height from 3 to 13 levels, the whole tree as the
    # piece; gen_perfect's heap ids are not in preorder, so the entry's
    # map from preorder slots to nodes is checked too
    ties = []
    exact = aware._exact_reciprocal_le
    monkeypatch.setattr(aware, "_exact_reciprocal_le",
                        lambda *a: ties.append(a) or exact(*a))
    for m in range(3, 14):
        t = gen_perfect(m - 1)
        P = list(t.preorder())
        assert P != sorted(P)
        assert list(_perfect_piece(len(P))(P)) == _split(t, [P]), m
    # the engine's exact fallback decided sums that sit exactly on their
    # target (at m = 4)
    assert ties


def test_perfect_piece_entries_stay_within_the_top_budget(monkeypatch):
    # entries exist only for pieces of level 0, the blocks of the aware
    # layout at _piece_budget(n), never for the whole tree
    sizes = []
    entry = oblivious._perfect_piece
    entry.cache_clear()
    monkeypatch.setattr(oblivious, "_perfect_piece",
                        lambda size: sizes.append(size) or entry(size))
    t = gen_perfect(19)
    assert layout_oblivious(t).n == 2**20 - 1
    assert sizes and max(sizes) <= _piece_budget(2**20 - 1)


def test_perfect_tree_pieces_split_without_the_engine(monkeypatch):
    def engine(*args):
        raise AssertionError("engine called")

    t = gen_perfect(11)
    expected = layout_oblivious(t).order
    # with every entry cached, no piece is sized or split
    monkeypatch.setattr(oblivious, "_split", engine)
    monkeypatch.setattr(oblivious, "_budget_partition", engine)
    assert layout_oblivious(t).order == expected
    # with none cached, the engine runs once per piece size
    sizes = []
    monkeypatch.setattr(oblivious, "_split",
                        lambda tree, pieces: sizes.append(
                            [len(P) for P in pieces]) or _split(tree, pieces))
    monkeypatch.setattr(oblivious, "_budget_partition", _budget_partition)
    _perfect_piece.cache_clear()
    assert layout_oblivious(t).order == expected
    top = layout_aware(t, _piece_budget(t.n)).blocks
    assert sorted(sizes) == [[s] for s in sorted({len(P) for P in top
                                                  if len(P) > 7})]
    # a tree of the same size that is not perfect still uses the engine
    calls = []
    monkeypatch.setattr(oblivious, "_budget_partition",
                        lambda *a: calls.append(a) or _budget_partition(*a))
    assert layout_oblivious(gen_random(2**12 - 1, 0)).n == 2**12 - 1
    assert calls


@pytest.mark.parametrize("make", [lambda: gen_path(1 << 15),
                                  lambda: gen_random(1 << 15, 3)],
                         ids=["path", "random"])
def test_order_build_memory_per_node(make, peak_bytes):
    # a build that holds a whole round of pieces at once (every node as
    # its own list in the last one) peaks at about 145-160 bytes a node;
    # refining one piece at a time peaks at about 75-85
    tree = make()
    order, peak, _ = peak_bytes(lambda: layout_oblivious(tree))
    assert order.n == tree.n
    assert peak <= 120 * tree.n


@pytest.mark.parametrize("make", [lambda: gen_random(1 << 15, 3),
                                  lambda: gen_path(1 << 15),
                                  lambda: gen_perfect(14)],
                         ids=["random", "path", "perfect"])
def test_topology_build_memory_per_node(make, peak_bytes):
    # five whole-list checks ahead of the walk (a set of every child id
    # among them) peak at about 128-160 bytes a node; validating inside
    # the walk peaks at about 64-96
    t = make()
    left, right = list(t.left), list(t.right)
    tree, peak, _ = peak_bytes(lambda: TreeTopology(left, right, t.root))
    assert tree == t
    assert peak <= 112 * tree.n


def test_rounds_match_reference_on_mirrored_and_lower_bound_trees():
    # the mirrored random trees of the differential tests, and the
    # lower-bound trees of the differential and golden tests with their
    # mirror images
    def mirror(t):
        return TreeTopology(t.right, t.left, t.root)

    trees = [mirror(gen_random(n, seed)) for n in (1, 2, 3, 5, 7, 8, 9, 64,
                                                   400, 1000)
             for seed in (0, n)]
    for B, N in [(B, 600) for B in (1, 2, 3, 4, 7, 8, 16, 64)] + [
            (1, 4096), (4, 4096), (64, 4096)]:
        t = gen_lower_bound(B, 4, N)
        trees += [t, mirror(t)]
    seen = set()
    for t in trees:
        rounds = refinement_levels(t)
        assert rounds == _reference_rounds(t)
        # the largest piece the last round re-split: none for a single
        # round; if at most 7, the last round exists only because pieces of
        # 3-7 nodes made one level up still split into single nodes
        big = max(map(len, rounds[-2])) if len(rounds) > 1 else 0
        seen.add("single" if not big else "3-7" if big <= 7 else "larger")
    assert {"single", "3-7"} <= seen


# ------------------------------------------------------------ block_ids

def test_blocks_at_b1_singletons():
    t = gen_path(5)
    order = layout_oblivious(t)
    assert block_ids(order, 1) == [0, 1, 2, 3, 4]


def test_blocks_at_big_b_single_block():
    t = gen_perfect(2)
    order = layout_oblivious(t)
    assert set(block_ids(order, 16)) == {0}


def test_blocks_at_offset():
    t = gen_path(4)
    order = layout_oblivious(t)
    # positions 0..3 shifted by 1 then cut into pairs
    assert block_ids(order, 2, offset=1) == [0, 1, 1, 2]


def test_blocks_at_validates_offset():
    order = layout_oblivious(gen_path(4))
    with pytest.raises(TreeError):
        block_ids(order, 2, offset=2)
    with pytest.raises(TreeError):
        block_ids(order, 0)


def test_block_ids_of_padded_order_use_slot_indices():
    order = LinearOrder([None, 2, 0, None, 1])
    assert order.n == 3
    assert order.position == (2, 4, 1)
    assert block_ids(order, 2) == [1, 2, 0]


# ------------------------------------------------------------ cost shape

def test_path_scan_cost_bound():
    # <= ceil(D/B) + 1 transfers on path trees, for every B and offset
    t = gen_path(256)
    order = layout_oblivious(t)
    for B in (1, 2, 3, 7, 16, 64, 256):
        for off in (0, B // 2, B - 1):
            rep = cost_report(t, block_ids(order, B, off % B))
            for D in range(256):
                assert rep.worst_exact[D] <= math.ceil(D / B) + 1


def test_perfect_tree_ratio_to_aware_stays_small():
    # one mid-size spot check of the all-B guarantee (full grid runs in
    # the acceptance suite)
    t = gen_perfect(12)
    order = layout_oblivious(t)
    for B in (4, 16, 64):
        obl = cost_report(t, block_ids(order, B, 0))
        awa = cost_report(t, layout_aware(t, B).block_of)
        for D in range(13):
            assert obl.worst_exact[D] <= 4 * awa.worst_exact[D]


def test_perfect_tree_order_sizes_no_whole_tree(monkeypatch):
    # the top-level aware layout of a perfect tree is all phase 1, and
    # each later piece counts its own sizes
    calls = []
    monkeypatch.setattr(aware, "compute_weights", calls.append)
    assert layout_oblivious(gen_perfect(12)).n == (1 << 13) - 1
    assert calls == []


# ------------------------------------------------------------ serialization

def test_order_json_roundtrip():
    t = gen_random(64, seed=8)
    order = layout_oblivious(t)
    back = order_from_json(order_to_json(order), t.n)
    assert back.order == order.order


def test_order_from_json_leaves_its_argument_unchanged():
    obj = order_to_json(layout_oblivious(gen_random(50, seed=6)))
    before = json.dumps(obj)
    order = order_from_json(obj, 50)
    assert json.dumps(obj) == before
    assert order.order == tuple(obj["order"])


def test_read_order_takes_the_list_out():
    obj = {"order": [2, None, 0, 1], "note": 1}
    order = _read_order(obj, 3)
    assert obj == {"note": 1}
    assert order.order == (2, None, 0, 1)


def test_read_order_memory_per_node(peak_bytes):
    # parsed under the trace: the parsed ints (28 bytes a node) and list
    # (8), then the tuple and the two position lists (8 each); the list
    # goes once its tuple exists, so the peak is about 52 bytes a node,
    # and about 61 while the list was held beside them
    text = json.dumps(order_to_json(layout_oblivious(gen_random(1 << 15, 3))))
    order, peak, _ = peak_bytes(lambda: _read_order(json.loads(text), 1 << 15))
    assert order.n == 1 << 15
    assert peak <= 56 * order.n


def test_order_json_rejects_non_permutation():
    with pytest.raises(TreeError):
        order_from_json({"order": [0, 0, 1]}, 3)


@pytest.mark.parametrize("seq", [(0, True, 2), (0, 1.0, 2), (0, "1", 2),
                                 (0, 3, 1), (-1, 0, 1)])
def test_linear_order_rejects_non_ids(seq):
    with pytest.raises(TreeError):
        LinearOrder(seq).position


@pytest.mark.parametrize("seq,message", [
    ((0, True, 2), "order entries must be node ids or null"),
    ((0, None, 1.0), "order entries must be node ids or null"),
    ((0, 2, 0, None), "order is not a permutation of 0..2"),
    ((None, 1, 1, 0), "order is not a permutation of 0..2"),
    ((0, 3, 1, None), "order is not a permutation of 0..2"),
    ((None, -1, 0, 1), "order is not a permutation of 0..2"),
])
def test_linear_order_rejection_messages(seq, message):
    # the checks run on the first read of position, or of n, which reads it
    for read in (lambda order: order.position, lambda order: order.n):
        with pytest.raises(TreeError) as err:
            read(LinearOrder(seq))
        assert str(err.value) == message


def test_position_is_derived_from_order_on_first_read():
    order = layout_oblivious(gen_random(500, seed=2))
    assert vars(order) == {"order": order.order}  # construction builds none
    want = [None] * 500
    for p, x in enumerate(order.order):
        want[x] = p
    assert order.position == tuple(want)
    assert order.position is order.position  # kept after the first read
    # an order that is no permutation is built, and refused when read
    bad = LinearOrder([0, 2, 0, None])
    assert vars(bad) == {"order": (0, 2, 0, None)}
    with pytest.raises(TreeError):
        bad.n


def _json_order(seq):
    """``LinearOrder`` of ``seq`` as read from a file: ints that no other
    object shares."""
    return order_from_json(json.loads(json.dumps({"order": list(seq)})),
                           len(seq) - seq.count(None))


@pytest.mark.parametrize("pad", ["none", "start", "middle", "end", "spread"])
def test_positions_share_the_order_ints(pad):
    rng = random.Random(11)
    seq = list(range(1000))
    rng.shuffle(seq)
    gaps = {"none": [], "start": [0] * 5, "middle": [500] * 7,
            "end": [1000] * 3, "spread": [rng.randrange(1001)
                                          for _ in range(40)]}[pad]
    for i in sorted(gaps, reverse=True):
        seq.insert(i, None)
    order = _json_order(seq)
    want = [None] * 1000
    for p, x in enumerate(seq):
        if x is not None:
            want[x] = p
    assert order.position == tuple(want)
    # the slot p < n is the order's own int for node p
    assert all(p is order.order[order.position[p]]
               for p in order.position if p < 1000)


def test_linear_order_memory_per_node(peak_bytes):
    # from a tuple of parsed ids, a fresh int per slot peaked at about 44
    # bytes a node; the order's own ints as positions leave two lists of
    # pointers, about 16 (a list to copy adds 8).  The positions are
    # derived on first read, so the read is measured with the order.
    seq = tuple(json.loads(json.dumps(list(layout_oblivious(
        gen_random(1 << 15, 3)).order))))
    position, peak, _ = peak_bytes(lambda: LinearOrder(seq).position)
    assert len(position) == len(seq)
    assert peak <= 24 * len(seq)


@pytest.mark.parametrize("obj", [{"order": 7}, {"order": "012"},
                                 {"order": {"0": 0}}, {"order": None},
                                 {"order": [0, True, 2]}, [0, 1], 7])
def test_order_json_rejects_bad_types(obj):
    with pytest.raises(TreeError):
        order_from_json(obj, 3)


def test_order_json_rejects_wrong_tree():
    with pytest.raises(TreeError):
        order_from_json({"order": [1, 0, 2]}, 4)  # a 3-node order
