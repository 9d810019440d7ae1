"""Transfer counting, the piecewise bound, analysis identities, the oracle."""

import math
import random
import sys
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from treelayout import (CostReport, LinearOrder, ResourceLimitError,
                        TreeError, TreeTopology, block_ids,
                        brute_force_optimal, budget_along_path,
                        compute_weights, cost_report, gen_lower_bound,
                        gen_path, gen_perfect, gen_random, iter_shapes,
                        layout_aware, layout_oblivious, order_report,
                        padded_order, path_cost, phase2_layout,
                        shape_to_tree, solve_p, theoretical_bound,
                        worst_by_offset)
from treelayout import cost


# ------------------------------------------------------------ path_cost

@given(xs=st.lists(st.integers(-10**20, 10**20)), n=st.integers(1, 120),
       seed=st.integers(0, 2**32 - 1), B=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_cost_report_worst_cum_is_accumulate_max(xs, n, seed, B):
    # a report keeps any worst_exact it is given, a list or a compact
    # worst_by_offset column, and derives worst_cum from it
    t = gen_random(n, seed)
    for we in [xs, *worst_by_offset(t, layout_oblivious(t), B)]:
        rep = CostReport(we)
        assert rep.worst_exact is we
        assert rep.worst_cum == list(accumulate(we, max))


def test_root_costs_one():
    t = gen_perfect(3)
    asg = layout_aware(t, 4)
    assert path_cost(asg.block_of, t, t.root) == 1


def test_path4_b4_two_blocks():
    t = gen_path(4)
    asg = phase2_layout(t, 0, 4)
    assert [sorted(b) for b in asg.blocks] == [[0, 1], [2, 3]]
    assert path_cost(asg.block_of, t, 3) == 2


def test_perfect7_singletons_cost_three():
    t = gen_perfect(2)
    asg = phase2_layout(t, 0, 3)  # every node its own block
    for leaf in (3, 4, 5, 6):
        assert path_cost(asg.block_of, t, leaf) == 3


def test_path_cost_rejects_bad_node():
    t = gen_path(3)
    asg = layout_aware(t, 2)
    with pytest.raises(TreeError):
        path_cost(asg.block_of, t, 3)


@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       B=st.sampled_from([1, 2, 4, 8, 32]))
@settings(max_examples=60, deadline=None)
def test_path_cost_bounds(n, seed, B):
    t = gen_random(n, seed)
    asg = layout_aware(t, B)
    rng = random.Random(seed)
    for x in rng.sample(range(n), min(n, 10)):
        c = path_cost(asg.block_of, t, x)
        D = t.depth[x]
        assert math.ceil((D + 1) / B) <= c <= D + 1


# ------------------------------------------------------------ cost_report

def test_report_depth_zero_is_one():
    t = gen_perfect(4)
    rep = cost_report(t, layout_aware(t, 8).block_of)
    assert rep.worst_exact[0] == 1


def test_report_perfect7_one_block():
    t = gen_perfect(2)
    rep = cost_report(t, layout_aware(t, 7).block_of)
    assert rep.worst_exact == [1, 1, 1]


def test_report_perfect7_singleton_cascade():
    t = gen_perfect(2)
    rep = cost_report(t, phase2_layout(t, 0, 3).block_of)
    assert rep.worst_exact == [1, 2, 3]


def test_report_cumulative_monotone_and_matches_exact():
    t = gen_random(500, seed=2)
    rep = cost_report(t, layout_aware(t, 4).block_of)
    for d in range(1, t.height + 1):
        assert rep.worst_cum[d] >= rep.worst_cum[d - 1]
        assert rep.worst_cum[d] == max(rep.worst_exact[:d + 1])


def test_report_counts_scattered_blocks():
    # a block id function whose "blocks" are not connected in the tree
    t = gen_path(4)
    blk = {0: 0, 1: 1, 2: 0, 3: 1}
    rep = cost_report(t, blk)
    assert rep.worst_exact == [1, 2, 2, 2]


def _tree(kind, size, seed):
    if kind == "random":
        return gen_random(size, seed)
    if kind == "path":
        return gen_path(size)
    return gen_perfect(size % 7)


@given(kind=st.sampled_from(["random", "path", "perfect"]),
       size=st.integers(1, 90), seed=st.integers(0, 2**32 - 1),
       ids=st.sampled_from(["list", "dict", "phase2", "negative"]),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_report_matches_path_cost(kind, size, seed, ids, data):
    t = _tree(kind, size, seed)
    if ids == "phase2":
        # nodes outside the laid-out subtree keep block id -1
        root = data.draw(st.integers(0, t.n - 1))
        blk = phase2_layout(t, root, data.draw(st.integers(1, 6))).block_of
    else:
        # few ids over many nodes: blocks scattered across the tree; the
        # negative kind reaches further below zero than above it
        lo, hi = (-40, 2) if ids == "negative" else (-3, 4)
        blk = data.draw(st.lists(st.integers(lo, hi), min_size=t.n,
                                 max_size=t.n))
        if ids == "dict":
            blk = {x: b for x, b in enumerate(blk)}
    rep = cost_report(t, blk)
    costs = {x: path_cost(blk, t, x) for x in range(t.n)}
    for d in range(t.height + 1):
        at_d = [x for x in t.preorder() if t.depth[x] == d]
        top = max(costs[x] for x in at_d)
        assert rep.worst_exact[d] == top
        assert rep.worst_cum[d] == max(rep.worst_exact[:d + 1])


# ------------------------------------------------------------ worst_by_offset

def _caterpillar(spine: int) -> TreeTopology:
    """A left spine of ``spine`` nodes, each but the last with a right
    leaf: the heavier child always comes first in preorder."""
    n = 2 * spine - 1
    left = [i + 1 for i in range(spine - 1)] + [None] * spine
    right = [spine + i for i in range(spine - 1)] + [None] * spine
    return TreeTopology(left[:n], right[:n])


def _mirror(tree: TreeTopology) -> TreeTopology:
    """Left and right child lists swapped: a caterpillar's mirror image
    is a right spine with left leaves, its lighter child coming first in
    preorder."""
    return TreeTopology(tree.right, tree.left, tree.root)


def _offset_tree(kind, size, seed):
    if kind == "caterpillar":
        return _caterpillar(size // 2 + 1)
    if kind == "caterpillar-mirrored":
        return _mirror(_caterpillar(size // 2 + 1))
    return _tree(kind, size, seed)


def _offset_order(tree, kind, rng):
    """A linear order of ``tree``: oblivious, a random permutation, one
    with null padding slots, or the oblivious order with the root moved
    off the first slot."""
    order = list(layout_oblivious(tree).order)
    if kind == "permuted":
        rng.shuffle(order)
    elif kind == "padded":
        rng.shuffle(order)
        for _ in range(rng.randint(1, tree.n)):
            order.insert(rng.randint(0, len(order)), None)
    elif kind == "unrooted":
        cut = rng.randint(1, tree.n)
        order = order[cut:] + [None] * rng.randint(0, 3) + order[:cut]
    return LinearOrder(order)


@given(kind=st.sampled_from(["random", "path", "perfect", "caterpillar",
                             "caterpillar-mirrored"]),
       size=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
       order_kind=st.sampled_from(["oblivious", "permuted", "padded",
                                   "unrooted"]),
       B=st.sampled_from([1, 2, 3, 4, 7, 16, 64, "beyond"]))
@settings(max_examples=250, deadline=None)
def test_worst_by_offset_matches_cost_report(kind, size, seed, order_kind, B):
    t = _offset_tree(kind, size, seed)
    order = _offset_order(t, order_kind, random.Random(seed))
    if B == "beyond":
        B = len(order.order) + 1 + seed % 5
    cols = worst_by_offset(t, order, B)
    assert len(cols) == B
    for off, col in enumerate(cols):
        assert list(col) == cost_report(t, block_ids(order, B, off)).worst_exact


def test_worst_by_offset_wide_cells():
    # costs past 127 and 32767 need 16- and 32-bit cells
    t = gen_path(40000)
    order = LinearOrder(range(t.n - 1, -1, -1))
    for B in (1, 2, 3):
        cols = worst_by_offset(t, order, B)
        for off in range(B):
            want = cost_report(t, block_ids(order, B, off)).worst_exact
            assert cols[off].tolist() == want


@pytest.mark.parametrize("B", [1, 2, 5, 16, 64])
def test_worst_by_offset_big_endian_columns(B, monkeypatch):
    # A big-endian host writes each row with its last field first, and
    # the columns are read back from the other end.  Only one-byte cells
    # read the same in either byte order, so the emulation needs costs
    # below 128: two-byte cells (a 300-node path at B=2 costs up to 151)
    # cannot be emulated on a little-endian host.
    t = gen_random(300, seed=5)
    order = layout_oblivious(t)
    native = worst_by_offset(t, order, B)
    assert native[0].format == "B"
    monkeypatch.setattr(sys, "byteorder", "big")
    big = worst_by_offset(t, order, B)
    assert [c.tolist() for c in big] == [c.tolist() for c in native]


def test_worst_by_offset_of_padded_aware_order_at_offset_0():
    # the padded order puts block i in slots [i*B, (i+1)*B)
    t = gen_random(300, seed=4)
    asg = layout_aware(t, 8)
    cols = worst_by_offset(t, LinearOrder(padded_order(asg)), 8)
    assert cols[0].tolist() == cost_report(t, asg.block_of).worst_exact


def test_worst_by_offset_rejects_bad_input():
    t = gen_path(4)
    with pytest.raises(TreeError):
        worst_by_offset(t, layout_oblivious(t), 0)
    with pytest.raises(TreeError):
        worst_by_offset(t, LinearOrder([0, 1, 2]), 2)


def test_worst_by_offset_refuses_tables_past_the_budget(monkeypatch):
    # B x (height + 1) cells; only the refusal is run at full size
    t = gen_path(10)
    order = layout_oblivious(t)
    with pytest.raises(ResourceLimitError, match="B=1677722 "):
        worst_by_offset(t, order, (1 << 24) // 10 + 1)
    monkeypatch.setattr(cost, "_OFFSET_CELL_BUDGET", 40)
    assert len(worst_by_offset(t, order, 4)) == 4
    with pytest.raises(ResourceLimitError, match="B=5 "):
        worst_by_offset(t, order, 5)


def test_worst_by_offset_columns_are_read_only():
    t = gen_path(8)
    col = worst_by_offset(t, layout_oblivious(t), 4)[1]
    with pytest.raises(TypeError):
        col[0] = 5


@pytest.mark.parametrize("kind", ["caterpillar", "caterpillar-mirrored",
                                  "path"])
def test_worst_by_offset_memory_stays_at_the_table(kind, peak_bytes):
    # The (height+1) x B table holds one byte per cell at these sizes
    # (costs stay below 128).  Beyond it the scan may keep O(N) small
    # lists and O(lg N) pending vectors, but not one B-cell vector per
    # ancestor: on these trees that is another whole table.
    tree = gen_path(4000) if kind == "path" else _caterpillar(4000)
    if kind == "caterpillar-mirrored":
        tree = _mirror(tree)
    B = 512
    order = layout_oblivious(tree)
    table = (tree.height + 1) * B
    cols, peak, _ = peak_bytes(lambda: worst_by_offset(tree, order, B))
    assert len(cols) == B
    assert peak <= table + (1 << 20)


def _order_pricer(tree):
    order = layout_oblivious(tree)
    return lambda: order_report(tree, order, 4)


def _block_pricer(tree):
    block_of = layout_aware(tree, 4).block_of
    return lambda: cost_report(tree, block_of)


_MEMORY_TREES = {"random": lambda: gen_random(1 << 15, 3),
                 "path": lambda: gen_path(1 << 15),
                 "perfect": lambda: gen_perfect(14)}


@pytest.mark.parametrize(
    "make,pricer",
    [pytest.param(make, _order_pricer, id=name)
     for name, make in _MEMORY_TREES.items()]
    + [pytest.param(make, _block_pricer, id="cost_report-" + name)
       for name, make in _MEMORY_TREES.items()])
def test_order_report_memory_per_node(make, pricer, peak_bytes):
    # the root-path scan keeps O(height) ints and one list slot per block
    # or slice: about 2-6 bytes a node on bushy trees, and about 42-46 on
    # a path, whose root path is the whole tree
    tree = make()
    price = pricer(tree)
    rep, peak, _ = peak_bytes(price)
    assert len(rep.worst_exact) == tree.height + 1
    assert peak <= 56 * tree.n


# ------------------------------------------------------------ order_report

def _report_order(tree, kind, rng):
    """The oblivious order, an aware layout's padded order (null slots),
    or a random permutation with nulls whose first slot is not the root."""
    if kind == "oblivious":
        return layout_oblivious(tree)
    if kind == "padded":
        return LinearOrder(padded_order(layout_aware(tree, rng.randint(1, 6))))
    order = list(range(tree.n))
    rng.shuffle(order)
    for _ in range(rng.randint(1, tree.n)):
        order.insert(rng.randint(0, len(order)), None)
    if order[0] == tree.root:
        order.append(order.pop(0))
    return LinearOrder(order)


@given(kind=st.sampled_from(["random", "path", "perfect", "lowerbound"]),
       size=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
       order_kind=st.sampled_from(["oblivious", "padded", "unrooted"]),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_order_report_matches_cost_report(kind, size, seed, order_kind,
                                          data):
    if kind == "lowerbound":
        # gadgets of at most 15 nodes
        t = gen_lower_bound(1 + seed % 8, 2 << seed % 2, max(size, 15))
    else:
        t = _tree(kind, size, seed)
    order = _report_order(t, order_kind, random.Random(seed))
    assert order_kind != "unrooted" or order.order[0] != t.root
    B = data.draw(st.integers(1, len(order.order) + 2), label="B")
    got = order_report(t, order, B)
    want = cost_report(t, block_ids(order, B))
    assert got.worst_exact == want.worst_exact
    assert got.worst_cum == want.worst_cum


def test_order_report_rejects_bad_input():
    # the messages of block_ids and worst_by_offset
    t = gen_path(4)
    order = layout_oblivious(t)
    for B in (0, -3):
        with pytest.raises(TreeError) as want:
            block_ids(order, B)
        with pytest.raises(TreeError) as got:
            order_report(t, order, B)
        assert str(got.value) == str(want.value)
    for other in (LinearOrder([0, 1, 2]), LinearOrder([4, 0, 1, 2, 3])):
        with pytest.raises(TreeError) as want:
            worst_by_offset(t, other, 2)
        with pytest.raises(TreeError) as got:
            order_report(t, other, 2)
        assert str(got.value) == str(want.value)


# ------------------------------------------------------------ bound

def test_bound_zero_depth():
    assert theoretical_bound(7, 0, 3) == 0.0
    assert theoretical_bound(2**16, 0, 16) == 0.0


def test_bound_first_case_at_lgN():
    # D = lg N: D / lg(1 + B)
    assert theoretical_bound(2**16, 16, 16) == pytest.approx(
        16 / math.log2(17), rel=1e-12)


def test_bound_third_case():
    # D = B lg N: D / B
    assert theoretical_bound(2**16, 2**20, 16) == pytest.approx(65536.0)


def test_bound_middle_case_value():
    N, D, B = 2**16, 256, 16
    assert theoretical_bound(N, D, B) == pytest.approx(
        16 / math.log2(1 + 16 * 16 / 256), rel=1e-12)


def test_bound_continuous_at_case_boundaries():
    for k in (8, 12, 16, 20):
        for B in (2, 8, 64, 1024):
            N = 2**k
            lo = theoretical_bound(N, k, B)
            hi = theoretical_bound(N, k + 1, B)
            assert hi <= 2 * lo and lo <= 2 * hi
            lo = theoretical_bound(N, B * k, B)
            hi = theoretical_bound(N, B * k + 1, B)
            assert hi <= 2 * lo and lo <= 2 * hi


def test_bound_positive_for_positive_depth():
    for D in (1, 5, 100):
        assert theoretical_bound(1024, D, 8) > 0


# ------------------------------------------------------------ solve_p

def test_solve_p_closed_case():
    # B lg N / (2D) = 2  =>  (1/p) lg(1/p) = 2  =>  1/p = 2
    p = solve_p(16, 4, 4)  # 4*4/(2*4) = 2
    assert abs(1 / p - 2) < 1e-6


def test_solve_p_limit_small_rhs():
    # B lg N/(2D) -> 0: p -> 1
    p = solve_p(2, 10**6, 1)
    assert float(p) == pytest.approx(1.0, abs=1e-6)


def test_solve_p_clamps_to_1_over_N():
    p = solve_p(4, 1, 10**6)
    assert p == Fraction(1, 4)


@pytest.mark.parametrize("D,B", [(1, 1), (3, 64), (10**6, 10**6)])
def test_solve_p_of_one_node_is_one(D, B):
    assert solve_p(1, D, B) == 1


def test_solve_p_residual_grid():
    for N in (2**8, 2**12, 2**16):
        for B in (2, 16, 256):
            for D in (1, 4, 64, 1024):
                p = solve_p(N, D, B)
                # 1 / p is the bisection's float, exactly
                assert Fraction(float(1 / p)) == 1 / p
                u = 1 / float(p)
                R = B * math.log2(N) / (2 * D)
                if p in (Fraction(1), Fraction(1, N)):
                    continue  # clamped endpoints need not satisfy the equation
                assert abs(u * math.log2(u) - R) <= 1e-6 * R


@pytest.mark.parametrize("call,message", [
    (lambda: theoretical_bound(0, 1, 4), "need N >= 1, B >= 1, D >= 0"),
    (lambda: theoretical_bound(16, -1, 4), "need N >= 1, B >= 1, D >= 0"),
    (lambda: solve_p(16, 0, 4), "D must be >= 1"),
    (lambda: solve_p(16, 1, 0), "need N >= 1, B >= 1"),
    (lambda: budget_along_path(gen_path(2), [2, 1], 4, []),
     "path must be nonempty"),
], ids=["bound-N", "bound-D", "solve_p-D", "solve_p-B", "budget-path"])
def test_bound_inputs_are_checked(call, message):
    with pytest.raises(TreeError) as exc:
        call()
    assert str(exc.value) == message


# ------------------------------------------------------------ budgets

def test_budget_k0():
    t = gen_path(1)
    recur, closed = budget_along_path(t, compute_weights(t), 9, [0])
    assert recur == closed == [Fraction(9)]


def test_budget_path4_example():
    t = gen_path(4)
    w = compute_weights(t)
    recur, closed = budget_along_path(t, w, 4, [0, 1, 2, 3])
    assert recur == [4, Fraction(9, 4), Fraction(5, 6), Fraction(-1, 12)]
    assert closed == recur


def test_budget_rejects_non_path():
    t = gen_perfect(2)
    with pytest.raises(TreeError):
        budget_along_path(t, compute_weights(t), 4, [0, 1, 5])


def test_budget_membership_matches_block():
    # m_k >= 1 exactly when the node joins its recursion root's block
    t = gen_random(400, seed=12)
    w = compute_weights(t)
    B = 16
    asg = phase2_layout(t, t.root, B)
    blk = asg.block_of
    for x in random.Random(0).sample(range(400), 60):
        # walk up to the root of x's enclosing recursion: the block root
        # of the first block on x's upward path whose root starts a
        # fresh recursion (parent in a different block)
        path = [x]
        while t.parent[path[-1]] is not None:
            path.append(t.parent[path[-1]])
        path.reverse()
        # recursion roots on the path: nodes whose budget was reset
        start = 0
        for i, y in enumerate(path):
            if i and blk[y] != blk[path[i - 1]] and y == asg.blocks[blk[y]][0]:
                start = i
            m = budget_along_path(t, w, B, path[start:i + 1])[0][-1]
            assert (m >= 1) == (blk[y] == blk[path[start]])


# ------------------------------------------------------------ oracle

def test_oracle_three_nodes():
    best, parts = brute_force_optimal(gen_perfect(1), 3, 1)
    assert best == 1
    assert sorted(map(sorted, parts)) == [[0, 1, 2]]


def test_oracle_perfect7():
    best, parts = brute_force_optimal(gen_perfect(2), 3, 2)
    assert best == 2
    assert all(len(p) <= 3 for p in parts)


def test_oracle_path4():
    best, _ = brute_force_optimal(gen_path(4), 2, 3)
    assert best == 2


def test_oracle_witness_achieves_optimum():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 9)
        t = gen_random(n, seed=rng.randrange(2**30))
        B = rng.randint(1, 4)
        D = rng.randint(0, t.height)
        best, parts = brute_force_optimal(t, B, D)
        blk = {}
        for j, p in enumerate(parts):
            assert len(p) <= B
            for x in p:
                assert x not in blk
                blk[x] = j
        assert sorted(blk) == list(range(n))
        worst = max(path_cost(blk, t, x)
                    for x in range(n) if t.depth[x] == D)
        assert worst == best


def _exhaustive_optimum(tree, B, D):
    """Independent oracle: enumerate every partition into parts <= B."""
    n = tree.n
    targets = [x for x in range(n) if tree.depth[x] == D]
    part_of = [0] * n
    best = [D + 2]

    def cost():
        worst = 0
        for x in targets:
            seen = set()
            y = x
            while y is not None:
                seen.add(part_of[y])
                y = tree.parent[y]
            worst = max(worst, len(seen))
        return worst

    def gen(i, nparts, sizes):
        if i == n:
            best[0] = min(best[0], cost())
            return
        for j in range(nparts + 1):
            if j < nparts and sizes[j] >= B:
                continue
            part_of[i] = j
            if j == nparts:
                sizes.append(1)
                gen(i + 1, nparts + 1, sizes)
                sizes.pop()
            else:
                sizes[j] += 1
                gen(i + 1, nparts, sizes)
                sizes[j] -= 1

    gen(0, 0, [])
    return best[0]


def test_oracle_against_exhaustive_enumeration():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 7)
        t = gen_random(n, seed=rng.randrange(10**9))
        B = rng.randint(1, 3)
        D = rng.randint(0, t.height)
        got, _ = brute_force_optimal(t, B, D)
        assert got == _exhaustive_optimum(t, B, D), (n, B, D)


@pytest.mark.parametrize("n", range(1, 8))
def test_oracle_matches_exhaustive_on_every_small_shape(n):
    for shape in iter_shapes(n):
        t = shape_to_tree(shape)
        for B in (1, 2, 3, 4):
            for D in range(t.height + 1):
                got, _ = brute_force_optimal(t, B, D)
                assert got == _exhaustive_optimum(t, B, D), (shape, B, D)


def test_oracle_backtracks_into_earlier_siblings():
    # the two children compete for room in the root's part: giving the
    # left child's subtree its first fit there leaves the right one none
    t = shape_to_tree(((None, (None, None)), ((None, None), (None, None))))
    best, parts = brute_force_optimal(t, 2, 2)
    assert best == 2
    blk = {x: j for j, p in enumerate(parts) for x in p}
    assert max(path_cost(blk, t, x) for x in (2, 4, 5)) == 2
    assert cost_report(t, {0: 0, 3: 0, 1: 1, 2: 1, 4: 2, 5: 2}
                       ).worst_exact[2] == 2


def test_oracle_rejects_large_instances():
    with pytest.raises(ResourceLimitError):
        brute_force_optimal(gen_perfect(3), 4, 3)  # 15 nodes > 12


def test_oracle_state_budget(monkeypatch):
    monkeypatch.setattr("treelayout.cost._STATE_BUDGET", 50)
    with pytest.raises(ResourceLimitError):
        brute_force_optimal(gen_random(12, seed=1), 2, 5)


def test_oracle_never_beaten_by_real_layouts():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 10)
        t = gen_random(n, seed=rng.randrange(2**30))
        B = rng.randint(1, 4)
        D = rng.randint(0, t.height)
        best, _ = brute_force_optimal(t, B, D)
        asg = layout_aware(t, B)
        assert cost_report(t, asg.block_of).worst_exact[D] >= best


# ------------------------------------------------------------ scaling shape

def test_perfect_tree_cost_tracks_log_base_B():
    # measured worst cost at the leaves within 4x of ceil(#levels / levels
    # a block can hold)
    for h, Bs in [(4, (3, 7, 15)), (8, (3, 7, 15, 63)),
                  (12, (3, 7, 15, 63, 255)), (19, (7,))]:
        t = gen_perfect(h)
        N = t.n
        for B in Bs:
            rep = cost_report(t, layout_aware(t, B).block_of)
            levels = math.ceil(math.log2(N + 1))
            per_block = math.floor(math.log2(B + 1))
            assert rep.worst_exact[h] <= 4 * math.ceil(levels / per_block)
