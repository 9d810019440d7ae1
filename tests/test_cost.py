"""Transfer counting, the piecewise bound, analysis identities, the oracle."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treelayout import (LinearOrder, ResourceLimitError, TreeError,
                        TreeTopology, block_ids, brute_force_optimal,
                        budget_along_path, compute_weights, cost_report,
                        gen_path, gen_perfect, gen_random, iter_shapes,
                        layout_aware, layout_oblivious, padded_order,
                        path_cost, phase2_layout, shape_to_tree, solve_p,
                        theoretical_bound, worst_by_offset)


# ------------------------------------------------------------ path_cost

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
       ids=st.sampled_from(["list", "dict", "phase2"]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_report_matches_path_cost(kind, size, seed, ids, data):
    t = _tree(kind, size, seed)
    if ids == "phase2":
        # nodes outside the laid-out subtree keep block id -1
        root = data.draw(st.integers(0, t.n - 1))
        blk = phase2_layout(t, root, data.draw(st.integers(1, 6))).block_of
    else:
        # few ids over many nodes: blocks scattered across the tree
        blk = data.draw(st.lists(st.integers(-3, 4), min_size=t.n,
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


def test_worst_by_offset_columns_are_read_only():
    t = gen_path(8)
    col = worst_by_offset(t, layout_oblivious(t), 4)[1]
    with pytest.raises(TypeError):
        col[0] = 5


@pytest.mark.parametrize("kind", ["caterpillar", "caterpillar-mirrored",
                                  "path"])
def test_worst_by_offset_memory_stays_at_the_table(kind):
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
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cols = worst_by_offset(tree, order, B)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(cols) == B
    assert peak <= table + (1 << 20)


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


def test_solve_p_residual_grid():
    for N in (2**8, 2**12, 2**16):
        for B in (2, 16, 256):
            for D in (1, 4, 64, 1024):
                p = solve_p(N, D, B)
                u = 1 / float(p)
                R = B * math.log2(N) / (2 * D)
                if p in (Fraction(1), Fraction(1, N)):
                    continue  # clamped endpoints need not satisfy the equation
                assert abs(u * math.log2(u) - R) <= 1e-6 * R


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


def test_oracle_state_budget():
    with pytest.raises(ResourceLimitError):
        brute_force_optimal(gen_random(12, seed=1), 2, 5, state_budget=50)


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
