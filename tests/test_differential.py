"""Whole-layout differential check of the budget engine against ``k_set``.

The engine decides block membership with a float reciprocal-sum test and
an exact rational fallback for comparisons too close to call; ``k_set``
runs the budget recursion literally with exact rationals.  Every block the
recursion produces must equal the ``k_set`` of its own root with a fresh
budget: in the aware layout (blocks rooted at or below ``phase1_levels``),
in ``phase2_layout`` from any root, and in every oblivious refinement
round (on the parent piece's induced subtree, with the piece's own budget
and subtree sizes).  The engine walks left children in place and stacks
right ones, so mirror images (left and right child lists swapped) are
checked too.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import treelayout.aware as aware
from treelayout import (TreeTopology, compute_weights, gen_lower_bound,
                        gen_path, gen_perfect, gen_random, k_set,
                        layout_aware, phase2_layout, refinement_levels)
from treelayout.oblivious import _piece_budget

BS = (1, 2, 3, 4, 7, 8, 16, 64)


def check_blocks(tree, asg):
    """Every block rooted at or below ``phase1_levels`` is the ``k_set``
    of its root with budget B; returns ``asg``."""
    w = compute_weights(tree)
    for members in asg.blocks:
        r = members[0]
        if tree.depth[r] >= asg.phase1_levels:
            assert set(members) == k_set(tree, r, asg.B, w), (asg.B, r)
    return asg


def induced(tree, piece):
    """The subtree a connected piece induces, relabeled ``0..len-1``
    (the piece's root first), and the relabeling."""
    idx = {x: i for i, x in enumerate(piece)}
    left = [idx.get(tree.left[x]) for x in piece]
    right = [idx.get(tree.right[x]) for x in piece]
    return TreeTopology(left, right, 0), idx


def check_refinement(tree):
    levels = refinement_levels(tree)
    top = check_blocks(tree, layout_aware(tree, _piece_budget(tree.n)))
    assert levels[0] == top.blocks
    for coarse, fine in zip(levels, levels[1:]):
        owner = {x: i for i, P in enumerate(coarse) for x in P}
        children = defaultdict(list)
        for Q in fine:
            children[owner[Q[0]]].append(Q)
        for i, P in enumerate(coarse):
            if len(P) <= 2:
                assert children[i] == [P]
                continue
            sub, idx = induced(tree, P)
            w = compute_weights(sub)
            A = _piece_budget(len(P))
            assert sum(map(len, children[i])) == len(P)
            for Q in children[i]:
                assert {idx[x] for x in Q} == k_set(sub, idx[Q[0]], A, w)


def mirror(tree):
    return TreeTopology(tree.right, tree.left, tree.root)


@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       B=st.sampled_from(BS + (1024,)), mirrored=st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_layouts_match_kset(n, seed, B, mirrored):
    t = gen_random(n, seed)
    if mirrored:
        t = mirror(t)
    check_blocks(t, layout_aware(t, B))
    check_blocks(t, phase2_layout(t, t.root, B))
    check_refinement(t)


@pytest.mark.parametrize("family", ["path", "lowerbound"])
def test_mirrored_layouts_match_kset(family):
    # the mirrored path is a right spine; the mirrored lower-bound tree
    # puts its long paths on the right
    for B in BS:
        t = gen_path(600) if family == "path" else gen_lower_bound(B, 4, 600)
        t = mirror(t)
        check_blocks(t, layout_aware(t, B))
        check_blocks(t, phase2_layout(t, t.root, B))
        check_refinement(t)


def test_perfect_layouts_match_kset(monkeypatch):
    # equal sibling weights put many membership sums exactly on their
    # target, so these layouts go through the exact fallback; all subtrees
    # at one depth have the same shape, so the leftmost one stands for all
    calls = []
    exact = aware._exact_reciprocal_le

    def counted(ws, B, wr):
        calls.append(len(ws))
        return exact(ws, B, wr)

    monkeypatch.setattr(aware, "_exact_reciprocal_le", counted)
    for h in range(11):
        t = gen_perfect(h)
        for B in BS + (1024,):
            for d in range(h + 1):
                check_blocks(t, phase2_layout(t, (1 << d) - 1, B))
        check_refinement(t)
    assert calls, "the exact fallback never ran"


def spine_tree(ws):
    """A tree whose left spine has subtree sizes ``ws``, root first; the
    rest of each spine node's subtree is a path below its right child."""
    left, right = [], []
    below = None
    for i in reversed(range(len(ws))):
        top = None
        for _ in range(ws[i] - 1 - (ws[i + 1] if i + 1 < len(ws) else 0)):
            left.append(top)
            right.append(None)
            top = len(left) - 1
        left.append(below)
        right.append(top)
        below = len(left) - 1
    return TreeTopology(left, right, below)


@pytest.mark.parametrize("B, ws", [(3, [10, 5]), (5, [44, 11]),
                                   (10, [15, 10, 2]),
                                   (24, [14, 12, 7, 6, 4, 1])])
def test_float_rounding_across_a_tie_matches_kset(B, ws):
    # the spine's last node has budget exactly 1, but the float sum of
    # 1/w down the spine lands just above B / ws[0]: only the tolerance
    # sends this decision to the exact fallback
    t = spine_tree(ws)
    assert sum(1.0 / w for w in ws) > B / ws[0]
    for tree in (t, mirror(t)):
        asg = check_blocks(tree, phase2_layout(tree, tree.root, B))
        assert len(asg.blocks[0]) >= len(ws)
