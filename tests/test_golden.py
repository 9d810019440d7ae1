"""Golden content hashes: layouts and orders over a fixed grid of trees.

Each tree goes through a tree-file round trip first, then the digests
cover what the engine produces from it (the aware block lists and the
oblivious order), hashed from a canonical encoding that does not depend
on the artifact file format.  The digests were recorded with the
one-record-per-node tree format, which is no longer read, and indented
artifacts; the columnar format and the compact encoding left every one
unchanged.  A change to the engine that moves any block or position shows
up cell by cell.
"""

import hashlib
import json

import pytest

from treelayout import (TreeTopology, gen_lower_bound, gen_path, gen_perfect,
                        gen_random, layout_aware, layout_oblivious,
                        tree_from_json, tree_to_json)

FAMILIES = ("perfect", "path", "random", "lowerbound")
SIZES = (1 << 10, 1 << 14)
BS = (2, 4, 16, 64, 256)
# gen_lower_bound branching factor; one gadget at B=256 has 263 nodes
LOWERBOUND_INV_P = 4


def _generate(family: str, N: int, B: int):
    if family == "perfect":
        return gen_perfect(N.bit_length() - 2)  # 2^h - 1 nodes, just under N
    if family == "path":
        return gen_path(N)
    if family == "random":
        return gen_random(N, seed=N)
    return gen_lower_bound(B, LOWERBOUND_INV_P, N)


def _tree(family: str, N: int, B: int):
    text = json.dumps(tree_to_json(_generate(family, N, B)))
    return tree_from_json(json.loads(text))


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def grid_digests() -> dict:
    """``"<family>-<N>-B<B>"`` -> digest of that cell's blocks and order."""
    out = {}
    for family in FAMILIES:
        for N in SIZES:
            orders: dict = {}
            for B in BS:
                tree = _tree(family, N, B)
                if tree not in orders:
                    orders[tree] = list(layout_oblivious(tree).order)
                blocks = [list(m) for m in layout_aware(tree, B).blocks]
                out[f"{family}-{N}-B{B}"] = _digest(
                    {"blocks": blocks, "order": orders[tree]})
    return out


GOLDEN = {
    "lowerbound-1024-B16": "3f75bdf4d72e332c",
    "lowerbound-1024-B2": "37d6ddee15e8cbdb",
    "lowerbound-1024-B256": "5b7d2074f8690d8a",
    "lowerbound-1024-B4": "1cd1a23762887e0f",
    "lowerbound-1024-B64": "5b0b3f71f5465ff4",
    "lowerbound-16384-B16": "2ed63211dbab6314",
    "lowerbound-16384-B2": "e3de4ac82a120ac0",
    "lowerbound-16384-B256": "8ea20d4145f6cf9f",
    "lowerbound-16384-B4": "4bab9f827ebdf356",
    "lowerbound-16384-B64": "a6b1a61d0db7b470",
    "path-1024-B16": "8b7b0dae027963da",
    "path-1024-B2": "32f70ed6789abc55",
    "path-1024-B256": "d9eedf3a6c3f8056",
    "path-1024-B4": "e93d58689045f608",
    "path-1024-B64": "14757787f7318806",
    "path-16384-B16": "ace8cc8627afc965",
    "path-16384-B2": "bb441a2749a67c9f",
    "path-16384-B256": "e864f9387f8ab453",
    "path-16384-B4": "cf0b4196d0ae9c4e",
    "path-16384-B64": "5e2f39e2d6de4ec1",
    "perfect-1024-B16": "39d66d6ed92b812a",
    "perfect-1024-B2": "eb1e5afbae0fe69e",
    "perfect-1024-B256": "503fa91bb0858818",
    "perfect-1024-B4": "85cd67b0ed2dc5ce",
    "perfect-1024-B64": "3b23eaab93d1e721",
    "perfect-16384-B16": "8897f5f8ba7c06b9",
    "perfect-16384-B2": "9b1227a18d52935c",
    "perfect-16384-B256": "cd4eef6c8c28b61d",
    "perfect-16384-B4": "94c6d6ec538fca5f",
    "perfect-16384-B64": "03bfd1a229d98aae",
    "random-1024-B16": "bfb653dce099c411",
    "random-1024-B2": "61b6708a88443fbf",
    "random-1024-B256": "5be51d234c7d50e2",
    "random-1024-B4": "5d13c5dfeaa2796e",
    "random-1024-B64": "e789f3a8c544e179",
    "random-16384-B16": "5cc13453a20c5168",
    "random-16384-B2": "38335a790d6bfa96",
    "random-16384-B256": "e83bd01cc0321e14",
    "random-16384-B4": "373b4a7d5e1f7859",
    "random-16384-B64": "f31ab73cd2585c20",
}


# Mirror images (left and right child lists swapped) of the grid's
# unbalanced families: the mirrored path is a right spine, and the
# mirrored lower-bound tree hangs its paths and gadgets on the right.
# The digests were recorded before the layout traversals began to walk
# left children in place and stack right ones.
MIRRORED_N = 4096
MIRRORED_BS = (1, 4, 64)


def mirrored_digests() -> dict:
    """``"mirror-<family>-B<B>"`` -> digest of that cell's blocks and
    order, on the mirror image of ``_generate(family, MIRRORED_N, B)``."""
    out = {}
    for family in ("path", "random", "lowerbound"):
        orders: dict = {}
        for B in MIRRORED_BS:
            t = _generate(family, MIRRORED_N, B)
            tree = TreeTopology(t.right, t.left, t.root)
            if tree not in orders:
                orders[tree] = list(layout_oblivious(tree).order)
            blocks = [list(m) for m in layout_aware(tree, B).blocks]
            out[f"mirror-{family}-B{B}"] = _digest(
                {"blocks": blocks, "order": orders[tree]})
    return out


MIRRORED = {
    "mirror-lowerbound-B1": "814feb8f84e18851",
    "mirror-lowerbound-B4": "1f510f4ee3ac3f0d",
    "mirror-lowerbound-B64": "b1ba1699f337e1e7",
    "mirror-path-B1": "e7b5b4428428e105",
    "mirror-path-B4": "b9f3eb8a84393390",
    "mirror-path-B64": "8897e8d969b0a8b7",
    "mirror-random-B1": "9b92d9a563bf82f5",
    "mirror-random-B4": "8778c5d4a00e8e18",
    "mirror-random-B64": "28b4092016ea80c6",
}


@pytest.fixture(scope="module")
def digests():
    return grid_digests()


def test_golden_grid_is_complete(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_golden_cell(cell, digests):
    assert digests[cell] == GOLDEN[cell]


@pytest.fixture(scope="module")
def mirrored():
    return mirrored_digests()


def test_mirrored_grid_is_complete(mirrored):
    assert sorted(mirrored) == sorted(MIRRORED)


@pytest.mark.parametrize("cell", sorted(MIRRORED))
def test_mirrored_cell(cell, mirrored):
    assert mirrored[cell] == MIRRORED[cell]


if __name__ == "__main__":
    print(json.dumps(grid_digests(), indent=4, sort_keys=True))
    print(json.dumps(mirrored_digests(), indent=4, sort_keys=True))
