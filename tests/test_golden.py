"""Golden content hashes: layouts and orders over a fixed grid of trees.

Each tree goes through a tree-file round trip first, then the digests
cover what the engine produces from it (the aware block lists and the
oblivious order), hashed from a canonical encoding that does not depend
on the artifact file format.  The digests were recorded with the
one-record-per-node tree format, which is no longer read, and indented
artifacts; the columnar format and the compact encoding left every one
unchanged.  A change to the engine that moves any block or position shows
up cell by cell.  The random, path and lowerbound cells were re-recorded
when phase 1 went from fixed strata to whole-level packing; the perfect
cells, whose levels are complete, kept their digests.
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
    "lowerbound-1024-B16": "007cadc017e6ae16",
    "lowerbound-1024-B2": "4e4906656e6a0fc0",
    "lowerbound-1024-B256": "cef9692ba27c7684",
    "lowerbound-1024-B4": "d39fcd7c2a79a26e",
    "lowerbound-1024-B64": "11832c75833b4ad0",
    "lowerbound-16384-B16": "efd5e5eb13e5d84f",
    "lowerbound-16384-B2": "d23fc51ac18000a2",
    "lowerbound-16384-B256": "1268fcc6a0ac246e",
    "lowerbound-16384-B4": "ad592f404012e2d3",
    "lowerbound-16384-B64": "720641e1724e9e69",
    "path-1024-B16": "041551d4df7b4504",
    "path-1024-B2": "66b4717107efe767",
    "path-1024-B256": "18045444e4d650ab",
    "path-1024-B4": "781d2c40fcf080b1",
    "path-1024-B64": "1fa728a2389e613b",
    "path-16384-B16": "14af13ddf9694945",
    "path-16384-B2": "dfca43a389df00ba",
    "path-16384-B256": "df9c9fc79da68353",
    "path-16384-B4": "8660b47a9f048a24",
    "path-16384-B64": "f25f0b04bc435040",
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
    "random-1024-B16": "5c879d806079d6d6",
    "random-1024-B2": "71967c7236e15baf",
    "random-1024-B256": "c371dde0dd168f83",
    "random-1024-B4": "42a1e6d83d8782f2",
    "random-1024-B64": "fe500638c0f0216e",
    "random-16384-B16": "94441770156fe32a",
    "random-16384-B2": "c877e6039d4c357e",
    "random-16384-B256": "aa4fc6371e8da64e",
    "random-16384-B4": "de9fd366f08fcf18",
    "random-16384-B64": "2d786300b75cbd87",
}


# Mirror images (left and right child lists swapped) of the grid's
# unbalanced families: the mirrored path is a right spine, and the
# mirrored lower-bound tree hangs its paths and gadgets on the right.
# The digests were recorded before the layout traversals began to walk
# left children in place and stack right ones, and all but the path at
# B=1 re-recorded with whole-level packing in phase 1.
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
    "mirror-lowerbound-B1": "6c8c6386991d8b14",
    "mirror-lowerbound-B4": "de49ada2f56ec54a",
    "mirror-lowerbound-B64": "9bc2e7c0fd00f43c",
    "mirror-path-B1": "e7b5b4428428e105",
    "mirror-path-B4": "f1b6a1c85dfa8b15",
    "mirror-path-B64": "d12e52a4abbc3b32",
    "mirror-random-B1": "bd308cae3d827510",
    "mirror-random-B4": "31c7b616e3c9208c",
    "mirror-random-B64": "af8b48571e0186b0",
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
