"""Byte-level pins of the CSV and JSON that ``eval`` and ``sweep`` write.

The digests were recorded before the row writer was rewritten to emit
columns per priced layout; any change to quoting, float formatting, row
order or summary layout shows up here as a different sha256.  The
all-offset digests of a padded order, of an order that ends with the
root, and of ``--format json`` were recorded while every offset was still
priced by its own ``block_ids`` + ``cost_report`` pass.  The offset-0
digests of ``sweep-zero``, ``eval-padded`` and ``eval-unrooted`` were
recorded while offset 0 of an order was priced the same way.  All thirteen
were re-recorded when phase 1 of the aware layout went from fixed strata
to whole-level packing, which moves blocks of the random, path and
lowerbound trees and, through the order's level 0, their orders.
"""

import hashlib
import json

import pytest

from treelayout.cli import main

DIGESTS = {
    "sweep.csv":
        "e953b9c9de0ba577ef0ad918256818d52c125191044558596574e3c90cbd5cc9",
    "sweep-summary.json":
        "b2a65c21fa40d714f2afea7b2ac6ae39b58705eb533e9fe315d64d216f61fa51",
    "eval-offsets.csv":
        "5900a02d373d2a18779b564002224ce3459d12f5fd97e914f0ebc3a626ea0b88",
    "eval-aware.json":
        "97b141ab4f1f9f00633e0039733b2f1053f4c2753a5fad5be15a79dd3be6ce86",
    "eval-order.json":
        "4b89bdb1994512d14b7040f36e2ddd663a1e85f1b1ea56db43a95426198ef434",
    "weird.csv":
        "390c86d8c6ac78ce5b473b9bf186f9b865a4e60b5ae175c742d3a92b92d9905e",
    "eval-padded-offsets.csv":
        "f0222e5f83dd290d5ded6b7d07a75187af510b6e642ecd5083ac17be21c3d7e2",
    "eval-unrooted-offsets.csv":
        "f31e4f06d92831618061769743745228063184285f52985b3bc37a5d8b1dae46",
    "eval-offsets.json":
        "b06fe6e4cd63aeb521013b21f4c23afbc86779f1375de1434248792e3f09ac03",
    "sweep-zero.csv":
        "a230c49b13438f8cc2ef4f482eb2a6a64d059e781c087761140d043faac4dd36",
    "sweep-zero-summary.json":
        "964684df4ed7730b4bffc7bc391758def30733a77743324c88bbaaceb6db5e2e",
    "eval-padded.csv":
        "3c76118cfbfa167104db3457f639a6947f8c160e287c285d0d5b4ee0e986ec42",
    "eval-unrooted.csv":
        "e49e25428f7f939df02ec0a7398fcf613d465b2bda17cb62b8c35c67e96aefd5",
}


def run(argv):
    assert main([str(a) for a in argv]) == 0


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("digests")
    cfg = {"families": {"perfect": [15], "path": [12], "random": [40, 90],
                        "lowerbound": [64]},
           "Bs": [2, 5], "depths": "all", "offsets": "all", "seed": 3,
           "csv_out": str(tmp / "sweep.csv"),
           "summary_out": str(tmp / "sweep-summary.json")}
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    run(["sweep", "--config", tmp / "cfg.json"])
    cfg.update(offsets="zero", csv_out=str(tmp / "sweep-zero.csv"),
               summary_out=str(tmp / "sweep-zero-summary.json"))
    (tmp / "cfg-zero.json").write_text(json.dumps(cfg))
    run(["sweep", "--config", tmp / "cfg-zero.json"])

    tree = tmp / "t.json"
    run(["gen", "random", "--n", 70, "--seed", 5, "--out", tree])
    run(["layout", "oblivious", "--tree", tree, "--out", tmp / "order.json"])
    run(["layout", "aware", "--tree", tree, "--B", 4,
         "--out", tmp / "aware.json"])
    run(["eval", "--tree", tree, "--layout", tmp / "order.json",
         "--B", 3, "--B", 8, "--offsets", "all",
         "--out", tmp / "eval-offsets.csv"])
    run(["eval", "--tree", tree, "--layout", tmp / "aware.json",
         "--format", "json", "--out", tmp / "eval-aware.json"])
    run(["eval", "--tree", tree, "--layout", tmp / "order.json", "--B", 2,
         "--D", 4, "--format", "json", "--out", tmp / "eval-order.json"])
    run(["eval", "--tree", tree, "--layout", tmp / "order.json", "--B", 3,
         "--B", 5, "--offsets", "all", "--format", "json",
         "--out", tmp / "eval-offsets.json"])

    # an aligned, padded order (null slots), and an order that ends with
    # the root
    run(["layout", "aware", "--tree", tree, "--B", 6,
         "--out", tmp / "aware6.json", "--padded-out", tmp / "padded.json"])
    run(["eval", "--tree", tree, "--layout", tmp / "padded.json", "--B", 4,
         "--B", 6, "--B", 9, "--offsets", "all",
         "--out", tmp / "eval-padded-offsets.csv"])
    order = json.loads((tmp / "order.json").read_text())["order"]
    unrooted = order[1::2] + [None] + order[::2][::-1]
    (tmp / "unrooted.json").write_text(json.dumps({"order": unrooted}))
    run(["eval", "--tree", tree, "--layout", tmp / "unrooted.json", "--B", 1,
         "--B", 4, "--B", 7, "--offsets", "all",
         "--out", tmp / "eval-unrooted-offsets.csv"])
    for name in ("padded", "unrooted"):
        run(["eval", "--tree", tree, "--layout", tmp / (name + ".json"),
             "--B", 1, "--B", 4, "--B", 7, "--out", tmp / f"eval-{name}.csv"])

    weird = tmp / 'we,ird"name.json'
    weird.write_bytes(tree.read_bytes())
    run(["eval", "--tree", weird, "--layout", tmp / "aware.json",
         "--out", tmp / "weird.csv"])
    return tmp


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_unchanged(outputs, name):
    assert sha(outputs / name) == DIGESTS[name]


def test_tree_id_is_csv_quoted(outputs):
    lines = (outputs / "weird.csv").read_text().splitlines()
    assert lines[1].startswith('"we,ird""name",-,70,4,aware,0,0,1,1,0,1')
