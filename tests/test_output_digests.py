"""Byte-level pins of the CSV and JSON that ``eval`` and ``sweep`` write.

The digests were recorded before the row writer was rewritten to emit
columns per priced layout; any change to quoting, float formatting, row
order or summary layout shows up here as a different sha256.  The
all-offset digests of a padded order, of an order that ends with the
root, and of ``--format json`` were recorded while every offset was still
priced by its own ``block_ids`` + ``cost_report`` pass.  The offset-0
digests of ``sweep-zero``, ``eval-padded`` and ``eval-unrooted`` were
recorded while offset 0 of an order was priced the same way.
"""

import hashlib
import json

import pytest

from treelayout.cli import main

DIGESTS = {
    "sweep.csv":
        "b4b6cf02febc1aefd83ab4ec4af7c3d052a80583a8984bd3f04bc795367ecfc1",
    "sweep-summary.json":
        "80e8a38eb9bdd49b6b15130003535b1bada9cceb150b08844d23d164d8ac3d9b",
    "eval-offsets.csv":
        "904cc80deb8f678e009d6193072f331919f5560b4c033fb4afbed690fb1a496c",
    "eval-aware.json":
        "4539b29d71b915a078c948eb1e168d4bab8d3d9e27797e8cc2d5d7df68bd44ac",
    "eval-order.json":
        "84f8b09418bd5be229f54f3fcc47da7f8475a2de72d80c7618365cf180cc7759",
    "weird.csv":
        "9a7b9e2f69683492c01f7afc8ad791ca80520d73fda2480f87bb09928b240d95",
    "eval-padded-offsets.csv":
        "05d6d5209084c85564adaa71d2b6630861f74148604e8ac16d806179a5a39b51",
    "eval-unrooted-offsets.csv":
        "8212a2b85cd0541cfd12aac6c3be2357ae1522501e41d14a3380dfd5e8bdee95",
    "eval-offsets.json":
        "72cd447b288c819af30adc84c685e04111a9748d8393d4a239d92e9c0a001f43",
    "sweep-zero.csv":
        "f399398f689533aed551372a36ed6773288e4cf966aa84e6bdda53f8a5933cfe",
    "sweep-zero-summary.json":
        "5c54a149af419258ec1fef708bed2fdbef08c35239c73dfa3f25eda72d5f3284",
    "eval-padded.csv":
        "3a3c94d152bf4984622fa9296687fa845d32be7a00e094d8d9db78a9cc797b1e",
    "eval-unrooted.csv":
        "fbc271c2cdec8e1328987eda821b470dd8f54a9ca646884c564e254f614f8659",
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
