"""End-to-end command behavior: files in, files out, exit codes."""

import argparse
import csv
import gc
import io
import json
import time

import pytest

from treelayout import (TreeTopology, brute_force_optimal, gen_lower_bound,
                        gen_path, gen_perfect, gen_random, json_text,
                        layout_aware, layout_oblivious, load_tree,
                        phase2_layout, layout_to_json, order_to_json,
                        refinement_levels, save_tree, tree_to_json)
import treelayout.cli as cli
import treelayout.oblivious as oblivious
from treelayout.cli import SweepConfig, main, run_sweep


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------ gen

def test_gen_perfect(tmp_path):
    out = tmp_path / "t.json"
    assert run(["gen", "perfect", "--height", 2, "--out", out]) == 0
    assert load_tree(out).n == 7


def test_gen_lowerbound(tmp_path):
    out = tmp_path / "g.json"
    assert run(["gen", "lowerbound", "--B", 16, "--inv-p", 4, "--n", 23,
                "--out", out]) == 0
    assert load_tree(out).n == 23


def test_gen_random_n0_fails():
    assert run(["gen", "random", "--n", 0]) == 3


def test_gen_perfect_missing_height():
    with pytest.raises(SystemExit) as exc:
        run(["gen", "perfect"])
    assert exc.value.code == 2


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "random", "--n", 50, "--seed", 9, "--out", a])
    run(["gen", "random", "--n", 50, "--seed", 9, "--out", b])
    assert a.read_text() == b.read_text()


def test_gen_and_save_tree_write_same_bytes(tmp_path):
    a, b = tmp_path / "gen.json", tmp_path / "saved.json"
    assert run(["gen", "random", "--n", 50, "--seed", 9, "--out", a]) == 0
    save_tree(gen_random(50, seed=9), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("\n") == 1  # compact: one line


GEN_CASES = (
    [(["perfect", "--height", h], lambda h=h: gen_perfect(h))
     for h in range(7)]
    + [(["path", "--n", n], lambda n=n: gen_path(n)) for n in (1, 2, 50)]
    + [(["random", "--n", n, "--seed", seed],
        lambda n=n, seed=seed: gen_random(n, seed))
       for n, seed in ((1, 0), (1, 7), (2, 3), (50, 9), (300, 12345))]
    + [(["lowerbound", "--B", B, "--inv-p", inv_p, "--n", n],
        lambda B=B, inv_p=inv_p, n=n: gen_lower_bound(B, inv_p, n))
       for B, inv_p, n in ((16, 4, 23), (16, 4, 200), (1, 2, 5), (5, 2, 23))])


@pytest.mark.parametrize("argv,make", GEN_CASES,
                         ids=[" ".join(map(str, a)) for a, _ in GEN_CASES])
def test_gen_writes_the_bytes_of_the_generator_tree(tmp_path, argv, make):
    # gen writes its builder's lists without building a TreeTopology; the
    # file must be the one the validated tree saves
    out = tmp_path / "t.json"
    assert run(["gen", *argv, "--out", out]) == 0
    assert out.read_bytes() == json_text(tree_to_json(make())).encode()


# ------------------------------------------------------------ tree files

def _columnar(**over):
    obj = {"version": 2, "n": 3, "root": 0,
           "left": [1, None, None], "right": [2, None, None]}
    obj.update(over)
    return obj


def _legacy(**over):
    """A version-1 tree object: one record per node and no ``version``.
    That format is no longer read, so every such file must exit 3."""
    obj = {"n": 3, "root": 0,
           "nodes": [{"id": 0, "left": 1, "right": 2},
                     {"id": 1, "left": None, "right": None},
                     {"id": 2, "left": None, "right": None}]}
    obj.update(over)
    return obj


def _record(**over):
    rec = {"id": 1, "left": None, "right": None}
    rec.update(over)
    return _legacy(nodes=[{"id": 0, "left": 1, "right": 2}, rec,
                          {"id": 2, "left": None, "right": None}])


BAD_TREE_FILES = {
    "top-list": [1, 2],
    "top-int": 5,
    "top-null": None,
    "v2-n-string": _columnar(n="3"),
    "v2-n-float": _columnar(n=3.0),
    "v2-n-bool": _columnar(n=True),
    "v2-n-zero": _columnar(n=0),
    "v2-n-negative": _columnar(n=-1),
    "v2-n-above-lists": _columnar(n=4),
    "v2-n-huge": _columnar(n=2_000_000_000),
    "v2-n-overflow": _columnar(n=10**21),
    "legacy-n-huge": _legacy(n=2_000_000_000),
    "v2-root-bool": _columnar(root=False),
    "v2-root-string": _columnar(root="0"),
    "v2-left-bool": _columnar(left=True),
    "v2-left-int": _columnar(left=5),
    "v2-left-dict": _columnar(left={"0": 1}),
    "v2-left-short": _columnar(left=[1, None]),
    "v2-right-long": _columnar(right=[2, None, None, None]),
    "v2-child-bool": _columnar(left=[True, None, None]),
    "v2-child-float": _columnar(left=[1.0, None, None]),
    "v2-child-list": _columnar(left=[[1], None, None]),
    "v2-child-range": _columnar(left=[3, None, None]),
    "v2-child-negative": _columnar(right=[-1, None, None]),
    "v2-child-huge": _columnar(left=[10**30, None, None]),
    "v2-child-string-below-root": _columnar(left=[1, "2", None],
                                            right=[None, None, None]),
    "v2-child-repeated": _columnar(right=[1, None, None]),
    "v2-detached-cycle": _columnar(n=4, left=[1, None, 3, 2],
                                   right=[None] * 4),
    "v2-no-right": {"version": 2, "n": 1, "root": 0, "left": [None]},
    "v2-bad-version": _columnar(version="2"),
    "legacy-nodes-ints": _legacy(nodes=[1, 2, 3]),
    "legacy-nodes-int": _legacy(nodes=5),
    "legacy-nodes-short": _legacy(nodes=[{"id": 0}]),
    "legacy-n-bool": _legacy(n=True),
    "legacy-root-string": _legacy(root="0"),
    "legacy-id-bool": _record(id=True),
    "legacy-id-dup": _record(id=0),
    "legacy-left-bool": _legacy(nodes=[{"id": 0, "left": True, "right": 2},
                                       {"id": 1}, {"id": 2}]),
    "legacy-left-string": _record(left="2"),
    "legacy-no-nodes": {"n": 1, "root": 0},
    "no-version": _legacy(),
}


@pytest.mark.parametrize("case", sorted(BAD_TREE_FILES))
def test_bad_tree_file_exits_3(case, tmp_path, caplog, capsys):
    # eval reads its block layout, sized by its own blocks, before the
    # tree: given a valid one, it names the tree's fault in the same words
    # as layout and oracle, and a huge declared n allocates nothing before
    # the child lists are checked against it
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    tree.write_text(json.dumps(BAD_TREE_FILES[case]))
    lay.write_text(json.dumps({"B": 1, "blocks": [[0]]}))
    errors = []
    for argv in (["layout", "aware", "--tree", tree, "--B", 2],
                 ["eval", "--tree", tree, "--layout", lay],
                 ["oracle", "--tree", tree, "--B", 2, "--D", 0]):
        caplog.clear()
        assert run(argv) == 3
        errors.append(_one_error_line(caplog, capsys))
    assert errors[0] == errors[1] == errors[2]
    if case.startswith("legacy-") or case == "no-version":
        assert errors[0] == "tree json missing field: 'version'"


def _argv_reading(target, bad, tmp_path):
    """An ``eval`` or ``sweep`` command line that reads the file ``bad``
    as its tree, its layout or its config; eval's other file is valid."""
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    save_tree(gen_perfect(2), tree)
    assert run(["layout", "aware", "--tree", tree, "--B", 4,
                "--out", lay]) == 0
    return {"eval-tree": ["eval", "--tree", bad, "--layout", lay],
            "eval-layout": ["eval", "--tree", tree, "--layout", bad],
            "sweep": ["sweep", "--config", bad]}[target]


@pytest.mark.parametrize("nested", ["eval-tree", "eval-layout", "sweep"])
def test_deeply_nested_json_exits_3(nested, tmp_path, caplog, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    assert run(_argv_reading(nested, deep, tmp_path)) == 3
    errors = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("target", ["eval-tree", "eval-layout", "sweep"])
def test_file_that_is_not_utf8_exits_3(target, tmp_path, caplog, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    assert run(_argv_reading(target, bad, tmp_path)) == 3
    assert _one_error_line(caplog, capsys).startswith(
        f"{bad}: invalid json: 'utf-8' codec can't decode byte 0xff")


def test_good_tree_file_loads(tmp_path):
    tree = tmp_path / "v2.json"
    tree.write_text(json.dumps(_columnar()))
    assert load_tree(tree) == gen_perfect(1)
    assert run(["layout", "aware", "--tree", tree, "--B", 2,
                "--out", tmp_path / "v2.layout.json"]) == 0


# ------------------------------------------------------------ layout

def test_layout_aware_path4(tmp_path):
    tree = tmp_path / "p4.json"
    out = tmp_path / "p4.layout.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    assert run(["layout", "aware", "--tree", tree, "--B", 4,
                "--out", out]) == 0
    obj = json.loads(out.read_text())
    assert obj["blocks"] == [[0, 1], [2, 3]]
    assert obj["B"] == 4


def test_layout_oblivious_single(tmp_path):
    tree = tmp_path / "one.json"
    out = tmp_path / "one.order.json"
    run(["gen", "path", "--n", 1, "--out", tree])
    assert run(["layout", "oblivious", "--tree", tree, "--out", out]) == 0
    assert json.loads(out.read_text())["order"] == [0]


OBLIVIOUS_TREES = {
    "perfect": lambda: gen_perfect(10),
    "path": lambda: gen_path(1000),
    "random": lambda: gen_random(2000, 9),
    "lowerbound": lambda: gen_lower_bound(4, 2, 1000),
}


@pytest.mark.parametrize("family", sorted(OBLIVIOUS_TREES))
def test_layout_oblivious_writes_the_library_order(tmp_path, family):
    tree = OBLIVIOUS_TREES[family]()
    save_tree(tree, tmp_path / "t.json")
    out = tmp_path / "o.json"
    assert run(["layout", "oblivious", "--tree", tmp_path / "t.json",
                "--out", out]) == 0
    assert (out.read_bytes()
            == json_text(order_to_json(layout_oblivious(tree))).encode())


def test_layout_oblivious_reads_no_positions(tmp_path, monkeypatch):
    # the command writes the order's own slots: the position table of its
    # LinearOrder is never derived
    tree = gen_random(2000, 9)
    save_tree(tree, tmp_path / "t.json")
    expected = json_text(order_to_json(layout_oblivious(tree))).encode()

    def refuse(order):
        raise AssertionError("layout oblivious read an order's positions")

    monkeypatch.setattr(oblivious.LinearOrder, "position", property(refuse))
    out = tmp_path / "o.json"
    assert run(["layout", "oblivious", "--tree", tmp_path / "t.json",
                "--out", out]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("family", ["random", "perfect"])
@pytest.mark.parametrize("offsets", ["zero", "all"])
def test_eval_of_an_order_derives_no_node_list(tmp_path, monkeypatch,
                                               family, offsets):
    # eval reads an order file down to its slot table and prices from it:
    # the node list of its LinearOrder is never derived, and the rows are
    # those of the same order held in memory
    tree = OBLIVIOUS_TREES[family]()
    order = layout_oblivious(tree)
    save_tree(tree, tmp_path / "t.json")
    (tmp_path / "o.json").write_text(json_text(order_to_json(order)))
    Bs = (4, 64, 1024)
    depths = range(tree.height + 1)
    expected = io.StringIO()
    cli._write_csv([cli._price_cell("t", "-", tree, B, depths, None, order,
                                    offsets == "all") for B in Bs], expected)

    def refuse(order):
        raise AssertionError("eval derived an order's node list")

    monkeypatch.setattr(oblivious.LinearOrder, "order", property(refuse))
    out = tmp_path / "rows.csv"
    assert run(["eval", "--tree", tmp_path / "t.json",
                "--layout", tmp_path / "o.json", "--B", 4, "--B", 64,
                "--B", 1024, "--offsets", offsets, "--out", out]) == 0
    assert out.read_text() == expected.getvalue()


def test_layout_and_eval_derive_no_parent_table(tmp_path, monkeypatch):
    # layouts read depths and child links, and eval prices by depth, so
    # no command of the benchmark's workloads derives a tree's parents
    save_tree(gen_random(2000, 9), tmp_path / "r.json")
    save_tree(gen_perfect(11), tmp_path / "p.json")
    assert not hasattr(load_tree(tmp_path / "r.json"), "_parent")

    def refuse(tree):
        raise AssertionError("a command derived the parent table")

    monkeypatch.setattr(TreeTopology, "parent", property(refuse))
    # the perfect tree's piece orders are built under the guard too
    oblivious._perfect_piece.cache_clear()
    for B in (4, 256):
        lay = tmp_path / ("aware-B%d.json" % B)
        assert run(["layout", "aware", "--tree", tmp_path / "r.json",
                    "--B", B, "--out", lay]) == 0
        assert run(["eval", "--tree", tmp_path / "r.json", "--layout", lay,
                    "--out", tmp_path / ("aware-B%d.csv" % B)]) == 0
    assert run(["layout", "oblivious", "--tree", tmp_path / "p.json",
                "--out", tmp_path / "o.json"]) == 0
    assert run(["eval", "--tree", tmp_path / "p.json",
                "--layout", tmp_path / "o.json", "--B", 4, "--B", 64,
                "--B", 1024, "--out", tmp_path / "o.csv"]) == 0


def test_layout_oblivious_calls_the_traced_names(tmp_path, monkeypatch):
    # perfbench/tracer.py times the order build and its JSON at these names
    tree = gen_random(2000, 9)
    save_tree(tree, tmp_path / "t.json")
    expected = json_text(order_to_json(layout_oblivious(tree))).encode()
    calls = []

    def spy(name):
        real = getattr(cli, name)

        def wrapper(arg):
            calls.append(name)
            return real(arg)
        monkeypatch.setattr(cli, name, wrapper)

    spy("layout_oblivious")
    spy("order_to_json")
    out = tmp_path / "o.json"
    assert run(["layout", "oblivious", "--tree", tmp_path / "t.json",
                "--out", out]) == 0
    assert calls == ["layout_oblivious", "order_to_json"]
    assert out.read_bytes() == expected


def test_layout_aware_requires_B(tmp_path):
    tree = tmp_path / "p.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    with pytest.raises(SystemExit) as exc:
        run(["layout", "aware", "--tree", tree])
    assert exc.value.code == 2


def test_layout_has_no_c_option(tmp_path):
    tree = tmp_path / "p.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    with pytest.raises(SystemExit) as exc:
        run(["layout", "aware", "--tree", tree, "--B", 4, "--c", 1])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen", "lowerbound", "--B", 4, "--B", 8, "--inv-p", 2, "--n", 9,
     "--out", "{out}"],
    ["layout", "aware", "--tree", "{tree}", "--B", 4, "--B", 256,
     "--out", "{out}"],
    ["oracle", "--tree", "{tree}", "--B", 2, "--B", 3, "--D", 1],
])
def test_single_B_commands_reject_repeated_B(tmp_path, capsys, argv):
    tree, out = tmp_path / "p.json", tmp_path / "out.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    with pytest.raises(SystemExit) as exc:
        run([str(a).format(tree=tree, out=out) for a in argv])
    assert exc.value.code == 2
    assert "--B may be given only once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["layout", "oblivious", "--tree", "{tree}", "--B", 4,
      "--padded-out", "{pad}", "--out", "{out}"], "--B"),
    (["layout", "oblivious", "--tree", "{tree}", "--padded-out", "{pad}",
      "--out", "{out}"], "--padded-out"),
    (["gen", "perfect", "--height", 3, "--n", 99, "--seed", 5,
      "--out", "{out}"], "--n"),
    (["gen", "perfect", "--height", 3, "--seed", 5, "--out", "{out}"],
     "--seed"),
    (["gen", "path", "--n", 4, "--seed", 5, "--out", "{out}"], "--seed"),
    (["gen", "path", "--n", 4, "--B", 4, "--out", "{out}"], "--B"),
    (["gen", "random", "--n", 4, "--height", 2, "--out", "{out}"],
     "--height"),
    (["gen", "random", "--n", 4, "--inv-p", 2, "--out", "{out}"], "--inv-p"),
    (["gen", "lowerbound", "--B", 4, "--inv-p", 2, "--n", 9, "--seed", 1,
      "--out", "{out}"], "--seed"),
])
def test_options_the_choice_does_not_read_are_usage_errors(tmp_path, capsys,
                                                           argv, flag):
    tree, out = tmp_path / "p.json", tmp_path / "out.json"
    pad = tmp_path / "pad.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([str(a).format(tree=tree, out=out, pad=pad) for a in argv])
    assert exc.value.code == 2
    err = [line for line in capsys.readouterr().err.splitlines()
           if "error:" in line]
    assert len(err) == 1 and f"unrecognized arguments: {flag}" in err[0]
    assert not out.exists() and not pad.exists()


def _subcommands(parser) -> dict:
    action, = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command,choice,options", [
    ("gen", "perfect", {"--height", "--out"}),
    ("gen", "path", {"--n", "--out"}),
    ("gen", "random", {"--n", "--seed", "--out"}),
    ("gen", "lowerbound", {"--B", "--inv-p", "--n", "--out"}),
    ("layout", "aware", {"--tree", "--B", "--padded-out", "--out"}),
    ("layout", "oblivious", {"--tree", "--out"}),
])
def test_each_choice_declares_exactly_the_options_it_reads(command, choice,
                                                           options):
    parser = _subcommands(_subcommands(cli.build_parser())[command])[choice]
    declared = {s for a in parser._actions for s in a.option_strings
                if s.startswith("--")} - {"--help"}
    assert declared == options


@pytest.mark.parametrize("argv,flag", [
    (["gen", "perfect"], "--height"),
    (["gen", "path"], "--n"),
    (["gen", "random", "--seed", 3], "--n"),
    (["gen", "lowerbound", "--B", 4, "--n", 9], "--inv-p"),
    (["gen", "lowerbound", "--inv-p", 2, "--n", 9], "--B"),
    (["gen", "lowerbound", "--B", 4, "--inv-p", 2], "--n"),
    (["layout", "aware", "--tree", "{tree}"], "--B"),
])
def test_missing_required_option_is_a_usage_error(tmp_path, capsys, argv,
                                                  flag):
    tree, out = tmp_path / "p.json", tmp_path / "out.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([str(a).format(tree=tree) for a in argv] + ["--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"the following arguments are required: {flag}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,command,flag", [
    (["gen", "perfect", "--height", 2, "--seed", 3], "gen perfect",
     "--seed 3"),
    (["layout", "oblivious", "--tree", "{tree}", "--B", 4],
     "layout oblivious", "--B 4"),
    (["eval", "--tree", "{tree}", "--layout", "{tree}", "--seed", 3],
     "eval", "--seed 3"),
], ids=["gen-perfect", "layout-oblivious", "eval"])
def test_unread_option_is_reported_by_its_own_subcommand(tmp_path, capsys,
                                                         argv, command,
                                                         flag):
    tree, out = tmp_path / "p.json", tmp_path / "out.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([str(a).format(tree=tree) for a in argv] + ["--out", out])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: treelayout {command} ")
    assert err[-1] == (f"treelayout {command}: error: "
                       f"unrecognized arguments: {flag}")
    assert not out.exists()


@pytest.mark.parametrize("argv,choices", [
    ([], "{gen,layout,eval,sweep,oracle}"),
    (["gen"], "{perfect,path,random,lowerbound}"),
    (["layout"], "{aware,oblivious}"),
], ids=["command", "gen", "layout"])
def test_missing_subcommand_is_named_by_its_choices(capsys, argv, choices):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"the following arguments are required: {choices}" in err


def test_gen_random_seed_defaults_to_0(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "random", "--n", 50, "--out", a]) == 0
    assert run(["gen", "random", "--n", 50, "--seed", 0, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_layout_missing_tree_file(tmp_path):
    assert run(["layout", "aware", "--tree", tmp_path / "nope.json",
                "--B", 2]) == 3


# ------------------------------------------------------------ eval

@pytest.fixture()
def perfect7_files(tmp_path):
    tree = tmp_path / "t7.json"
    t = gen_perfect(2)
    save_tree(t, tree)
    return tmp_path, tree, t


def test_eval_one_block_layout(perfect7_files):
    tmp, tree, t = perfect7_files
    lay = tmp / "b7.json"
    run(["layout", "aware", "--tree", tree, "--B", 7, "--out", lay])
    out = tmp / "rows.csv"
    assert run(["eval", "--tree", tree, "--layout", lay, "--out", out]) == 0
    rows = read_rows(out)
    d2 = [r for r in rows if r["D"] == "2"]
    assert len(d2) == 1 and d2[0]["worst_exact"] == "1"


def test_eval_singleton_cascade(perfect7_files):
    tmp, tree, t = perfect7_files
    lay = tmp / "p2b3.json"
    lay.write_text(json.dumps(layout_to_json(phase2_layout(t, 0, 3))))
    out = tmp / "rows.csv"
    assert run(["eval", "--tree", tree, "--layout", lay, "--D", 2,
                "--out", out]) == 0
    rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["worst_exact"] == "3"
    assert rows[0]["B"] == "3"


def test_eval_offset_sweep_max_dominates(tmp_path):
    tree = tmp_path / "p4.json"
    order = tmp_path / "p4.order.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    run(["layout", "oblivious", "--tree", tree, "--out", order])
    out = tmp_path / "rows.csv"
    assert run(["eval", "--tree", tree, "--layout", order, "--B", 2,
                "--offsets", "all", "--D", 3, "--out", out]) == 0
    rows = read_rows(out)
    by_off = {r["offset"]: int(r["worst_exact"]) for r in rows}
    assert max(by_off.values()) >= by_off["0"]


def test_eval_padded_order_agrees_with_blocks(tmp_path):
    tree = tmp_path / "t.json"
    lay = tmp_path / "l.json"
    pad = tmp_path / "pad.json"
    run(["gen", "random", "--n", 100, "--seed", 5, "--out", tree])
    run(["layout", "aware", "--tree", tree, "--B", 8, "--out", lay,
         "--padded-out", pad])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["eval", "--tree", tree, "--layout", lay, "--out", a])
    run(["eval", "--tree", tree, "--layout", pad, "--B", 8, "--out", b])
    da = {r["D"]: r["worst_exact"] for r in read_rows(a)}
    db = {r["D"]: r["worst_exact"] for r in read_rows(b)}
    assert da == db


def test_eval_rejects_mismatched_ids(tmp_path, caplog, capsys):
    tree = tmp_path / "t.json"
    lay = tmp_path / "l.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    lay.write_text(json.dumps({"B": 2, "c": "1", "blocks": [[0, 1], [2]]}))
    caplog.clear()
    assert run(["eval", "--tree", tree, "--layout", lay]) == 3
    assert _one_error_line(caplog, capsys) == "layout holds 3 nodes, the tree 4"


@pytest.mark.parametrize("layout", [
    [[0, 1], [2, 3]],
    {"B": True, "blocks": [[0], [1], [2], [3]]},
    {"B": 2, "blocks": 5},
    {"B": 2, "blocks": [0, 1, 2, 3]},
    {"B": 2, "blocks": [[0, 1], [2, True]]},
    {"B": 0, "blocks": [[0], [1], [2], [3]]},
    {"B": 2, "blocks": [[0, 1], [2, 4]]},
    {"B": 2, "blocks": [[0, 1], [2, 3], []]},
    {"B": 2, "blocks": [[0, 1], [2, 3], [4]]},
    {"B": 8, "blocks": [[0, 1, 2, 3, 4, 5, 6, 7]]},
    {"B": 2},
])
def test_eval_rejects_bad_layout(tmp_path, layout, caplog, capsys):
    tree = tmp_path / "t.json"
    lay = tmp_path / "l.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    lay.write_text(json.dumps(layout))
    caplog.clear()
    assert run(["eval", "--tree", tree, "--layout", lay]) == 3
    assert _one_error_line(caplog, capsys)


def test_eval_ignores_c_in_older_layout_files(perfect7_files):
    tmp, tree, t = perfect7_files
    lay = tmp / "old.json"
    lay.write_text(json.dumps({"B": 7, "c": "1/1",
                               "blocks": [list(range(7))]}))
    assert run(["eval", "--tree", tree, "--layout", lay,
                "--out", tmp / "rows.csv"]) == 0


@pytest.mark.parametrize("extra", [
    ["--B", 64],
    ["--offsets", "all"],
    ["--B", 4, "--offsets", "all"],
    ["--B", 4, "--B", 8],
])
def test_eval_block_layout_rejects_other_B_or_offsets(tmp_path, caplog,
                                                      extra):
    tree, lay = tmp_path / "t.json", tmp_path / "aware-B4.json"
    run(["gen", "random", "--n", 40, "--seed", 2, "--out", tree])
    run(["layout", "aware", "--tree", tree, "--B", 4, "--out", lay])
    out = tmp_path / "rows.csv"
    assert run(["eval", "--tree", tree, "--layout", lay, "--out", out]
               + extra) == 3
    assert not out.exists()
    assert any("B=4" in r.getMessage() for r in caplog.records)


def test_eval_block_layout_accepts_its_own_B(tmp_path):
    tree, lay = tmp_path / "t.json", tmp_path / "aware-B4.json"
    run(["gen", "random", "--n", 40, "--seed", 2, "--out", tree])
    run(["layout", "aware", "--tree", tree, "--B", 4, "--out", lay])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["eval", "--tree", tree, "--layout", lay, "--out", a]) == 0
    assert run(["eval", "--tree", tree, "--layout", lay, "--B", 4,
                "--offsets", "zero", "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("order", [[0, True, 2, 3], [0, 1, 2, 2], "0123", 7,
                                   [0, 1, 2, 4], [0, 1, 2, 3, 4]])
def test_eval_rejects_bad_order(tmp_path, order, caplog, capsys):
    tree = tmp_path / "t.json"
    lay = tmp_path / "o.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    lay.write_text(json.dumps({"order": order}))
    caplog.clear()
    assert run(["eval", "--tree", tree, "--layout", lay, "--B", 2]) == 3
    assert _one_error_line(caplog, capsys)


@pytest.mark.parametrize("order", [[None, 0, 1, 2, 3], [1, 0, 3, 2],
                                   [0, None, None, 1, 2, None, 3, None]])
def test_eval_accepts_padded_and_unrooted_order(tmp_path, order):
    tree = tmp_path / "t.json"
    lay = tmp_path / "o.json"
    out = tmp_path / "rows.csv"
    run(["gen", "path", "--n", 4, "--out", tree])
    lay.write_text(json.dumps({"order": order}))
    assert run(["eval", "--tree", tree, "--layout", lay, "--B", 2,
                "--offsets", "all", "--out", out]) == 0
    assert len(read_rows(out)) == 2 * 4


@pytest.mark.parametrize("mode", ["oblivious", "aware"])
def test_eval_rejects_repeated_B(tmp_path, caplog, mode):
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    run(["gen", "random", "--n", 40, "--seed", 2, "--out", tree])
    B = ["--B", 4] if mode == "aware" else []   # oblivious reads no --B
    assert run(["layout", mode, "--tree", tree, *B, "--out", lay]) == 0
    out = tmp_path / "rows.csv"
    assert run(["eval", "--tree", tree, "--layout", lay, "--B", 4,
                "--B", 4, "--out", out]) == 3
    assert not out.exists()
    assert [r.getMessage() for r in caplog.records] == ["--B repeats 4"]


def test_eval_of_block_layout_memory_per_node(tmp_path, peak_bytes):
    # the layout read down to B and block_of before the tree is loaded
    # peaks at about 122 bytes a node; the whole parsed layout beside
    # the built tree, at about 187
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    t = gen_random(1 << 15, 3)
    n = t.n
    save_tree(t, tree)
    lay.write_text(json_text(layout_to_json(layout_aware(t, 4))))
    del t
    code, peak, _ = peak_bytes(lambda: run(["eval", "--tree", tree,
                                           "--layout", lay,
                                           "--out", tmp_path / "rows.csv"]))
    assert code == 0
    assert peak <= 165 * n


def test_eval_of_order_memory_per_node(tmp_path, peak_bytes):
    # positions made of fresh ints, and both parsed child lists alive
    # beside their tuples, peaked at about 171 bytes a node; positions
    # made of the order's own ints, at about 119; the order read down to
    # its packed slot table before the tree is loaded, at about 80
    tree, order = tmp_path / "t.json", tmp_path / "o.json"
    t = gen_random(1 << 15, 3)
    n = t.n
    save_tree(t, tree)
    order.write_text(json_text(order_to_json(layout_oblivious(t))))
    del t
    code, peak, _ = peak_bytes(lambda: run([
        "eval", "--tree", tree, "--layout", order, "--B", 4, "--B", 64,
        "--B", 1024, "--out", tmp_path / "rows.csv"]))
    assert code == 0
    assert peak <= 95 * n


@pytest.mark.parametrize("kind", ["aware", "oblivious"])
def test_eval_of_a_path_memory_per_node(tmp_path, peak_bytes, kind):
    # on a path no two rows of a record repeat: a cache of every row's
    # text, the bound's text per depth, and each record's rows joined
    # whole peaked at about 740 bytes a node (aware, B=4) and 1000 (an
    # order at B 4 and 64); rows formatted a chunk at a time, at about
    # 190 and 220
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    t = gen_path(1 << 15)
    n = t.n
    save_tree(t, tree)
    if kind == "aware":
        lay.write_text(json_text(layout_to_json(layout_aware(t, 4))))
        Bs = []
    else:
        lay.write_text(json_text(order_to_json(layout_oblivious(t))))
        Bs = ["--B", 4, "--B", 64]
    del t
    code, peak, _ = peak_bytes(lambda: run([
        "eval", "--tree", tree, "--layout", lay, *Bs,
        "--out", tmp_path / "rows.csv"]))
    assert code == 0
    assert peak <= 250 * n


def test_priced_offsets_hold_the_table_and_one_list_each(peak_bytes):
    # a cell priced at every offset keeps each worst_by_offset column as
    # it is, one byte a cell here, beside one worst_cum list per offset:
    # about 9.3 bytes per (offset, depth) cell.  A copy of each column as
    # a list besides held about 16.2
    tree = gen_path(4096)
    order = layout_oblivious(tree)
    B = 64
    depths = range(tree.height + 1)
    cell, _, held = peak_bytes(lambda: cli._price_cell(
        "p", "path", tree, B, depths, None, order, True))
    assert len(cell.layouts) == B
    assert held <= 12 * B * len(depths)


def test_eval_streams_the_same_csv_to_stdout(tmp_path, capsys):
    tree, order = tmp_path / "t.json", tmp_path / "o.json"
    run(["gen", "random", "--n", 60, "--seed", 4, "--out", tree])
    run(["layout", "oblivious", "--tree", tree, "--out", order])
    argv = ["eval", "--tree", tree, "--layout", order, "--B", 3, "--B", 5,
            "--offsets", "all"]
    capsys.readouterr()
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert run(argv + ["--out", tmp_path / "rows.csv"]) == 0
    assert printed == (tmp_path / "rows.csv").read_text()
    height = load_tree(tree).height
    assert len(printed.splitlines()) == 1 + (3 + 5) * (height + 1)


_OWN_B = ("a block layout is priced at its own B=4 and offset 0: --B must "
          "be 4 and --offsets zero")


@pytest.mark.parametrize("layout,extra,message", [
    ("order", ["--B", 0], "B must be >= 1"),
    ("order", ["--B", 4, "--B", 4], "--B repeats 4"),
    ("order", [], "--B is required to evaluate a linear order"),
    ("blocks", ["--B", 4, "--B", 4], "--B repeats 4"),
    ("blocks", ["--B", 8], _OWN_B),
    ("blocks", ["--offsets", "all"], _OWN_B),
    ("bad-order", ["--B", 4], "order is not a permutation of 0..2"),
], ids=["order-B0", "order-repeated", "order-no-B", "blocks-repeated",
        "blocks-other-B", "blocks-all-offsets", "order-not-permutation"])
def test_eval_checks_B_before_loading_the_tree(tmp_path, monkeypatch, caplog,
                                               layout, extra, message):
    # and reads an order down to its slot table, with its checks
    tree, order = _order_files(tmp_path, 20)
    blocks = tmp_path / "blocks.json"
    assert run(["layout", "aware", "--tree", tree, "--B", 4,
                "--out", blocks]) == 0
    if layout == "bad-order":
        order.write_text(json.dumps({"order": [0, 0, 1]}))

    def load_tree(path):
        raise AssertionError("the tree was loaded")

    monkeypatch.setattr(cli, "load_tree", load_tree)
    caplog.clear()
    lay = blocks if layout == "blocks" else order
    assert run(["eval", "--tree", tree, "--layout", lay] + extra) == 3
    assert [r.getMessage() for r in caplog.records] == [message]


@pytest.mark.parametrize("layout,message", [
    ({"order": [0, 0, 1]}, "order is not a permutation of 0..2"),
    ({"B": 2, "blocks": [[0, 1], [1]]}, "node 1 in two blocks"),
    ({"order": [0, 1, 2]}, "child id out of range: 7"),
], ids=["order", "blocks", "good-order"])
def test_eval_reports_the_layout_fault_before_the_tree_fault(
        tmp_path, caplog, layout, message):
    # the tree's fault is reported only when the layout has none
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    tree.write_text(json.dumps({"version": 2, "n": 3, "root": 0,
                                "left": [1, 7, None],
                                "right": [2, None, None]}))
    lay.write_text(json.dumps(layout))
    caplog.clear()
    assert run(["eval", "--tree", tree, "--layout", lay, "--B", 2]) == 3
    assert [r.getMessage() for r in caplog.records] == [message]


@pytest.mark.parametrize("argv,config,path", [
    (["sweep", "--config", "cfg.json"], {"csv_out": "missing/out.csv"},
     "missing/out.csv"),
    (["layout", "oblivious", "--tree", "t.json", "--out", "nodir/o.json"],
     None, "nodir/o.json"),
    (["layout", "oblivious", "--tree", "nope.json", "--out", "nodir/o.json"],
     None, "nodir/o.json"),
    (["gen", "path", "--n", 8, "--out", "nodir/t.json"], None,
     "nodir/t.json"),
    (["layout", "aware", "--tree", "t.json", "--B", 2, "--out", "a.json",
      "--padded-out", "nodir/p.json"], None, "nodir/p.json"),
    (["eval", "--tree", "t.json", "--layout", "nope.json", "--B", 2,
      "--out", "nodir/e.csv"], None, "nodir/e.csv"),
    (["sweep", "--config", "cfg.json", "--out", "nodir/s.csv"], {},
     "nodir/s.csv"),
    (["sweep", "--config", "cfg.json"], {"summary_out": "nodir/s.json"},
     "nodir/s.json"),
    (["layout", "oblivious", "--tree", "t.json", "--out", "t.json/o.json"],
     None, "t.json/o.json"),
    (["gen", "path", "--n", 8, "--out", "t.json/b/t.json"], None,
     "t.json/b/t.json"),
    (["layout", "oblivious", "--tree", "t.json", "--out", "d"], None, "d"),
    (["layout", "aware", "--tree", "t.json", "--B", 2, "--out", ""], None,
     ""),
    (["sweep", "--config", "cfg.json"], {"summary_out": "d"}, "d"),
    (["gen", "path", "--n", 8, "--out", "nodir/"], None, "nodir/"),
], ids=["sweep-csv_out", "layout-out", "out-before-input", "gen-out",
        "padded-out", "eval-out", "sweep-out", "sweep-summary_out",
        "file-parent", "file-grandparent", "directory", "empty",
        "summary-directory", "trailing-slash"])
def test_missing_output_directory_fails_before_the_work(
        tmp_path, monkeypatch, caplog, capsys, argv, config, path):
    # the error open() gives, reported before any input is read or any
    # work is done, and nothing is written
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "path", "--n", 8, "--out", "t.json"]) == 0
    (tmp_path / "d").mkdir()
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(
            dict(config, families={"path": [8]}, Bs=[2])))

    def never(*args):
        raise AssertionError("the work ran")

    for name in ("_price_grid", "layout_oblivious", "layout_aware",
                 "load_tree", "_build_path"):
        monkeypatch.setattr(cli, name, never)
    before = sorted(tmp_path.iterdir())
    caplog.clear()
    assert run(argv) == 3
    message = _one_error_line(caplog, capsys)
    assert sorted(tmp_path.iterdir()) == before
    with pytest.raises(OSError) as exc:
        open(path, "w")
    assert message == str(exc.value)


def test_eval_order_requires_B(tmp_path):
    tree = tmp_path / "t.json"
    order = tmp_path / "o.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    run(["layout", "oblivious", "--tree", tree, "--out", order])
    assert run(["eval", "--tree", tree, "--layout", order]) == 3


def test_eval_json_format(tmp_path):
    tree = tmp_path / "t.json"
    lay = tmp_path / "l.json"
    out = tmp_path / "rows.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    run(["layout", "aware", "--tree", tree, "--B", 2, "--out", lay])
    assert run(["eval", "--tree", tree, "--layout", lay,
                "--format", "json", "--out", out]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert rows[0]["layout"] == "aware"


# ------------------------------------------------------------ sweep

def test_sweep_matches_eval(tmp_path):
    tree = tmp_path / "t7.json"
    lay = tmp_path / "l.json"
    evout = tmp_path / "ev.csv"
    save_tree(gen_perfect(2), tree)
    run(["layout", "aware", "--tree", tree, "--B", 3, "--out", lay])
    run(["eval", "--tree", tree, "--layout", lay, "--out", evout])
    ev = {r["D"]: (r["worst_exact"], r["bound"]) for r in read_rows(evout)}

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "families": {"perfect": [7]}, "Bs": [3], "depths": "all",
        "csv_out": str(tmp_path / "sweep.csv"),
        "summary_out": str(tmp_path / "summary.json")}))
    assert run(["sweep", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "sweep.csv")
    for r in rows:
        if r["layout"] == "aware":
            assert (r["worst_exact"], r["bound"]) == ev[r["D"]]


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "families": {"random": [60], "lowerbound": [64]},
        "Bs": [4, 8], "seed": 3, "depths": "all", "offsets": "all",
        "csv_out": str(tmp_path / "s.csv"),
        "summary_out": str(tmp_path / "s.json")}))
    assert run(["sweep", "--config", cfg]) == 0
    first = (tmp_path / "s.csv").read_bytes(), (tmp_path / "s.json").read_bytes()
    assert run(["sweep", "--config", cfg]) == 0
    assert ((tmp_path / "s.csv").read_bytes(),
            (tmp_path / "s.json").read_bytes()) == first


def test_sweep_lowerbound_reports_ratio(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "families": {"lowerbound": [64]}, "Bs": [4],
        "csv_out": str(tmp_path / "s.csv"),
        "summary_out": str(tmp_path / "s.json")}))
    assert run(["sweep", "--config", cfg]) == 0
    rows = read_rows(tmp_path / "s.csv")
    assert all(float(r["ratio"]) > 0 for r in rows)
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["families"]["lowerbound"]["aware"]["max_ratio"] > 0
    assert summary["exclusion_violations"] == 0


@pytest.mark.parametrize("command,message", [
    ("eval", "--D 3 outside 0..2"),
    ("sweep", "perfect family needs N = 2^h - 1, got 6"),
], ids=["eval-D", "sweep-perfect"])
def test_out_of_range_size_or_depth_exits_3(tmp_path, caplog, capsys,
                                            command, message):
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    save_tree(gen_perfect(2), tree)
    assert run(["layout", "aware", "--tree", tree, "--B", 4,
                "--out", lay]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"families": {"perfect": [6]}, "Bs": [2],
                               "csv_out": str(tmp_path / "s.csv")}))
    argv = {"eval": ["eval", "--tree", tree, "--layout", lay, "--D", 3],
            "sweep": ["sweep", "--config", cfg]}[command]
    assert run(argv) == 3
    assert _one_error_line(caplog, capsys) == message


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(families={"perfect": []}, Bs=[2])
    with pytest.raises(ValueError):
        SweepConfig(families={"path": [4]}, Bs=[0])
    with pytest.raises(ValueError):
        SweepConfig(families={"nope": [4]}, Bs=[2])
    with pytest.raises(ValueError):
        SweepConfig(families={"path": [4]}, Bs=[2], depths="some")


@pytest.mark.parametrize("height,grid", [
    (0, [0]), (1, [1]), (5, [1, 2, 4, 5]), (8, [1, 2, 4, 8])])
def test_log_depth_grid(height, grid):
    assert cli._depth_grid(height, "log") == grid


def test_log_depth_grid_is_powers_of_two_then_the_height():
    for height in range(1, 301):
        grid = cli._depth_grid(height, "log")
        assert grid == sorted(set(grid)) and grid[-1] == height
        assert all(d > 0 and d & (d - 1) == 0 for d in grid[:-1])


@pytest.mark.parametrize("config,word", [
    ({"families": {"path": [4]}, "Bs": [2], "depth": "all"}, "'depth'"),
    ({"families": {"path": [4]}, "Bs": [2], "zz": 1, "aa": 2}, "'aa', 'zz'"),
    ({"families": {"path": [4]}}, "'Bs'"),
    ([{"families": {"path": [4]}, "Bs": [2]}], "object"),
    ("families", "object"),
    ({"families": ["path"], "Bs": [2]}, "families"),
    ({"families": {"path": ["4"]}, "Bs": [2]}, "positive sizes"),
    ({"families": {"path": 4}, "Bs": [2]}, "positive sizes"),
    ({"families": {"path": [4]}, "Bs": [True]}, "B list"),
    ({"families": {"path": [4]}, "Bs": 2}, "B list"),
    ({"families": {"path": [4]}, "Bs": [2], "seed": "x"}, "seed"),
    ({"families": {"random": [64]}, "Bs": [4], "csv_out": 5}, "csv_out"),
    ({"families": {"random": [64]}, "Bs": [4], "summary_out": ["x"]},
     "summary_out"),
    ({"families": {"path": [4]}, "Bs": [2], "c": "1/2"}, "'c'"),
    ({"families": {"path": [4]}, "Bs": [4, 2, 4]}, "Bs repeats 4"),
    ({"families": {"random": [64, 32, 64]}, "Bs": [4]},
     "family 'random' repeats 64"),
    ({"families": {}, "Bs": [2]}, "families"),
])
def test_sweep_config_keys(tmp_path, caplog, config, word):
    with pytest.raises(ValueError, match=word):
        SweepConfig.from_json(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["sweep", "--config", cfg]) == 3
    assert any(word in r.getMessage() for r in caplog.records)


def test_sweep_config_checks_repeats_in_linear_time():
    # a check that looks back over the values before each one takes
    # about a minute on 10**5 sizes
    sizes = list(range(1, 100_001))
    t0 = time.perf_counter()
    SweepConfig(families={"random": sizes}, Bs=[4])
    assert time.perf_counter() - t0 < 2
    with pytest.raises(ValueError, match="family 'random' repeats 7$"):
        SweepConfig(families={"random": sizes + [7]}, Bs=[4])
    # the first value met a second time is the one named
    with pytest.raises(ValueError, match="Bs repeats 5$"):
        SweepConfig(families={"path": [4]}, Bs=[3, 5, 5, 3])


@pytest.mark.parametrize("cfg,expected", [
    # sum over cells of (1 + offsets) x (height + 1) rows
    (SweepConfig(families={"path": [32]}, Bs=[4], depths="all"), 2 * 32),
    (SweepConfig(families={"path": [32], "perfect": [15]}, Bs=[2, 5],
                 depths="all", offsets="all"),
     (1 + 2) * 32 + (1 + 5) * 32 + (1 + 2) * 4 + (1 + 5) * 4),
], ids=["offset-0", "all-offsets"])
def test_run_sweep_returns_rows_and_summary(cfg, expected):
    rows, summary = run_sweep(cfg)
    assert summary["rows"] == len(rows) == expected
    assert {r["layout"] for r in rows} == {"aware", "oblivious"}


def test_sweep_and_eval_price_each_cell_once(tmp_path, monkeypatch):
    # the benchmark's tracer wraps these names in the cli module: one
    # bound per (tree, B, reported depth), one cost_report per aware layout
    calls = {"bound": 0, "cost_report": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "theoretical_bound",
                        counting("bound", cli.theoretical_bound))
    monkeypatch.setattr(cli, "cost_report",
                        counting("cost_report", cli.cost_report))
    tree, order = _order_files(tmp_path, 40)
    lay = tmp_path / "aware.json"
    assert run(["layout", "aware", "--tree", tree, "--B", 4,
                "--out", lay]) == 0
    levels = load_tree(tree).height + 1
    assert run(["eval", "--tree", tree, "--layout", lay,
                "--out", tmp_path / "a.csv"]) == 0
    assert calls == {"bound": levels, "cost_report": 1}
    assert run(["eval", "--tree", tree, "--layout", order, "--B", 2,
                "--B", 4, "--offsets", "all",
                "--out", tmp_path / "o.csv"]) == 0
    assert calls == {"bound": 3 * levels, "cost_report": 1}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "families": {"path": [16], "perfect": [15]}, "Bs": [2, 4],
        "depths": "all", "offsets": "all",
        "csv_out": str(tmp_path / "s.csv"),
        "summary_out": str(tmp_path / "s.json")}))
    assert run(["sweep", "--config", cfg]) == 0
    assert calls == {"bound": 3 * levels + 2 * (16 + 4),
                     "cost_report": 1 + 4}


# ------------------------------------------------------------ oracle

def test_oracle_command(perfect7_files, capsys):
    tmp, tree, _ = perfect7_files
    assert run(["oracle", "--tree", tree, "--B", 3, "--D", 2]) == 0
    out = capsys.readouterr().out
    assert "transfers at depth 2: 2" in out
    assert "witness" in out


def test_oracle_command_too_large(tmp_path):
    tree = tmp_path / "big.json"
    save_tree(gen_perfect(3), tree)  # 15 nodes
    assert run(["oracle", "--tree", tree, "--B", 3, "--D", 2]) == 4


@pytest.mark.parametrize("B,D,message", [
    (0, 2, "B must be positive"),
    (3, 99, "no nodes at depth 99 (height 3)"),
])
def test_oracle_reports_bad_input_before_the_size_limit(tmp_path, caplog, B,
                                                        D, message):
    tree = tmp_path / "big.json"
    save_tree(gen_perfect(3), tree)  # 15 nodes
    assert run(["oracle", "--tree", tree, "--B", B, "--D", D]) == 3
    assert [r.getMessage() for r in caplog.records] == [message]


# ------------------------------------------------------------ inputs too large

def _one_error_line(caplog, capsys) -> str:
    errors = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert "Traceback" not in capsys.readouterr().err
    return errors[0]


def test_oversized_n_exits_4(caplog, capsys):
    # past the node limit: refused before anything is allocated
    assert run(["gen", "random", "--n", 10**21]) == 4
    assert _one_error_line(caplog, capsys)


@pytest.mark.parametrize("B", [10**30, 10**11])
def test_padded_out_past_the_slot_limit_exits_4(tmp_path, caplog, capsys, B):
    # blocks x B slots are sized before the padded order is allocated, and
    # refused before either file is written
    tree, out, pad = (tmp_path / name for name in ("t.json", "a.json",
                                                    "p.json"))
    assert run(["gen", "perfect", "--height", 3, "--out", tree]) == 0
    caplog.clear()
    assert run(["layout", "aware", "--tree", tree, "--B", B, "--out", out,
                "--padded-out", pad]) == 4
    message = _one_error_line(caplog, capsys)
    assert "--padded-out" in message and f"B={B}" in message
    assert not out.exists() and not pad.exists()


def _order_files(tmp_path, n):
    tree, order = tmp_path / "t.json", tmp_path / "o.json"
    assert run(["gen", "random", "--n", n, "--seed", 1, "--out", tree]) == 0
    assert run(["layout", "oblivious", "--tree", tree, "--out", order]) == 0
    return tree, order


@pytest.mark.parametrize("B", [10**9, 10**20])
def test_oversized_all_offset_pricing_exits_4(tmp_path, caplog, capsys, B):
    # B x (height + 1) cells past the budget are refused before the
    # table, or any B-field int of the scan, is allocated
    tree, order = _order_files(tmp_path, 20)
    caplog.clear()
    assert run(["eval", "--tree", tree, "--layout", order, "--B", B,
                "--offsets", "all"]) == 4
    assert "B=%d" % B in _one_error_line(caplog, capsys)


def _float_range_files(tmp_path, B):
    """A 20-node path, a block layout of it at B and a sweep config of a
    20-node path at B."""
    path, blocks = tmp_path / "path.json", tmp_path / "blocks.json"
    save_tree(gen_path(20), path)
    blocks.write_text(json.dumps({"B": B, "blocks": [[v] for v in range(20)]}))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "families": {"path": [20]}, "Bs": [B],
        "csv_out": str(tmp_path / "s.csv"),
        "summary_out": str(tmp_path / "s.json")}))
    return path, blocks, config


@pytest.mark.parametrize("case,name", [
    ("eval-order", "--B"),
    ("eval-blocks", "the layout's B"),
    ("sweep", "a B in Bs"),
    ("layout-aware", "--B"),
], ids=["eval-order", "eval-blocks", "sweep", "layout-aware"])
def test_B_past_the_float_range_exits_4(tmp_path, caplog, capsys, case,
                                        name):
    # the bound's or the aware layout's float arithmetic overflows
    B = 10**400
    tree, order = _order_files(tmp_path, 20)
    path, blocks, config = _float_range_files(tmp_path, B)
    argv = {
        "eval-order": ["eval", "--tree", tree, "--layout", order, "--B", B],
        "eval-blocks": ["eval", "--tree", path, "--layout", blocks],
        "sweep": ["sweep", "--config", config],
        "layout-aware": ["layout", "aware", "--tree", path, "--B", B],
    }[case]
    caplog.clear()
    assert run(argv) == 4
    message = _one_error_line(caplog, capsys)
    assert "too large" in message and name in message


def test_B_past_the_float_range_prices_a_perfect_tree(tmp_path):
    # on a perfect tree every reported depth is in the B-tree regime and
    # phase 1 covers every level, so no float holds B
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "families": {"perfect": [7]}, "Bs": [10**400], "depths": "all",
        "csv_out": str(tmp_path / "s.csv"),
        "summary_out": str(tmp_path / "s.json")}))
    assert run(["sweep", "--config", config]) == 0
    assert len(read_rows(tmp_path / "s.csv")) == 2 * 3


@pytest.mark.parametrize("argv", [
    ["gen", "perfect", "--height", 33],
    ["gen", "random", "--n", 1 << 30],
    ["gen", "path", "--n", 3_000_000_000],
    ["gen", "lowerbound", "--B", 4, "--inv-p", 2, "--n", 1 << 30],
], ids=["perfect", "random", "path", "lowerbound"])
def test_more_nodes_than_the_limit_exits_4(argv, caplog, capsys):
    # the node-count guard raises before anything is allocated
    assert run(argv) == 4
    assert "exceed" in _one_error_line(caplog, capsys)


def test_failed_encoding_keeps_the_output_file(tmp_path, monkeypatch):
    # the text is built before the file is opened and truncated
    out = tmp_path / "keep.json"
    out.write_text("old")

    def json_text(obj):
        raise MemoryError()

    monkeypatch.setattr(cli, "json_text", json_text)
    assert run(["gen", "path", "--n", 8, "--out", out]) == 4
    assert out.read_text() == "old"


def test_out_of_memory_exits_4(monkeypatch, caplog, capsys):
    def build_path(n):
        raise MemoryError()

    monkeypatch.setattr(cli, "_build_path", build_path)
    assert run(["gen", "path", "--n", 3]) == 4
    assert _one_error_line(caplog, capsys) == "MemoryError"


# ------------------------------------------------------------ gc

@pytest.mark.parametrize("build", [
    lambda: gen_random(1 << 15, 3),
    lambda: layout_oblivious(gen_perfect(10)),
    lambda: refinement_levels(gen_perfect(10)),
    lambda: brute_force_optimal(gen_perfect(2), 3, 2),
], ids=["gen_random", "layout_oblivious", "refinement_levels",
        "brute_force_optimal"])
def test_commands_leave_no_cycles_for_the_paused_collector(build):
    # main() pauses the cyclic collector, so whatever a command's data
    # forms a cycle with stays allocated until the process exits
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_gc_and_restores_it(tmp_path, monkeypatch, enabled):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    seen = []
    real_gen = cli.cmd_gen

    def spy(args):
        seen.append(gc.isenabled())
        return real_gen(args)

    monkeypatch.setattr(cli, "cmd_gen", spy)
    cases = [(["gen", "perfect", "--height", 2, "--out", tmp_path / "t.json"],
              0),
             (["layout", "oblivious", "--tree", bad], 3),
             (["gen", "perfect", "--height", 999], 4)]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        for argv, code in cases:
            assert run(argv) == code
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    assert seen == [False, False]
