"""End-to-end command behavior: files in, files out, exit codes."""

import csv
import gc
import json

import pytest

from treelayout import (gen_perfect, gen_random, layout_aware, load_tree,
                        phase2_layout, layout_to_json, save_tree)
import treelayout.cli as cli
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
    assert run(["gen", "perfect"]) == 3


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


# ------------------------------------------------------------ tree files

def _columnar(**over):
    obj = {"version": 2, "n": 3, "root": 0,
           "left": [1, None, None], "right": [2, None, None]}
    obj.update(over)
    return obj


def _legacy(**over):
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
}


@pytest.mark.parametrize("case", sorted(BAD_TREE_FILES))
def test_bad_tree_file_exits_3(case, tmp_path, caplog, capsys):
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps(BAD_TREE_FILES[case]))
    assert run(["layout", "aware", "--tree", tree, "--B", 2]) == 3
    errors = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("nested", ["eval-tree", "eval-layout", "sweep"])
def test_deeply_nested_json_exits_3(nested, tmp_path, caplog, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000)
    tree, lay = tmp_path / "t.json", tmp_path / "l.json"
    save_tree(gen_perfect(2), tree)
    assert run(["layout", "aware", "--tree", tree, "--B", 4,
                "--out", lay]) == 0
    argv = {"eval-tree": ["eval", "--tree", deep, "--layout", lay],
            "eval-layout": ["eval", "--tree", tree, "--layout", deep],
            "sweep": ["sweep", "--config", deep]}[nested]
    assert run(argv) == 3
    errors = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert "Traceback" not in capsys.readouterr().err


def test_good_tree_files_in_both_formats(tmp_path):
    for name, obj in (("v2", _columnar()), ("legacy", _legacy())):
        tree = tmp_path / f"{name}.json"
        tree.write_text(json.dumps(obj))
        assert load_tree(tree) == gen_perfect(1)
        assert run(["layout", "aware", "--tree", tree, "--B", 2,
                    "--out", tmp_path / f"{name}.layout.json"]) == 0


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
    assert len(err) == 1 and err[0].endswith(f"does not read {flag}")
    assert not out.exists() and not pad.exists()


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


def test_eval_rejects_mismatched_ids(tmp_path):
    tree = tmp_path / "t.json"
    lay = tmp_path / "l.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    lay.write_text(json.dumps({"B": 2, "c": "1", "blocks": [[0, 1], [2]]}))
    assert run(["eval", "--tree", tree, "--layout", lay]) == 3


@pytest.mark.parametrize("layout", [
    [[0, 1], [2, 3]],
    {"B": True, "blocks": [[0], [1], [2], [3]]},
    {"B": 2, "blocks": 5},
    {"B": 2, "blocks": [0, 1, 2, 3]},
    {"B": 2, "blocks": [[0, 1], [2, True]]},
    {"B": 0, "blocks": [[0], [1], [2], [3]]},
    {"B": 2, "blocks": [[0, 1], [2, 4]]},
])
def test_eval_rejects_bad_layout(tmp_path, layout):
    tree = tmp_path / "t.json"
    lay = tmp_path / "l.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    lay.write_text(json.dumps(layout))
    assert run(["eval", "--tree", tree, "--layout", lay]) == 3


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


@pytest.mark.parametrize("order", [[0, True, 2, 3], [0, 1, 2, 2], "0123", 7])
def test_eval_rejects_bad_order(tmp_path, order):
    tree = tmp_path / "t.json"
    lay = tmp_path / "o.json"
    run(["gen", "path", "--n", 4, "--out", tree])
    lay.write_text(json.dumps({"order": order}))
    assert run(["eval", "--tree", tree, "--layout", lay, "--B", 2]) == 3


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


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(families={"perfect": []}, Bs=[2])
    with pytest.raises(ValueError):
        SweepConfig(families={"path": [4]}, Bs=[0])
    with pytest.raises(ValueError):
        SweepConfig(families={"nope": [4]}, Bs=[2])
    with pytest.raises(ValueError):
        SweepConfig(families={"path": [4]}, Bs=[2], depths="some")


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
])
def test_sweep_config_keys(tmp_path, caplog, config, word):
    with pytest.raises(ValueError, match=word):
        SweepConfig.from_json(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["sweep", "--config", cfg]) == 3
    assert any(word in r.getMessage() for r in caplog.records)


def test_run_sweep_returns_rows_and_summary():
    cfg = SweepConfig(families={"path": [32]}, Bs=[4], depths="all")
    rows, summary = run_sweep(cfg)
    assert summary["rows"] == len(rows) == 2 * 32
    assert {r["layout"] for r in rows} == {"aware", "oblivious"}


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


# ------------------------------------------------------------ inputs too large

def _one_error_line(caplog, capsys) -> str:
    errors = [r.getMessage() for r in caplog.records
              if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0], errors
    assert "Traceback" not in capsys.readouterr().err
    return errors[0]


def test_oversized_n_exits_4(caplog, capsys):
    # overflows an index-sized integer before anything is allocated
    assert run(["gen", "random", "--n", 10**21]) == 4
    assert _one_error_line(caplog, capsys)


def test_out_of_memory_exits_4(monkeypatch, caplog, capsys):
    def gen_path(n):
        raise MemoryError()

    monkeypatch.setattr(cli, "gen_path", gen_path)
    assert run(["gen", "path", "--n", 3]) == 4
    assert _one_error_line(caplog, capsys) == "MemoryError"


# ------------------------------------------------------------ gc

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
