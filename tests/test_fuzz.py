"""Fuzzed input files through ``main()``: never a crash, never a traceback.

Each example writes one input file of ``eval`` (the tree or the layout)
or of ``sweep`` (the config): either arbitrary JSON or a valid object with
a few random edits.  Whatever the file holds, the command must end with a
documented exit code (0, 3 or 4).  Integers stay in [-3, 64], so no
example builds a tree or a block size above 64.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from treelayout import (gen_random, layout_aware, layout_oblivious,
                        layout_to_json, padded_order, order_to_json,
                        tree_to_json)
from treelayout.cli import main

KEYS = ("order", "blocks", "B", "c", "n", "root", "left", "right",
        "version", "families", "Bs", "depths", "offsets", "seed",
        "csv_out", "summary_out", "perfect", "path", "random", "lowerbound",
        "all", "log", "zero", "1/2")
# no path separators or dots: a string used as an output path stays a
# file name inside the example's own directory
TEXT = st.text(alphabet="abcxyz0129 -_:", max_size=6) | st.sampled_from(KEYS)
SCALARS = (st.none() | st.booleans() | st.integers(-3, 64)
           | st.floats(allow_nan=False, allow_infinity=False) | TEXT)
JSON = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=5)
                    | st.dictionaries(TEXT, kids, max_size=5),
                    max_leaves=16)


@st.composite
def edited(draw, obj, top=False):
    """``obj`` with one random replacement, deletion or insertion; at the
    top level the object itself is kept and edited inside."""
    kinds = ("descend", "delete", "insert") + (() if top else ("replace",))
    kind = draw(st.sampled_from(kinds))
    if kind == "replace" or not isinstance(obj, (dict, list)) or not obj:
        return draw(JSON)
    out = obj.copy()
    if isinstance(obj, dict):
        key = draw(st.sampled_from(sorted(obj)))
        if kind == "delete":
            del out[key]
        elif kind == "insert":
            out[draw(TEXT)] = draw(JSON)
        else:
            out[key] = draw(edited(obj[key]))
        return out
    i = draw(st.integers(0, len(obj) - 1))
    if kind == "delete":
        del out[i]
    elif kind == "insert":
        out.insert(i, draw(JSON))
    else:
        out[i] = draw(edited(obj[i]))
    return out


@st.composite
def fuzzed(draw, valid):
    """Arbitrary JSON (one time in four), or one of the ``valid`` objects
    after 1-3 edits."""
    if draw(st.integers(0, 3)) == 0:
        return draw(JSON)
    obj = draw(st.sampled_from(valid))
    for _ in range(draw(st.integers(1, 3))):
        obj = draw(edited(obj, top=True))
    return obj


TREE = gen_random(9, seed=4)
ASG = layout_aware(TREE, 2)
TREES = [tree_to_json(TREE)]
LAYOUTS = [layout_to_json(ASG), order_to_json(layout_oblivious(TREE)),
           {"B": 2, "order": padded_order(ASG)}]
CONFIGS = [{"families": {"random": [9, 20], "path": [5], "perfect": [7],
                         "lowerbound": [24]},
            "Bs": [2, 4], "depths": "all", "offsets": "all",
            "seed": 1, "csv_out": "s.csv", "summary_out": "s.json"}]


def run_main(files: dict, argv: list) -> None:
    """Write ``files`` (name -> JSON) into a fresh directory, run ``argv``
    there, and check the exit code and stderr."""
    with tempfile.TemporaryDirectory() as d:
        for name, content in files.items():
            with open(os.path.join(d, name), "w") as fh:
                json.dump(content, fh)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(d)
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
        finally:
            os.chdir(cwd)
    assert rc in (0, 3, 4), (argv, files)
    assert "Traceback" not in err.getvalue()


EVAL = ["eval", "--tree", "tree.json", "--layout", "layout.json",
        "--out", "out.csv"]


@given(tree=fuzzed(TREES), B=st.integers(1, 64))
@settings(max_examples=150, deadline=None)
def test_eval_survives_fuzzed_tree(tree, B):
    run_main({"tree.json": tree, "layout.json": LAYOUTS[0]},
             EVAL + ["--B", str(B)])


@given(layout=fuzzed(LAYOUTS), B=st.integers(1, 64),
       offsets=st.sampled_from(("zero", "all")))
@settings(max_examples=150, deadline=None)
def test_eval_survives_fuzzed_layout(layout, B, offsets):
    run_main({"tree.json": TREES[0], "layout.json": layout},
             EVAL + ["--B", str(B), "--offsets", offsets])


@given(config=fuzzed(CONFIGS))
@settings(max_examples=150, deadline=None)
def test_sweep_survives_fuzzed_config(config):
    run_main({"config.json": config},
             ["sweep", "--config", "config.json", "--out", "out.csv"])
