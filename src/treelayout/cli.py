"""Command-line front end: generate trees, lay them out, price the results.

Subcommands:

* ``gen``     -- write a tree file (perfect | path | random | lowerbound)
* ``layout``  -- compute a block layout (aware) or linear order (oblivious)
* ``eval``    -- cost a tree/layout pair, one CSV row per (B, offset, depth)
* ``sweep``   -- run a config-driven grid of families x sizes x block sizes
* ``oracle``  -- brute-force optimal transfer count plus witness partition

All artifacts are plain JSON or CSV and contain no timestamps, so a fixed
seed reproduces them byte for byte.  Exit codes: 0 success, 2 usage,
3 invalid input, 4 resource budget exceeded or input too large for
memory.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import io
import json
import logging
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from operator import truediv
from pathlib import Path
from stat import S_ISDIR
from typing import NamedTuple, Optional, Sequence

from .aware import (exclusion_violations, layout_aware, layout_from_json,
                    layout_to_json, padded_order)
from .cost import (CostReport, brute_force_optimal, cost_report, order_report,
                   theoretical_bound, solve_p, worst_by_offset)
from .oblivious import _read_order, layout_oblivious, order_to_json
# gen writes a builder's lists and calls no tree_to_json; it stays
# importable here because perfbench/tracer.py wraps it at this name
from .tree import (ResourceLimitError, TreeError, TreeTopology,
                   _build_lower_bound, _build_path, _build_perfect,
                   _build_random, _tree_json, compute_weights,
                   gen_lower_bound, gen_path, gen_perfect, gen_random,
                   json_text, load_tree, read_json, tree_to_json)

log = logging.getLogger("treelayout")

CSV_COLUMNS = ("tree_id", "family", "N", "B", "layout", "offset", "D",
               "worst_exact", "worst_cum", "bound", "ratio")

FAMILIES = ("perfect", "path", "random", "lowerbound")


def _output(out: Optional[str]):
    """The file ``out`` opened for writing, or stdout when it is None."""
    return nullcontext(sys.stdout) if out is None else open(out, "w")


def _check_dirs(*outs: Optional[str]) -> None:
    """Refuse an output that ``open`` could not write with the error it
    would give, before any input is read or work is done: a missing or
    non-directory parent, an existing directory or a name ending in "/",
    or the empty path."""
    for out in outs:
        if out is None:
            continue
        try:
            # open refuses a name ending in "/" as a directory, existing
            # or not, so the parent is that of the name before the "/"
            parent = os.stat(os.path.dirname(out.rstrip("/")) or ".")
            code = (errno.ENOTDIR if not S_ISDIR(parent.st_mode)
                    else errno.ENOENT if not out
                    else errno.EISDIR if out.endswith("/")
                    or os.path.isdir(out) else 0)
        except OSError as exc:
            code = exc.errno
        if code:
            # OSError picks the subclass open would raise for the code
            raise OSError(code, os.strerror(code), out)


def _write_json(obj, out: Optional[str]) -> None:
    # encoded before the file is opened, so a failure leaves it as it was
    text = json_text(obj)
    with _output(out) as fh:
        fh.write(text)


# ---------------------------------------------------------------- cells

class _Cell(NamedTuple):
    """Every layout priced at one (tree, B); one output row per (layout,
    depth).

    The first four fields are the CSV columns all its rows share.
    ``depths`` lists the reported depths, a range when they are all of
    them, and ``bounds`` the bound at each: it is a function of (N, B, D)
    alone, so every layout of the cell shares it.  ``layouts`` holds one
    ``(kind, offset, CostReport)`` per priced layout, over all depths
    0..height.  An order priced at every offset keeps each
    ``worst_by_offset`` column as its report's ``worst_exact``, a view of
    the one compact table, so only ``worst_cum`` is a list per offset.
    """

    tree_id: str
    family: str
    N: int
    B: int
    depths: Sequence[int]
    bounds: array
    layouts: list


def _price_cell(tree_id: str, family: str, tree: TreeTopology, B: int,
                depths, block_of, order, all_offsets: bool) -> _Cell:
    """The cell of ``tree`` at B over ``depths``: one ``theoretical_bound``
    call per depth; the aware layout ``block_of``, unless None, priced by
    ``cost_report``; then the linear order ``order``, unless None, at
    offset 0 by ``order_report`` straight from the slot positions, or at
    every offset from one ``worst_by_offset`` scan."""
    N = tree.n
    bounds = array("d", [theoretical_bound(N, D, B) for D in depths])
    layouts = []
    if block_of is not None:
        layouts.append(("aware", 0, cost_report(tree, block_of)))
    if order is not None and not all_offsets:
        layouts.append(("oblivious", 0, order_report(tree, order, B)))
    elif order is not None:
        layouts += [("oblivious", off, CostReport(col))
                    for off, col in enumerate(worst_by_offset(tree, order, B))]
    return _Cell(tree_id, family, N, B, depths, bounds, layouts)


@contextmanager
def _B_too_large(name: str):
    """Report a B past the float range of the aware layout or the bound as
    one line naming ``name``, the option or key B came from."""
    try:
        yield
    except OverflowError as exc:
        raise OverflowError(f"{name} is too large for float arithmetic "
                            f"({exc})") from None


def _tails(depths, bounds):
    """The CSV row text after the shared columns, ``D,worst_exact,
    worst_cum,bound,ratio``, as a function of ``(D, worst_exact,
    worst_cum)`` over ``depths`` and the ``bounds`` at them."""
    at = {D: (f"{b:.9g}", max(1.0, b)) for D, b in zip(depths, bounds)}

    def tail(D, e, c):
        text, den = at[D]
        return f"{D},{e},{c},{text},{e / den:.9g}\n"
    return tail


def _at(seq, depths):
    """The items of ``seq`` at ``depths``: one slice when the depths are a
    range, which reads a ``worst_by_offset`` column several times faster
    than an index at a time."""
    if type(depths) is range:
        return seq[depths.start:depths.stop:depths.step]
    return map(seq.__getitem__, depths)


# rows per write, so that neither a layout's text nor the row formatter of
# a layout alone in its cell is built whole: on a path a layout has a row
# per node
_CHUNK = 1024


def _write_csv(cells: list, fh) -> None:
    """Write the CSV of ``cells`` to ``fh``, one row per (cell, layout,
    depth) and one ``write`` per ``_CHUNK`` rows.  ``csv.writer`` quotes
    the shared text columns once per layout; the per-depth numbers never
    need quoting, and floats are written as ``.9g``.

    Rows repeat only within one cell: its offsets, and a sweep cell's
    aware layout beside its order.  A cell of more than one layout shares
    one cached ``_tails``, which formats each distinct ``(D, worst_exact,
    worst_cum)`` once; a layout alone in its cell, as from ``eval`` at
    offset 0, formats its rows a chunk at a time and keeps none.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    fh.write(buf.getvalue())
    for cell in cells:
        Ds, bounds = cell.depths, cell.bounds
        shared = len(cell.layouts) > 1
        if shared:
            tail = lru_cache(maxsize=None)(_tails(Ds, bounds))
        for kind, offset, rep in cell.layouts:
            buf.seek(0)
            buf.truncate()
            w.writerow((*cell[:4], kind, offset))
            head = buf.getvalue()[:-1] + ","
            for s in range(0, len(Ds), _CHUNK):
                part = Ds[s:s + _CHUNK]
                if not shared:
                    tail = _tails(part, bounds[s:s + _CHUNK])
                fh.write(head + head.join(map(
                    tail, part, _at(rep.worst_exact, part),
                    _at(rep.worst_cum, part))))


def _row_dicts(cells) -> list:
    return [dict(zip(CSV_COLUMNS, (*cell[:4], kind, offset, D, we[D], wc[D],
                                   bound, we[D] / max(1.0, bound))))
            for cell in cells for kind, offset, rep in cell.layouts
            for we, wc in [(rep.worst_exact, rep.worst_cum)]
            for D, bound in zip(cell.depths, cell.bounds)]


# ---------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    # the family's builder lists, written as they are: no TreeTopology is
    # built, since every command that reads the file validates it
    left, right = args.make(args)
    _write_json(_tree_json(left, right), args.out)
    log.info("gen %s: %d nodes", args.family, len(left))
    return 0


# ---------------------------------------------------------------- layout

def cmd_layout(args) -> int:
    tree = load_tree(args.tree)
    n = tree.n
    t0 = time.perf_counter()
    # the writers need only the layout's own lists: the tree and an
    # order's positions go before the JSON text is built, and the aware
    # layout's block_of, never read here, is never built
    if args.mode == "aware":
        B = args.B
        with _B_too_large("--B"):
            asg = layout_aware(tree, B)
        obj = layout_to_json(asg)
        slots = None
        if args.padded_out is not None:
            try:
                slots = padded_order(asg)
            except ResourceLimitError as exc:
                raise ResourceLimitError(f"--padded-out: {exc}") from None
        del tree, asg
        _write_json(obj, args.out)
        if slots is not None:
            _write_json({"B": B, "order": slots}, args.padded_out)
        log.info("aware layout: N=%d B=%d blocks=%d (%.3fs)",
                 n, B, len(obj["blocks"]), time.perf_counter() - t0)
    else:
        obj = order_to_json(layout_oblivious(tree))
        del tree
        _write_json(obj, args.out)
        log.info("oblivious order: N=%d (%.3fs)",
                 n, time.perf_counter() - t0)
    return 0


# ---------------------------------------------------------------- eval

def _layout_kind(obj, path: str) -> str:
    """"blocks" for a parsed block layout, "order" for a linear order.

    An order may hold ``None`` padding slots (see ``padded_order``) and
    need not start at the root.
    """
    if type(obj) is not dict:
        raise TreeError(f"{path}: layout json must be an object")
    if "blocks" in obj:
        return "blocks"
    if "order" in obj:
        return "order"
    raise TreeError(f"{path}: neither a block layout nor a linear order")


def cmd_eval(args) -> int:
    # a block layout is read down to B and block_of, sized by its own
    # blocks, before the tree is loaded, so its parsed lists and the tree
    # are never alive together.  An order file is parsed before the tree
    # is loaded and made a LinearOrder after it, whose positions reuse the
    # parsed ints; its list goes once its tuple exists, so that adds only
    # tuples of pointers.  Every check of --B comes before the tree is
    # read
    layout = read_json(args.layout)
    kind = _layout_kind(layout, args.layout)
    Bs, name = args.B or [], "--B"
    _check_unique(Bs, "--B")
    block_of = order = None
    if kind == "blocks":
        asg = layout_from_json(layout)
        B, block_of = asg.B, asg.block_of
        del layout, asg
        if any(b != B for b in Bs) or args.offsets != "zero":
            raise ValueError(f"a block layout is priced at its own B={B} "
                             f"and offset 0: --B must be {B} and "
                             "--offsets zero")
        Bs, name = [B], "the layout's B"
    elif not Bs:
        raise ValueError("--B is required to evaluate a linear order")
    elif min(Bs) < 1:
        raise ValueError("B must be >= 1")
    tree = load_tree(args.tree)
    if kind == "order":
        order = _read_order(layout, tree.n)
        del layout
    elif len(block_of) != tree.n:
        raise TreeError("layout holds %d nodes, the tree %d"
                        % (len(block_of), tree.n))
    if args.D is not None:
        if not 0 <= args.D <= tree.height:
            raise ValueError(f"--D {args.D} outside 0..{tree.height}")
        depths = [args.D]
    else:
        depths = range(tree.height + 1)
    tree_id = Path(args.tree).stem
    with _B_too_large(name):
        cells = [_price_cell(tree_id, "-", tree, B, depths, block_of, order,
                             args.offsets == "all") for B in Bs]
    if args.format == "json":
        _write_json({"rows": _row_dicts(cells)}, args.out)
    else:
        with _output(args.out) as fh:
            _write_csv(cells, fh)
    return 0


# ---------------------------------------------------------------- sweep

def _positive_ints(seq) -> bool:
    """A non-empty list of ints >= 1 (bools are not ints here)."""
    return (isinstance(seq, (list, tuple)) and set(map(type, seq)) == {int}
            and min(seq) >= 1)


def _check_unique(values: list, what: str) -> None:
    """Reject a value given twice: it would price and write every one of
    its rows twice."""
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError(f"{what} repeats {v}")
        seen.add(v)


@dataclass
class SweepConfig:
    """A reproducible grid of (family, N, B) cost-measurement cells."""

    families: dict                      # family name -> list of sizes
    Bs: list
    depths: str = "log"                 # "all" | "log"
    offsets: str = "zero"               # "zero" | "all"
    seed: int = 0
    csv_out: Optional[str] = None
    summary_out: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.families, dict):
            raise ValueError("families must map family names to size lists")
        if not self.families:
            raise ValueError("families must name at least one family")
        for fam, sizes in self.families.items():
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
            if not _positive_ints(sizes):
                raise ValueError(f"family {fam!r} needs positive sizes")
            _check_unique(sizes, f"family {fam!r}")
        if not _positive_ints(self.Bs):
            raise ValueError("B list must be positive integers")
        _check_unique(self.Bs, "Bs")
        if type(self.seed) is not int:
            raise ValueError("seed must be an integer")
        if self.depths not in ("all", "log"):
            raise ValueError("depths policy must be 'all' or 'log'")
        if self.offsets not in ("zero", "all"):
            raise ValueError("offsets policy must be 'zero' or 'all'")
        for key in ("csv_out", "summary_out"):
            if not isinstance(getattr(self, key), (str, type(None))):
                raise ValueError(f"{key} must be a file path or null")

    @classmethod
    def from_json(cls, obj: dict) -> "SweepConfig":
        if type(obj) is not dict:
            raise ValueError("sweep config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(obj) - known)
        if unknown:
            raise ValueError("unknown sweep config key(s): "
                             + ", ".join(map(repr, unknown)))
        missing = [f.name for f in fields(cls)
                   if f.default is MISSING and f.name not in obj]
        if missing:
            raise ValueError("sweep config missing key(s): "
                             + ", ".join(map(repr, missing)))
        return cls(**obj)


def _depth_grid(height: int, policy: str):
    if policy == "all":
        return range(height + 1)
    if height == 0:
        return [0]
    ds = [1 << k for k in range(height.bit_length())]
    return ds if ds[-1] == height else ds + [height]


def _gadget_inv_p(N: int, D: int, B: int) -> int:
    """Power-of-two branching factor matching the adversarial density."""
    p = solve_p(N, D, B)
    inv = float(1 / p)
    j = max(1, round(math.log2(inv)))
    return 1 << j


def _sweep_tree(family: str, N: int, B: int, cfg: SweepConfig,
                cache: dict):
    """The cell's tree id and ``(tree, subtree sizes, oblivious order)``,
    made once per id."""
    tid = f"lowerbound-{N}-B{B}" if family == "lowerbound" else f"{family}-{N}"
    if tid in cache:
        return tid, cache[tid]
    if family == "perfect":
        h = (N + 1).bit_length() - 2
        if h < 0 or (1 << (h + 1)) - 1 != N:
            raise ValueError(f"perfect family needs N = 2^h - 1, got {N}")
        tree = gen_perfect(h)
    elif family == "path":
        tree = gen_path(N)
    elif family == "random":
        tree = gen_random(N, seed=cfg.seed * 1_000_003 + N)
    else:
        # the gadget shape depends on B; pick the density for a mid-range
        # depth so one tree serves the whole depth grid
        D_ref = max(1, math.ceil(math.log2(max(2, N)) * math.sqrt(B)))
        tree = gen_lower_bound(B, _gadget_inv_p(N, D_ref, B), N)
    cache[tid] = tree, compute_weights(tree), layout_oblivious(tree)
    return tid, cache[tid]


@_B_too_large("a B in Bs")
def _price_grid(cfg: SweepConfig):
    """Lay out and price every cell; returns (cells, exclusion
    violations)."""
    cells: list = []
    trees: dict = {}
    excl = 0
    t0 = time.perf_counter()
    for family in sorted(cfg.families):
        for N in cfg.families[family]:
            for B in cfg.Bs:
                tid, (tree, w, order) = _sweep_tree(family, N, B, cfg, trees)
                asg = layout_aware(tree, B)
                excl += exclusion_violations(tree, w, asg)
                cells.append(_price_cell(
                    tid, family, tree, B, _depth_grid(tree.height, cfg.depths),
                    asg.block_of, order, cfg.offsets == "all"))
                log.info("sweep cell %s B=%d done (%.1fs elapsed)",
                         tid, B, time.perf_counter() - t0)
    return cells, excl


def _summary(cells, excl: int) -> dict:
    """Per family and layout kind: the max ratio overall and per N, and
    how the largest N's max compares with the smallest's."""
    fams: dict = {}
    rows = 0
    for cell in cells:
        dens = [max(1.0, b) for b in cell.bounds]
        rows += len(cell.depths) * len(cell.layouts)
        f = fams.setdefault(cell.family, {})
        key = str(cell.N)
        for kind, _, rep in cell.layouts:
            r = max(map(truediv, _at(rep.worst_exact, cell.depths), dens))
            k = f.setdefault(kind, {"max_ratio": 0.0, "by_N": {}})
            k["max_ratio"] = max(k["max_ratio"], r)
            k["by_N"][key] = max(k["by_N"].get(key, 0.0), r)
    for stats in fams.values():
        for k in stats.values():
            by = k["by_N"]
            ns = sorted(int(x) for x in by)
            small, large = by[str(ns[0])], by[str(ns[-1])]
            k["growth_factor"] = large / small if small > 0 else 0.0
            k["growth_ok"] = large <= 1.5 * small
    return {
        "rows": rows,
        "exclusion_violations": excl,
        "families": fams,
    }


def run_sweep(cfg: SweepConfig):
    """Execute the grid; returns (rows, summary dict)."""
    cells, excl = _price_grid(cfg)
    return _row_dicts(cells), _summary(cells, excl)


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(read_json(args.config))
    csv_out = args.out if args.out is not None else cfg.csv_out
    _check_dirs(csv_out, cfg.summary_out)
    cells, excl = _price_grid(cfg)
    with _output(csv_out) as fh:
        _write_csv(cells, fh)
    _write_json(_summary(cells, excl), cfg.summary_out)
    return 0


# ---------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    tree = load_tree(args.tree)
    B = args.B
    best, parts = brute_force_optimal(tree, B, args.D)
    print(f"optimal worst-case transfers at depth {args.D}: {best}")
    print(f"witness blocks: {json.dumps(parts)}")
    with _B_too_large("--B"):
        asg = layout_aware(tree, B)
    got = cost_report(tree, asg.block_of).worst_exact[args.D]
    print(f"aware layout cost: {got} ({got / best:.2f}x optimal)")
    return 0


# ---------------------------------------------------------------- main

class _Once(argparse.Action):
    """Store the option's value; giving the option twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} may be given only once")
        setattr(namespace, self.dest, values)


class _SubParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports the arguments it does not declare
    itself, under its own usage line, instead of handing them back to the
    parser above it."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _name_choices(action) -> None:
    """Let a missing subcommand be reported by its choices, as the usage
    line shows them, rather than by its ``dest``."""
    action.metavar = "{%s}" % ",".join(action.choices)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treelayout",
        description="Block layouts for fixed-topology binary trees "
                    "and their transfer-cost measurements.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_SubParser)

    # each gen family and layout mode declares only the options it reads,
    # so any other option is a usage error
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (default stdout)")
    tree = argparse.ArgumentParser(add_help=False)
    tree.add_argument("--tree", required=True, help="tree file")

    g = sub.add_parser("gen", help="generate a tree file")
    g.set_defaults(func=cmd_gen)
    fam = g.add_subparsers(dest="family", required=True)
    f = fam.add_parser("perfect", parents=[out], help="leaves at --height")
    f.add_argument("--height", type=int, required=True)
    f.set_defaults(make=lambda a: _build_perfect(a.height))
    f = fam.add_parser("path", parents=[out], help="left-spine path")
    f.add_argument("--n", type=int, required=True)
    f.set_defaults(make=lambda a: _build_path(a.n))
    f = fam.add_parser("random", parents=[out], help="uniform random shape")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--seed", type=int, default=0, help="default 0")
    f.set_defaults(make=lambda a: _build_random(a.n, a.seed))
    f = fam.add_parser("lowerbound", parents=[out], help="gadget for --B")
    f.add_argument("--B", type=int, action=_Once, required=True)
    f.add_argument("--inv-p", type=int, dest="inv_p", required=True)
    f.add_argument("--n", type=int, required=True)
    f.set_defaults(make=lambda a: _build_lower_bound(a.B, a.inv_p, a.n))

    l = sub.add_parser("layout", help="lay a tree out")
    l.set_defaults(func=cmd_layout)
    mode = l.add_subparsers(dest="mode", required=True)
    m = mode.add_parser("aware", parents=[tree, out], help="blocks for --B")
    m.add_argument("--B", type=int, action=_Once, required=True)
    m.add_argument("--padded-out", dest="padded_out",
                   help="also write the layout as an aligned, padded "
                        "linear order")
    mode.add_parser("oblivious", parents=[tree, out], help="one order, all B")

    e = sub.add_parser("eval", parents=[tree, out],
                       help="cost a layout against a tree")
    e.add_argument("--layout", required=True)
    e.add_argument("--B", type=int, action="append")
    e.add_argument("--D", type=int)
    e.add_argument("--offsets", choices=("zero", "all"), default="zero")
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="run a measurement grid from a config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="override the config's CSV path")
    s.set_defaults(func=cmd_sweep)

    o = sub.add_parser("oracle", parents=[tree],
                       help="brute-force optimum for small trees")
    o.add_argument("--B", type=int, action=_Once, required=True)
    o.add_argument("--D", type=int, required=True)
    o.set_defaults(func=cmd_oracle)
    for action in (sub, fam, mode):
        _name_choices(action)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    ap = build_parser()
    args = ap.parse_args(argv)
    # the commands' data is lists and tuples of ints, which form no
    # reference cycles, so reference counting frees all of it; the cyclic
    # collector would only rescan the many small lists a layout allocates
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _check_dirs(getattr(args, "out", None),
                    getattr(args, "padded_out", None))
        return args.func(args)
    except (ResourceLimitError, MemoryError, OverflowError) as exc:
        # str(MemoryError()) is empty
        log.error("%s", str(exc) or type(exc).__name__)
        return 4
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 3
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
