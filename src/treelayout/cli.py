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
import gc
import io
import json
import logging
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple, Optional

from .aware import (exclusion_violations, layout_aware, layout_from_json,
                    layout_to_json, padded_order)
from .cost import (brute_force_optimal, cost_report, theoretical_bound,
                   solve_p, worst_by_offset)
from .oblivious import (block_ids, layout_oblivious, order_from_json,
                        order_to_json)
from .tree import (ResourceLimitError, TreeError, TreeTopology, compute_weights,
                   gen_lower_bound, gen_path, gen_perfect, gen_random,
                   json_text, load_tree, read_json, tree_to_json)

log = logging.getLogger("treelayout")

CSV_COLUMNS = ("tree_id", "family", "N", "B", "layout", "offset", "D",
               "worst_exact", "worst_cum", "bound", "ratio")

FAMILIES = ("perfect", "path", "random", "lowerbound")


@contextmanager
def _output(out: Optional[str]):
    """The file ``out`` opened for writing, or stdout when it is None."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as fh:
            yield fh


def _write_json(obj, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(json_text(obj))


# ---------------------------------------------------------------- rows

class _Priced(NamedTuple):
    """One priced layout; it stands for one output row per depth.

    The first six fields are the CSV columns every row of the record
    shares.  ``depths`` holds ``(D, bound, bound as CSV text,
    max(1, bound))`` per reported depth (see ``_bounds``); every record of
    one (tree, B) shares the same list.  ``worst_exact`` and ``worst_cum``
    run over all depths 0..height, as in ``CostReport``.
    """

    tree_id: str
    family: str
    N: int
    B: int
    kind: str
    offset: int
    depths: list
    worst_exact: list
    worst_cum: list


def _bounds(N: int, B: int, depths) -> list:
    """The ``depths`` entries of a ``_Priced``: one ``theoretical_bound``
    call per depth, shared by the aware layout and every offset."""
    out = []
    for D in depths:
        bound = theoretical_bound(N, D, B)
        out.append((D, bound, f"{bound:.9g}", max(1.0, bound)))
    return out


def _priced_order(cell: tuple, bounds: list, tree: TreeTopology, order,
                  all_offsets: bool) -> list:
    """The ``_Priced`` records of a linear order at B = ``cell[3]``: offset
    0 only, or every offset from one ``worst_by_offset`` scan."""
    B = cell[3]
    if not all_offsets:
        rep = cost_report(tree, block_ids(order, B, 0))
        return [_Priced(*cell, "oblivious", 0, bounds, rep.worst_exact,
                        rep.worst_cum)]
    records = []
    for off, col in enumerate(worst_by_offset(tree, order, B)):
        we = col.tolist()
        records.append(_Priced(*cell, "oblivious", off, bounds, we,
                               list(accumulate(we, max))))
    return records


class _Tails(dict):
    """CSV row text after the shared columns, ``D,worst_exact,worst_cum,
    bound,ratio``, keyed by ``(D, worst_exact, worst_cum)`` and formatted
    on first use from one ``depths`` list (see ``_Priced``)."""

    def __init__(self, depths: list):
        super().__init__()
        self.bounds = {D: (text, den) for D, _, text, den in depths}

    def __missing__(self, key):
        D, e, c = key
        text, den = self.bounds[D]
        tail = self[key] = f"{D},{e},{c},{text},{e / den:.9g}\n"
        return tail


def _write_csv(records, fh) -> None:
    """Write the CSV of ``records`` to ``fh``, one row per (record, depth)
    and one ``write`` per record.  ``csv.writer`` quotes the shared text
    columns once per record; the per-depth numbers never need quoting,
    and floats are written as ``.9g``.  The records of one (tree, B) share
    their ``depths`` list and repeat few cost pairs, so they share one
    ``_Tails``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    fh.write(buf.getvalue())
    depths = None
    for rec in records:
        buf.seek(0)
        buf.truncate()
        w.writerow(rec[:6])
        head = buf.getvalue()[:-1] + ","
        if rec.depths is not depths:
            depths, tails = rec.depths, _Tails(rec.depths)
            Ds = [D for D, _, _, _ in depths]
        keys = zip(Ds, map(rec.worst_exact.__getitem__, Ds),
                   map(rec.worst_cum.__getitem__, Ds))
        fh.write(head + head.join(map(tails.__getitem__, keys)))


def _row_dicts(records) -> list:
    rows = []
    for rec in records:
        we, wc = rec.worst_exact, rec.worst_cum
        rows += [{"tree_id": rec.tree_id, "family": rec.family, "N": rec.N,
                  "B": rec.B, "layout": rec.kind, "offset": rec.offset,
                  "D": D, "worst_exact": we[D], "worst_cum": wc[D],
                  "bound": bound, "ratio": we[D] / den}
                 for D, bound, _, den in rec.depths]
    return rows


# ---------------------------------------------------------------- gen

# the options each gen family and layout mode reads; giving one that the
# chosen family or mode does not read is a usage error, not ignored
_GEN_READS = {"perfect": {"height"}, "path": {"n"}, "random": {"n", "seed"},
             "lowerbound": {"B", "inv_p", "n"}}
_LAYOUT_READS = {"aware": {"B", "padded_out"}, "oblivious": set()}


def _reject_unread(args, reads: dict, choice: str) -> None:
    """Usage error (exit 2) for an option given that ``choice`` does not
    read."""
    for dest in sorted(set().union(*reads.values()) - reads[choice]):
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            args.parser.error(f"{args.command} {choice} does not read {flag}")


def cmd_gen(args) -> int:
    family = args.family
    _reject_unread(args, _GEN_READS, family)
    if family == "perfect":
        if args.height is None:
            raise ValueError("gen perfect requires --height")
        tree = gen_perfect(args.height)
    elif family == "path":
        if args.n is None:
            raise ValueError("gen path requires --n")
        tree = gen_path(args.n)
    elif family == "random":
        if args.n is None:
            raise ValueError("gen random requires --n")
        tree = gen_random(args.n, seed=args.seed or 0)
    else:  # lowerbound
        if args.B is None or args.inv_p is None or args.n is None:
            raise ValueError("gen lowerbound requires --B, --inv-p and --n")
        tree = gen_lower_bound(args.B, args.inv_p, args.n)
    _write_json(tree_to_json(tree), args.out)
    log.info("gen %s: %d nodes", family, tree.n)
    return 0


# ---------------------------------------------------------------- layout

def cmd_layout(args) -> int:
    _reject_unread(args, _LAYOUT_READS, args.mode)
    tree = load_tree(args.tree)
    t0 = time.perf_counter()
    if args.mode == "aware":
        B = args.B
        if B is None:
            args.parser.error("layout aware requires --B")
        asg = layout_aware(tree, B)
        _write_json(layout_to_json(asg), args.out)
        if args.padded_out is not None:
            slots = padded_order(asg)
            _write_json({"B": B, "order": slots}, args.padded_out)
        log.info("aware layout: N=%d B=%d blocks=%d (%.3fs)",
                 tree.n, B, len(asg.blocks), time.perf_counter() - t0)
    else:
        order = layout_oblivious(tree)
        _write_json(order_to_json(order), args.out)
        log.info("oblivious order: N=%d (%.3fs)",
                 tree.n, time.perf_counter() - t0)
    return 0


# ---------------------------------------------------------------- eval

def _load_layout_file(path: str, tree: TreeTopology):
    """Return ("blocks", BlockAssignment) or ("order", LinearOrder).

    An order may hold ``None`` padding slots (see ``padded_order``) and
    need not start at the root.
    """
    obj = read_json(path)
    if type(obj) is not dict:
        raise TreeError(f"{path}: layout json must be an object")
    if "blocks" in obj:
        return "blocks", layout_from_json(obj, tree.n)
    if "order" in obj:
        return "order", order_from_json(obj, tree.n)
    raise TreeError(f"{path}: neither a block layout nor a linear order")


def cmd_eval(args) -> int:
    tree = load_tree(args.tree)
    kind, payload = _load_layout_file(args.layout, tree)
    tree_id = Path(args.tree).stem
    if args.D is not None:
        if not 0 <= args.D <= tree.height:
            raise ValueError(f"--D {args.D} outside 0..{tree.height}")
        depths = [args.D]
    else:
        depths = range(tree.height + 1)
    N = tree.n
    _check_unique(args.B or [], "--B")
    records = []
    if kind == "blocks":
        # pricing needs only B and block_of; dropping the parsed block
        # lists first keeps them from living through cost_report
        B, block_of = payload.B, payload.block_of
        del payload
        if any(b != B for b in args.B or ()) or args.offsets != "zero":
            raise ValueError(f"a block layout is priced at its own B={B} "
                             f"and offset 0: --B must be {B} and "
                             "--offsets zero")
        rep = cost_report(tree, block_of)
        records.append(_Priced(tree_id, "-", N, B, "aware", 0,
                               _bounds(N, B, depths), rep.worst_exact,
                               rep.worst_cum))
    else:
        if not args.B:
            raise ValueError("--B is required to evaluate a linear order")
        if min(args.B) < 1:
            raise ValueError("B must be >= 1")
        for B in args.B:
            records += _priced_order((tree_id, "-", N, B),
                                     _bounds(N, B, depths), tree, payload,
                                     args.offsets == "all")
    if args.format == "json":
        _write_json({"rows": _row_dicts(records)}, args.out)
    else:
        with _output(args.out) as fh:
            _write_csv(records, fh)
    return 0


# ---------------------------------------------------------------- sweep

def _positive_ints(seq) -> bool:
    """A non-empty list of ints >= 1 (bools are not ints here)."""
    return (isinstance(seq, (list, tuple)) and set(map(type, seq)) == {int}
            and min(seq) >= 1)


def _check_unique(values: list, what: str) -> None:
    """Reject a value given twice: it would price and write every one of
    its rows twice."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{what} repeats {v}")


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
        return list(range(height + 1))
    ds = []
    d = 1
    while d <= height:
        ds.append(d)
        d *= 2
    if height >= 1 and (not ds or ds[-1] != height):
        ds.append(height)
    return ds or [0]


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


def _price_grid(cfg: SweepConfig):
    """Lay out and price every cell; returns (records, exclusion
    violations)."""
    records: list = []
    trees: dict = {}
    excl = 0
    t0 = time.perf_counter()
    for family in sorted(cfg.families):
        for N in cfg.families[family]:
            for B in cfg.Bs:
                tid, (tree, w, order) = _sweep_tree(family, N, B, cfg, trees)
                bounds = _bounds(tree.n, B,
                                 _depth_grid(tree.height, cfg.depths))
                asg = layout_aware(tree, B)
                excl += exclusion_violations(tree, w, asg)
                cell = (tid, family, tree.n, B)
                rep = cost_report(tree, asg.block_of)
                records.append(_Priced(*cell, "aware", 0, bounds,
                                       rep.worst_exact, rep.worst_cum))
                records += _priced_order(cell, bounds, tree, order,
                                         cfg.offsets == "all")
                log.info("sweep cell %s B=%d done (%.1fs elapsed)",
                         tid, B, time.perf_counter() - t0)
    return records, excl


def _summary(records, excl: int) -> dict:
    """Per family and layout kind: the max ratio overall and per N, and
    how the largest N's max compares with the smallest's."""
    fams: dict = {}
    rows = 0
    for rec in records:
        we = rec.worst_exact
        r = max(we[D] / den for D, _, _, den in rec.depths)
        rows += len(rec.depths)
        f = fams.setdefault(rec.family, {})
        k = f.setdefault(rec.kind, {"max_ratio": 0.0, "by_N": {}})
        k["max_ratio"] = max(k["max_ratio"], r)
        key = str(rec.N)
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
    records, excl = _price_grid(cfg)
    return _row_dicts(records), _summary(records, excl)


def cmd_sweep(args) -> int:
    cfg = SweepConfig.from_json(read_json(args.config))
    records, excl = _price_grid(cfg)
    csv_out = args.out if args.out is not None else cfg.csv_out
    with _output(csv_out) as fh:
        _write_csv(records, fh)
    _write_json(_summary(records, excl), cfg.summary_out)
    return 0


# ---------------------------------------------------------------- oracle

def cmd_oracle(args) -> int:
    tree = load_tree(args.tree)
    B = args.B
    best, parts = brute_force_optimal(tree, B, args.D)
    print(f"optimal worst-case transfers at depth {args.D}: {best}")
    print(f"witness blocks: {json.dumps(parts)}")
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treelayout",
        description="Block layouts for fixed-topology binary trees "
                    "and their transfer-cost measurements.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a tree file")
    g.add_argument("family", choices=FAMILIES)
    g.add_argument("--height", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int, help="random only (default 0)")
    g.add_argument("--B", type=int, action=_Once)
    g.add_argument("--inv-p", type=int, dest="inv_p")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen, parser=g)

    l = sub.add_parser("layout", help="lay a tree out")
    l.add_argument("mode", choices=("aware", "oblivious"))
    l.add_argument("--tree", required=True)
    l.add_argument("--B", type=int, action=_Once)
    l.add_argument("--out")
    l.add_argument("--padded-out", dest="padded_out",
                   help="also write the aware layout as an aligned, padded "
                        "linear order")
    l.set_defaults(func=cmd_layout, parser=l)

    e = sub.add_parser("eval", help="cost a layout against a tree")
    e.add_argument("--tree", required=True)
    e.add_argument("--layout", required=True)
    e.add_argument("--B", type=int, action="append")
    e.add_argument("--D", type=int)
    e.add_argument("--offsets", choices=("zero", "all"), default="zero")
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="run a measurement grid from a config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="override the config's CSV path")
    s.set_defaults(func=cmd_sweep)

    o = sub.add_parser("oracle", help="brute-force optimum for small trees")
    o.add_argument("--tree", required=True)
    o.add_argument("--B", type=int, action=_Once, required=True)
    o.add_argument("--D", type=int, required=True)
    o.set_defaults(func=cmd_oracle)
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
