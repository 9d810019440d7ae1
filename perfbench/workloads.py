"""The benchmark's workloads: which CLI commands run, and how their
outputs are checked.

Every workload is a closed loop with one client: each command starts
after the previous one has exited.  A workload is built from the seed
and a scale (``full`` for measurement, ``tiny`` for the self-test); the
program only ever sees the files these commands generate.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from treelayout import (gen_path, gen_perfect, layout_aware, layout_oblivious,
                        layout_to_json, load_tree, order_to_json)

# Sampled nodes per (layout, B, offset) for the path-cost check.
PATH_SAMPLES = 64


@dataclass
class Command:
    argv: list          # arguments after ``treelayout``
    outputs: list       # files it writes, relative to the work directory

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Outcome:
    """What the checks found: problems per measured-command index, and the
    quality figures read off the artifacts."""

    problems: dict = field(default_factory=dict)
    blocks_per_min: float = 0.0
    max_ratio: dict = field(default_factory=dict)   # layout kind -> max ratio

    def guard(self, index: int, check: Callable[[], list]) -> bool:
        """Run one check for command ``index``; a crash is a problem too."""
        try:
            found = check()
        except Exception as exc:  # noqa: BLE001 - any crash fails the command
            found = [f"check crashed: {type(exc).__name__}: {exc}"]
        if found:
            self.problems.setdefault(index, []).extend(found)
        return not found

    def note_ratios(self, rows: list) -> None:
        for r in rows:
            kind = r["layout"]
            self.max_ratio[kind] = max(self.max_ratio.get(kind, 0.0),
                                       float(r["ratio"]))


@dataclass
class Plan:
    files: dict         # name -> text, written before set-up
    setup: list
    measured: list
    check: Callable[[Path], Outcome]


def _load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------ aware-random

def aware_random(seed: int, scale: str) -> Plan:
    n = 262144 if scale == "full" else 300
    Bs = (4, 256)
    setup = [Command(["gen", "random", "--n", str(n), "--seed", str(seed),
                      "--out", "tree.json"], ["tree.json"])]
    measured = [Command(["layout", "aware", "--tree", "tree.json",
                         "--B", str(B), "--out", f"aware-B{B}.json"],
                        [f"aware-B{B}.json"]) for B in Bs]
    measured += [Command(["eval", "--tree", "tree.json",
                          "--layout", f"aware-B{B}.json",
                          "--out", f"aware-B{B}.csv"],
                         [f"aware-B{B}.csv"]) for B in Bs]

    def check(work: Path) -> Outcome:
        out = Outcome()
        tree = load_tree(work / "tree.json")
        rng = random.Random(seed)
        for i, B in enumerate(Bs):
            asg = None

            def layout_ok():
                nonlocal asg
                obj = _load_json(work / f"aware-B{B}.json")
                found = checks.check_layout(obj, tree.n, B)
                if found:
                    return found
                asg = checks.aware_assignment(obj, tree)
                return checks.check_exclusion(tree, asg)

            if out.guard(i, layout_ok):
                out.blocks_per_min = max(
                    out.blocks_per_min,
                    checks.blocks_over_min(len(asg.blocks), tree.n, B))

            def rows_ok():
                rows = checks.read_rows(work / f"aware-B{B}.csv")
                out.note_ratios(rows)
                found = checks.check_rows(rows)
                if asg is None:
                    return found + ["no valid layout to price"]
                worst = checks.worst_index(rows).get(("aware", str(B), "0"), {})
                return found + checks.check_path_costs(
                    tree, asg.block_of, worst, rng, PATH_SAMPLES)

            out.guard(len(Bs) + i, rows_ok)
        return out

    return Plan({}, setup, measured, check)


# ------------------------------------------------------------ oblivious-perfect

def oblivious_perfect(seed: int, scale: str) -> Plan:
    height = 17 if scale == "full" else 6
    Bs = (4, 64, 1024)
    setup = [Command(["gen", "perfect", "--height", str(height),
                      "--out", "tree.json"], ["tree.json"])]
    eval_argv = ["eval", "--tree", "tree.json", "--layout", "order.json"]
    for B in Bs:
        eval_argv += ["--B", str(B)]
    measured = [
        Command(["layout", "oblivious", "--tree", "tree.json",
                 "--out", "order.json"], ["order.json"]),
        Command(eval_argv + ["--out", "order.csv"], ["order.csv"]),
    ]

    def check(work: Path) -> Outcome:
        out = Outcome()
        tree = load_tree(work / "tree.json")
        rng = random.Random(seed)
        order = None

        def order_ok():
            nonlocal order
            obj = _load_json(work / "order.json")
            found = checks.check_order(obj, tree.n, tree.root)
            if not found:
                order = obj["order"]
            return found

        out.guard(0, order_ok)

        def rows_ok():
            rows = checks.read_rows(work / "order.csv")
            out.note_ratios(rows)
            found = checks.check_rows(rows)
            if order is None:
                return found + ["no valid order to price"]
            index = checks.worst_index(rows)
            for B in Bs:
                blk = checks.order_block_ids(order, B, 0)
                out.blocks_per_min = max(
                    out.blocks_per_min,
                    checks.blocks_over_min(len(set(blk)), tree.n, B))
                found += checks.check_path_costs(
                    tree, blk, index.get(("oblivious", str(B), "0"), {}),
                    rng, PATH_SAMPLES)
            return found

        out.guard(1, rows_ok)
        return out

    return Plan({}, setup, measured, check)


# ------------------------------------------------------------ verify-sweep

# Offsets per (tree, B) whose path costs are sampled; the sweep prices all.
SWEEP_OFFSET_SAMPLES = 3


def verify_sweep(seed: int, scale: str) -> Plan:
    if scale == "full":
        families = {"random": [2048, 8192], "lowerbound": [2048, 8192],
                    "path": [2048], "perfect": [8191]}
        smoke_families = {"random": [1024], "lowerbound": [1024],
                          "path": [1024], "perfect": [1023]}
    else:
        families = {"random": [64, 128], "lowerbound": [512, 1024],
                    "path": [64], "perfect": [63]}
        smoke_families = {"perfect": [7]}
    Bs = [4, 16, 64]
    base = {"Bs": Bs, "depths": "all", "offsets": "all", "seed": seed}
    # Set-up proves the CLI runs every family of this config format on a
    # small grid before the long sweeps.  (Writing the configs alone takes
    # well under a millisecond, too little to time steadily.)
    configs = {"smoke": {**base, "families": smoke_families, "Bs": Bs[:2]}}
    # One sweep per family rather than one over all of them: the same
    # grid, in commands short enough for the speed probe to follow.
    fams = sorted(families)
    configs.update({fam: {**base, "families": {fam: families[fam]}}
                    for fam in fams})
    files, commands = {}, {}
    for name, cfg in configs.items():
        cfg.update(csv_out=f"{name}.csv", summary_out=f"{name}-summary.json")
        files[f"{name}-config.json"] = json.dumps(cfg, indent=1) + "\n"
        commands[name] = Command(["sweep", "--config", f"{name}-config.json"],
                                 [cfg["csv_out"], cfg["summary_out"]])
    setup = [commands["smoke"]]
    measured = [commands[fam] for fam in fams]

    def check(work: Path) -> Outcome:
        out = Outcome()
        rng = random.Random(seed)
        for i, fam in enumerate(fams):
            rows: list = []

            def sweep_ok():
                rows.extend(checks.read_rows(work / f"{fam}.csv"))
                out.note_ratios(rows)
                summary = _load_json(work / f"{fam}-summary.json")
                found = checks.check_rows(rows)
                if summary.get("exclusion_violations") != 0:
                    found.append("summary reports exclusion violations")
                if summary.get("rows") != len(rows):
                    found.append("summary row count differs from the CSV")
                return found

            if not out.guard(i, sweep_ok) or fam not in ("perfect", "path"):
                continue
            # Perfect and path trees depend on N alone, so the checker can
            # rebuild them and the layouts the sweep priced, through the
            # public API, and hold the rows against their path costs.
            index = checks.worst_index(rows, ("N", "layout", "B", "offset"))
            for N in families[fam]:
                tree = gen_perfect((N + 1).bit_length() - 2) if fam == "perfect" \
                    else gen_path(N)
                out.guard(i, lambda: _check_rebuilt(out, tree, Bs, index, rng))
        return out

    return Plan(files, setup, measured, check)


def _check_rebuilt(out: Outcome, tree, Bs: list, index: dict,
                   rng: random.Random) -> list:
    found = []

    def worst(layout, B, offset):
        return index.get((str(tree.n), layout, str(B), str(offset)), {})

    for B in Bs:
        asg = layout_aware(tree, B)
        found += checks.check_layout(layout_to_json(asg), tree.n, B)
        found += checks.check_exclusion(tree, asg)
        out.blocks_per_min = max(out.blocks_per_min,
                                 checks.blocks_over_min(len(asg.blocks), tree.n, B))
        found += checks.check_path_costs(tree, asg.block_of,
                                         worst("aware", B, 0), rng, PATH_SAMPLES)
    obj = order_to_json(layout_oblivious(tree))
    found += checks.check_order(obj, tree.n, tree.root)
    if found:
        return found
    for B in Bs:
        for off in rng.sample(range(B), min(B, SWEEP_OFFSET_SAMPLES)):
            found += checks.check_path_costs(
                tree, checks.order_block_ids(obj["order"], B, off),
                worst("oblivious", B, off), rng, PATH_SAMPLES)
    return found


WORKLOADS = {
    "aware-random": aware_random,
    "oblivious-perfect": oblivious_perfect,
    "verify-sweep": verify_sweep,
}
