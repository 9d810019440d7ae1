"""Output checks on the artifacts the treelayout CLI writes.

Each check returns a list of problem strings; an empty list means the
artifact passed.  Structural checks (layout coverage, order permutation,
the cost bound in CSV rows) are written here from the README's contract,
not taken from the package, so a package bug cannot hide behind itself.
Checks that need the tree's topology (path costs, the exclusion rule)
call the package's public functions on a tree loaded from disk.
"""
from __future__ import annotations

import csv
import dataclasses
import math
import random

from treelayout import compute_weights, exclusion_violations, layout_from_json, path_cost

# The CSV prints floats with 9 significant digits.
_REL_TOL = 1e-8


def reference_bound(N: int, D: int, B: int) -> float:
    """The three-regime transfer bound of the README, written out again."""
    if D == 0:
        return 0.0
    lg = math.log2(N)
    if D <= lg:
        return D / math.log2(1 + B)
    if D <= B * lg:
        return lg / math.log2(1 + B * lg / D)
    return D / B


def phase1_levels(n: int, height: int) -> int:
    """Levels clustered by the aware layout at ``c = 1``: the least L with
    ``2**L >= n``, capped at ``height + 1`` (the documented rule)."""
    return min((n - 1).bit_length(), height + 1)


def check_layout(obj, n: int, B: int) -> list:
    """Every node 0..n-1 sits in exactly one block and no block exceeds B."""
    if not isinstance(obj, dict) or obj.get("B") != B:
        return [f"layout is not a B={B} layout"]
    blocks = obj.get("blocks")
    if not isinstance(blocks, list):
        return ["layout has no block list"]
    seen = bytearray(n)
    problems = []
    for i, mem in enumerate(blocks):
        if not isinstance(mem, list) or not 1 <= len(mem) <= B:
            problems.append(f"block {i} has size outside 1..{B}")
            continue
        for v in mem:
            if not isinstance(v, int) or not 0 <= v < n:
                problems.append(f"block {i} holds bad id {v!r}")
            elif seen[v]:
                problems.append(f"node {v} in two blocks")
            else:
                seen[v] = 1
    missing = n - sum(seen)
    if missing:
        problems.append(f"{missing} nodes in no block")
    return problems[:5]


def check_order(obj, n: int, root: int) -> list:
    """The order is a permutation of 0..n-1 that starts at the root."""
    order = obj.get("order") if isinstance(obj, dict) else None
    if not isinstance(order, list) or len(order) != n:
        return [f"order does not list {n} nodes"]
    seen = bytearray(n)
    for x in order:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            return [f"order is not a permutation: bad or repeated id {x!r}"]
        seen[x] = 1
    if order[0] != root:
        return [f"order starts at {order[0]}, not the root {root}"]
    return []


def aware_assignment(obj, tree):
    """A layout file as a ``BlockAssignment`` that carries its phase-1
    depth, so ``exclusion_violations`` can be asked about it."""
    asg = layout_from_json(obj, n=tree.n)
    return dataclasses.replace(
        asg, phase1_levels=phase1_levels(tree.n, tree.height))


def check_exclusion(tree, asg) -> list:
    bad = exclusion_violations(tree, compute_weights(tree), asg)
    return [f"{bad} exclusion violations"] if bad else []


def order_block_ids(order: list, B: int, offset: int) -> list:
    """Per-node block ids of an order cut into aligned B-slices."""
    blk = [0] * len(order)
    for pos, x in enumerate(order):
        blk[x] = (pos + offset) // B
    return blk


def blocks_over_min(n_blocks: int, n: int, B: int) -> float:
    return n_blocks / -(-n // B)


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(b))


def check_rows(rows: list) -> list:
    """Bound, ratio and cumulative columns of CSV rows, and that each
    (tree, B, layout, offset) group lists depths 0, 1, 2, ... in order."""
    problems = []
    cache: dict = {}
    last: dict = {}
    for i, r in enumerate(rows):
        try:
            N, B, D = int(r["N"]), int(r["B"]), int(r["D"])
            we, wc = int(r["worst_exact"]), int(r["worst_cum"])
            bound, ratio = float(r["bound"]), float(r["ratio"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"row {i} is malformed")
            continue
        key = (N, D, B)
        ref = cache.get(key)
        if ref is None:
            ref = cache[key] = reference_bound(N, D, B)
        if not _close(bound, ref):
            problems.append(f"row {i}: bound {bound} != {ref!r}")
        if not _close(ratio, we / max(1.0, ref)):
            problems.append(f"row {i}: ratio {ratio} != worst/bound")
        group = (r["tree_id"], B, r["layout"], r["offset"])
        prev = last.get(group)
        if D != (0 if prev is None else prev[0] + 1):
            problems.append(f"row {i}: depth {D} out of sequence")
        if wc < we or (prev is not None and wc < prev[1]):
            problems.append(f"row {i}: worst_cum not a running maximum")
        last[group] = (D, wc)
        if len(problems) >= 5:
            break
    if not rows:
        problems.append("no rows")
    return problems


def worst_index(rows: list, cols=("layout", "B", "offset")) -> dict:
    """``worst_exact`` by depth for each group of rows, keyed by the
    group's values (as written) in ``cols``."""
    out: dict = {}
    for r in rows:
        key = tuple(r[c] for c in cols)
        out.setdefault(key, {})[int(r["D"])] = int(r["worst_exact"])
    return out


def check_path_costs(tree, block_of, worst: dict, rng: random.Random,
                     samples: int) -> list:
    """The rows cover depths 0..height, and ``path_cost`` of sampled nodes
    never exceeds the row's worst case at the node's depth."""
    if sorted(worst) != list(range(tree.height + 1)):
        return [f"rows do not cover depths 0..{tree.height}"]
    for _ in range(samples):
        x = rng.randrange(tree.n)
        d = tree.depth[x]
        c = path_cost(block_of, tree, x)
        if d not in worst or c > worst[d]:
            return [f"node {x} at depth {d} costs {c} > row's {worst.get(d)}"]
    return []
