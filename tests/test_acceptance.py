"""Eight end-to-end checks gating a release.

Each test prints one ``[criterion N] PASS``/``FAIL`` line directly to the
terminal (bypassing capture) so a plain ``pytest -v`` run shows the
verdicts inline.  The heavyweight measurement grid is shared through a
module-scoped fixture; everything else builds its own instances so the
checks stay independent of each other.
"""

import gc
import math
import random
import time
from fractions import Fraction

import pytest

from treelayout import (brute_force_optimal, budget_along_path,
                        compute_weights, cost_report, exclusion_violations,
                        gen_lower_bound, gen_perfect, gen_random, iter_shapes,
                        k_set, layout_aware, layout_oblivious, mirror_shape,
                        phase2_layout, shape_to_tree, solve_p)
from treelayout.cli import SweepConfig, run_sweep

SIZES_ODD = [1023, 8191, 65535]      # perfect trees need 2^h - 1 nodes
SIZES = [1024, 8192, 65536]
BS = [4, 16, 64, 256]


def verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = "[criterion %d] %s - %s" % (num, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    cfg = SweepConfig(
        families={"perfect": SIZES_ODD, "path": SIZES,
                  "random": SIZES, "lowerbound": SIZES},
        Bs=BS, depths="log", offsets="zero", seed=20260823)
    return run_sweep(cfg)


def test_criterion_1_budget_identities(capsys):
    # Step recurrence m_k = (m_{k-1} - 1) q_k versus the closed form
    # p_k (B - sum 1/p_i): exact rational equality on random descents.
    rng = random.Random(101)
    pool = []
    for i in range(40):
        t = gen_random(rng.randrange(2, 2001), seed=1000 + i)
        pool.append((t, compute_weights(t)))
    mismatches = 0
    for _ in range(10_000):
        t, w = pool[rng.randrange(len(pool))]
        B = rng.randrange(2, 257)
        path = [rng.randrange(t.n)]
        while True:
            kids = [c for c in (t.left[path[-1]], t.right[path[-1]])
                    if c is not None]
            if not kids or rng.random() < 0.1:
                break
            path.append(rng.choice(kids))
        rec, closed = budget_along_path(t, w, B, path)
        if rec != closed or len(rec) != len(path):
            mismatches += 1
    verdict(capsys, 1, mismatches == 0,
            "10000 paths, %d recurrence/closed-form mismatches" % mismatches)


def test_criterion_2_k_set_invariant(capsys):
    # |K(x, A)| <= floor(A), and y is selected iff the budget that the
    # recursion would hand y is >= 1.  The budgets here are re-derived by
    # an independent integer-pair DFS that keeps evolving below 1, so the
    # equivalence also exercises the once-below-one-always-below-one rule.
    rng = random.Random(202)
    pool = []
    for i in range(200):
        t = gen_random(rng.randrange(1, 26), seed=2000 + i)
        pool.append((t, compute_weights(t)))
    bad_size = bad_member = 0
    for _ in range(100_000):
        t, w = pool[rng.randrange(len(pool))]
        x = rng.randrange(t.n)
        if rng.random() < 0.05:
            A = Fraction(rng.randrange(0, 10**6), rng.randrange(1, 100))
        else:
            A = Fraction(rng.randrange(0, 512), rng.randrange(1, 16))
        K = k_set(t, x, A, w)
        if len(K) > A:          # len is an int, so this is len <= floor(A)
            bad_size += 1
        stack = [(x, A.numerator, A.denominator)]
        while stack:
            y, num, den = stack.pop()
            if (y in K) != (num >= den):
                bad_member += 1
                break
            for ch in (t.left[y], t.right[y]):
                if ch is not None:
                    stack.append((ch, (num - den) * w[ch], den * w[y]))
    verdict(capsys, 2, bad_size == 0 and bad_member == 0,
            "100000 samples, %d size bounds broken, %d membership "
            "disagreements" % (bad_size, bad_member))


def test_criterion_3_exclusion_bound(sweep, capsys):
    # Every block boundary produced below the top stratum must satisfy
    # (k+1) w(r) > B w(y).  The sweep counts violations over every aware
    # layout it builds; a direct run on a fresh gadget with its boundary
    # count guards against the check being vacuous.
    _, summary = sweep
    t = gen_lower_bound(16, 8, 20_000)
    asg = layout_aware(t, 16)
    boundaries = sum(1 for mem in asg.blocks
                     if t.depth[mem[0]] > asg.phase1_levels)
    direct = exclusion_violations(t, compute_weights(t), asg)
    ok = summary["exclusion_violations"] == 0 and direct == 0 \
        and boundaries > 100
    verdict(capsys, 3, ok,
            "%d violations across sweep, %d on a fresh layout with %d "
            "phase-2 boundaries" % (summary["exclusion_violations"],
                                    direct, boundaries))


def test_criterion_4_upper_bound_shape(sweep, capsys):
    # Measured aware cost over max(1, piecewise bound) stays at a
    # constant C per family: C at N=2^16 within 1.5x of C at N=2^10.
    rows, summary = sweep
    seen = {}
    for r in rows:
        if r["layout"] != "aware":
            continue
        by = seen.setdefault(r["family"], {})
        by[r["N"]] = max(by.get(r["N"], 0.0), r["ratio"])
    ok = True
    bits = []
    for fam in ("perfect", "path", "random", "lowerbound"):
        by = seen[fam]
        ns = sorted(by)
        c_all = max(by.values())
        grew = by[ns[-1]] > 1.5 * by[ns[0]]
        ok &= not grew and c_all < 10.0
        # the summary must agree with this independent regrouping
        s = summary["families"][fam]["aware"]
        ok &= s["max_ratio"] == c_all and s["growth_ok"] == (not grew)
        bits.append("%s C=%.3g x%.3g" % (fam, c_all, by[ns[-1]] / by[ns[0]]))
    verdict(capsys, 4, ok, "; ".join(bits))


def test_criterion_5_lower_bound_shape(capsys):
    # Adversarial trees sized by the transcendental balance point: even
    # our own layout must pay 1/8 * lg N / lg(2 + B lg N / D) at depth D.
    cache: dict = {}
    checked = bad = skipped = 0
    for N in SIZES:
        lgN = math.log2(N)
        for B in BS:
            top = int(B * lgN)
            depths = sorted({1 << j for j in range(top.bit_length())
                             if 1 << j <= top} | {top})
            for D in depths:
                inv_p = 1 << max(1, round(math.log2(1 / solve_p(N, D, B))))
                key = (B, inv_p, N)
                if key not in cache:
                    t = gen_lower_bound(B, inv_p, N)
                    asg = layout_aware(t, B)
                    cache[key] = (t, cost_report(t, asg.block_of))
                t, rep = cache[key]
                if D > t.height:
                    skipped += 1   # truncated gadget has no depth-D node
                    continue
                checked += 1
                rhs = 0.125 * lgN / math.log2(2.0 + B * lgN / D)
                if rep.worst_exact[D] < rhs:
                    bad += 1
    verdict(capsys, 5, bad == 0 and checked >= 60,
            "%d cells hold, %d fail, %d beyond gadget height"
            % (checked, bad, skipped))


def test_criterion_6_oracle_comparison(capsys):
    # Aware layout within 3x of the exhaustive optimum on every shape
    # with <= 10 nodes (one of each mirror pair; costs are reflection-
    # invariant) and B in {2,3,4}.  Cheap route: any D+1 path needs
    # ceil((D+1)/B) distinct parts, so aware <= 3*that suffices.  Cells
    # that fail the cheap route consult the oracle directly, and a seeded
    # sample of 300 passing cells re-verifies against the real oracle so
    # the shortcut itself stays honest.
    rng = random.Random(606)
    seen = set()
    cells = []
    direct = 0
    worst_pair = (0.0, None)
    for n in range(1, 11):
        for shape in iter_shapes(n):
            key = frozenset((shape, mirror_shape(shape)))
            if key in seen:
                continue
            seen.add(key)
            t = shape_to_tree(shape)
            for B in (2, 3, 4):
                asg = layout_aware(t, B)
                rep = cost_report(t, asg.block_of)
                for D in range(t.height + 1):
                    aware = rep.worst_exact[D]
                    floor_opt = -(-(D + 1) // B)
                    if aware <= 3 * floor_opt:
                        cells.append((t, B, D, aware))
                        continue
                    opt, _ = brute_force_optimal(t, B, D)
                    direct += 1
                    if aware > 3 * opt:
                        worst_pair = (aware / opt, (shape, B, D))
    sampled_bad = 0
    for t, B, D, aware in rng.sample(cells, 300):
        opt, parts = brute_force_optimal(t, B, D)
        direct += 1
        blk = {x: i for i, mem in enumerate(parts) for x in mem}
        assert sorted(blk) == list(range(t.n))
        assert all(len(mem) <= B for mem in parts)
        assert cost_report(t, blk).worst_exact[D] == opt
        if aware > 3 * opt:
            sampled_bad += 1
    # frozen instance: the singleton cascade on the 7-node perfect tree
    # at B=3 pays 3 where the optimum is 2
    t7 = gen_perfect(2)
    opt7, _ = brute_force_optimal(t7, 3, 2)
    casc = cost_report(t7, phase2_layout(t7, 0, 3).block_of)
    frozen = opt7 == 2 and casc.worst_exact[2] == 3
    frozen &= cost_report(t7, layout_aware(t7, 3).block_of
                          ).worst_exact[2] <= 3 * opt7
    ok = worst_pair[1] is None and sampled_bad == 0 and frozen
    verdict(capsys, 6, ok,
            "%d shapes, %d oracle calls, worst pair %r, frozen 2-vs-3 %s"
            % (len(seen), direct, worst_pair[1],
               "reproduced" if frozen else "BROKEN"))


def test_criterion_7_oblivious_factor(sweep, capsys):
    # Same grid: order-based cost within 4x of the aware layout cell by
    # cell, factor not growing with N (1.5x cap), and path trees scan.
    rows, _ = sweep
    aware = {}
    for r in rows:
        if r["layout"] == "aware":
            aware[(r["tree_id"], r["B"], r["D"])] = r["worst_exact"]
    over4 = path_bad = 0
    fam_by_n: dict = {}
    worst = 0.0
    for r in rows:
        if r["layout"] != "oblivious":
            continue
        f = r["worst_exact"] / aware[(r["tree_id"], r["B"], r["D"])]
        worst = max(worst, f)
        if f > 4.0:
            over4 += 1
        by = fam_by_n.setdefault(r["family"], {})
        by[r["N"]] = max(by.get(r["N"], 0.0), f)
        if r["family"] == "path":
            if r["worst_exact"] > -(-r["D"] // r["B"]) + 1:
                path_bad += 1
    growth_bad = []
    for fam, by in fam_by_n.items():
        ns = sorted(by)
        if by[ns[-1]] > 1.5 * by[ns[0]]:
            growth_bad.append(fam)
    ok = over4 == 0 and path_bad == 0 and not growth_bad
    verdict(capsys, 7, ok,
            "max factor %.3g, %d cells over 4x, %d path cells over scan "
            "bound, growth broken for %r" % (worst, over4, path_bad,
                                             growth_bad))


def test_criterion_8_construction_scaling(capsys):
    # Doubling N should roughly double wall-clock: consecutive-ratio
    # caps 2.5 (aware) and 2.8 (oblivious).  Best of six runs below 2^19
    # and three above, garbage collector paused while timing.  The
    # repetitions go round-robin across the sizes, and the larger sizes
    # run every other round, so every size samples the whole test's time
    # and a slow spell of the host cannot hold all the runs of one size.
    sizes = [1 << k for k in range(16, 21)]
    trees = [gen_random(n, seed=800 + i) for i, n in enumerate(sizes)]
    for t in trees:
        layout_aware(t, 64)                 # warm caches off the clock
    t_aware = [float("inf")] * len(sizes)
    t_obl = [float("inf")] * len(sizes)
    gc.disable()
    try:
        for rep in range(6):
            for i, t in enumerate(trees):
                if rep % 2 and sizes[i] >= 1 << 19:
                    continue                # short runs are noisier
                t0 = time.perf_counter()
                layout_aware(t, 64)
                t_aware[i] = min(t_aware[i], time.perf_counter() - t0)
                t0 = time.perf_counter()
                layout_oblivious(t)
                t_obl[i] = min(t_obl[i], time.perf_counter() - t0)
    finally:
        gc.enable()
    ra = [b / a for a, b in zip(t_aware, t_aware[1:])]
    ro = [b / a for a, b in zip(t_obl, t_obl[1:])]
    ok = max(ra) <= 2.5 and max(ro) <= 2.8
    verdict(capsys, 8, ok,
            "aware %.2fs..%.2fs ratios %s; oblivious %.2fs..%.2fs ratios %s"
            % (t_aware[0], t_aware[-1], ["%.2f" % r for r in ra],
               t_obl[0], t_obl[-1], ["%.2f" % r for r in ro]))
