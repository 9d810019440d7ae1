"""Benchmark of the treelayout command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through the real CLI, one
subprocess at a time, checks every output, and prints a report whose
last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with no tracing; with
``--trace 1`` they are the per-layer ones, from a run of the same
commands in one process with spans around each layer (see tracer.py).

An operation is one CLI command.  It fails on a nonzero exit, on a
failed output check, or when it writes different bytes than an earlier
run of the same command, the same seed and the same source code did.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# Set-up runs this many times per run and reports the median.
SETUP_REPS = 3
# A run that has not finished after this long stops its command and fails.
DEADLINE_S = 170
# Reported times are reference-speed seconds: a command's wall time times
# REF_KERNEL_S over the speed probe's reading right before and after it,
# i.e. the time on a host where the probe reads REF_KERNEL_S.  The shared
# host this was built on drifts in speed by 20-30% over seconds to
# minutes; the scaling cut the run-to-run spread of total_s there from
# about 0.2 to about 0.07.  Raw wall times are printed in the report too.
REF_KERNEL_S = 0.008
_PROBE_TABLE = list(range(4096))

END_TO_END_UNITS = {
    "setup_s": "s", "total_s": "s", "layout_s": "s", "eval_s": "s",
    "peak_rss_mb": "MB", "output_bytes": "bytes",
    "blocks_per_min": "ratio", "max_ratio": "ratio",
}
LAYOUT_KINDS = ("layout", "sweep")   # commands that build layouts
EVAL_KINDS = ("eval", "sweep")       # commands that price layouts
CLI_COMMANDS = ("gen", "layout", "eval", "sweep")
# per-layer time metric -> span name; each is that span's self time
LAYER_TIMES = {
    "tree.gen_s": "tree.gen", "tree.load_s": "tree.load",
    "tree.topology_s": "tree.topology", "tree.to_json_s": "tree.to_json",
    "tree.weights_s": "tree.weights",
    "aware.layout_s": "aware.layout", "aware.json_s": "aware.json",
    "aware.exclusion_s": "aware.exclusion",
    "oblivious.layout_s": "oblivious.layout", "oblivious.json_s": "oblivious.json",
    "cost.report_s": "cost.report", "cost.bound_s": "cost.bound",
    "cost.solve_p_s": "cost.solve_p",
    **{f"cli.{c}.self_s": f"cli.{c}" for c in CLI_COMMANDS},
}
LAYER_CALLS = {
    "tree.load_calls": "tree.load", "aware.layout_calls": "aware.layout",
    "oblivious.layout_calls": "oblivious.layout",
    "cost.report_calls": "cost.report", "cost.bound_calls": "cost.bound",
}
LAYER_COUNTS = ("aware.blocks", "oblivious.rounds", "cost.report_nodes",
                "tree.failed", "aware.failed", "oblivious.failed",
                "cost.failed", "cli.failed")


def per_layer_units() -> dict:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in (*LAYER_CALLS, *LAYER_COUNTS)})
    units.update({"cli.rows": "count", "cli.bytes_out": "bytes",
                  "aware.max_ratio": "ratio", "oblivious.max_ratio": "ratio",
                  "trace.overhead_frac": "ratio"})
    return units


@dataclass
class Exec:
    """One CLI command as run: what it was, how long, and what went wrong."""

    cmd: object
    wall: float          # raw wall time
    rc: int
    rss_mb: float = 0.0
    scaled: float = 0.0  # wall time in reference-speed seconds
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _kernel_once() -> float:
    t0 = perf_counter()
    table, counts, acc = _PROBE_TABLE, {}, 0
    for i in range(40000):
        x = table[(i * 7) & 4095]
        counts[x] = counts.get(x, 0) + 1
        acc += x & 3
    return perf_counter() - t0


def speed_probe() -> float:
    """Median time of a fixed pure-Python loop of list and dict work that
    does not touch the package: the host's current speed."""
    return statistics.median(_kernel_once() for _ in range(5))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def code_digest() -> str:
    """Digest of the package and benchmark source, so digests of outputs
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "treelayout").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Workspace:
    """A run's directory, and the CLI commands run in it."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.execs: list = []

    def fresh(self, plan) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for name, text in plan.files.items():
            (self.work / name).write_text(text)

    def run(self, cmd) -> Exec:
        for out in cmd.outputs:
            (self.work / out).unlink(missing_ok=True)
        k0 = speed_probe()
        with open(self.work / "stderr.log", "ab") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "treelayout.cli", *cmd.argv],
                cwd=self.work, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - t0
        k1 = speed_probe()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ex = Exec(cmd, wall, proc.returncode, usage.ru_maxrss / 1024,
                  scaled=wall * REF_KERNEL_S * 2 / (k0 + k1))
        self.record(ex)
        return ex

    def record(self, ex: Exec) -> None:
        """Digest the command's outputs, and hold them against the first
        run of the same command in this run."""
        if ex.rc != 0:
            ex.problems.append(f"exit code {ex.rc}")
        for out in ex.cmd.outputs:
            path = self.work / out
            if path.is_file():
                ex.digests[out] = sha256(path)
            else:
                ex.problems.append(f"{out} not written")
        for prev in self.execs:
            if prev.cmd is ex.cmd and prev.digests != ex.digests:
                ex.problems.append("output differs from an earlier run "
                                   "of the same command")
                break
        self.execs.append(ex)

    def fail_command(self, cmd, problems: list) -> None:
        for ex in self.execs:
            if ex.cmd is cmd:
                ex.problems.extend(problems)

    def digests(self) -> dict:
        out = {}
        for ex in self.execs:
            out.update(ex.digests)
        return out

    def bytes_of(self, cmds) -> int:
        return sum((self.work / o).stat().st_size
                   for c in cmds for o in c.outputs
                   if (self.work / o).is_file())


def run_untraced(ws: Workspace, plan, seconds: float) -> dict:
    """Set-up ``SETUP_REPS`` times, then passes over the measured commands
    until ``seconds`` have gone by.  Times are medians over repetitions
    and passes, in reference-speed seconds."""
    setups = [[ws.run(c) for c in plan.setup] for _ in range(SETUP_REPS)]
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append([ws.run(c) for c in plan.measured])
    per_cmd = [statistics.median(p[i].scaled for p in passes)
               for i in range(len(plan.measured))]
    kinds = [c.kind for c in plan.measured]
    return {
        "setup_s": statistics.median(sum(e.scaled for e in s) for s in setups),
        "total_s": sum(per_cmd),
        "layout_s": sum(t for t, k in zip(per_cmd, kinds) if k in LAYOUT_KINDS),
        "eval_s": sum(t for t, k in zip(per_cmd, kinds) if k in EVAL_KINDS),
        "peak_rss_mb": max(e.rss_mb for p in passes for e in p),
        "output_bytes": ws.bytes_of(plan.measured),
        "passes": len(passes),
        "wall_total_s": statistics.median(sum(e.wall for e in p) for p in passes),
        "wall_setup_s": statistics.median(sum(e.wall for e in s) for s in setups),
    }


def run_traced(ws: Workspace, plan, workload: str) -> tuple:
    """The set-up and measured commands in one traced process, then the
    measured ones again untraced, over the traced run's tree."""
    commands = plan.setup + plan.measured
    spec = ws.work / "trace-spec.json"
    spans_path = ws.work / "spans.json"
    spec.write_text(json.dumps({"src": str(SRC), "workload": workload,
                                "commands": [c.argv for c in commands]}))
    with open(ws.work / "stderr.log", "ab") as err:
        subprocess.run([sys.executable, str(HERE / "tracer.py"),
                        str(spec), str(spans_path)],
                       cwd=ws.work, stdout=subprocess.DEVNULL, stderr=err,
                       check=False)
    try:
        trace = json.loads(spans_path.read_text())
    except (OSError, ValueError):
        trace = {"codes": [1] * len(commands), "spans": [], "aggregates": [],
                 "counts": {}}
    for cmd, rc in zip(commands, trace["codes"]):
        ws.record(Exec(cmd, 0.0, rc))
    written = ws.bytes_of(commands)
    rows = sum(max(0, (ws.work / o).read_bytes().count(b"\n") - 1)
               for c in commands for o in c.outputs
               if o.endswith(".csv") and (ws.work / o).is_file())
    untraced = sum(ws.run(c).wall for c in plan.measured)
    return trace, {"cli.rows": rows, "cli.bytes_out": written,
                   "untraced_total": untraced,
                   "n_setup": len(plan.setup)}


def layer_metrics(trace: dict, extra: dict) -> dict:
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    for name, parent, calls, total in trace["aggregates"]:
        if parent is not None:
            child[parent] += total
    self_s: dict = {}
    calls: dict = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
    for name, parent, n, total in trace["aggregates"]:
        self_s[name] = self_s.get(name, 0.0) + total
        calls[name] = calls.get(name, 0) + n
    metrics = {m: self_s.get(s, 0.0) for m, s in LAYER_TIMES.items()}
    metrics.update({m: calls.get(s, 0) for m, s in LAYER_CALLS.items()})
    metrics.update({m: trace["counts"].get(m, 0) for m in LAYER_COUNTS})
    metrics["cli.rows"] = extra["cli.rows"]
    metrics["cli.bytes_out"] = extra["cli.bytes_out"]
    traced_total = sum(end - start for name, start, end, parent, cmd in spans
                       if parent is None and cmd >= extra["n_setup"])
    metrics["trace.overhead_frac"] = (
        traced_total / extra["untraced_total"] - 1.0
        if traced_total and extra["untraced_total"] else 0.0)
    return metrics


def check_record(ws: Workspace, key: str) -> None:
    """Hold this run's output digests against an earlier run of the same
    source code, workload and seed in this checkout; then record them."""
    path = WORK_ROOT / "digests.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    runs = record.setdefault(code_digest(), {})
    mine = ws.digests()
    earlier = runs.get(key, {})
    for ex in ws.execs:
        if any(earlier.get(o, d) != d for o, d in ex.digests.items()):
            ex.problems.append("output differs from an earlier run with "
                               "the same code and seed")
    runs[key] = {**earlier, **mine}
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def golden_note(workload: str, seed: int, digests: dict) -> str:
    golden = json.loads((HERE / "golden.json").read_text())
    want = golden["digests"].get(workload, {})
    if seed != golden["seed"] or not want:
        return f"golden digests: recorded for seed {golden['seed']} only"
    differ = sorted(o for o, d in want.items() if digests.get(o) != d)
    return ("golden digests: match" if not differ
            else "golden digests: differ for " + ", ".join(differ))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full", work_root: Path = WORK_ROOT,
                 corrupt=None) -> dict:
    """Run one workload; return its result and report.

    ``corrupt(work_dir)``, if given, edits the outputs after they are
    measured and before they are checked (the self-test uses it).
    """
    import workloads

    plan = workloads.WORKLOADS[workload](seed, scale)
    ws = Workspace(work_root / f"{workload}-s{seed}")
    ws.fresh(plan)
    if trace:
        spans, extra = run_traced(ws, plan, workload)
    else:
        measured = run_untraced(ws, plan, seconds)
    if corrupt is not None:
        corrupt(ws.work)
    outcome = plan.check(ws.work)
    for i, problems in outcome.problems.items():
        ws.fail_command(plan.measured[i], problems)
    if scale == "full":
        check_record(ws, f"{workload}/{seed}")
    if trace:
        metrics = layer_metrics(spans, extra)
        metrics["aware.max_ratio"] = outcome.max_ratio.get("aware", 0.0)
        metrics["oblivious.max_ratio"] = outcome.max_ratio.get("oblivious", 0.0)
        units = per_layer_units()
    else:
        metrics = {k: measured[k] for k in END_TO_END_UNITS
                   if k in measured}
        metrics["blocks_per_min"] = outcome.blocks_per_min
        metrics["max_ratio"] = max(outcome.max_ratio.values(), default=0.0)
        units = END_TO_END_UNITS
    failed = [ex for ex in ws.execs if ex.problems]
    report = {
        "correct": not failed,
        "attempted": len(ws.execs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    lines = [
        f"# workload {workload}, seed {seed}, trace {int(trace)}, "
        f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}",
        "# measured on this host, with files served from the page cache, not "
        "a real disk; traced times are raw wall seconds",
    ]
    if not trace:
        lines.append(f"# set-up repetitions: {SETUP_REPS}, measured passes: "
                     f"{measured['passes']}; times are medians in reference-"
                     f"speed seconds (raw wall: set-up {measured['wall_setup_s']:.4g} s, "
                     f"measured {measured['wall_total_s']:.4g} s)")
    lines += [f"{k:24} {v['value']:>16.6g} {v['unit']}"
              if isinstance(v["value"], float) else
              f"{k:24} {v['value']:>16d} {v['unit']}"
              for k, v in report["metrics"].items()]
    lines.append(f"{'failed_frac':24} {len(failed) / len(ws.execs):>16.6g} "
                 f"ratio ({len(failed)}/{len(ws.execs)} operations)")
    for ex in failed:
        lines.append(f"FAIL {' '.join(ex.cmd.argv)}: {'; '.join(ex.problems[:3])}")
    digests = ws.digests()
    lines += [f"sha256 {d} {o}" for o, d in sorted(digests.items())]
    if scale == "full":
        lines.append(golden_note(workload, seed, digests))
    for out in {o for c in plan.setup + plan.measured for o in c.outputs}:
        (ws.work / out).unlink(missing_ok=True)
    return {"report": report, "lines": lines}


class OutOfTime(BaseException):
    """Raised by the run's deadline alarm or a SIGTERM.  Not an
    ``Exception``, so no check's error handling swallows it on its way
    out, past the command it stops."""


def _out_of_time(signum, frame):
    raise OutOfTime(f"stopped by {signal.Signals(signum).name} "
                    f"(deadline {DEADLINE_S} s)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "treelayout" / "cli.py").is_file():
        print(f"error: no treelayout source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import treelayout
    if Path(treelayout.__file__).resolve().parent != SRC / "treelayout":
        print("error: imported treelayout is not the checkout's", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.signal(signal.SIGTERM, _out_of_time)
    signal.alarm(DEADLINE_S)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except OutOfTime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print("\n".join(result["lines"]))
    print(json.dumps(result["report"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
