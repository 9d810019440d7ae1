"""Self-test of the benchmark, at tiny sizes (a few seconds).

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs and checks that
every metric of BENCHMARK.json is reported, with its unit, nonzero where
it is an end-to-end metric, and that no operation fails.  Then it
corrupts an aware layout (one node in two blocks) and an oblivious order
(a repeated id) after they are measured, and checks that the output
checks catch each one as a failed operation.  Exits 0 when all holds.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (needs the source path above)

WORK = run.WORK_ROOT / "selftest"


def tiny(workload: str, trace: bool, corrupt=None) -> dict:
    return run.run_workload(workload, seed=7, seconds=0.0, trace=trace,
                            scale="tiny", work_root=WORK, corrupt=corrupt)


def node_in_two_blocks(work: Path) -> None:
    path = work / "aware-B4.json"
    obj = json.loads(path.read_text())
    spare = next(mem for mem in obj["blocks"][1:] if len(mem) < obj["B"])
    spare.append(obj["blocks"][0][0])
    path.write_text(json.dumps(obj))


def repeated_id(work: Path) -> None:
    path = work / "order.json"
    obj = json.loads(path.read_text())
    obj["order"][-1] = obj["order"][1]
    path.write_text(json.dumps(obj))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (False, True):
            res = tiny(wl, trace)
            rep = res["report"]
            where = f"{wl} trace={int(trace)}"
            got = {k: v["unit"] for k, v in rep["metrics"].items()}
            if got != expect[trace]:
                errors.append(f"{where}: metrics/units differ from BENCHMARK.json")
            printed = {ln.split()[0]: ln.split()[2] for ln in res["lines"]
                       if len(ln.split()) >= 3}
            for name, unit in got.items():
                if printed.get(name) != unit:
                    errors.append(f"{where}: {name} not printed with its unit")
                if not trace and not rep["metrics"][name]["value"] > 0:
                    errors.append(f"{where}: end-to-end {name} is not positive")
            if not rep["correct"] or rep["failed"]:
                errors.append(f"{where}: {rep['failed']} failed operations")
            print(f"done {where}: {rep['failed']}/{rep['attempted']} "
                  "operations failed")
    for wl, corrupt, needle in (("aware-random", node_in_two_blocks, "two blocks"),
                                ("oblivious-perfect", repeated_id, "repeated id")):
        res = tiny(wl, False, corrupt)
        rep, text = res["report"], "\n".join(res["lines"])
        caught = rep["failed"] > 0 and not rep["correct"] and needle in text
        print(f"{'ok  ' if caught else 'MISS'} {wl} with {corrupt.__name__}: "
              f"failed_frac {rep['failed']}/{rep['attempted']}")
        if not caught:
            errors.append(f"{wl}: {corrupt.__name__} was not caught")
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
