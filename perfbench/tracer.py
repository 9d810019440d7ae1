"""Traced run: the workload's CLI commands, in one process, with spans.

Usage: python3 tracer.py SPEC.json SPANS.json

SPEC names the package's source directory, the workload, and the
commands (each an argv for ``treelayout.cli.main``).  The commands run in
the current directory, one after another.  Before the first one, this
file replaces the public functions of ``tree``, ``aware``, ``oblivious``
and ``cost`` at the names ``cli`` and ``aware`` import them under (and
``TreeTopology.__init__`` on its class) with wrappers that record a span
per call.  The package itself is not modified and none of this reaches
its outputs.  Spans are kept in memory and written to SPANS.json once,
after the last command.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    """Spans and counts for one traced run.

    A span is ``[name, start, end, parent span index, command index]``.
    Calls too frequent to keep one span each (the cost bound is evaluated
    once per CSV row) are folded into aggregates keyed by name and parent
    span: ``[name, parent, calls, total seconds]``.
    """

    def __init__(self):
        self.spans: list = []
        self.open: list = []
        self.aggregates: dict = {}
        self.counts: dict = {}
        self.command = None
        self.oblivious_trees: list = []

    def bump(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.open[-1] if self.open else None
        self.spans.append([name, perf_counter(), None, parent, self.command])
        self.open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.open.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span per call; ``after(args, result)`` runs once
        the span has closed."""
        failed = name.split(".")[0] + ".failed"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.bump(failed)
                raise
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_aggregate(self, name: str, fn):
        failed = name.split(".")[0] + ".failed"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.bump(failed)
                raise
            finally:
                key = (name, self.open[-1] if self.open else None)
                rec = self.aggregates.get(key)
                if rec is None:
                    rec = self.aggregates[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += perf_counter() - t0

        return traced

    def install(self) -> None:
        import treelayout.aware as aware
        import treelayout.cli as cli
        from treelayout.tree import TreeTopology

        TreeTopology.__init__ = self.wrap("tree.topology", TreeTopology.__init__)
        for fn in ("gen_perfect", "gen_path", "gen_random", "gen_lower_bound"):
            setattr(cli, fn, self.wrap("tree.gen", getattr(cli, fn)))
        cli.load_tree = self.wrap("tree.load", cli.load_tree)
        cli.tree_to_json = self.wrap("tree.to_json", cli.tree_to_json)
        for mod in (cli, aware):
            mod.compute_weights = self.wrap("tree.weights", mod.compute_weights)

        cli.layout_aware = self.wrap(
            "aware.layout", cli.layout_aware,
            after=lambda a, asg: self.bump("aware.blocks", len(asg.blocks)))
        cli.layout_to_json = self.wrap("aware.json", cli.layout_to_json)
        cli.layout_from_json = self.wrap("aware.json", cli.layout_from_json)
        cli.exclusion_violations = self.wrap("aware.exclusion",
                                             cli.exclusion_violations)

        cli.layout_oblivious = self.wrap(
            "oblivious.layout", cli.layout_oblivious,
            after=lambda a, order: self.oblivious_trees.append(a[0]))
        cli.order_to_json = self.wrap("oblivious.json", cli.order_to_json)

        cli.cost_report = self.wrap(
            "cost.report", cli.cost_report,
            after=lambda a, rep: self.bump("cost.report_nodes", a[0].n))
        cli.theoretical_bound = self.wrap_aggregate("cost.bound",
                                                    cli.theoretical_bound)
        cli.solve_p = self.wrap("cost.solve_p", cli.solve_p)

    def run(self, commands: list) -> list:
        """Run each argv through ``cli.main``; return the exit codes."""
        import treelayout.cli as cli
        from treelayout.oblivious import refinement_levels

        codes = []
        for i, argv in enumerate(commands):
            self.command = i
            idx = self.begin("cli." + argv[0])
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - a crash is a failed command
                rc = 1
            finally:
                self.end(idx)
            if rc != 0:
                self.bump("cli.failed")
            codes.append(rc)
            # refinement rounds are counted outside every timed span
            for tree in self.oblivious_trees:
                self.bump("oblivious.rounds", len(refinement_levels(tree)))
            self.oblivious_trees.clear()
        return codes


def main(argv: list) -> int:
    spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    tracer = Tracer()
    tracer.install()
    codes = tracer.run(spec["commands"])
    with open(out_path, "w") as fh:
        json.dump({
            "workload": spec["workload"],
            "commands": spec["commands"],
            "codes": codes,
            "spans": tracer.spans,
            "aggregates": [[name, parent, calls, total] for (name, parent),
                           (calls, total) in tracer.aggregates.items()],
            "counts": tracer.counts,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
