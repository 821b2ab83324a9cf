"""Mean milliseconds per command, split by its direct child spans, from a perfbench trace.

    python3 perfbench/run.py --workload fit --seed 5 --seconds 30 --trace 1
    python3 tools/trace_summary.py perfbench/_traces/fit-seed5.csv

A trace (``perfbench/tracing.py``) has one row per span: id, parent, name,
start, end and self time in seconds.  Each ``cli.run`` span is one command;
its name is not in the trace, so it is told by the first of ``COMMANDS``
found among the spans below it.  For each command the output gives the
number of runs and the mean milliseconds of the whole run, then of each
direct child span name (all of a run's children of that name summed, then
averaged over the runs), and last ``(self)``: the run's time outside any
traced span.  Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import sys
from collections import defaultdict

# a span name below a cli.run -> the command it marks; the first found wins,
# so a score or a schedule (which also find modes) is named before a predict
COMMANDS = (
    ("simulate.generate", "simulate"),
    ("mcmc.fit", "fit"),
    ("mcmc.dic", "score"),
    ("dynpred.cvdcl", "score"),
    ("dynpred.ekl", "schedule"),
    ("mcmc.mode", "predict"),
)


def read_spans(path) -> list:
    """The trace's rows as dicts with int ids and float times."""
    with open(path, newline="") as fh:
        return [{"id": int(r["id"]), "parent": int(r["parent"]), "name": r["name"],
                 "time": float(r["end_s"]) - float(r["start_s"]), "self": float(r["self_s"])}
                for r in csv.DictReader(fh)]


def summarize(spans) -> dict:
    """command -> {"runs": n, "total": mean ms, "children": {name: mean ms}, "self": mean ms}."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def below(span_id):
        for child in children[span_id]:
            yield child["name"]
            yield from below(child["id"])

    runs = defaultdict(list)
    for s in spans:
        if s["name"] == "cli.run":
            found = set(below(s["id"]))
            command = next((c for name, c in COMMANDS if name in found), "other")
            runs[command].append(s)

    out = {}
    for command, spans_of in runs.items():
        n = len(spans_of)
        per_child = defaultdict(float)
        for run in spans_of:
            for child in children[run["id"]]:
                per_child[child["name"]] += child["time"]
        out[command] = {
            "runs": n,
            "total": 1e3 * sum(r["time"] for r in spans_of) / n,
            "children": {name: 1e3 * t / n for name, t in sorted(
                per_child.items(), key=lambda kv: -kv[1])},
            "self": 1e3 * sum(r["self"] for r in spans_of) / n,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="a trace CSV written by perfbench/run.py --trace 1")
    args = parser.parse_args(argv)
    for command, row in summarize(read_spans(args.trace)).items():
        print(f"{command}: {row['runs']} runs, {row['total']:.1f} ms")
        for name, ms in row["children"].items():
            print(f"  {name}: {ms:.1f} ms")
        print(f"  (self): {row['self']:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
