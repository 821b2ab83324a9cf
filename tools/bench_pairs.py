"""Alternating parent/change pairs of the benchmark, summarized in one JSON file.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload dynpred \
        --seeds 301-310 --seconds 30 --out BENCH_7.json

Pair k runs ``perfbench/run.py --workload W --seed S_k --seconds X`` once in
each checkout, the parent first in even pairs and the change first in odd
ones, one run at a time.  For every end-to-end metric that BENCHMARK.json of
the change declares, the output gives each side's runs, median and quartiles,
and the number of pairs the change wins (ties count for neither side), over
the pairs where both runs report the metric; the seeds of the other pairs
are listed as dropped.  Next to these stand the operations attempted and
failed, the numpy and scipy versions, the CPU count and the git commit of
both checkouts.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """``301-310`` or ``301,305,7``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git_commit(checkout: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result is the JSON object on the last stdout line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(pairs: list, declared: list) -> dict:
    """Per metric: each side's spread and the pairs the change wins, over the
    pairs where both runs report a value; a pair with a null on either side
    is left out of that metric alone, and its seed listed as ``dropped``."""
    out = {}
    for metric in declared:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        runs = [{side: p[side]["metrics"][name]["value"] for side in SIDES} for p in pairs]
        reported = [None not in r.values() for r in runs]
        values = {side: [r[side] for r, ok in zip(runs, reported) if ok] for side in SIDES}
        if not values["change"]:
            continue
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "wins": wins, "pairs": len(values["change"]),
                     "dropped": [p["seed"] for p, ok in zip(pairs, reported) if not ok],
                     **{side: spread(values[side]) for side in SIDES}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    for workload in args.workload:
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload}: pair {k + 1} of {len(args.seeds)} (seed {seed}) done",
                  file=sys.stderr)
        workloads[workload] = {
            "metrics": summarize(pairs, declared),
            **{f"{side}_{n}": sum(p[side][n] for p in pairs)
               for side in SIDES for n in ("attempted", "failed")},
            "all_correct": all(p[side]["correct"] for p in pairs for side in SIDES),
            "order": [p["first"] for p in pairs],
        }

    report = {
        "command": f"perfbench/run.py --seconds {args.seconds:g}",
        "seeds": args.seeds,
        "commits": {side: git_commit(path) for side, path in checkouts.items()},
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
