"""jmsched benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces the
module entry points and prints the per-layer metrics instead (see README.md).
Inputs are generated from ``--seed`` under ``perfbench/_work`` and removed
at the end; traces are written to ``perfbench/_traces``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "dynpred"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fit-seed", type=int, default=None,
                        help="sampler seed of the fit (default: derived from --seed)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # one BLAS thread: the benchmark must not use more threads than cores,
    # and a single thread keeps timings steady on a shared machine
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "jmsched" / "__init__.py").is_file():
        print(f"error: no jmsched sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import jmsched
    from jmsched import cli, dynpred, mcmc, model, numerics, simulate

    import workloads

    modules = (jmsched, numerics, model, mcmc, dynpred, simulate, cli)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_path = HERE / "_traces" / f"{args.workload}-seed{args.seed}.csv"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        trace_path.parent.mkdir(exist_ok=True)
    try:
        result, log = workloads.run(cli, modules, args.workload, args.seed, args.seconds,
                                    bool(args.trace), work, trace_path, args.fit_seed)
    except workloads.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in log.pop("errors"):
        print(error, file=sys.stderr)
    print(json.dumps(log), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
