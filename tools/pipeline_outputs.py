"""Run a fixed multi-variant CLI pipeline from one source tree and keep its outputs.

    python3 tools/pipeline_outputs.py --src ../parent/src --out ../out_parent
    python3 tools/pipeline_outputs.py --src src --out ../out_change
    diff -r ../out_parent ../out_change
    python3 tools/pipeline_outputs.py --compare ../out_parent ../out_change --tol 1e-9

Each of five model variants runs ``simulate``, ``fit``, ``score``, two
``predict`` and two ``schedule`` commands through ``jmsched.cli.main`` of the
jmsched package under ``--src``, at small sizes (a few seconds in all).  The
variants cover both families, linear and natural-cubic-spline time, all
five associations and a longitudinal covariate.  The configs go to a
temporary directory and only the files the commands emit land in ``--out``,
one directory per variant, so ``diff -r`` of two runs compares outputs
alone; a refactor that must not change a stream should leave no difference.
A change that moves some numbers by rounding is checked by ``--compare``: it
names each file that differs and, per CSV column, the largest absolute
difference of its numeric cells, and exits 1 past ``--tol`` (default 0), on a
cell that differs and is not a number on both sides, or on a file only one
side has.  Standard library only, besides the jmsched under ``--src``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import math
import sys
import tempfile
from pathlib import Path

COMMON = """\
model.hazard_covariates=w
model.baseline_coefficients=6
model.baseline_boundary=0,12
"""

# name -> (model keys, truth keys)
VARIANTS = {
    "gaussian_linear_current_value": (
        "model.family=gaussian\nmodel.time_basis=linear\nmodel.covariates=w\n"
        "model.association=current_value\n",
        "truth.beta=3.5,0.2,0.3\ntruth.sigma2=0.25\ntruth.alpha=0.2\ntruth.D=0.3,0,0.02\n"),
    "gaussian_ncs_slope": (
        "model.family=gaussian\nmodel.time_basis=ncs\nmodel.ncs_boundary=0,8\n"
        "model.ncs_interior=3\nmodel.random_time_terms=1\nmodel.association=slope\n",
        "truth.beta=3.5,0.3,0.1\ntruth.sigma2=0.25\ntruth.alpha=0.8\ntruth.D=0.3,0,0.05\n"),
    "bernoulli_linear_value_and_slope": (
        "model.family=bernoulli\nmodel.time_basis=linear\nmodel.association=value_and_slope\n",
        "truth.beta=0.4,-0.3\ntruth.alpha=0.3,0.5\ntruth.D=0.5,0,0.05\n"),
    "bernoulli_ncs_cumulative": (
        "model.family=bernoulli\nmodel.time_basis=ncs\nmodel.ncs_boundary=0,8\n"
        "model.ncs_interior=3\nmodel.random_time_terms=1\nmodel.association=cumulative\n",
        "truth.beta=0.2,0.4,-0.2\ntruth.alpha=0.1\ntruth.D=0.5,0,0.05\n"),
    "gaussian_linear_shared_random_effects": (
        "model.family=gaussian\nmodel.time_basis=linear\n"
        "model.association=shared_random_effects\n",
        "truth.beta=3.5,0.2\ntruth.sigma2=0.25\ntruth.alpha=0.5,1.0\ntruth.D=0.3,0,0.02\n"),
}

LANDMARKS = (1.5, 3.0)


def at_risk(survival_csv: Path, t: float) -> str:
    """The first subject of the survival file still event-free at t."""
    with open(survival_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return next(r["subject_id"] for r in rows if float(r["event_time"]) > t)


def run_variant(main, name: str, model: str, truth: str, cfgs: Path, out: Path) -> None:
    out.mkdir(parents=True)
    data = f"data.longitudinal={out}/sim_longitudinal.csv\ndata.survival={out}/sim_survival.csv\n"
    model = COMMON + model

    def command(cmd: str, tag: str, text: str) -> None:
        path = cfgs / f"{name}_{tag}.cfg"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([cmd, str(path)])
        if code != 0:
            raise SystemExit(f"{name}: {cmd} {tag} exited {code}")

    command("simulate", "sim", f"seed=7\nout.prefix={out}/sim\n{model}{truth}"
            "truth.gamma=0.4\ntruth.log_baseline=-2.3\nsim.n_subjects=60\n"
            "sim.visits=0,1,2,4,6\nsim.censor_admin=8\nsim.covariates=w:bernoulli:0.5\n")
    command("fit", "fit", f"seed=11\nout.prefix={out}/fit\n{data}{model}"
            "mcmc.chains=1\nmcmc.iterations=200\nmcmc.burn_in=100\n")
    draws = f"{out}/fit_draws.csv"
    command("score", "score", f"seed=3\nout.prefix={out}/score\n{data}{model}models=m1\n"
            f"m1.draws={draws}\nm1.ranef={out}/fit_ranef.csv\n"
            f"landmarks={','.join(map(str, LANDMARKS))}\nscore.theta_draws=6\nscore.re_draws=3\n")
    for k, t in enumerate(LANDMARKS):
        subject = at_risk(out / "sim_survival.csv", t)
        command("predict", f"predict{k}", f"seed={20 + k}\nout.prefix={out}/predict{k}\n"
                f"{data}{model}predict.draws={draws}\npredict.subject={subject}\n"
                f"predict.landmark={t}\npredict.points=10\npredict.g_pi=200\n")
        command("schedule", f"schedule{k}", f"seed={30 + k}\nout.prefix={out}/schedule{k}\n"
                f"{data}{model}schedule.draws={draws}\nschedule.subject={subject}\n"
                f"schedule.landmark={t}\nschedule.grid_size=4\nschedule.outer=200\n"
                "schedule.inner=20\n")


def _column_differences(a: str, b: str):
    """Per column of two CSV texts, the largest absolute difference of its
    numeric cells (header -> float), and whether some difference is not
    numeric: a cell, a header or the number of rows or cells."""
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if not rows_a or rows_a[0] != rows_b[0] or list(map(len, rows_a)) != list(map(len, rows_b)):
        return {}, True
    largest, other = dict.fromkeys(rows_a[0], 0.0), False
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(rows_a[0], row_a, row_b):
            if x == y:
                continue
            try:
                gap = abs(float(x) - float(y))
            except ValueError:
                gap = math.nan
            if math.isnan(gap):
                other = True
            else:
                largest[name] = max(largest[name], gap)
    return {name: gap for name, gap in largest.items() if gap != 0.0}, other


def compare(parent: Path, change: Path, tol: float = 0.0) -> int:
    """Print every file that differs between two output trees, with its
    CSV columns' largest numeric differences; 0 when every difference is
    numeric and within ``tol``, else 1."""
    files = lambda root: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
    in_parent, in_change = files(parent), files(change)
    ok = True
    for rel in sorted(in_parent ^ in_change):
        print(f"{rel}: only in {parent if rel in in_parent else change}")
        ok = False
    for rel in sorted(in_parent & in_change):
        a, b = (parent / rel).read_bytes(), (change / rel).read_bytes()
        if a == b:
            continue
        gaps, other = (_column_differences(a.decode(), b.decode()) if rel.suffix == ".csv"
                       else ({}, True))
        print(f"{rel}:" + (" a difference that is not numeric" if other else ""))
        for name, gap in gaps.items():
            print(f"  {name}: {gap:.3g}" + ("" if gap <= tol else f" > {tol:g}"))
        ok &= not other and all(gap <= tol for gap in gaps.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, help="the directory that holds the jmsched package")
    parser.add_argument("--out", type=Path, help="a directory that does not exist yet")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT_OUT", "CHANGE_OUT"),
                        help="compare two output directories instead of running")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="the largest absolute difference --compare accepts in a number")
    args = parser.parse_args(argv)
    if args.compare:
        if not all(root.is_dir() for root in args.compare):
            parser.error("--compare takes two existing output directories")
        return compare(*args.compare, args.tol)
    if args.src is None or args.out is None:
        parser.error("--src and --out are required unless --compare is given")
    if args.out.exists():
        parser.error(f"{args.out} exists")
    sys.path.insert(0, str(args.src.resolve()))
    from jmsched.cli import main as jmsched_main

    with tempfile.TemporaryDirectory() as cfgs:
        for name, (model, truth) in VARIANTS.items():
            run_variant(jmsched_main, name, model, truth, Path(cfgs), args.out.resolve() / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
