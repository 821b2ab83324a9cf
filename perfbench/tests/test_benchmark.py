"""Tests of the benchmark itself: the workloads run to their end at tiny
sizes, every checker rejects a corrupted output, and the estimators and the
tracer behave.

Run with ``python3 -m pytest perfbench/tests``.
"""

import csv
import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import calibrate
import jmsched
import mixing
import tracing
import workloads
from checks import (
    CheckError,
    check_cohort,
    check_fit,
    check_pi_curve,
    check_plan,
    check_point_mass_plan,
    check_point_mass_scores,
    check_scores,
)
from cohort import at_risk, read_table, survival
from jmsched import cli, dynpred, mcmc, model, numerics, simulate

MODULES = (jmsched, numerics, model, mcmc, dynpred, simulate, cli)
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
TINY_PLAN = dict(predict=dict(g_pi=50, warmup=10, points=10),
                 schedule=dict(outer=10, inner=3, g_pi=50, warmup=10))


def tiny(name):
    sizes = workloads.WORKLOADS[name]
    counts = (30, 20)[:len(sizes.score["at_risk"])]
    score = dict(sizes.score, at_risk=counts, theta_draws=5, re_draws=2, warmup=5)
    pass_fit = None if sizes.pass_fit is None else (200, 100)
    return dataclasses.replace(sizes, n_subjects=60, setup_fit=(40, 20), pass_fit=pass_fit,
                               score=score, subjects=2, plans=2, score_repeats=1, **TINY_PLAN)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload once, untraced, with its work directory kept."""
    out = {}
    for name in workloads.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        result, log = workloads.run(cli, MODULES, name, 3, 0.0, False, work,
                                    sizes=tiny(name))
        out[name] = (work, result, log)
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_to_its_end(runs, name):
    _, result, log = runs[name]
    assert log["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in BENCHMARK["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_layer_metric(tmp_path):
    original = mcmc._re_mh_draws
    trace_path = tmp_path / "trace.csv"
    result, _ = workloads.run(cli, MODULES, "dynpred", 5, 0.0, True, tmp_path,
                              trace_path, sizes=tiny("dynpred"))
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for m in BENCHMARK["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0, m["name"]
    # the wrappers are gone again, including the name dynpred imported
    assert mcmc._re_mh_draws is original and dynpred._re_mh_draws is original
    header, rows = read_table(trace_path)
    assert header == ["id", "parent", "name", "start_s", "end_s", "self_s"]
    assert {"cli.run", "mcmc.re_mh", "dynpred.ekl"} <= {r[2] for r in rows}


def test_command_metric_is_mean_of_scaled_medians(tmp_path):
    bench = workloads.Run(cli, tmp_path, tiny("dynpred"), 3)
    ref = calibrate.REFERENCE_S
    bench.calibration = {"pass0": [ref], "pass1": [ref, 3 * ref], "pass2": [ref]}
    bench.times["predict"] = {"a.cfg": [("pass0", 1.0), ("pass1", 4.0), ("pass2", 9.0)],
                              "b.cfg": [("pass0", 3.0), ("pass1", 2.0), ("pass2", 3.0)]}
    # scaled: a reads 1, 2, 9 (median 2) and b reads 3, 1, 3 (median 3)
    assert bench._typical("predict") == 2.5


def test_tracer_nesting_and_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    assert tracer.names == ["outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0]
    own = tracer.self_times()
    span = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    assert math.isclose(own[0], span[0] - span[1] - span[2], abs_tol=1e-12)
    assert tracer.counts == {"outer": 1, "inner": 2}


def test_mixing_estimators():
    rng = np.random.default_rng(0)
    iid = rng.standard_normal((2, 2000))
    assert 3000 < mixing.bulk_ess(iid) < 5000
    assert mixing.rhat(iid) < 1.01
    ar = np.zeros((2, 2000))
    for i in range(1, 2000):
        ar[:, i] = 0.95 * ar[:, i - 1] + rng.standard_normal(2)
    assert mixing.bulk_ess(ar) < 300
    assert mixing.rhat(iid + np.array([[0.0], [3.0]])) > 1.5


# ---------------------------------------------------------------------------
# every checker rejects a corrupted output
# ---------------------------------------------------------------------------

def rewrite(src, dst, edit):
    """Copy a CSV, applying edit(header, rows) to its parsed content."""
    header, rows = read_table(src)
    edit(header, rows)
    with open(dst, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return dst


def test_cohort_check(runs, tmp_path):
    work = runs["fit"][0]
    table = survival(work / "cohort_survival.csv")
    _, long_rows = read_table(work / "cohort_longitudinal.csv")
    check_cohort(table, 60, long_rows)
    with pytest.raises(CheckError):
        check_cohort(table, 61, long_rows)
    late = [long_rows[0][0], repr(table[long_rows[0][0]][0] + 1.0), "3.0"]
    with pytest.raises(CheckError, match="after the observed time"):
        check_cohort(table, 60, long_rows + [late])


def test_fit_check(runs, tmp_path):
    work = runs["fit"][0]
    draws, ranef = work / "measured_draws.csv", work / "measured_ranef.csv"
    subjects = list(survival(work / "cohort_survival.csv"))
    check_fit(draws, ranef, subjects, 200, recovery=True)

    def shift(header, rows):
        j = header.index("beta[1]")
        for row in rows:
            row[j] = repr(float(row[j]) + 1.0)
    shifted = rewrite(draws, tmp_path / "shifted.csv", shift)
    with pytest.raises(CheckError, match="beta\\[1\\]"):
        check_fit(shifted, ranef, subjects, 200, recovery=True)
    check_fit(shifted, ranef, subjects, 200, recovery=False)

    def poison(header, rows):
        rows[5][4] = "nan"
    with pytest.raises(CheckError, match="not finite"):
        check_fit(rewrite(draws, tmp_path / "nan.csv", poison), ranef, subjects, 200, False)
    with pytest.raises(CheckError, match="draws"):
        check_fit(draws, ranef, subjects, 202, recovery=False)
    with pytest.raises(CheckError, match="ranef header"):
        check_fit(draws, ranef, subjects[1:] + subjects[:1], 200, recovery=False)


def test_pi_curve_check(runs, tmp_path):
    work = runs["dynpred"][0]
    curve = next(work.glob("predict_*_pi.csv"))
    check_pi_curve(curve, workloads.LANDMARK, workloads.T_MAX, 10)

    def rise(header, rows):
        rows[-1][1] = repr(float(rows[-2][1]) + 0.01)
    with pytest.raises(CheckError, match="rises"):
        check_pi_curve(rewrite(curve, tmp_path / "rise.csv", rise),
                       workloads.LANDMARK, workloads.T_MAX, 10)

    def start(header, rows):
        rows[0][1] = "0.99"
    with pytest.raises(CheckError, match="not 1"):
        check_pi_curve(rewrite(curve, tmp_path / "start.csv", start),
                       workloads.LANDMARK, workloads.T_MAX, 10)


PLAN_ARGS = (workloads.LANDMARK, workloads.KAPPA, workloads.T_MAX, workloads.GRID_SIZE)


def infeasible_tail(header, rows):
    """Make the last grid point infeasible but give it the largest gain."""
    rows[-1][6] = repr(workloads.KAPPA - 0.05)
    for row in rows:
        row[7] = "0"
    rows[-1][3] = "1e9"
    rows[-1][7] = "1"


def test_plan_check(runs, tmp_path):
    work = runs["dynpred"][0]
    plan = next(work.glob("plan_*_schedule.csv"))
    check_plan(plan, *PLAN_ARGS)
    with pytest.raises(CheckError, match="earliest EKL maximum"):
        check_plan(rewrite(plan, tmp_path / "sel.csv", infeasible_tail), *PLAN_ARGS)

    def rise(header, rows):
        rows[2][6] = repr(float(rows[1][6]) + 0.01)
    with pytest.raises(CheckError, match="rises"):
        check_plan(rewrite(plan, tmp_path / "rise.csv", rise), *PLAN_ARGS)

    def uneven(header, rows):
        rows[1][2] = repr(float(rows[1][2]) + 0.01)
    with pytest.raises(CheckError, match="equidistant"):
        check_plan(rewrite(plan, tmp_path / "uneven.csv", uneven), *PLAN_ARGS)

    def too_far(header, rows):
        span = workloads.T_MAX + 1.0
        for k, row in enumerate(rows, start=1):
            row[1] = repr(span)
            row[2] = repr(workloads.LANDMARK + span * k / len(rows))
    with pytest.raises(CheckError, match="t_up"):
        check_plan(rewrite(plan, tmp_path / "far.csv", too_far), *PLAN_ARGS)


def test_point_mass_plan_check(runs, tmp_path):
    plan = runs["dynpred"][0] / "point_plan_schedule.csv"
    lam = workloads.PROBE_LAMBDA
    check_point_mass_plan(plan, *PLAN_ARGS, lam)
    with pytest.raises(CheckError, match="closed form"):
        check_point_mass_plan(plan, *PLAN_ARGS, lam * 1.2)


def test_scores_check(runs, tmp_path):
    work = runs["dynpred"][0]
    table = survival(work / "cohort_survival.csv")
    landmarks = workloads.score_landmarks(table, (30, 20))
    assert [len(at_risk(table, t)) for t in landmarks] == [30, 20]
    assert check_scores(work / "score_slope_scores.csv", ("slope",), landmarks, table) > 0
    scores, models = work / "score_current_value_scores.csv", ("current_value",)
    assert check_scores(scores, models, landmarks, table) > 0

    def miscount(header, rows):
        rows[0][-1] = str(int(rows[0][-1]) + 1)
    with pytest.raises(CheckError, match="recount"):
        check_scores(rewrite(scores, tmp_path / "n.csv", miscount), models, landmarks, table)

    def inf_dic(header, rows):
        rows[0][1] = "inf"
    with pytest.raises(CheckError, match="not finite"):
        check_scores(rewrite(scores, tmp_path / "dic.csv", inf_dic), models, landmarks, table)


def test_point_mass_scores_check(runs, tmp_path):
    work = runs["dynpred"][0]
    scores, table = work / "point_score_scores.csv", survival(work / "cohort_survival.csv")
    landmarks = workloads.PROBE_SCORE["landmarks"]
    check_point_mass_scores(scores, "point", landmarks, table, workloads.PROBE_LAMBDA)

    def nudge(header, rows):
        rows[0][2] = repr(float(rows[0][2]) + 1e-3)
    with pytest.raises(CheckError, match="closed form"):
        check_point_mass_scores(rewrite(scores, tmp_path / "cv.csv", nudge), "point",
                                landmarks, table, workloads.PROBE_LAMBDA)


def test_failed_check_is_counted(runs, tmp_path):
    """A command whose output fails its check is a failed operation."""
    work = tmp_path / "w"
    shutil.copytree(runs["dynpred"][0], work)
    bench = workloads.Run(cli, work, tiny("dynpred"), 3)
    config = next(work.glob("plan_*.cfg"))
    output = work / (config.stem + "_schedule.csv")

    def corrupt_then_check():
        rewrite(output, output, infeasible_tail)
        check_plan(output, *PLAN_ARGS)
    bench.command("schedule", config, corrupt_then_check)
    assert (bench.attempted, bench.failed, bench.correct) == (1, 1, False)
    assert bench.times["schedule"] == {}
