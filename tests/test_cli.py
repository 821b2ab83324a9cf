import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jmsched
from jmsched.cli import (
    RunConfig,
    build_model,
    load_config,
    main,
    parse_dataset,
    read_pi_csv,
    read_schedule_csv,
    read_scores_csv,
    run,
    write_dataset,
)
from jmsched.errors import ConfigError, DataError, JmschedError
from jmsched.mcmc import _ConditionData, read_draws_csv
from jmsched.simulate import generate_dataset

from test_simulate import flat_design

MODEL_BLOCK = """
model.family=gaussian
model.time_basis=linear
model.hazard_covariates=w
model.baseline_degree=3
model.baseline_coefficients=6
model.baseline_boundary=0,12
"""

TRUTH_BLOCK = """
truth.beta=3.5,0.2
truth.sigma2=0.25
truth.gamma=0.4
truth.alpha=0.2
truth.D=0.3,0,0.02
truth.log_baseline=-2.3
"""


def write_config(path, text):
    path.write_text(text.strip() + "\n")
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> fit, shared by the command tests."""
    tmp = tmp_path_factory.mktemp("cli")
    sim_cfg = write_config(tmp / "sim.cfg", f"""
seed=5
out.prefix={tmp}/sim
{MODEL_BLOCK}
{TRUTH_BLOCK}
sim.n_subjects=25
sim.visits=0,1,2,4,6
sim.jitter=0.05
sim.censor_admin=8
sim.covariates=w:bernoulli:0.5
""")
    assert main(["simulate", sim_cfg]) == 0
    fit_cfg = write_config(tmp / "fit.cfg", f"""
seed=9
out.prefix={tmp}/fit1
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
model.association=current_value
mcmc.chains=1
mcmc.iterations=300
mcmc.burn_in=100
""")
    assert main(["fit", fit_cfg]) == 0
    return tmp


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# --- simulate/fit artifacts -------------------------------------------------------

def test_simulate_emits_ingestible_files(pipeline):
    tmp = pipeline
    dataset = parse_dataset(tmp / "sim_longitudinal.csv", tmp / "sim_survival.csv")
    assert dataset.n == 25
    assert (tmp / "sim_truth.txt").exists()


def test_fit_emits_draws_ranef_diagnostics(pipeline):
    tmp = pipeline
    rows = read_rows(tmp / "fit1_draws.csv")
    assert rows[0][:2] == ["chain", "iteration"]
    assert "sigma2" in rows[0] and "tau_h" in rows[0]
    assert len(rows) - 1 == 200  # (300 - 100) kept draws, one chain
    diag = (tmp / "fit1_diagnostics.txt").read_text()
    assert "rhat" in diag.splitlines()[0]


def test_fit_is_reproducible_files(pipeline, tmp_path):
    tmp = pipeline
    cfg = write_config(tmp_path / "fit2.cfg", f"""
seed=9
out.prefix={tmp_path}/fit2
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
model.association=current_value
mcmc.chains=1
mcmc.iterations=300
mcmc.burn_in=100
""")
    assert main(["fit", cfg]) == 0
    assert (tmp_path / "fit2_draws.csv").read_bytes() == (tmp / "fit1_draws.csv").read_bytes()


# --- score --------------------------------------------------------------------------

def test_score_table_shape(pipeline, tmp_path):
    tmp = pipeline
    cfg = write_config(tmp_path / "score.cfg", f"""
seed=3
out.prefix={tmp_path}/sc
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
models=m1,m2
m1.association=current_value
m1.draws={tmp}/fit1_draws.csv
m1.ranef={tmp}/fit1_ranef.csv
m2.association=slope
m2.draws={tmp}/fit1_draws.csv
m2.ranef={tmp}/fit1_ranef.csv
landmarks=1,2,3
score.theta_draws=15
score.re_draws=3
score.warmup=30
""")
    assert main(["score", cfg]) == 0
    rows = read_rows(tmp_path / "sc_scores.csv")
    assert rows[0] == ["model", "dic", "cvdcl@1", "cvdcl@2", "cvdcl@3",
                       "n@1", "n@2", "n@3"]
    assert len(rows) == 3
    assert rows[1][0] == "m1" and rows[2][0] == "m2"
    # one DIC column, three cvdcl columns, all parseable
    for row in rows[1:]:
        assert all(math.isfinite(float(v)) for v in row[1:5])
    scores = read_scores_csv(tmp_path / "sc_scores.csv")
    assert [s[0] for s in scores] == ["m1", "m2"]
    assert set(scores[0][2]) == {1.0, 2.0, 3.0}
    assert all(isinstance(n, int) for n in scores[0][3].values())


# --- predict ---------------------------------------------------------------------------

def test_predict_curve_starts_at_one(pipeline, tmp_path):
    tmp = pipeline
    dataset = parse_dataset(tmp / "sim_longitudinal.csv", tmp / "sim_survival.csv")
    sid = next(s.id for s in dataset.subjects if s.event_time > 1.0)
    cfg = write_config(tmp_path / "pred.cfg", f"""
seed=4
out.prefix={tmp_path}/pred
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
model.association=current_value
predict.draws={tmp}/fit1_draws.csv
predict.subject={sid}
predict.landmark=1.0
predict.horizon=3
predict.points=7
predict.g_pi=150
""")
    assert main(["predict", cfg]) == 0
    rows = read_rows(tmp_path / "pred_pi.csv")
    assert rows[0] == ["u", "pi"]
    assert len(rows) == 8
    assert float(rows[1][0]) == 1.0 and float(rows[1][1]) == 1.0
    pis = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(pis, pis[1:]))
    us_back, pis_back = read_pi_csv(tmp_path / "pred_pi.csv")
    assert np.array_equal(pis_back, np.array(pis))


# --- schedule ----------------------------------------------------------------------------

def test_schedule_end_to_end(pipeline, tmp_path):
    tmp = pipeline
    dataset = parse_dataset(tmp / "sim_longitudinal.csv", tmp / "sim_survival.csv")
    sid = next(s.id for s in dataset.subjects if s.event_time > 2.0)
    cfg = write_config(tmp_path / "sched.cfg", f"""
seed=6
out.prefix={tmp_path}/plan
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
model.association=current_value
schedule.draws={tmp}/fit1_draws.csv
schedule.subject={sid}
schedule.landmark=1.5
schedule.kappa=0.8
schedule.t_max=4
schedule.grid_size=5
schedule.outer=25
schedule.inner=3
""")
    assert main(["schedule", cfg]) == 0
    rows = read_rows(tmp_path / "plan_schedule.csv")
    assert rows[0] == ["t", "t_up_minus_t", "u", "EKL", "EKL_lo", "EKL_hi", "pi",
                       "selected"]
    assert len(rows) == 6
    us = [float(r[2]) for r in rows[1:]]
    assert all(1.5 < u <= 1.5 + 4.0 + 1e-9 for u in us)
    selected = [r for r in rows[1:] if r[7] == "1"]
    if selected:
        assert float(selected[0][6]) >= 0.8
    landmark, t_up, grid, ekl_back, pi_back, chosen = read_schedule_csv(
        tmp_path / "plan_schedule.csv")
    assert landmark == 1.5
    assert np.array_equal(grid, np.array(us))
    assert (chosen is None) == (not selected)


def test_schedule_rejects_subject_with_event_before_landmark(pipeline, tmp_path, capsys):
    """predict and schedule need a subject known to be event-free at the
    landmark: neither an event nor censoring may come before it."""
    tmp = pipeline
    dataset = parse_dataset(tmp / "sim_longitudinal.csv", tmp / "sim_survival.csv")
    early = next(s for s in dataset.subjects if s.event and s.event_time < 6.0)
    censored = next(s for s in dataset.subjects if not s.event and s.event_time == 8.0)
    for subject, t_land in ((early, early.event_time + 0.5), (censored, 8.5)):
        for command in ("predict", "schedule"):
            cfg = write_config(tmp_path / "bad.cfg", f"""
seed=6
out.prefix={tmp_path}/bad
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
model.association=current_value
{command}.draws={tmp}/fit1_draws.csv
{command}.subject={subject.id}
{command}.landmark={t_land}
""")
            assert main([command, cfg]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and subject.id in err and str(subject.event_time) in err


def _corrupt_draws(rows):
    rows[3][4] = "x"


def _truncate_ranef(rows):
    del rows[5][-1]


def _nan_draws(rows):
    rows[3][4] = "nan"


def _inf_ranef(rows):
    rows[5][7] = "-inf"


def _fractional_chain(rows):
    rows[3][0] = "1.5"


def _huge_iteration(rows):
    rows[5][1] = "1e300"


DRAWS_FAULT = ("draws", _corrupt_draws, "line 4 column gamma[0]: could not parse 'x'")
RANEF_FAULT = ("ranef", _truncate_ranef, "line 6 column 52: expected 52 fields")
NAN_DRAWS_FAULT = ("draws", _nan_draws, "line 4 column gamma[0]: could not parse 'nan'")
INF_RANEF_FAULT = ("ranef", _inf_ranef, "line 6 column b[s0002,1]: could not parse '-inf'")
FRACTIONAL_CHAIN_FAULT = ("draws", _fractional_chain,
                          "line 4: chain and iteration must be integers")
HUGE_ITERATION_FAULT = ("draws", _huge_iteration, "line 6: chain and iteration must be integers")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, name, corrupt, where", [
    ("predict", *DRAWS_FAULT), ("schedule", *DRAWS_FAULT), ("score", *DRAWS_FAULT),
    ("score", *RANEF_FAULT), ("predict", *NAN_DRAWS_FAULT), ("score", *NAN_DRAWS_FAULT),
    ("score", *INF_RANEF_FAULT), ("predict", *FRACTIONAL_CHAIN_FAULT),
    ("score", *HUGE_ITERATION_FAULT),
], ids=["predict-draws", "schedule-draws", "score-draws", "score-ranef",
        "predict-draws-nan", "score-draws-nan", "score-ranef-inf",
        "predict-draws-fractional-chain", "score-draws-huge-iteration"])
def test_malformed_draws_or_ranef_csv_is_an_error(pipeline, tmp_path, capsys, command,
                                                  name, corrupt, where):
    """A draws or random-effects CSV with a non-number, a short row or a
    chain or iteration that is not an int64 integer ends in an error naming
    the file and line (and column, where one field is at fault), not a
    traceback or a silent cast."""
    tmp = pipeline
    rows = read_rows(tmp / f"fit1_{name}.csv")
    corrupt(rows)
    bad = tmp_path / f"bad_{name}.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    paths = {"draws": tmp / "fit1_draws.csv", "ranef": tmp / "fit1_ranef.csv", name: bad}
    dataset = parse_dataset(tmp / "sim_longitudinal.csv", tmp / "sim_survival.csv")
    at_risk = next(s for s in dataset.subjects if s.event_time > 3.0)
    keys = {"score": f"models=m1\nlandmarks=3\nm1.draws={paths['draws']}\n"
                     f"m1.ranef={paths['ranef']}\nscore.theta_draws=5\nscore.re_draws=2",
            "predict": f"predict.draws={paths['draws']}\npredict.subject={at_risk.id}\n"
                       f"predict.landmark=3",
            "schedule": f"schedule.draws={paths['draws']}\nschedule.subject={at_risk.id}\n"
                        f"schedule.landmark=3"}[command]
    cfg = write_config(tmp_path / "bad.cfg", f"""
seed=6
out.prefix={tmp_path}/bad
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
model.association=current_value
{keys}
""")
    assert main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and where in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("huge", ["1e150", "-1e150"])
def test_score_with_a_huge_random_effect_is_an_error(pipeline, tmp_path, capsys, huge):
    """A finite random effect so large that a subject's log hazard passes the
    guard bound, above or below, makes the deviance meaningless: score ends
    in an error naming the draw's chain and iteration, not in a finite DIC
    and exit 0."""
    draws = read_rows(pipeline / "fit1_draws.csv")
    alpha = draws[0].index("alpha[0]")
    k = next(k for k, row in enumerate(draws[1:], 1) if float(row[alpha]) > 0.0)
    rows = read_rows(pipeline / "fit1_ranef.csv")
    rows[k][rows[0].index("b[s0001,0]")] = huge    # with alpha > 0, log h follows b's sign
    ranef = tmp_path / "huge_ranef.csv"
    with open(ranef, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    cfg = write_config(tmp_path / "score.cfg", _score_config(pipeline, tmp_path, ranef=ranef))
    assert main(["score", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"chain {rows[k][0]} iteration {rows[k][1]}" in err
    assert not (tmp_path / "sc_scores.csv").exists()


# --- dataset parsing -----------------------------------------------------------------------

def test_dataset_round_trip(tmp_path):
    dataset = generate_dataset(flat_design(n=15, seed=2, jitter=0.07, censor_admin=5.0))
    lp, sp = tmp_path / "l.csv", tmp_path / "s.csv"
    write_dataset(dataset, lp, sp)
    assert parse_dataset(lp, sp) == dataset


def test_parse_rejects_measurement_after_observed_time(tmp_path):
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator\na,2.0,1\n")
    lp.write_text("subject_id,time,value\na,1.0,3.0\na,2.5,3.1\n")
    with pytest.raises(DataError) as err:
        parse_dataset(lp, sp)
    assert "line 3" in str(err.value)


def test_parse_rejects_missing_subject(tmp_path):
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator\na,2.0,1\n")
    lp.write_text("subject_id,time,value\nb,1.0,3.0\n")
    with pytest.raises(DataError) as err:
        parse_dataset(lp, sp)
    assert "missing from the survival table" in str(err.value)


def test_parse_rejects_bad_event_indicator(tmp_path):
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator\na,2.0,2\n")
    lp.write_text("subject_id,time,value\n")
    with pytest.raises(DataError) as err:
        parse_dataset(lp, sp)
    assert "event_indicator" in str(err.value)


def test_parse_rejects_unsorted_times(tmp_path):
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator\na,9.0,1\n")
    lp.write_text("subject_id,time,value\na,2.0,3.0\na,1.0,3.1\n")
    with pytest.raises(DataError) as err:
        parse_dataset(lp, sp)
    assert "not ascending" in str(err.value)


def test_parse_names_file_line_column_for_bad_number(tmp_path):
    """A field that is not a finite number, including inf and nan, is an
    error at its file, line and column."""
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    surv = "subject_id,event_time,event_indicator,w\na,2.0,1,0\n"
    long = "subject_id,time,value\na,1.0,3.0\n"
    for survival, longitudinal, where in [
        (surv, long.replace("1.0", "oops"), "l.csv line 2 column time"),
        (surv.replace("2.0", "inf"), long, "s.csv line 2 column event_time"),
        (surv.replace(",0\n", ",nan\n"), long, "s.csv line 2 column w"),
        (surv, long.replace("1.0", "nan"), "l.csv line 2 column time"),
        (surv, long.replace("3.0", "-inf"), "l.csv line 2 column value"),
        (surv, "subject_id,time,value,x\na,1.0,3.0,NaN\n", "l.csv line 2 column x"),
    ]:
        sp.write_text(survival)
        lp.write_text(longitudinal)
        with pytest.raises(DataError) as err:
            parse_dataset(lp, sp)
        assert where in str(err.value)


def test_parse_accepts_empty_longitudinal(tmp_path):
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator,w\na,2.0,1,1.0\nb,4.0,0,0.0\n")
    lp.write_text("subject_id,time,value\n")
    dataset = parse_dataset(lp, sp)
    assert dataset.n == 2
    assert all(s.n_obs == 0 for s in dataset.subjects)
    assert dataset.subjects[0].covariates == {"w": 1.0}


def test_parse_rejects_covariate_varying_within_subject(tmp_path):
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator\na,9.0,1\n")
    lp.write_text("subject_id,time,value,x\na,0.0,3.0,0\na,1.0,3.1,0\na,4.0,3.2,9\n")
    with pytest.raises(DataError) as err:
        parse_dataset(lp, sp)
    msg = str(err.value)
    assert "l.csv" in msg and "line 4" in msg and "column x" in msg


def test_parse_rejects_longitudinal_covariate_contradicting_survival_table(tmp_path):
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator,w\na,9.0,1,1.0\n")
    lp.write_text("subject_id,time,value,w\na,0.0,3.0,1.0\na,1.0,3.1,0.0\n")
    with pytest.raises(DataError) as err:
        parse_dataset(lp, sp)
    assert "l.csv" in str(err.value) and "line 3" in str(err.value)


# --- config and exit-code contracts ------------------------------------------------------

@pytest.mark.parametrize("key, value", [
    ("sim.covariates", "w"),
    ("sim.covariates", "w:bernoulli"),
    ("sim.covariates", "w:normal:0,x"),
    ("truth.D", "0.3,0.02"),
    ("truth.beta", "3.5"),
    ("truth.gamma", "0.4,0.1"),
    ("model.baseline_boundary", "0,6,12"),
    ("model.baseline_boundary", "12"),
    ("truth.alpha", "nan"),
    ("truth.log_baseline", "nan"),
    ("truth.sigma2", "inf"),
    ("sim.visits", "0,nan"),
    ("sim.jitter", "nan"),
    ("sim.censor_admin", "inf"),
    ("sim.covariates", "w:bernoulli:nan"),
])
def test_malformed_simulate_config_is_an_error(tmp_path, capsys, key, value):
    text = f"""
seed=1
out.prefix={tmp_path}/x
{MODEL_BLOCK}
{TRUTH_BLOCK}
sim.n_subjects=2
sim.visits=0,1
sim.covariates=w:bernoulli:0.5
"""
    assert main(["simulate", write_config(tmp_path / "ok.cfg", text)]) == 0
    lines = [line for line in text.splitlines() if not line.startswith(key + "=")]
    cfg = write_config(tmp_path / "c.cfg", "\n".join(lines + [f"{key}={value}"]))
    assert main(["simulate", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_seed_is_an_error(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", f"""
out.prefix={tmp_path}/x
{MODEL_BLOCK}
{TRUTH_BLOCK}
sim.n_subjects=2
sim.visits=0,1
""")
    assert main(["simulate", cfg]) == 1


def test_unknown_association_lists_variants(tmp_path, capsys):
    cfg = load_config(write_config(tmp_path / "c.cfg", f"""
seed=1
{MODEL_BLOCK}
model.association=bogus
"""))
    with pytest.raises(ConfigError) as err:
        build_model(cfg)
    msg = str(err.value)
    for name in ("current_value", "slope", "value_and_slope", "cumulative",
                 "shared_random_effects"):
        assert name in msg


def test_cli_error_goes_to_stderr_with_nonzero_exit(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["fit", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_out_prefix_is_an_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    cfg = write_config(tmp_path / "c.cfg", f"""
seed=1
out.prefix={tmp_path}/afile/x
{MODEL_BLOCK}
{TRUTH_BLOCK}
sim.n_subjects=2
sim.visits=0,1
sim.covariates=w:bernoulli:0.5
""")
    assert main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "afile" in err


def test_simulate_ends_when_event_times_outrun_float_spacing(tmp_path):
    """Event times near the cap of 1e14, where neighbouring floats lie more
    than the bisection tolerance apart, still end the inversion."""
    truth = [line for line in TRUTH_BLOCK.strip().splitlines()
             if not line.startswith(("truth.log_baseline", "truth.alpha", "truth.gamma"))]
    cfg = write_config(tmp_path / "c.cfg", "\n".join([
        "seed=1", f"out.prefix={tmp_path}/x", MODEL_BLOCK, *truth,
        "truth.log_baseline=-30", "truth.alpha=0", "truth.gamma=0",
        "sim.n_subjects=3", "sim.visits=0,1", "sim.censor_admin=1e12",
        "sim.covariates=w:bernoulli:0.5"]))
    src = str(Path(jmsched.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "jmsched.cli", "simulate", cfg], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert len(read_rows(tmp_path / "x_survival.csv")) == 4


def _predict_config(tmp, out, draws, data=None):
    """A predict config on the shared pipeline (subject s0000 is at risk at
    0.5), with the given draws path and, if given, both data paths replaced by
    ``data``."""
    return f"""
seed=6
out.prefix={out}/pred
data.longitudinal={data or tmp / "sim_longitudinal.csv"}
data.survival={data or tmp / "sim_survival.csv"}
{MODEL_BLOCK}
model.association=current_value
predict.draws={draws}
predict.subject=s0000
predict.landmark=0.5
predict.points=3
predict.g_pi=20
"""


def _score_config(tmp, out, draws=None, ranef=None):
    """A one-model score config on the shared pipeline at landmark 3, with the
    given draws and ranef CSVs in place of the fit's."""
    return f"""
seed=3
out.prefix={out}/sc
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
models=m1
m1.draws={draws or tmp / "fit1_draws.csv"}
m1.ranef={ranef or tmp / "fit1_ranef.csv"}
landmarks=3
score.theta_draws=4
score.re_draws=2
score.warmup=10
"""


def _schedule_config(tmp, out):
    """A small schedule config on the shared pipeline (subject s0000 is at
    risk at 0.5)."""
    return f"""
seed=6
out.prefix={out}/plan
data.longitudinal={tmp}/sim_longitudinal.csv
data.survival={tmp}/sim_survival.csv
{MODEL_BLOCK}
model.association=current_value
schedule.draws={tmp}/fit1_draws.csv
schedule.subject=s0000
schedule.landmark=0.5
schedule.kappa=0.8
schedule.t_max=2
schedule.grid_size=3
schedule.outer=10
schedule.inner=2
"""


@pytest.mark.parametrize("command, key, value", [
    ("score", "score.re_draws", "0"), ("score", "score.re_draws", "-1"),
    ("score", "score.theta_draws", "0"), ("score", "score.theta_draws", "-2"),
    ("predict", "predict.g_pi", "0"),
    ("predict", "predict.g_pi", "-1"), ("predict", "predict.points", "0"),
    ("schedule", "schedule.outer", "0"), ("schedule", "schedule.inner", "0"),
    ("schedule", "schedule.grid_size", "1"),
    ("schedule", "schedule.t_max", "1e307"),
])
def test_nonpositive_predict_or_score_count_is_an_error(pipeline, tmp_path, capsys, command,
                                                        key, value):
    """A draw count or point count below 1, a one-point schedule grid
    or a schedule.t_max whose event-time cap t + 100 * t_max overflows ends in
    an error and writes no CSV, not a traceback or a nan in the output."""
    if command == "predict":
        text = _predict_config(pipeline, tmp_path, pipeline / "fit1_draws.csv")
        output = tmp_path / "pred_pi.csv"
    elif command == "schedule":
        text = _schedule_config(pipeline, tmp_path)
        output = tmp_path / "plan_schedule.csv"
    else:
        text = _score_config(pipeline, tmp_path)
        output = tmp_path / "sc_scores.csv"
    assert main([command, write_config(tmp_path / "ok.cfg", text)]) == 0
    output.unlink()
    lines = [line for line in text.splitlines() if not line.startswith(key + "=")]
    cfg = write_config(tmp_path / "c.cfg", "\n".join(lines + [f"{key}={value}"]))
    assert main([command, cfg]) == 1
    assert "error:" in capsys.readouterr().err
    assert not output.exists()


def test_score_runs_and_warns_on_a_warmup_key(pipeline, tmp_path, capsys):
    """score draws its random effects by importance sampling, with no warm-up
    chain: a config that still sets score.warmup runs and names the key."""
    cfg = write_config(tmp_path / "c.cfg", _score_config(pipeline, tmp_path))
    assert main(["score", cfg]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: config key 'score.warmup' is not read by score"]


def test_predict_runs_and_warns_on_a_warmup_key(pipeline, tmp_path, capsys):
    """predict draws its random effects with a fixed number of sweeps of one
    kernel, with no warm-up chain: a config that still sets predict.warmup
    runs and names the key."""
    text = _predict_config(pipeline, tmp_path, pipeline / "fit1_draws.csv") + "predict.warmup=10\n"
    assert main(["predict", write_config(tmp_path / "c.cfg", text)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: config key 'predict.warmup' is not read by predict"]
    assert (tmp_path / "pred_pi.csv").exists()


def test_schedule_runs_and_warns_on_a_warmup_key(pipeline, tmp_path, capsys):
    """schedule draws its landmark draw and its pool with a fixed number of
    sweeps of one kernel, with no warm-up knob: a config that still sets
    schedule.warmup runs and names the key."""
    text = _schedule_config(pipeline, tmp_path) + "schedule.warmup=10\n"
    assert main(["schedule", write_config(tmp_path / "c.cfg", text)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: config key 'schedule.warmup' is not read by schedule"]
    assert (tmp_path / "plan_schedule.csv").exists()


def test_predict_with_every_weight_of_a_draw_zero_is_an_error(pipeline, tmp_path, capsys,
                                                               monkeypatch):
    """A posterior draw whose importance weights are all zero (target -inf at
    each of its proposal draws) ends predict in an error, not in a curve."""
    log_target = _ConditionData.log_target

    def zero_first_draw(self, b, th):
        out = log_target(self, b, th)
        out[..., 0] = -np.inf       # every proposal draw of the first posterior draw
        return out

    monkeypatch.setattr(_ConditionData, "log_target", zero_first_draw)
    cfg = write_config(tmp_path / "c.cfg",
                       _predict_config(pipeline, tmp_path, pipeline / "fit1_draws.csv"))
    assert main(["predict", cfg]) == 1
    assert "error: every importance weight of the history at landmark t=0.5" in (
        capsys.readouterr().err)
    assert not (tmp_path / "pred_pi.csv").exists()


def test_unread_config_key_is_named_in_a_warning(pipeline, tmp_path, capsys):
    """A misspelt key runs at the default, as before, and main names it on
    stderr; ``run`` stays silent."""
    text = _schedule_config(pipeline, tmp_path) + "schedule.outter=10\n"
    cfg = write_config(tmp_path / "c.cfg", text)
    assert main(["schedule", cfg]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: config key 'schedule.outter' is not read by schedule"]
    run(RunConfig.from_file("schedule", cfg))
    assert capsys.readouterr().err == ""


def test_config_of_read_keys_gives_no_warning(pipeline, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", _schedule_config(pipeline, tmp_path))
    assert main(["schedule", cfg]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("what", ["config", "data", "draws"])
def test_directory_as_input_is_an_error(pipeline, tmp_path, capsys, what):
    """A directory where a config, data or draws file belongs ends in an error
    naming it, not an IsADirectoryError."""
    folder = tmp_path / "folder"
    folder.mkdir()
    draws = folder if what == "draws" else pipeline / "fit1_draws.csv"
    cfg = write_config(tmp_path / "c.cfg", _predict_config(
        pipeline, tmp_path, draws, folder if what == "data" else None))
    assert main(["predict", str(folder) if what == "config" else cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(folder) in err


def test_config_that_is_not_utf8_is_an_error(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"seed=1\nout.prefix=\xff\n")
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "c.cfg" in err and "UTF-8" in err


@pytest.mark.parametrize("column", ["b[s0001]", "b[s0001,x]"])
def test_ranef_column_without_integer_component_is_an_error(pipeline, tmp_path, capsys,
                                                            column):
    rows = read_rows(pipeline / "fit1_ranef.csv")
    rows[0][4] = column
    bad = tmp_path / "bad_ranef.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    cfg = write_config(tmp_path / "score.cfg", f"""
seed=3
out.prefix={tmp_path}/sc
data.longitudinal={pipeline}/sim_longitudinal.csv
data.survival={pipeline}/sim_survival.csv
{MODEL_BLOCK}
models=m1
m1.draws={pipeline}/fit1_draws.csv
m1.ranef={bad}
landmarks=3
score.theta_draws=5
score.re_draws=2
""")
    assert main(["score", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad} line 1" in err


@pytest.mark.parametrize("command", ["predict", "schedule", "score"])
def test_negative_landmark_is_an_error(pipeline, tmp_path, capsys, command):
    """Time starts at 0: a landmark before it is an error, not a cvDCL of -inf."""
    text = {"predict": _predict_config(pipeline, tmp_path, pipeline / "fit1_draws.csv"),
            "schedule": _schedule_config(pipeline, tmp_path),
            "score": _score_config(pipeline, tmp_path)}[command]
    text = text.replace("landmark=0.5", "landmark=-2").replace("landmarks=3", "landmarks=-2")
    assert main([command, write_config(tmp_path / "c.cfg", text)]) == 1
    assert capsys.readouterr().err.startswith("error: a landmark is a time >= 0, got -2.0")


@pytest.mark.parametrize("landmarks, named", [
    ("2.0000001,2.0000002", "2.0000001 and 2.0000002"), ("2,2", "2.0 and 2.0"),
    ("1,3,1", "1.0 and 1.0")])
def test_score_with_landmarks_of_one_column_label_is_an_error(pipeline, tmp_path, capsys,
                                                              landmarks, named):
    """Landmarks that print alike head two columns alike (cvdcl@2 twice),
    and a reader keeps one of them: such a list is an error naming both,
    and writes no CSV."""
    text = _score_config(pipeline, tmp_path).replace("landmarks=3", f"landmarks={landmarks}")
    assert main(["score", write_config(tmp_path / "c.cfg", text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: landmarks {named} share the column label")
    assert not (tmp_path / "sc_scores.csv").exists()


def _drop_last_draws(rows):
    del rows[-3:]


def _drop_subject(rows):
    for row in rows:
        del row[4:6]


def _rename_subject(rows):
    rows[0][4:6] = ["b[zz,0]", "b[zz,1]"]


def _shift_iterations(rows):
    for row in rows[1:]:
        row[1] = str(int(row[1]) + 1000)


RANEF_MISMATCH = {
    "fewer-draws": (_drop_last_draws, "197 random-effect draws for 200 parameter draws"),
    "subject-missing": (_drop_subject, "line 1: no random-effect columns for subject 's0001'"),
    "extra-rows": (lambda rows: rows.extend(rows[1:3]), "line 202: chain,iteration"),
    "subject-renamed": (_rename_subject, "no random-effect columns for subject 's0001'"),
    "iterations-shifted": (_shift_iterations, "line 2: chain,iteration"),
}


def _score_with_ranef(pipeline, tmp_path, rows):
    """main's exit code for the shared score config with the given ranef rows."""
    bad = tmp_path / "other_ranef.csv"
    with open(bad, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return main(["score", write_config(tmp_path / "score.cfg",
                                       _score_config(pipeline, tmp_path, ranef=bad))])


@pytest.mark.parametrize("case", sorted(RANEF_MISMATCH))
def test_ranef_that_does_not_pair_with_draws_or_dataset_is_an_error(pipeline, tmp_path,
                                                                     capsys, case):
    """Random-effect draws pair with the parameter draws by (chain, iteration)
    and with the dataset by subject id; a ranef CSV that does not is an error
    naming the file and where it differs, not a traceback or a DIC of the
    wrong pairs."""
    edit, where = RANEF_MISMATCH[case]
    rows = read_rows(pipeline / "fit1_ranef.csv")
    edit(rows)
    assert _score_with_ranef(pipeline, tmp_path, rows) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "other_ranef.csv" in err and where in err
    assert not (tmp_path / "sc_scores.csv").exists()


def test_ranef_columns_pair_by_subject_id_not_position(pipeline, tmp_path):
    """Two subjects' columns swapped in the ranef CSV give the same scores, byte
    for byte."""
    assert main(["score", write_config(tmp_path / "ok.cfg",
                                       _score_config(pipeline, tmp_path))]) == 0
    original = (tmp_path / "sc_scores.csv").read_bytes()
    rows = read_rows(pipeline / "fit1_ranef.csv")
    for row in rows:
        row[2:4], row[6:8] = row[6:8], row[2:4]
    assert _score_with_ranef(pipeline, tmp_path, rows) == 0
    assert (tmp_path / "sc_scores.csv").read_bytes() == original


def test_missing_report_is_an_error(tmp_path):
    with pytest.raises(DataError) as err:
        read_pi_csv(tmp_path / "nope_pi.csv")
    assert "nope_pi.csv" in str(err.value)


def test_config_parser_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("a=1\na=2\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_parser_strips_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# heading\nseed=3  # inline\n\nmodel.family=gaussian\n")
    cfg = load_config(path)
    assert cfg == {"seed": "3", "model.family": "gaussian"}


def test_run_config_rejects_unknown_command():
    with pytest.raises(ConfigError):
        RunConfig("reticulate", {})


# --- property tests: one field of a valid input replaced by arbitrary text ----------------

# arbitrary text, plus numbers written out, extremes and non-finite ones included
FIELD_TEXT = st.one_of(st.text(max_size=12), st.floats().map(repr),
                       st.integers(-3, 40).map(str))
FUZZ = settings(derandomize=True, deadline=None, max_examples=300)


def _main_outcome(argv):
    """(exit code, stderr) of ``main``; anything but exit 0 or 1 fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1)
    assert code == 0 or err.getvalue().startswith("error:")
    return code, err.getvalue()


def _replace_field(lines, row, column, text):
    """CSV lines with one field replaced by unquoted text."""
    fields = lines[row].split(",")
    fields[column] = text
    return lines[:row] + [",".join(fields)] + lines[row + 1:]


SURVIVAL_LINES = ["subject_id,event_time,event_indicator,w", "a,3.5,1,1.0", "b,6.0,0,0.0",
                  "c,2.0,1,1.0"]
LONGITUDINAL_LINES = ["subject_id,time,value", "a,0.0,3.1", "a,1.0,3.6", "b,0.0,2.9",
                      "b,2.0,3.0", "b,4.0,3.3", "c,0.0,3.4", "c,1.5,3.9"]


@FUZZ
@given(table=st.sampled_from(["survival", "longitudinal"]), row=st.integers(0, 7),
       column=st.integers(0, 3), text=FIELD_TEXT)
def test_any_dataset_field_ends_in_data_or_error(tmp_path_factory, table, row, column, text):
    """parse_dataset and fit on a cohort CSV with one field replaced by any text
    either succeed or end in a JmschedError, never a traceback."""
    tmp = tmp_path_factory.mktemp("fuzz")
    lines = {"survival": SURVIVAL_LINES, "longitudinal": LONGITUDINAL_LINES}
    lines[table] = _replace_field(lines[table], row % len(lines[table]),
                                  column % len(lines[table][0].split(",")), text)
    for name, table_lines in lines.items():
        (tmp / f"{name}.csv").write_text("\n".join(table_lines) + "\n", encoding="utf-8")
    try:
        parse_dataset(tmp / "longitudinal.csv", tmp / "survival.csv")
    except JmschedError:
        pass
    cfg = write_config(tmp / "fit.cfg", f"""
seed=1
out.prefix={tmp}/fit
data.longitudinal={tmp}/longitudinal.csv
data.survival={tmp}/survival.csv
{MODEL_BLOCK}
mcmc.chains=1
mcmc.iterations=6
mcmc.burn_in=2
""")
    _main_outcome(["fit", cfg])


@FUZZ
@given(row=st.integers(0, 8), column=st.integers(0, 40), text=FIELD_TEXT)
def test_any_draws_field_ends_in_samples_or_error(pipeline, tmp_path_factory, row, column,
                                                  text):
    """read_draws_csv and predict on a draws CSV with one field replaced by any
    text either succeed, every number of the curve finite, or end in a
    JmschedError."""
    tmp = tmp_path_factory.mktemp("fuzz")
    rows = read_rows(pipeline / "fit1_draws.csv")[:9]
    rows[row][column % len(rows[0])] = text
    draws = tmp / "draws.csv"
    with open(draws, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    spec, _ = build_model(load_config(write_config(tmp / "m.cfg", MODEL_BLOCK)),
                          association="current_value")
    try:
        read_draws_csv(draws, spec)
    except JmschedError:
        pass
    cfg = write_config(tmp / "pred.cfg", _predict_config(pipeline, tmp, draws))
    code, _ = _main_outcome(["predict", cfg])
    if code == 0:
        _assert_numbers_finite(tmp / "pred_pi.csv")


SIMULATE_LINES = ["seed=1", *MODEL_BLOCK.split(), *TRUTH_BLOCK.split(), "sim.n_subjects=2",
                  "sim.visits=0,1", "sim.jitter=0.05", "sim.censor_admin=8",
                  "sim.covariates=w:bernoulli:0.5"]


@FUZZ
@given(line=st.integers(0, len(SIMULATE_LINES) - 1), text=FIELD_TEXT)
def test_any_simulate_config_value_ends_in_cohort_or_error(tmp_path_factory, line, text):
    """simulate with one config value replaced by any text either writes its
    files, every number in its CSVs finite, or ends in a JmschedError
    (``out.prefix``, where files go, is kept)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    lines = list(SIMULATE_LINES)
    key = lines[line].split("=", 1)[0]
    lines[line] = f"{key}={text}"
    cfg = tmp / "sim.cfg"
    cfg.write_text("\n".join([f"out.prefix={tmp}/sim", *lines]) + "\n", encoding="utf-8")
    code, _ = _main_outcome(["simulate", str(cfg)])
    if code == 0:
        _assert_numbers_finite(tmp / "sim_longitudinal.csv", tmp / "sim_survival.csv")


def _assert_numbers_finite(*paths):
    """Every field of the CSVs' data rows that parses as a number is finite."""
    for path in paths:
        for field in (f for row in read_rows(path)[1:] for f in row):
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), (path, field)


FUZZ_RUNS = settings(derandomize=True, deadline=None, max_examples=150)


@FUZZ_RUNS
@given(command=st.sampled_from(["schedule", "score"]), pick=st.integers(0, 99),
       text=FIELD_TEXT)
def test_any_schedule_or_score_config_value_ends_in_output_or_error(pipeline,
                                                                    tmp_path_factory,
                                                                    command, pick, text):
    """schedule or score with one of its own config values (a ``schedule.*`` or
    ``score.*`` key, or ``landmarks``) replaced by any text either writes its
    CSV, every number in it finite, or ends in a JmschedError."""
    tmp = tmp_path_factory.mktemp("fuzz")
    config, out = {"schedule": (_schedule_config, "plan_schedule"),
                   "score": (_score_config, "sc_scores")}[command]
    lines = config(pipeline, tmp).strip().splitlines()
    own = [k for k, line in enumerate(lines)
           if line.startswith(("schedule.", "score.", "landmarks="))]
    k = own[pick % len(own)]
    lines[k] = f"{lines[k].split('=', 1)[0]}={text}"
    cfg = tmp / "c.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _ = _main_outcome([command, str(cfg)])
    if code == 0:
        _assert_numbers_finite(tmp / f"{out}.csv")


@FUZZ_RUNS
@given(pick=st.integers(0, 99), text=FIELD_TEXT)
def test_any_predict_config_value_ends_in_curve_or_error(pipeline, tmp_path_factory, pick,
                                                         text):
    """predict with one of its own config values (a ``predict.*`` key, the
    horizon included) replaced by any text either writes its curve, every
    number in it finite, or ends in a JmschedError."""
    tmp = tmp_path_factory.mktemp("fuzz")
    lines = _predict_config(pipeline, tmp, pipeline / "fit1_draws.csv").strip().splitlines()
    lines.append("predict.horizon=2")
    own = [k for k, line in enumerate(lines) if line.startswith("predict.")]
    k = own[pick % len(own)]
    lines[k] = f"{lines[k].split('=', 1)[0]}={text}"
    cfg = tmp / "pred.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _ = _main_outcome(["predict", str(cfg)])
    if code == 0:
        _assert_numbers_finite(tmp / "pred_pi.csv")


@FUZZ_RUNS
@given(row=st.integers(0, 8), column=st.integers(0, 51), text=FIELD_TEXT)
def test_any_ranef_field_ends_in_scores_or_error(pipeline, tmp_path_factory, row, column,
                                                 text):
    """score on 8 paired draws whose ranef CSV has one field replaced by any
    text either writes finite scores or ends in a JmschedError."""
    tmp = tmp_path_factory.mktemp("fuzz")
    tables = {}
    for name in ("draws", "ranef"):
        rows = read_rows(pipeline / f"fit1_{name}.csv")[:9]
        if name == "ranef":
            rows[row][column % len(rows[0])] = text
        tables[name] = tmp / f"{name}.csv"
        with open(tables[name], "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    cfg = write_config(tmp / "score.cfg", _score_config(pipeline, tmp, **tables))
    code, _ = _main_outcome(["score", cfg])
    if code == 0:
        _assert_numbers_finite(tmp / "sc_scores.csv")
