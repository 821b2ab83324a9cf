import csv
import math

import numpy as np
import pytest

from jmsched.cli import (
    RunConfig,
    build_model,
    load_config,
    main,
    parse_dataset,
    read_pi_csv,
    read_schedule_csv,
    read_scores_csv,
    write_dataset,
)
from jmsched.errors import ConfigError, DataError
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
predict.warmup=40
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
schedule.g_pi=120
schedule.warmup=40
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


DRAWS_FAULT = ("draws", _corrupt_draws, "line 4 column gamma[0]: could not parse 'x'")
RANEF_FAULT = ("ranef", _truncate_ranef, "line 6 column 52: expected 52 fields")


@pytest.mark.parametrize("command, name, corrupt, where", [
    ("predict", *DRAWS_FAULT), ("schedule", *DRAWS_FAULT), ("score", *DRAWS_FAULT),
    ("score", *RANEF_FAULT),
], ids=["predict-draws", "schedule-draws", "score-draws", "score-ranef"])
def test_malformed_draws_or_ranef_csv_is_an_error(pipeline, tmp_path, capsys, command,
                                                  name, corrupt, where):
    """A draws or random-effects CSV with a non-number or a short row ends in
    an error naming the file, line and column, not a traceback."""
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
    sp = tmp_path / "s.csv"
    lp = tmp_path / "l.csv"
    sp.write_text("subject_id,event_time,event_indicator\na,2.0,1\n")
    lp.write_text("subject_id,time,value\na,oops,3.0\n")
    with pytest.raises(DataError) as err:
        parse_dataset(lp, sp)
    msg = str(err.value)
    assert "l.csv" in msg and "line 2" in msg and "time" in msg


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
