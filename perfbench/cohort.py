"""Inputs the benchmark hands to jmsched: config files and CSVs.

Everything here is derived from the workload seed.  The cohort follows the
design of acceptance criterion 3 (gaussian marker, linear time, one binary
hazard covariate, cubic baseline spline with knots at 2.5, 5 and 7.5), so the
simulation truth is known and the fit can be checked against it.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

MODEL = {
    "model.family": "gaussian",
    "model.time_basis": "linear",
    "model.hazard_covariates": "w",
    "model.baseline_interior": "2.5,5.0,7.5",
    "model.baseline_boundary": "0,10.5",
}
TRUTH = {
    "beta[0]": 3.6,
    "beta[1]": 0.25,
    "gamma[0]": 0.5,
    "alpha[0]": 0.2,
    "sigma2": 0.25,
    "D[0,0]": 0.35,
    "D[1,0]": 0.0,
    "D[1,1]": 0.02,
}
LOG_BASELINE = math.log(0.06)
VISITS = "0,0.5,1,2,3,4,5,6,7,8"
CENSOR_ADMIN = 10.0

# shapes the model above implies for every posterior draw
N_FIXED = 2          # intercept + time
N_HAZARD_COV = 1     # w
N_ALPHA = 1          # current_value and slope both take one parameter
N_BASELINE = 8       # intercept + 7 cubic B-splines (3 interior knots)
N_RANDOM = 2         # random intercept + slope

DRAW_COLUMNS = (
    [f"beta[{i}]" for i in range(N_FIXED)]
    + [f"gamma[{i}]" for i in range(N_HAZARD_COV)]
    + [f"alpha[{i}]" for i in range(N_ALPHA)]
    + [f"gamma_h0[{i}]" for i in range(N_BASELINE)]
    + ["sigma2"]
    + [f"D[{i},{j}]" for i in range(N_RANDOM) for j in range(i + 1)]
    + ["tau_h"]
)
HAZARD_PREFIXES = ("gamma[", "alpha[", "gamma_h0[")


def write_config(path: Path, items: dict) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in items.items()))
    return path


def _data(prefix: Path) -> dict:
    return {"data.longitudinal": f"{prefix}_longitudinal.csv",
            "data.survival": f"{prefix}_survival.csv"}


def simulate_config(work: Path, seed: int, n_subjects: int) -> Path:
    truth = {
        "truth.beta": f"{TRUTH['beta[0]']},{TRUTH['beta[1]']}",
        "truth.sigma2": TRUTH["sigma2"],
        "truth.gamma": TRUTH["gamma[0]"],
        "truth.alpha": TRUTH["alpha[0]"],
        "truth.D": f"{TRUTH['D[0,0]']},{TRUTH['D[1,0]']},{TRUTH['D[1,1]']}",
        "truth.log_baseline": repr(LOG_BASELINE),
    }
    return write_config(work / "sim.cfg", {
        "seed": seed, "out.prefix": work / "cohort", **MODEL, **truth,
        "sim.n_subjects": n_subjects, "sim.visits": VISITS,
        "sim.censor_admin": CENSOR_ADMIN, "sim.covariates": "w:bernoulli:0.5",
    })


def fit_config(work: Path, prefix: str, seed: int, association: str, iterations: int,
               burn_in: int) -> Path:
    return write_config(work / f"fit_{prefix}.cfg", {
        "seed": seed, "out.prefix": work / prefix, **_data(work / "cohort"),
        **MODEL, "model.association": association, "mcmc.chains": 2,
        "mcmc.iterations": iterations, "mcmc.burn_in": burn_in,
    })


def predict_config(work: Path, seed: int, subject: str, landmark: float, draws: Path,
                   g_pi: int, warmup: int, points: int, horizon: float) -> Path:
    return write_config(work / f"predict_{subject}.cfg", {
        "seed": seed, "out.prefix": work / f"predict_{subject}",
        **_data(work / "cohort"), **MODEL, "model.association": "current_value",
        "predict.draws": draws, "predict.subject": subject,
        "predict.landmark": landmark, "predict.horizon": horizon,
        "predict.points": points, "predict.g_pi": g_pi, "predict.warmup": warmup,
    })


def schedule_config(work: Path, name: str, seed: int, subject: str, landmark: float,
                    draws: Path, kappa: float, t_max: float, grid_size: int,
                    outer: int, inner: int, g_pi: int, warmup: int) -> Path:
    return write_config(work / f"{name}.cfg", {
        "seed": seed, "out.prefix": work / name, **_data(work / "cohort"), **MODEL,
        "model.association": "current_value", "schedule.draws": draws,
        "schedule.subject": subject, "schedule.landmark": landmark,
        "schedule.kappa": kappa, "schedule.t_max": t_max,
        "schedule.grid_size": grid_size, "schedule.outer": outer,
        "schedule.inner": inner, "schedule.g_pi": g_pi, "schedule.warmup": warmup,
    })


def score_config(work: Path, name: str, seed: int, models: dict, landmarks,
                 theta_draws: int, re_draws: int, warmup: int) -> Path:
    """``models`` maps a model id to (association, draws CSV, ranef CSV)."""
    items = {"seed": seed, "out.prefix": work / name, **_data(work / "cohort"), **MODEL,
             "models": ",".join(models),
             "landmarks": ",".join(repr(float(t)) for t in landmarks),
             "score.theta_draws": theta_draws, "score.re_draws": re_draws,
             "score.warmup": warmup}
    for mid, (association, draws, ranef) in models.items():
        items.update({f"{mid}.association": association, f"{mid}.draws": draws,
                      f"{mid}.ranef": ranef})
    return write_config(work / f"{name}.cfg", items)


def read_table(path) -> tuple:
    """(header, rows) of a CSV, every field left as text."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [row for row in reader if row]


def survival(path) -> dict:
    """subject id -> (observed time, event indicator), in file order."""
    _, rows = read_table(path)
    return {row[0]: (float(row[1]), int(row[2])) for row in rows}


def at_risk(table: dict, t: float) -> list:
    """Subjects still event-free and uncensored at t."""
    return [sid for sid, (obs, _) in table.items() if obs > t]


def write_point_mass(work: Path, lam: float, n_draws: int, subjects) -> tuple:
    """Draws and ranef CSVs of a posterior concentrated at a flat exponential
    model: baseline hazard ``lam``, no association (alpha = 0), no covariate
    effect, random effects all zero."""
    values = dict(TRUTH, **{"gamma[0]": 0.0, "alpha[0]": 0.0, "tau_h": 1.0})
    values.update({f"gamma_h0[{i}]": 0.0 for i in range(N_BASELINE)})
    values["gamma_h0[0]"] = math.log(lam)
    draws, ranef = work / "point_draws.csv", work / "point_ranef.csv"
    with open(draws, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "iteration", *DRAW_COLUMNS])
        for g in range(n_draws):
            writer.writerow([0, g, *[repr(float(values[c])) for c in DRAW_COLUMNS]])
    with open(ranef, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "iteration",
                         *[f"b[{sid},{k}]" for sid in subjects for k in range(N_RANDOM)]])
        for g in range(n_draws):
            writer.writerow([0, g, *(["0.0"] * (N_RANDOM * len(subjects)))])
    return draws, ranef
