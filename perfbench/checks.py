"""Output checks, run outside the timed region.

Each check reads what a command wrote and compares it with properties the
method must have or with values computed apart from jmsched, never with a
stored copy of an earlier output.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import math

import numpy as np

import mixing
from cohort import CENSOR_ADMIN, DRAW_COLUMNS, N_RANDOM, TRUTH, at_risk, read_table

# Posterior means must sit this many sds (posterior sd combined with the Monte
# Carlo error of the mean) from the truth.  With four parameters a 3-sd bound
# would flag a correct sampler in about 1% of runs; 4 sd flags it in ~0.03%.
RECOVERY_SDS = 4.0
RECOVERY_PARAMS = ("beta[0]", "beta[1]", "gamma[0]", "sigma2")
# _upper_limit stops its bisection once |pi - kappa| <= 1e-3
PI_BISECTION_TOL = 1e-3
POINT_MASS_CVDCL_TOL = 1e-6


class CheckError(Exception):
    """An output broke a property the method guarantees."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _numbers(rows, what: str) -> np.ndarray:
    try:
        data = np.array(rows, dtype=float)
    except ValueError:
        raise CheckError(f"{what}: a field is not a number") from None
    _require(np.all(np.isfinite(data)), f"{what}: a value is not finite")
    return data


def check_cohort(survival: dict, n_subjects: int, long_rows) -> None:
    _require(len(survival) == n_subjects,
             f"cohort has {len(survival)} subjects, expected {n_subjects}")
    for sid, (obs, event) in survival.items():
        _require(0.0 < obs <= CENSOR_ADMIN and event in (0, 1),
                 f"subject {sid}: observed time {obs}, event {event}")
    for row in long_rows:
        _require(float(row[1]) <= survival[row[0]][0],
                 f"subject {row[0]}: measurement after the observed time")


def read_draws(path, n_rows: int) -> dict:
    """Draws CSV -> {column: (chains, draws) array}, shape-checked."""
    header, rows = read_table(path)
    _require(header == ["chain", "iteration", *DRAW_COLUMNS],
             f"draws header {header} differs from the model's parameters")
    _require(len(rows) == n_rows, f"{len(rows)} draws, expected {n_rows}")
    data = _numbers(rows, "draws")
    chains = np.unique(data[:, 0])
    return {name: data[:, j].reshape(chains.size, -1)
            for j, name in enumerate(header)}


def check_fit(draws_path, ranef_path, subjects, n_rows: int, recovery: bool) -> dict:
    """Finite draws of the implied shapes; optionally recovery of the truth.

    Returns the draws by column for the mixing metrics.
    """
    draws = read_draws(draws_path, n_rows)
    header, rows = read_table(ranef_path)
    expected = ["chain", "iteration"]
    expected += [f"b[{sid},{k}]" for sid in subjects for k in range(N_RANDOM)]
    _require(header == expected, "ranef header differs from subjects x random effects")
    _require(len(rows) == n_rows, f"{len(rows)} ranef draws, expected {n_rows}")
    ranef = _numbers(rows, "ranef")
    _require(np.array_equal(ranef[:, 0], draws["chain"].ravel())
             and np.array_equal(ranef[:, 1], draws["iteration"].ravel()),
             "ranef rows do not pair with the draws")
    if recovery:
        for name, z in recovery_z(draws).items():
            _require(z <= RECOVERY_SDS,
                     f"{name}: posterior mean {draws[name].mean():.4f} is {z:.1f} sd "
                     f"from the truth {TRUTH[name]}")
    return draws


def recovery_z(draws: dict) -> dict:
    """|posterior mean - truth| in units of sqrt(sd^2 + MCSE^2), MCSE = sd/sqrt(ESS)."""
    out = {}
    for name in RECOVERY_PARAMS:
        x = draws[name]
        err = float(x.std()) * math.sqrt(1.0 + 1.0 / mixing.bulk_ess(x))
        out[name] = abs(float(x.mean()) - TRUTH[name]) / err
    return out


def check_pi_curve(path, landmark: float, horizon: float, points: int) -> None:
    header, rows = read_table(path)
    _require(header == ["u", "pi"], f"pi header {header}")
    _require(len(rows) == points, f"{len(rows)} pi points, expected {points}")
    u, pi = _numbers(rows, "pi curve").T
    grid = landmark + horizon * np.arange(points) / max(points - 1, 1)
    _require(np.allclose(u, grid, rtol=0.0, atol=1e-9), "pi grid is not the requested one")
    _require(pi[0] == 1.0, f"pi at the landmark is {pi[0]}, not 1")
    _require(np.all(np.diff(pi) <= 0.0), "pi rises with the horizon")
    _require(np.all((pi >= 0.0) & (pi <= 1.0)), "pi leaves [0, 1]")


def read_plan(path, grid_size: int) -> dict:
    header, rows = read_table(path)
    _require(header == ["t", "t_up_minus_t", "u", "EKL", "EKL_lo", "EKL_hi", "pi",
                        "selected"], f"schedule header {header}")
    _require(len(rows) == grid_size, f"{len(rows)} grid points, expected {grid_size}")
    data = _numbers(rows, "schedule")
    _require(np.all(data[:, :2] == data[0, :2]), "t or t_up differ between rows")
    _require(np.all(np.isin(data[:, 7], (0.0, 1.0))), "selected is not a 0/1 flag")
    t, span = data[0, :2]
    return {"t": t, "t_up": t + span, "u": data[:, 2], "ekl": data[:, 3],
            "pi": data[:, 6], "selected": np.flatnonzero(data[:, 7])}


def check_plan(path, landmark: float, kappa: float, t_max: float, grid_size: int) -> dict:
    """The rules of acceptance criterion 8 on one schedule report."""
    plan = read_plan(path, grid_size)
    t, t_up = plan["t"], plan["t_up"]
    _require(t == landmark, f"plan landmark {t}, expected {landmark}")
    _require(t < t_up <= t + t_max + 1e-12, f"t_up {t_up} outside (t, t + t_max]")
    grid = t + (t_up - t) * np.arange(1, grid_size + 1) / grid_size
    _require(np.allclose(plan["u"], grid, rtol=0.0, atol=1e-9),
             "grid is not equidistant on (t, t_up]")
    pi = plan["pi"]
    _require(np.all((pi >= 0.0) & (pi <= 1.0)), "pi leaves [0, 1]")
    _require(np.all(np.diff(pi) <= 0.0), "pi rises along the grid")
    feasible = pi >= kappa
    if feasible.any():
        best = np.max(plan["ekl"][feasible])
        expected = [int(np.flatnonzero(feasible & (plan["ekl"] == best))[0])]
    else:
        expected = []
    _require(list(plan["selected"]) == expected,
             f"selected rows {list(plan['selected'])}, expected the earliest "
             f"EKL maximum with pi >= kappa {expected}")
    return plan


def check_point_mass_plan(path, landmark: float, kappa: float, t_max: float,
                          grid_size: int, lam: float) -> None:
    """Flat hazard lam, no association, point-mass posterior: pi(u) is
    exp(-lam (u - t)) exactly, so t_up is t + ln(1/kappa)/lam up to the
    bisection tolerance."""
    plan = check_plan(path, landmark, kappa, t_max, grid_size)
    expected = landmark + math.log(1.0 / kappa) / lam
    tol = PI_BISECTION_TOL / (lam * (kappa - PI_BISECTION_TOL))
    _require(abs(plan["t_up"] - expected) <= tol,
             f"t_up {plan['t_up']:.5f}, closed form {expected:.5f} (tol {tol:.5f})")


def read_scores(path, models, landmarks) -> dict:
    header, rows = read_table(path)
    expected = ["model", "dic", *[f"cvdcl@{t:g}" for t in landmarks],
                *[f"n@{t:g}" for t in landmarks]]
    _require(header == expected, f"scores header {header}")
    _require([r[0] for r in rows] == list(models), "scores rows are not the models")
    k = len(landmarks)
    return {r[0]: {"dic": r[1], "cvdcl": r[2: 2 + k], "n": r[2 + k:]} for r in rows}


def check_scores(path, models, landmarks, survival: dict) -> int:
    """Finite DIC and cvDCL, at-risk counts equal to a recount.

    Returns the number of (subject, landmark, model) evaluations.
    """
    scores = read_scores(path, models, landmarks)
    recount = [len(at_risk(survival, t)) for t in landmarks]
    for mid, row in scores.items():
        _numbers([row["dic"], *row["cvdcl"]], f"{mid} DIC and cvDCL")
        _require([int(n) for n in row["n"]] == recount,
                 f"{mid}: at-risk counts {row['n']}, recount {recount}")
    return len(scores) * sum(recount)


def check_point_mass_scores(path, model: str, landmarks, survival: dict, lam: float) -> None:
    """Acceptance criterion 6 in closed form: cvDCL is the mean over the
    subjects at risk of delta log(lam) - lam (T - t)."""
    check_scores(path, (model,), landmarks, survival)
    cvdcl = read_scores(path, (model,), landmarks)[model]["cvdcl"]
    for t, got in zip(landmarks, cvdcl):
        exact = np.mean([survival[s][1] * math.log(lam) - lam * (survival[s][0] - t)
                         for s in at_risk(survival, t)])
        _require(abs(float(got) - exact) <= POINT_MASS_CVDCL_TOL,
                 f"cvDCL@{t:g} {got}, closed form {exact:.8f}")
