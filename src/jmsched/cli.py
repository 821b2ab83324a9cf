"""Batch interface: simulate, fit, score, predict, schedule.

Usage: ``jmsched <command> <config-file>``.  The config file is flat
key=value text with dotted section prefixes (``mcmc.iterations=7000``); every
randomized command requires an explicit ``seed`` key.  All emitted CSVs are
re-ingestible by the parsers in this module.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynpred, mcmc, simulate
from . import model as md
from .errors import ConfigError, DataError, JmschedError
from .numerics import BSplineBasis, NaturalCubicBasis

COMMANDS = ("simulate", "fit", "score", "predict", "schedule")

LONG_HEADER = ["subject_id", "time", "value"]
SURV_HEADER = ["subject_id", "event_time", "event_indicator"]


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {ln}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path} line {ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _req(cfg, key) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _get_float(cfg, key, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} is not a number: {cfg[key]!r}") from None


def _get_int(cfg, key, default=None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} is not an integer: {cfg[key]!r}") from None


def _get_floats(cfg, key, default=None):
    if key not in cfg or not cfg[key]:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return tuple(float(v) for v in cfg[key].split(","))
    except ValueError:
        raise ConfigError(f"config key {key!r} is not a comma list of numbers") from None


def _get_names(cfg, key, default=()):
    if key not in cfg or not cfg[key]:
        return tuple(default)
    return tuple(v.strip() for v in cfg[key].split(",") if v.strip())


def _seed(cfg) -> int:
    if "seed" not in cfg:
        raise ConfigError("missing required config key 'seed' "
                          "(randomized commands never default it)")
    return _get_int(cfg, "seed")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: the command plus its key=value options."""

    command: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(
                f"unknown command {self.command!r}; valid: {', '.join(COMMANDS)}")

    @classmethod
    def from_file(cls, command: str, path) -> "RunConfig":
        return cls(command, load_config(path))


# ---------------------------------------------------------------------------
# Model construction from config
# ---------------------------------------------------------------------------

def _time_effect(cfg):
    kind = cfg.get("model.time_basis", "linear")
    if kind == "none":
        return None
    if kind == "linear":
        return md.LinearTime()
    if kind.startswith("poly"):
        degree = _get_int(cfg, "model.poly_degree", 2)
        return md.PolynomialTime(degree)
    if kind == "ncs":
        boundary = _get_floats(cfg, "model.ncs_boundary")
        interior = _get_floats(cfg, "model.ncs_interior", default=())
        return md.SplineTime(NaturalCubicBasis(tuple(boundary), tuple(interior)))
    raise ConfigError(f"unknown model.time_basis {kind!r}; "
                      "valid: none, linear, poly, ncs")


def _family(cfg) -> md.ExponentialFamily:
    name = cfg.get("model.family", "gaussian")
    if name not in ("gaussian", "bernoulli"):
        raise ConfigError(f"unknown model.family {name!r}; valid: gaussian, bernoulli")
    return md.GAUSSIAN if name == "gaussian" else md.BERNOULLI


def _baseline_basis(cfg, observed_times=None) -> BSplineBasis:
    degree = _get_int(cfg, "model.baseline_degree", 3)
    if "model.baseline_interior" in cfg and cfg["model.baseline_interior"]:
        interior = _get_floats(cfg, "model.baseline_interior")
        boundary = _get_floats(cfg, "model.baseline_boundary")
        return BSplineBasis(degree=degree, interior_knots=tuple(interior),
                            boundary_knots=tuple(boundary))
    n_coefs = _get_int(cfg, "model.baseline_coefficients", 15)
    if "model.baseline_boundary" in cfg:
        boundary = _get_floats(cfg, "model.baseline_boundary")
        if len(boundary) != 2:
            raise ConfigError(f"model.baseline_boundary needs 2 values (lo,hi), "
                              f"got {len(boundary)}")
        lo, hi = boundary
        n_interior = n_coefs - 1 - degree - 1
        if n_interior < 0:
            raise ConfigError("model.baseline_coefficients too small for the degree")
        interior = tuple(np.linspace(lo, hi, n_interior + 2)[1:-1])
        return BSplineBasis(degree=degree, interior_knots=interior,
                            boundary_knots=(lo, hi))
    if observed_times is None:
        raise ConfigError("baseline spline needs model.baseline_boundary (or data)")
    return md.default_baseline_basis(observed_times, n_coefficients=n_coefs, degree=degree)


def build_model(cfg, observed_times=None, association=None):
    """(JointModelSpec, AssociationForm) from config keys, knots from data
    quantiles unless pinned explicitly."""
    lspec = md.LongitudinalSpec(
        family=_family(cfg),
        time_effect=_time_effect(cfg),
        covariates=_get_names(cfg, "model.covariates"),
        random_time_terms=(_get_int(cfg, "model.random_time_terms")
                           if "model.random_time_terms" in cfg else None),
    )
    spec = md.JointModelSpec(
        longitudinal=lspec,
        baseline_basis=_baseline_basis(cfg, observed_times),
        hazard_covariates=_get_names(cfg, "model.hazard_covariates"),
        penalty_order=_get_int(cfg, "model.penalty_order", 2),
    )
    variant = association if association is not None else cfg.get("model.association", "current_value")
    if variant not in md.ASSOCIATION_VARIANTS:
        raise ConfigError(f"unknown association variant {variant!r}; "
                          f"valid: {', '.join(md.ASSOCIATION_VARIANTS)}")
    n_params = lspec.n_random if variant == "shared_random_effects" else None
    return spec, md.AssociationForm(variant, n_params)


# ---------------------------------------------------------------------------
# Dataset CSV schemas
# ---------------------------------------------------------------------------

def parse_dataset(longitudinal_csv, survival_csv) -> md.Dataset:
    """Join the two CSVs on subject_id and validate every subject."""
    surv_path = Path(survival_csv)
    long_path = Path(longitudinal_csv)
    for p in (surv_path, long_path):
        if not p.exists():
            raise DataError(f"input file not found: {p}")

    with open(surv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != SURV_HEADER:
            raise DataError(f"{surv_path} line 1: header must start with "
                            f"{','.join(SURV_HEADER)}")
        cov_names = header[3:]
        order = []
        surv = {}
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{surv_path} line {ln} column "
                                f"{len(row) + 1}: expected {len(header)} fields")
            sid = row[0]
            if sid in surv:
                raise DataError(f"{surv_path} line {ln} column subject_id: "
                                f"duplicate subject {sid!r}")
            t_obs = md.parse_float(row[1], surv_path, ln, "event_time")
            ind = row[2].strip()
            if ind not in ("0", "1"):
                raise DataError(f"{surv_path} line {ln} column event_indicator: "
                                f"must be 0 or 1, got {row[2]!r}")
            covs = {name: md.parse_float(val, surv_path, ln, name)
                    for name, val in zip(cov_names, row[3:])}
            surv[sid] = (t_obs, int(ind), covs)
            order.append(sid)

    meas = {sid: [] for sid in surv}
    with open(long_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != LONG_HEADER:
            raise DataError(f"{long_path} line 1: header must start with "
                            f"{','.join(LONG_HEADER)}")
        extra_names = header[3:]
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{long_path} line {ln} column "
                                f"{len(row) + 1}: expected {len(header)} fields")
            sid = row[0]
            if sid not in surv:
                raise DataError(f"{long_path} line {ln} column subject_id: "
                                f"subject {sid!r} missing from the survival table")
            t = md.parse_float(row[1], long_path, ln, "time")
            value = md.parse_float(row[2], long_path, ln, "value")
            if t > surv[sid][0]:
                raise DataError(
                    f"{long_path} line {ln} column time: measurement at {t} is "
                    f"after the observed time {surv[sid][0]} of subject {sid!r}")
            extras = {name: md.parse_float(val, long_path, ln, name)
                      for name, val in zip(extra_names, row[3:])}
            meas[sid].append((t, value, ln, extras))

    subjects = []
    for sid in order:
        t_obs, ind, covs = surv[sid]
        rows = meas[sid]
        times = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        if times.size and np.any(np.diff(times) < 0):
            k = int(np.nonzero(np.diff(times) < 0)[0][0]) + 1
            raise DataError(f"{long_path} line {rows[k][2]} column time: "
                            f"times for subject {sid!r} are not ascending")
        merged = dict(covs)
        for _, _, ln, extras in rows:
            for name, value in extras.items():
                if not np.array_equal(merged.setdefault(name, value), value, equal_nan=True):
                    raise DataError(
                        f"{long_path} line {ln} column {name}: covariate of subject "
                        f"{sid!r} changes from {merged[name]} to {value}; covariates "
                        f"must be constant within a subject")
        subjects.append(md.Subject(id=sid, times=times, y=values,
                                   event_time=t_obs, event=ind, covariates=merged))
    return md.Dataset(tuple(subjects))


def write_dataset(dataset: md.Dataset, longitudinal_csv, survival_csv) -> None:
    cov_names = sorted({name for s in dataset.subjects for name in s.covariates})
    with open(survival_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SURV_HEADER + cov_names)
        for s in dataset.subjects:
            writer.writerow([s.id, repr(s.event_time), s.event,
                             *[repr(float(s.covariates[n])) for n in cov_names]])
    with open(longitudinal_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LONG_HEADER)
        for s in dataset.subjects:
            for t, v in zip(s.times, s.y):
                writer.writerow([s.id, repr(float(t)), repr(float(v))])


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _out_prefix(cfg) -> Path:
    prefix = Path(_req(cfg, "out.prefix"))
    if prefix.parent and not prefix.parent.exists():
        prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


def _truth_parameters(cfg, spec: md.JointModelSpec) -> md.Parameters:
    q_coef = spec.n_baseline
    if "truth.gamma_h0" in cfg:
        gamma_h0 = np.array(_get_floats(cfg, "truth.gamma_h0"))
        if gamma_h0.size != q_coef:
            raise ConfigError(f"truth.gamma_h0 needs {q_coef} values, got {gamma_h0.size}")
    else:
        gamma_h0 = np.zeros(q_coef)
        gamma_h0[0] = _get_float(cfg, "truth.log_baseline")
    d_lower = _get_floats(cfg, "truth.D")
    q = spec.longitudinal.n_random
    if len(d_lower) != q * (q + 1) // 2:
        raise ConfigError(f"truth.D needs {q * (q + 1) // 2} values (the lower triangle "
                          f"of the {q}x{q} random-effect covariance), got {len(d_lower)}")
    blocks = [_get_floats(cfg, "truth.beta"), _get_floats(cfg, "truth.gamma", default=()),
              _get_floats(cfg, "truth.alpha"), tuple(gamma_h0)]
    sigma2, tau_h = _get_float(cfg, "truth.sigma2", 1.0), _get_float(cfg, "truth.tau_h", 1.0)
    # the config's blocks, laid out in the order of the flat parameter vector
    values = [v for block in blocks for v in block] + [sigma2, *d_lower, tau_h]
    names = md.flat_names([len(block) for block in blocks], q)
    return md.parameters_from_flat(dict(zip(names, values)), spec)


def _sim_covariates(cfg) -> dict:
    raw = cfg.get("sim.covariates", "")
    out = {}
    for item in filter(None, (s.strip() for s in raw.split(";"))):
        name, *kind = item.split(":")
        if not name or not kind:
            raise ConfigError(f"sim.covariates item {item!r}: expected name:kind[:parameters]")
        try:
            out[name] = (kind[0], *(float(v) for v in kind[1:]))
        except ValueError:
            raise ConfigError(f"sim.covariates item {item!r}: parameters must be numbers") from None
    return out


def cmd_simulate(cfg) -> list:
    spec, assoc = build_model(cfg)
    design = simulate.SimulationDesign(
        n_subjects=_get_int(cfg, "sim.n_subjects"),
        parameters=_truth_parameters(cfg, spec),
        spec=spec,
        assoc=assoc,
        visit_times=_get_floats(cfg, "sim.visits"),
        seed=_seed(cfg),
        visit_jitter=_get_float(cfg, "sim.jitter", 0.1),
        censor_admin=(_get_float(cfg, "sim.censor_admin")
                      if "sim.censor_admin" in cfg else None),
        censor_rate=(_get_float(cfg, "sim.censor_rate")
                     if "sim.censor_rate" in cfg else None),
        covariates=_sim_covariates(cfg),
    )
    dataset = simulate.generate_dataset(design)
    prefix = _out_prefix(cfg)
    long_path = f"{prefix}_longitudinal.csv"
    surv_path = f"{prefix}_survival.csv"
    truth_path = f"{prefix}_truth.txt"
    write_dataset(dataset, long_path, surv_path)
    Path(truth_path).write_text(simulate.truth_report(design))
    return [long_path, surv_path, truth_path]


def _load_dataset(cfg) -> md.Dataset:
    return parse_dataset(_req(cfg, "data.longitudinal"), _req(cfg, "data.survival"))


def cmd_fit(cfg) -> list:
    dataset = _load_dataset(cfg)
    spec, assoc = build_model(cfg, observed_times=dataset.observed_times())
    config = mcmc.McmcConfig(
        seed=_seed(cfg),
        chains=_get_int(cfg, "mcmc.chains", 2),
        iterations=_get_int(cfg, "mcmc.iterations", 7000),
        burn_in=_get_int(cfg, "mcmc.burn_in", 2000),
        thin=_get_int(cfg, "mcmc.thin", 1),
        adapt_window=_get_int(cfg, "mcmc.adapt_window", 50),
    )
    samples = mcmc.fit(dataset, spec, assoc, mcmc.PriorSet(), config)
    prefix = _out_prefix(cfg)
    draws_path = f"{prefix}_draws.csv"
    ranef_path = f"{prefix}_ranef.csv"
    diag_path = f"{prefix}_diagnostics.txt"
    mcmc.write_draws_csv(samples, spec, draws_path)
    mcmc.write_ranef_csv(samples, ranef_path)
    mcmc.write_diagnostics_report(samples, diag_path)
    return [draws_path, ranef_path, diag_path]


def _load_samples(cfg, spec, draws_key, ranef_key=None):
    samples = mcmc.read_draws_csv(_req(cfg, draws_key), spec)
    if ranef_key is not None and ranef_key in cfg:
        ids, ranef = mcmc.read_ranef_csv(cfg[ranef_key])
        samples.subject_ids = ids
        samples.ranef = ranef
    return samples


def cmd_score(cfg) -> list:
    dataset = _load_dataset(cfg)
    landmarks = _get_floats(cfg, "landmarks")
    model_ids = _get_names(cfg, "models")
    if not model_ids:
        raise ConfigError("score needs a comma list under 'models'")
    seed = _seed(cfg)
    scores = []
    for mid in model_ids:
        variant = cfg.get(f"{mid}.association", cfg.get("model.association"))
        spec, assoc = build_model(cfg, observed_times=dataset.observed_times(),
                                  association=variant)
        samples = _load_samples(cfg, spec, f"{mid}.draws", f"{mid}.ranef")
        if samples.ranef is None:
            raise ConfigError(f"score needs {mid}.ranef for the DIC computation")
        dic_value = mcmc.dic(samples, dataset, spec, assoc)
        scores.append(dynpred.score_model(
            mid, samples, dataset, spec, assoc, landmarks, dic_value,
            n_theta_draws=(_get_int(cfg, "score.theta_draws")
                           if "score.theta_draws" in cfg else None),
            n_re_draws=_get_int(cfg, "score.re_draws", 25),
            seed=seed,
            warmup=_get_int(cfg, "score.warmup", mcmc.RE_WARMUP),
        ))
    prefix = _out_prefix(cfg)
    out_path = f"{prefix}_scores.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["model", "dic"]
        header += [f"cvdcl@{t:g}" for t in landmarks]
        header += [f"n@{t:g}" for t in landmarks]
        writer.writerow(header)
        for s in scores:
            writer.writerow([s.model, repr(s.dic), *[repr(v) for v in s.cvdcl],
                             *[str(n) for n in s.n_at_risk]])
    return [out_path]


def _history_for(cfg, dataset, subject_key, landmark_key):
    sid = _req(cfg, subject_key)
    t = _get_float(cfg, landmark_key)
    subject = dataset.get(sid)
    if not subject.event_time > t:
        what = "had an event" if subject.event else "was censored"
        raise DataError(
            f"subject {sid!r} {what} at {subject.event_time}, not after the landmark "
            f"{t}; it is not known to be event-free at {t}")
    return md.SubjectHistory.from_subject(subject, t)


def cmd_predict(cfg) -> list:
    dataset = _load_dataset(cfg)
    spec, assoc = build_model(cfg, observed_times=dataset.observed_times())
    samples = _load_samples(cfg, spec, "predict.draws")
    history = _history_for(cfg, dataset, "predict.subject", "predict.landmark")
    horizon = _get_float(cfg, "predict.horizon", dynpred.DEFAULT_T_MAX)
    points = _get_int(cfg, "predict.points", 50)
    us = history.t + horizon * np.arange(points) / max(points - 1, 1)
    pis = dynpred.pi_curve(history, us, samples, spec, assoc,
                           g_pi=_get_int(cfg, "predict.g_pi", 2000),
                           seed=_seed(cfg),
                           warmup=_get_int(cfg, "predict.warmup", mcmc.RE_WARMUP))
    prefix = _out_prefix(cfg)
    out_path = f"{prefix}_pi.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "pi"])
        for u, p in zip(us, pis):
            writer.writerow([repr(float(u)), repr(float(p))])
    return [out_path]


def cmd_schedule(cfg) -> list:
    dataset = _load_dataset(cfg)
    spec, assoc = build_model(cfg, observed_times=dataset.observed_times())
    samples = _load_samples(cfg, spec, "schedule.draws")
    history = _history_for(cfg, dataset, "schedule.subject", "schedule.landmark")
    config = dynpred.ScheduleConfig(
        seed=_seed(cfg),
        kappa=_get_float(cfg, "schedule.kappa", 0.8),
        t_max=_get_float(cfg, "schedule.t_max", dynpred.DEFAULT_T_MAX),
        grid_size=_get_int(cfg, "schedule.grid_size", 5),
        n_outer=_get_int(cfg, "schedule.outer", 2000),
        n_inner=_get_int(cfg, "schedule.inner", 50),
        n_pi=_get_int(cfg, "schedule.g_pi", 2000),
        re_warmup=_get_int(cfg, "schedule.warmup", mcmc.RE_WARMUP),
    )
    plan = dynpred.schedule_next(history, samples, spec, assoc, config)
    prefix = _out_prefix(cfg)
    out_path = f"{prefix}_schedule.csv"
    write_schedule_csv(plan, out_path)
    return [out_path]


def write_schedule_csv(plan: dynpred.SchedulePlan, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "t_up_minus_t", "u", "EKL", "EKL_lo", "EKL_hi",
                         "pi", "selected"])
        for k, u in enumerate(plan.grid):
            r = plan.ekl[k]
            writer.writerow([
                repr(float(plan.landmark)), repr(float(plan.t_up - plan.landmark)),
                repr(float(u)), repr(r.estimate), repr(r.lower), repr(r.upper),
                repr(float(plan.pi[k])),
                1 if plan.selected is not None and u == plan.selected else 0,
            ])


def _read_table(path, expected_header):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[: len(expected_header)] != list(expected_header):
            raise DataError(f"{path} line 1: header must start with "
                            f"{','.join(expected_header)}")
        return header, [row for row in reader if row]


def read_schedule_csv(path):
    """Rebuild the schedule report: (landmark, t_up, grid, ekl, pi, selected)."""
    _, rows = _read_table(path, ["t", "t_up_minus_t", "u", "EKL", "EKL_lo",
                                 "EKL_hi", "pi", "selected"])
    landmark = float(rows[0][0])
    t_up = landmark + float(rows[0][1])
    grid = np.array([float(r[2]) for r in rows])
    ekl = tuple(dynpred.EklResult(float(r[3]), float(r[4]), float(r[5])) for r in rows)
    pi = np.array([float(r[6]) for r in rows])
    chosen = [float(r[2]) for r in rows if r[7] == "1"]
    return landmark, t_up, grid, ekl, pi, (chosen[0] if chosen else None)


def read_pi_csv(path):
    """(u, pi) arrays from a conditional-survival curve report."""
    _, rows = _read_table(path, ["u", "pi"])
    return (np.array([float(r[0]) for r in rows]),
            np.array([float(r[1]) for r in rows]))


def read_scores_csv(path):
    """Model scores: list of (model, dic, {t: cvdcl}, {t: n_at_risk})."""
    header, rows = _read_table(path, ["model", "dic"])
    cv_cols = [(j, float(name.split("@")[1])) for j, name in enumerate(header)
               if name.startswith("cvdcl@")]
    n_cols = [(j, float(name.split("@")[1])) for j, name in enumerate(header)
              if name.startswith("n@")]
    out = []
    for row in rows:
        out.append((
            row[0], float(row[1]),
            {t: float(row[j]) for j, t in cv_cols},
            {t: int(row[j]) for j, t in n_cols},
        ))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "score": cmd_score,
    "predict": cmd_predict,
    "schedule": cmd_schedule,
}


def run(config: RunConfig) -> list:
    """Execute one command; returns the list of emitted file paths."""
    return _HANDLERS[config.command](config.options)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jmsched",
        description="Joint longitudinal-survival modeling with personalized "
                    "measurement scheduling.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config", help="flat key=value configuration file")
    args = parser.parse_args(argv)
    try:
        emitted = run(RunConfig.from_file(args.command, args.config))
    except JmschedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in emitted:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
