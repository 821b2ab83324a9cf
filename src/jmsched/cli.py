"""Batch interface: simulate, fit, score, predict, schedule.

Usage: ``jmsched <command> <config-file>``.  The config file is flat
key=value text with dotted section prefixes (``mcmc.iterations=7000``); every
randomized command requires an explicit ``seed`` key.  All emitted CSVs are
re-ingestible by the parsers in this module.
"""

from __future__ import annotations

import argparse
import math
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
SCHEDULE_HEADER = ["t", "t_up_minus_t", "u", "EKL", "EKL_lo", "EKL_hi", "pi", "selected"]


# ---------------------------------------------------------------------------
# Config file handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    lines = md.text_lines(path, ConfigError)
    return {key: value for _, key, value in md.key_values(lines, path, ConfigError)}


def _number(text) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ValueError(text)
    return number


def _numbers(text) -> tuple:
    return tuple(_number(v) for v in text.split(","))


def _natural(text) -> int:
    number = int(text)
    if number < 0:
        raise ValueError(text)
    return number


def _names(text) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


_KIND_NAMES = {_number: "a finite number", int: "an integer",
               _natural: "a nonnegative integer", _numbers: "a comma list of finite numbers"}
_REQUIRED = object()


class _ReadKeys(dict):
    """A config that records every key looked up in it, under ``read``."""

    def __init__(self, items=()):
        super().__init__(items)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _get(cfg, key, kind=str, default=_REQUIRED):
    """The value under ``key`` converted by ``kind``; an empty value counts as
    missing, and a missing required key or a malformed value is a ``ConfigError``."""
    if not cfg.get(key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return kind(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} is not {_KIND_NAMES[kind]}: "
                          f"{cfg[key]!r}") from None


def _options(cfg, **fields) -> dict:
    """Keyword arguments ``name=_get(cfg, key, kind)`` for each ``name=(key, kind)``
    whose key is given, so an absent key keeps the callee's default."""
    return {name: _get(cfg, key, kind) for name, (key, kind) in fields.items() if cfg.get(key)}


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
    kind = _get(cfg, "model.time_basis", str, "linear")
    if kind == "none":
        return None
    if kind == "linear":
        return md.LinearTime()
    if kind.startswith("poly"):
        return md.PolynomialTime(_get(cfg, "model.poly_degree", int, 2))
    if kind == "ncs":
        return md.SplineTime(NaturalCubicBasis(_get(cfg, "model.ncs_boundary", _numbers),
                                               _get(cfg, "model.ncs_interior", _numbers, ())))
    raise ConfigError(f"unknown model.time_basis {kind!r}; "
                      "valid: none, linear, poly, ncs")


def _family(cfg) -> md.ExponentialFamily:
    name = _get(cfg, "model.family", str, "gaussian")
    if name not in ("gaussian", "bernoulli"):
        raise ConfigError(f"unknown model.family {name!r}; valid: gaussian, bernoulli")
    return md.GAUSSIAN if name == "gaussian" else md.BERNOULLI


def _baseline_basis(cfg, observed_times=None) -> BSplineBasis:
    degree = _get(cfg, "model.baseline_degree", int, 3)
    interior = _get(cfg, "model.baseline_interior", _numbers, ())
    if interior:
        return BSplineBasis(degree=degree, interior_knots=interior,
                            boundary_knots=_get(cfg, "model.baseline_boundary", _numbers))
    n_coefs = _get(cfg, "model.baseline_coefficients", int, 15)
    boundary = _get(cfg, "model.baseline_boundary", _numbers, None)
    if boundary is not None:
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
        covariates=_get(cfg, "model.covariates", _names, ()),
        **_options(cfg, random_time_terms=("model.random_time_terms", int)),
    )
    spec = md.JointModelSpec(
        longitudinal=lspec,
        baseline_basis=_baseline_basis(cfg, observed_times),
        hazard_covariates=_get(cfg, "model.hazard_covariates", _names, ()),
        **_options(cfg, penalty_order=("model.penalty_order", int)),
    )
    variant = association or _get(cfg, "model.association", str, "current_value")
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
    rows = md.read_csv(survival_csv, SURV_HEADER)
    _, header = next(rows)
    surv = {}
    for ln, row in rows:
        sid = row[0]
        if sid in surv:
            raise DataError(f"{survival_csv} line {ln} column subject_id: "
                            f"duplicate subject {sid!r}")
        t_obs = md.parse_float(row[1], survival_csv, ln, "event_time")
        ind = row[2].strip()
        if ind not in ("0", "1"):
            raise DataError(f"{survival_csv} line {ln} column event_indicator: "
                            f"must be 0 or 1, got {row[2]!r}")
        covs = {name: md.parse_float(val, survival_csv, ln, name)
                for name, val in zip(header[3:], row[3:])}
        surv[sid] = (t_obs, int(ind), covs)

    meas = {sid: [] for sid in surv}
    rows = md.read_csv(longitudinal_csv, LONG_HEADER)
    _, header = next(rows)
    for ln, row in rows:
        sid = row[0]
        if sid not in surv:
            raise DataError(f"{longitudinal_csv} line {ln} column subject_id: "
                            f"subject {sid!r} missing from the survival table")
        t = md.parse_float(row[1], longitudinal_csv, ln, "time")
        value = md.parse_float(row[2], longitudinal_csv, ln, "value")
        if t > surv[sid][0]:
            raise DataError(
                f"{longitudinal_csv} line {ln} column time: measurement at {t} is "
                f"after the observed time {surv[sid][0]} of subject {sid!r}")
        extras = {name: md.parse_float(val, longitudinal_csv, ln, name)
                  for name, val in zip(header[3:], row[3:])}
        meas[sid].append((t, value, ln, extras))

    subjects = []
    for sid, (t_obs, ind, covs) in surv.items():
        rows = meas[sid]
        times = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        if times.size and np.any(np.diff(times) < 0):
            k = int(np.nonzero(np.diff(times) < 0)[0][0]) + 1
            raise DataError(f"{longitudinal_csv} line {rows[k][2]} column time: "
                            f"times for subject {sid!r} are not ascending")
        merged = dict(covs)
        for _, _, ln, extras in rows:
            for name, value in extras.items():
                if merged.setdefault(name, value) != value:
                    raise DataError(
                        f"{longitudinal_csv} line {ln} column {name}: covariate of subject "
                        f"{sid!r} changes from {merged[name]} to {value}; covariates "
                        f"must be constant within a subject")
        subjects.append(md.Subject(id=sid, times=times, y=values,
                                   event_time=t_obs, event=ind, covariates=merged))
    return md.Dataset(tuple(subjects))


def write_dataset(dataset: md.Dataset, longitudinal_csv, survival_csv) -> None:
    cov_names = sorted({name for s in dataset.subjects for name in s.covariates})
    md.write_csv(survival_csv, SURV_HEADER + cov_names, (
        [s.id, repr(s.event_time), s.event, *[repr(float(s.covariates[n])) for n in cov_names]]
        for s in dataset.subjects))
    md.write_csv(longitudinal_csv, LONG_HEADER, (
        [s.id, repr(float(t)), repr(float(v))]
        for s in dataset.subjects for t, v in zip(s.times, s.y)))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _out_prefix(cfg) -> Path:
    prefix = Path(_get(cfg, "out.prefix"))
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


def _truth_parameters(cfg, spec: md.JointModelSpec) -> md.Parameters:
    q_coef = spec.n_baseline
    if cfg.get("truth.gamma_h0"):
        gamma_h0 = np.array(_get(cfg, "truth.gamma_h0", _numbers))
        if gamma_h0.size != q_coef:
            raise ConfigError(f"truth.gamma_h0 needs {q_coef} values, got {gamma_h0.size}")
    else:
        gamma_h0 = np.zeros(q_coef)
        gamma_h0[0] = _get(cfg, "truth.log_baseline", _number)
    d_lower = _get(cfg, "truth.D", _numbers)
    q = spec.longitudinal.n_random
    if len(d_lower) != q * (q + 1) // 2:
        raise ConfigError(f"truth.D needs {q * (q + 1) // 2} values (the lower triangle "
                          f"of the {q}x{q} random-effect covariance), got {len(d_lower)}")
    blocks = [_get(cfg, "truth.beta", _numbers), _get(cfg, "truth.gamma", _numbers, ()),
              _get(cfg, "truth.alpha", _numbers), tuple(gamma_h0)]
    sigma2 = _get(cfg, "truth.sigma2", _number, 1.0)
    tau_h = _get(cfg, "truth.tau_h", _number, 1.0)
    # the config's blocks, laid out in the order of the flat parameter vector
    values = [v for block in blocks for v in block] + [sigma2, *d_lower, tau_h]
    names = md.flat_names([len(block) for block in blocks], q)
    return md.parameters_from_flat(dict(zip(names, values)), spec)


def _sim_covariates(cfg) -> dict:
    raw = _get(cfg, "sim.covariates", str, "")
    out = {}
    for item in filter(None, (s.strip() for s in raw.split(";"))):
        name, *kind = item.split(":")
        if not name or not kind:
            raise ConfigError(f"sim.covariates item {item!r}: expected name:kind[:parameters]")
        try:
            out[name] = (kind[0], *(_number(v) for v in kind[1:]))
        except ValueError:
            raise ConfigError(f"sim.covariates item {item!r}: "
                              "parameters must be finite numbers") from None
    return out


def cmd_simulate(cfg) -> list:
    spec, assoc = build_model(cfg)
    design = simulate.SimulationDesign(
        n_subjects=_get(cfg, "sim.n_subjects", int),
        parameters=_truth_parameters(cfg, spec),
        spec=spec,
        assoc=assoc,
        visit_times=_get(cfg, "sim.visits", _numbers),
        seed=_get(cfg, "seed", _natural),
        covariates=_sim_covariates(cfg),
        **_options(cfg, visit_jitter=("sim.jitter", _number),
                   censor_admin=("sim.censor_admin", _number),
                   censor_rate=("sim.censor_rate", _number)),
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
    return parse_dataset(_get(cfg, "data.longitudinal"), _get(cfg, "data.survival"))


def cmd_fit(cfg) -> list:
    dataset = _load_dataset(cfg)
    spec, assoc = build_model(cfg, observed_times=dataset.observed_times())
    config = mcmc.McmcConfig(seed=_get(cfg, "seed", _natural), **_options(
        cfg, chains=("mcmc.chains", int), iterations=("mcmc.iterations", int),
        burn_in=("mcmc.burn_in", int), thin=("mcmc.thin", int)))
    samples = mcmc.fit(dataset, spec, assoc, mcmc.PriorSet(), config)
    prefix = _out_prefix(cfg)
    draws_path = f"{prefix}_draws.csv"
    ranef_path = f"{prefix}_ranef.csv"
    diag_path = f"{prefix}_diagnostics.txt"
    mcmc.write_draws_csv(samples, spec, draws_path)
    mcmc.write_ranef_csv(samples, ranef_path)
    mcmc.write_diagnostics_report(samples, diag_path)
    return [draws_path, ranef_path, diag_path]


def _load_samples(cfg, spec, draws_key, ranef_key=None, dataset=None):
    """Posterior draws, with those of ``ranef_key`` paired by draw and by subject id."""
    samples = mcmc.read_draws_csv(_get(cfg, draws_key), spec)
    if ranef_key is not None and ranef_key in cfg:
        samples.subject_ids, samples.ranef = mcmc.read_ranef_csv(
            _get(cfg, ranef_key), samples, [s.id for s in dataset.subjects])
    return samples


def cmd_score(cfg) -> list:
    dataset = _load_dataset(cfg)
    landmarks = _get(cfg, "landmarks", _numbers)
    model_ids = _get(cfg, "models", _names)
    if not model_ids:
        raise ConfigError("score needs a comma list under 'models'")
    seed = _get(cfg, "seed", _natural)
    options = _options(cfg, n_theta_draws=("score.theta_draws", int),
                       n_re_draws=("score.re_draws", int))
    scores = []
    for mid in model_ids:
        variant = _get(cfg, f"{mid}.association", str, None)
        spec, assoc = build_model(cfg, observed_times=dataset.observed_times(),
                                  association=variant)
        samples = _load_samples(cfg, spec, f"{mid}.draws", f"{mid}.ranef", dataset)
        if samples.ranef is None:
            raise ConfigError(f"score needs {mid}.ranef for the DIC computation")
        dic_value = mcmc.dic(samples, dataset, spec, assoc)
        scores.append(dynpred.score_model(mid, samples, dataset, spec, assoc, landmarks,
                                          dic_value, seed=seed, **options))
    prefix = _out_prefix(cfg)
    out_path = f"{prefix}_scores.csv"
    header = ["model", "dic", *[f"cvdcl@{t:g}" for t in landmarks],
              *[f"n@{t:g}" for t in landmarks]]
    md.write_csv(out_path, header, (
        [s.model, repr(s.dic), *[repr(v) for v in s.cvdcl], *[str(n) for n in s.n_at_risk]]
        for s in scores))
    return [out_path]


def _history_for(cfg, dataset, subject_key, landmark_key):
    sid = _get(cfg, subject_key)
    t = _get(cfg, landmark_key, _number)
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
    horizon = _get(cfg, "predict.horizon", _number, dynpred.DEFAULT_T_MAX)
    points = _get(cfg, "predict.points", int, 50)
    if points < 1:
        raise ConfigError(f"predict.points must be a positive count, got {points}")
    us = history.t + horizon * np.arange(points) / max(points - 1, 1)
    pis = dynpred.pi_curve(history, us, samples, spec, assoc, seed=_get(cfg, "seed", _natural),
                           **_options(cfg, g_pi=("predict.g_pi", int),
                                      warmup=("predict.warmup", int)))
    prefix = _out_prefix(cfg)
    out_path = f"{prefix}_pi.csv"
    md.write_csv(out_path, ["u", "pi"],
                 ([repr(float(u)), repr(float(p))] for u, p in zip(us, pis)))
    return [out_path]


def cmd_schedule(cfg) -> list:
    dataset = _load_dataset(cfg)
    spec, assoc = build_model(cfg, observed_times=dataset.observed_times())
    samples = _load_samples(cfg, spec, "schedule.draws")
    history = _history_for(cfg, dataset, "schedule.subject", "schedule.landmark")
    config = dynpred.ScheduleConfig(seed=_get(cfg, "seed", _natural), **_options(
        cfg, kappa=("schedule.kappa", _number), t_max=("schedule.t_max", _number),
        grid_size=("schedule.grid_size", int), n_outer=("schedule.outer", int),
        n_inner=("schedule.inner", int), re_warmup=("schedule.warmup", int)))
    plan = dynpred.schedule_next(history, samples, spec, assoc, config)
    prefix = _out_prefix(cfg)
    out_path = f"{prefix}_schedule.csv"
    write_schedule_csv(plan, out_path)
    return [out_path]


def write_schedule_csv(plan: dynpred.SchedulePlan, path) -> None:
    md.write_csv(path, SCHEDULE_HEADER, (
        [repr(float(plan.landmark)), repr(float(plan.t_up - plan.landmark)),
         repr(float(u)), repr(r.estimate), repr(r.lower), repr(r.upper),
         repr(float(plan.pi[k])), 1 if plan.selected is not None and u == plan.selected else 0]
        for k, (u, r) in enumerate(zip(plan.grid, plan.ekl))))


def read_schedule_csv(path):
    """Rebuild the schedule report: (landmark, t_up, grid, ekl, pi, selected)."""
    rows = [row for _, row in md.read_csv(path, SCHEDULE_HEADER)][1:]
    landmark = float(rows[0][0])
    t_up = landmark + float(rows[0][1])
    grid = np.array([float(r[2]) for r in rows])
    ekl = tuple(dynpred.EklResult(float(r[3]), float(r[4]), float(r[5])) for r in rows)
    pi = np.array([float(r[6]) for r in rows])
    chosen = [float(r[2]) for r in rows if r[7] == "1"]
    return landmark, t_up, grid, ekl, pi, (chosen[0] if chosen else None)


def read_pi_csv(path):
    """(u, pi) arrays from a conditional-survival curve report."""
    rows = [row for _, row in md.read_csv(path, ["u", "pi"])][1:]
    return (np.array([float(r[0]) for r in rows]),
            np.array([float(r[1]) for r in rows]))


def read_scores_csv(path):
    """Model scores: list of (model, dic, {t: cvdcl}, {t: n_at_risk})."""
    header, *rows = [row for _, row in md.read_csv(path, ["model", "dic"])]
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
        cfg = _ReadKeys(load_config(args.config))
        emitted = run(RunConfig(args.command, cfg))
    except (JmschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key in [k for k in cfg if k not in cfg.read]:
        print(f"warning: config key {key!r} is not read by {args.command}", file=sys.stderr)
    for path in emitted:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
