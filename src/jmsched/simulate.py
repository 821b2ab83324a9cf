"""Synthetic datasets from a fully specified joint model.

Event times come from the same inversion sampler used for prediction, so a
simulated cohort follows the model exactly and parameter-recovery and
scheduling tests have a ground truth to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as md
from .dynpred import simulate_event_time, simulate_future_measurement
from .errors import ConfigError, DataError

# covariate kind -> number of parameters it takes
COVARIATE_KINDS = {"bernoulli": 1, "normal": 2, "uniform": 2, "constant": 1}


@dataclass(frozen=True)
class SimulationDesign:
    """Everything needed to draw a cohort: truth, visit plan, censoring."""

    n_subjects: int
    parameters: md.Parameters
    spec: md.JointModelSpec
    assoc: md.AssociationForm
    visit_times: tuple
    seed: int
    visit_jitter: float = 0.1
    censor_admin: float = None        # administrative censoring time, None = never
    censor_rate: float = None         # independent exponential censoring rate
    covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be >= 1")
        if not self.visit_times:
            raise ConfigError("the visit schedule is empty")
        if self.censor_admin is not None and not self.censor_admin > 0:
            raise ConfigError("administrative censoring time must be positive")
        if self.censor_rate is not None and not self.censor_rate > 0:
            raise ConfigError("censoring rate must be positive")
        if self.visit_jitter < 0:
            raise ConfigError("visit jitter must be nonnegative")
        for name, kind in self.covariates.items():
            if kind[0] not in COVARIATE_KINDS:
                raise ConfigError(
                    f"covariate {name!r} has unknown kind {kind[0]!r}; "
                    f"valid: {', '.join(COVARIATE_KINDS)}")
            if len(kind) - 1 != COVARIATE_KINDS[kind[0]]:
                raise ConfigError(
                    f"covariate {name!r} of kind {kind[0]!r} takes "
                    f"{COVARIATE_KINDS[kind[0]]} parameter(s), got {len(kind) - 1}")
        theta, lspec = self.parameters, self.spec.longitudinal
        for block, got, want in (("beta", theta.beta.size, lspec.n_fixed),
                                 ("gamma", theta.gamma.size, len(self.spec.hazard_covariates)),
                                 ("D", theta.n_random, lspec.n_random)):
            if got != want:
                raise ConfigError(f"the model needs {want} {block} value(s), got {got}")
        object.__setattr__(self, "visit_times", tuple(float(v) for v in self.visit_times))


def _draw_covariates(design: SimulationDesign, rng) -> dict:
    out = {}
    for name, kind in design.covariates.items():
        tag = kind[0]
        if tag == "bernoulli":
            out[name] = float(rng.random() < kind[1])
        elif tag == "normal":
            out[name] = float(kind[1] + kind[2] * rng.standard_normal())
        elif tag == "uniform":
            out[name] = float(rng.uniform(kind[1], kind[2]))
        else:
            out[name] = float(kind[1])
    return out


def generate_dataset(design: SimulationDesign) -> md.Dataset:
    """Draw the cohort; per-subject RNG substreams keep generation order-free."""
    theta = design.parameters
    chol = np.linalg.cholesky(theta.D)
    subjects = []
    for i in range(design.n_subjects):
        rng = np.random.default_rng([design.seed, i])
        covs = _draw_covariates(design, rng)
        b = chol @ rng.standard_normal(theta.n_random)
        cap = 100.0 * max(design.censor_admin or 0.0, max(design.visit_times), 5.0)
        t_star, _ = simulate_event_time(theta, design.spec, design.assoc, covs, b,
                                        0.0, rng, cap=cap)
        censor = np.inf
        if design.censor_admin is not None:
            censor = design.censor_admin
        if design.censor_rate is not None:
            censor = min(censor, rng.exponential(1.0 / design.censor_rate))
        observed = min(t_star, censor)
        event = int(t_star <= censor)

        visits = np.array(design.visit_times, dtype=float)
        if design.visit_jitter > 0:
            visits = visits + rng.uniform(-design.visit_jitter, design.visit_jitter,
                                          size=visits.size)
        visits = np.unique(np.clip(visits, 0.0, None))
        visits = visits[visits <= observed]
        holder = md.SubjectHistory(covs, np.empty(0), np.empty(0), t=0.0)
        values = np.array([
            simulate_future_measurement(design.spec, holder, b, theta, float(v), rng)
            for v in visits
        ])
        subjects.append(md.Subject(
            id=f"s{i:04d}", times=visits, y=values,
            event_time=float(observed), event=event, covariates=covs,
        ))
    return md.Dataset(tuple(subjects))


# ---------------------------------------------------------------------------
# Truth manifest
# ---------------------------------------------------------------------------

def truth_report(design: SimulationDesign) -> str:
    """Flat key=value manifest of every scalar in the true parameter vector."""
    names, values = md.flatten(design.parameters)
    return "".join(f"{name}={float(value)!r}\n" for name, value in zip(names, values))


def parse_truth(text: str) -> dict:
    """The parameter values of a manifest written by ``truth_report``."""
    pairs = md.key_values(text.splitlines(), "truth manifest", DataError)
    return {key: md.parse_float(value, "truth manifest", ln, key) for ln, key, value in pairs}
