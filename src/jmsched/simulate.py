"""Synthetic datasets from a fully specified joint model.

Event times come from the same inversion sampler used for prediction, so a
simulated cohort follows the model exactly and parameter-recovery and
scheduling tests have a ground truth to compare against.  A cohort is drawn
in two phases: each subject draws its covariates, random effects and
inversion uniform on its own stream, then one inversion over the stacked
subjects gives every event time, and each stream goes on with that
subject's censoring, visit jitter and measurements.  A subject's record
depends only on the seed and its index, not on the other subjects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dynpred
from . import model as md
from .dynpred import _event_time_batch, _event_time_edges, simulate_future_measurement
from .errors import ConfigError, DataError
from .mcmc import ThetaBatch, _ConditionData
from .numerics import GK15

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


def _event_times(design: SimulationDesign, covs: list, b: np.ndarray, v: np.ndarray, cap):
    """Every subject's event time past 0 from its b and inversion uniform v:
    one ``_event_time_batch`` per chunk of stacked histories, a chunk holding
    as many subjects as keep the cells' nodes x rows within HAZARD_NODE_BUDGET;
    (times, capped)."""
    histories = [md.SubjectHistory(c, (), (), 0.0) for c in covs]
    th = ThetaBatch.from_parameters(design.parameters, 1)
    cdata = lambda part: _ConditionData(design.spec, design.assoc, part)
    cells = _event_time_edges(cdata(histories[0]), 0.0, cap).size - 1
    size = max(1, dynpred.HAZARD_NODE_BUDGET // (GK15.nodes.size * cells))
    parts = [_event_time_batch(cdata(histories[k:k + size]), th, b[k:k + size, None],
                               v[k:k + size, None], cap) for k in range(0, len(covs), size)]
    return tuple(np.concatenate(out).ravel() for out in zip(*parts))


def generate_dataset(design: SimulationDesign) -> md.Dataset:
    """Draw the cohort in two phases (see the module docstring); per-subject
    RNG substreams keep generation order-free."""
    theta = design.parameters
    chol = np.linalg.cholesky(theta.D)
    rngs = [np.random.default_rng([design.seed, i]) for i in range(design.n_subjects)]
    covs, b, v = [], [], []
    for rng in rngs:
        covs.append(_draw_covariates(design, rng))
        b.append(chol @ rng.standard_normal(theta.n_random))
        v.append(rng.random())
    cap = 100.0 * max(design.censor_admin or 0.0, max(design.visit_times), 5.0)
    t_stars, cappeds = _event_times(design, covs, np.array(b), np.array(v), cap)
    subjects = []
    for i, (rng, t_star, capped) in enumerate(zip(rngs, t_stars.tolist(), cappeds.tolist())):
        censor = np.inf
        if design.censor_admin is not None:
            censor = design.censor_admin
        if design.censor_rate is not None:
            censor = min(censor, rng.exponential(1.0 / design.censor_rate))
        observed = min(t_star, censor)
        event = int(t_star <= censor and not capped)   # a capped draw is censored there

        visits = np.array(design.visit_times, dtype=float)
        if design.visit_jitter > 0:
            visits = visits + rng.uniform(-design.visit_jitter, design.visit_jitter,
                                          size=visits.size)
        visits = np.unique(np.clip(visits, 0.0, None))
        visits = visits[visits <= observed]
        holder = md.SubjectHistory(covs[i], np.empty(0), np.empty(0), t=0.0)
        values = np.array([
            simulate_future_measurement(design.spec, holder, b[i], theta, float(u), rng)
            for u in visits
        ])
        subjects.append(md.Subject(
            id=f"s{i:04d}", times=visits, y=values,
            event_time=float(observed), event=event, covariates=covs[i],
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
