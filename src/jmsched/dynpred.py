"""Dynamic individualized prediction and next-measurement scheduling.

Given a fitted joint model and a subject event-free at landmark t, this
module estimates the conditional survival curve, scores competing models by
their cross-validated conditional predictive density at t, and picks the next
measurement time by maximizing the expected information gain about the
residual event time subject to a conditional-survival constraint.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import expit, logsumexp

from . import model as md
from .errors import ConfigError, DomainError
from .mcmc import (
    RE_WARMUP,
    PosteriorSamples,
    ThetaBatch,
    _ConditionData,
    _re_mh_draws,
    posterior_mode_re,
)
from .model import SubjectHistory

DEFAULT_T_MAX = 5.0
EVENT_TIME_TOL = 1e-6   # width at which the event-time bisection stops

# RNG stream tags so the independent Monte Carlo schemes never share draws
_PI_STREAM = 1
_EKL_STREAM = 2
_CV_IDX_STREAM = 3
_CV_RE_STREAM = 4
_EKL_U_STREAM = 5


# ---------------------------------------------------------------------------
# Configuration and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleConfig:
    """Knobs of the scheduling Monte Carlo scheme."""

    seed: int
    kappa: float = 0.8
    t_max: float = DEFAULT_T_MAX
    grid_size: int = 5
    n_outer: int = 2000     # outer replications of the information-gain scheme
    n_inner: int = 50       # inner draws for the predictive density
    n_pi: int = 2000        # draws for the conditional survival estimate
    re_warmup: int = RE_WARMUP

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not 0.0 < self.kappa < 1.0:
            raise ConfigError(f"kappa must lie in (0, 1), got {self.kappa}")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be >= 2")
        if not self.t_max > 0:
            raise ConfigError("t_max must be positive")
        _check_counts(n_outer=self.n_outer, n_inner=self.n_inner, n_pi=self.n_pi,
                      re_warmup=self.re_warmup)


def _check_counts(**counts):
    for name, value in counts.items():
        if value < 1:
            raise ConfigError(f"{name} must be a positive count, got {value}")


class EklResult(NamedTuple):
    estimate: float
    lower: float
    upper: float


@dataclass(frozen=True)
class SchedulePlan:
    """Candidate grid with information-gain and survival estimates."""

    landmark: float
    kappa: float
    t_up: float
    grid: np.ndarray
    ekl: tuple
    pi: np.ndarray
    selected: float = None
    advisory: str = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "pi", pi)
        if self.selected is not None:
            k = int(np.nonzero(grid == self.selected)[0][0])
            if self.pi[k] < self.kappa:
                raise ConfigError("selected time violates the survival constraint")


@dataclass(frozen=True)
class ModelScore:
    """Global and landmark-specific predictive scores for one model."""

    model: str
    dic: float
    landmarks: tuple
    cvdcl: tuple
    n_at_risk: tuple

    def __post_init__(self):
        if not len(self.landmarks) == len(self.cvdcl) == len(self.n_at_risk):
            raise ConfigError("landmarks, cvdcl, and n_at_risk must align")


def _stream(seed, *keys):
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *[int(k) for k in keys]])


# ---------------------------------------------------------------------------
# Conditional survival
# ---------------------------------------------------------------------------

class _PiMachine:
    """Shared (theta, b) draws for conditional-survival evaluation.

    The same draws serve every horizon u, so the estimated curve is
    nonincreasing in u and deterministic given the seed.
    """

    def __init__(self, history, samples, spec, assoc, g_pi, seed, warmup):
        _check_counts(g_pi=g_pi, warmup=warmup)
        rng = _stream(seed, _PI_STREAM)
        idx = rng.integers(0, samples.n_draws, size=g_pi)
        self.th = ThetaBatch.from_samples(samples, idx)
        self.t = history.t
        self.cdata = _ConditionData(spec, assoc, history)
        proposal = posterior_mode_re(self.cdata, samples.mean_parameters(spec))
        self.b = _re_mh_draws(self.cdata, self.th, proposal, rng, warmup)

    def pi(self, u: float) -> float:
        if u < self.t:
            raise DomainError(f"conditional survival needs u >= t, got u={u} < t={self.t}")
        if u == self.t:
            return 1.0
        cum = self.cdata.cum_hazard(self.b, self.th, u, lower=self.t)
        return float(np.mean(np.exp(-cum)))


def conditional_survival(history: SubjectHistory, u: float, samples: PosteriorSamples,
                         spec, assoc, g_pi: int = 2000, seed: int = 0,
                         warmup: int = RE_WARMUP) -> float:
    """pi(u | t): survival past u given survival past t and the history."""
    return float(pi_curve(history, [u], samples, spec, assoc, g_pi, seed, warmup)[0])


def pi_curve(history, us, samples, spec, assoc, g_pi: int = 2000, seed: int = 0,
             warmup: int = RE_WARMUP) -> np.ndarray:
    """Conditional survival at several horizons with common draws."""
    machine = _PiMachine(history, samples, spec, assoc, g_pi, seed, warmup)
    return np.array([machine.pi(float(u)) for u in us])


# ---------------------------------------------------------------------------
# Cross-validated dynamic conditional likelihood
# ---------------------------------------------------------------------------

def cv_dcl(samples: PosteriorSamples, dataset: md.Dataset, t: float, spec, assoc,
           n_theta_draws: int = None, n_re_draws: int = 25, seed: int = 0,
           warmup: int = RE_WARMUP) -> float:
    """Mean conditional predictive log density over subjects still at risk at t.

    For each subject with T_i > t the conditional density
    p(T_i, delta_i | T_i > t, measurements up to t, theta) is averaged over
    ``n_re_draws`` fresh conditional random-effect draws per posterior draw,
    and the per-subject predictive density is the harmonic-mean combination
    over posterior draws (conditional predictive ordinate).  Higher is better.
    """
    _check_counts(n_re_draws=n_re_draws, warmup=warmup)
    if n_theta_draws is not None:
        _check_counts(n_theta_draws=n_theta_draws)
    at_risk = [s for s in dataset.subjects if s.event_time > t]
    n_t = len(at_risk)
    if n_t == 0:
        raise DomainError(f"no subjects at risk at landmark t={t}")
    n_avail = samples.n_draws
    rng_idx = _stream(seed, _CV_IDX_STREAM)
    if n_theta_draws is None or n_theta_draws >= n_avail:
        idx = np.arange(n_avail)
    else:
        idx = rng_idx.integers(0, n_avail, size=n_theta_draws)
    m = int(n_re_draws)
    th = ThetaBatch.from_samples(samples, np.repeat(idx, m))
    theta_hat = samples.mean_parameters(spec)

    total = 0.0
    for subject in at_risk:
        history = SubjectHistory.from_subject(subject, t)
        cdata = _ConditionData(spec, assoc, history)
        proposal = posterior_mode_re(cdata, theta_hat)
        rng_i = _stream(seed, _CV_RE_STREAM, zlib.crc32(subject.id.encode()))
        b = _re_mh_draws(cdata, th, proposal, rng_i, warmup)
        ll = -cdata.cum_hazard(b, th, subject.event_time, lower=t)
        if subject.event:
            ll = ll + cdata.log_hazard_at(subject.event_time, b, th)
        per_theta = logsumexp(ll.reshape(-1, m), axis=1) - math.log(m)
        log_cpo = -(logsumexp(-per_theta) - math.log(idx.size))
        total += float(log_cpo)
    return total / n_t


# ---------------------------------------------------------------------------
# Event-time simulation by inversion
# ---------------------------------------------------------------------------

def _event_time_edges(cdata, u: float, cap: float) -> np.ndarray:
    """Bracketing grid: doubled horizons plus hazard knots, knot-free cells."""
    points = {u, cap}
    h = 1.0
    while u + h < cap:
        points.add(u + h)
        h *= 2.0
    points.update(c for c in cdata.spec.hazard_breakpoints if u < c < cap)
    return np.array(sorted(points))


def _event_time_batch(cdata, th: ThetaBatch, b: np.ndarray, rng, cap: float):
    """Inversion draws T* with S(T*)/S(u) = v for every row, where u is
    ``cdata.history.t``; (times, capped)."""
    u = cdata.history.t
    size = th.size
    v = rng.random(size)
    with np.errstate(divide="ignore"):
        target = -np.log(v)
    edges = _event_time_edges(cdata, u, cap)
    n_edges = edges.size
    cum = np.zeros((size, n_edges))
    for j in range(1, n_edges):
        cum[:, j] = cum[:, j - 1] + cdata.cum_hazard(b, th, edges[j], lower=edges[j - 1])
    first = np.sum(cum < target[:, None], axis=1)
    capped = first >= n_edges
    cell = np.clip(first, 1, n_edges - 1)
    lo = edges[cell - 1].copy()
    hi = edges[cell].copy()
    acc = cum[np.arange(size), cell - 1]
    lo[capped] = hi[capped] = cap
    mid = 0.5 * (lo + hi)
    # a row is done at EVENT_TIME_TOL width or, past about 8.6e9, where no float lies between
    while np.any((hi - lo > EVENT_TIME_TOL) & (lo < mid) & (mid < hi)):
        inc = cdata.cum_hazard_rowwise(b, th, lo, mid)
        go = (acc + inc) < target
        acc = np.where(go, acc + inc, acc)
        lo = np.where(go, mid, lo)
        hi = np.where(go, hi, mid)
        mid = 0.5 * (lo + hi)
    return 0.5 * (lo + hi), capped


def simulate_event_time(theta: md.Parameters, spec, assoc, covariates, b, u: float,
                        rng, cap: float = None):
    """One event time past u by inversion: draw v ~ U(0,1), solve
    S(T*)/S(u) = v by bracketing and bisection.  Returns (time, capped);
    capped means the survival ratio never fell to v before the cap."""
    if cap is None:
        cap = u + 100.0 * DEFAULT_T_MAX
    cdata = _ConditionData(spec, assoc, SubjectHistory(covariates, (), (), u))
    th = ThetaBatch.from_parameters(theta, 1)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    times, capped = _event_time_batch(cdata, th, b, rng, cap)
    return float(times[0]), bool(capped[0])


def simulate_future_measurement(spec, subject, b, theta: md.Parameters, u: float, rng):
    """One draw of the longitudinal outcome at time u from the mixed model."""
    eta = md.linear_predictor(spec.longitudinal, subject, b, theta.beta, u)
    return spec.longitudinal.family.sample(rng, eta, theta.phi)


# ---------------------------------------------------------------------------
# Expected information gain for the next measurement
# ---------------------------------------------------------------------------

def _ekl_draws(history, us, samples, spec, assoc, config: ScheduleConfig) -> np.ndarray:
    """Per-replication values of the information-gain scheme, one row per time in ``us``."""
    t = history.t
    us = [float(u) for u in us]
    if not us or not all(u > t for u in us):
        raise DomainError(f"candidate times must be given and exceed the landmark t={t}, "
                          f"got {us}")
    rng = _stream(config.seed, _EKL_STREAM)
    n_outer, n_inner = config.n_outer, config.n_inner
    gaussian = spec.longitudinal.family.name == "gaussian"
    cdata_t = _ConditionData(spec, assoc, history)
    proposal = posterior_mode_re(cdata_t, samples.mean_parameters(spec))

    # one landmark draw (theta_a, b_a) per replication gives both y(u) and T*
    g = samples.n_draws
    th_a = ThetaBatch.from_samples(samples, rng.integers(0, g, size=n_outer))
    th_c = ThetaBatch.from_samples(samples, rng.integers(0, g, size=n_outer * n_inner))
    b_a = _re_mh_draws(cdata_t, th_a, proposal, rng, config.re_warmup)
    t_star, _ = _event_time_batch(cdata_t, th_a, b_a, rng, cap=t + 100.0 * config.t_max)
    noise = rng.standard_normal(n_outer) if gaussian else rng.random(n_outer)

    values = np.empty((len(us), n_outer))
    for k, u in enumerate(us):
        eta_u = md.trajectory_features(cdata_t.point(u, ("eta",)), th_a.beta, b_a)["eta"][0]
        y_u = (eta_u + np.sqrt(th_a.phi) * noise if gaussian
               else (noise < expit(eta_u)).astype(float))

        # random effects given the augmented data and survival past u, from a
        # stream of the seed alone, so a value does not depend on the other times
        cdata_u = _ConditionData(spec, assoc, dataclasses.replace(history, t=u))
        b_c = _re_mh_draws(cdata_u, th_c, proposal, _stream(config.seed, _EKL_U_STREAM),
                           config.re_warmup, extra=(u, np.repeat(y_u, n_inner)))

        # log predictive density of t_star under the augmented information set,
        # which counts only if it lands past u; each of the n_outer times serves
        # the n_inner rows that follow it
        t_out = np.maximum(t_star, u)
        lh = cdata_u.log_hazard_rowwise(t_out, b_c, th_c, repeats=n_inner)
        hi_edge = max(float(np.max(t_star)), u)
        edges = np.unique(np.concatenate(
            [[u], [c for c in spec.hazard_breakpoints if u < c < hi_edge], [hi_edge]]))
        cum_edges = np.zeros((th_c.size, edges.size))
        for j in range(1, edges.size):
            cum_edges[:, j] = cum_edges[:, j - 1] + cdata_u.cum_hazard(
                b_c, th_c, edges[j], lower=edges[j - 1])
        pos = np.clip(np.searchsorted(edges, t_out, side="right") - 1, 0, edges.size - 1)
        base = cum_edges[np.arange(th_c.size), np.repeat(pos, n_inner)]
        remainder = cdata_u.cum_hazard_rowwise(b_c, th_c, edges[pos], t_out, repeats=n_inner)
        log_ratio = lh - (base + remainder)
        mean = logsumexp(log_ratio.reshape(n_outer, n_inner), axis=1) - math.log(n_inner)
        values[k] = np.where(t_star > u, mean, 0.0)
    return values


def ekl(history, us, samples, spec, assoc, config: ScheduleConfig) -> tuple:
    """Expected information gain from measuring at each time in ``us``: one
    ``EklResult`` per time.

    ``lower`` and ``upper`` are the 2.5th and 97.5th percentiles of the
    per-replication values: their spread, not an interval for the estimate
    (a mean).  Replications whose simulated event comes before u count as 0,
    so ``upper`` is often exactly 0.0.  Only the numerator term of the
    information-gain ratio is computed, so values are comparable across
    candidate times for one subject and landmark but may be negative.  One
    landmark draw of (theta, b) per replication, made once for all of ``us``,
    gives both y(u) and the residual event time T*, and every u draws from
    streams of ``config.seed`` alone: a value does not depend on the other
    times, and ``ekl(history, [plan.grid[k]], ...)[0]`` is ``plan.ekl[k]``.
    """
    values = _ekl_draws(history, us, samples, spec, assoc, config)
    lower, upper = np.percentile(values, [2.5, 97.5], axis=1)
    return tuple(EklResult(float(m), float(lo), float(hi))
                 for m, lo, hi in zip(values.mean(axis=1), lower, upper))


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def _select_candidate(ekl_values: np.ndarray, pi_values: np.ndarray, kappa: float):
    """Index of the feasible grid point with maximal gain, earliest on ties."""
    feasible = pi_values >= kappa
    if not np.any(feasible):
        return None
    masked = np.where(feasible, ekl_values, -np.inf)
    return int(np.argmax(masked))


def _upper_limit(machine: _PiMachine, t: float, config: ScheduleConfig) -> float:
    """min of the kappa-crossing time of the survival curve and t + t_max."""
    horizon = t + config.t_max
    if machine.pi(horizon) >= config.kappa:
        return horizon
    lo, hi = t, horizon
    mid = t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        p = machine.pi(mid)
        if abs(p - config.kappa) <= 1e-3:
            return mid
        if p > config.kappa:
            lo = mid
        else:
            hi = mid
    return lo


def schedule_next(history: SubjectHistory, samples: PosteriorSamples, spec, assoc,
                  config: ScheduleConfig) -> SchedulePlan:
    """Plan the next measurement for a subject event-free at the landmark."""
    t = history.t
    machine = _PiMachine(history, samples, spec, assoc, config.n_pi, config.seed,
                         config.re_warmup)

    t_up = _upper_limit(machine, t, config)
    span = min(t_up - t, config.t_max)
    if span <= 1e-3:
        grid = t + max(span, 1e-3) * np.arange(1, config.grid_size + 1) / config.grid_size
        return SchedulePlan(
            landmark=t, kappa=config.kappa, t_up=t + span, grid=grid,
            ekl=tuple(EklResult(0.0, 0.0, 0.0) for _ in grid),
            pi=np.array([machine.pi(float(v)) for v in grid]),
            selected=None,
            advisory="intervene: survival constraint immediately binding",
        )

    step = span / config.grid_size
    grid = t + step * np.arange(1, config.grid_size + 1)
    pi_values = np.array([machine.pi(float(v)) for v in grid])
    results = ekl(history, grid, samples, spec, assoc, config)
    estimates = np.array([r.estimate for r in results])
    choice = _select_candidate(estimates, pi_values, config.kappa)
    return SchedulePlan(
        landmark=t, kappa=config.kappa, t_up=t + span, grid=grid,
        ekl=results, pi=pi_values,
        selected=float(grid[choice]) if choice is not None else None,
        advisory=None if choice is not None
        else "intervene: survival constraint immediately binding",
    )


# ---------------------------------------------------------------------------
# Model scoring
# ---------------------------------------------------------------------------

def score_model(name: str, samples: PosteriorSamples, dataset: md.Dataset, spec, assoc,
                landmarks, dic_value: float, **cv_kwargs) -> ModelScore:
    """Bundle DIC with the landmark-specific predictive scores."""
    landmarks = tuple(float(t) for t in landmarks)
    cvdcl, n_at_risk = [], []
    for t in landmarks:
        cvdcl.append(cv_dcl(samples, dataset, t, spec, assoc, **cv_kwargs))
        n_at_risk.append(sum(1 for s in dataset.subjects if s.event_time > t))
    return ModelScore(model=name, dic=float(dic_value), landmarks=landmarks,
                      cvdcl=tuple(cvdcl), n_at_risk=tuple(n_at_risk))
