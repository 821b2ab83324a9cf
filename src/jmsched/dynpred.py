"""Dynamic individualized prediction and next-measurement scheduling.

Given a fitted joint model and a subject event-free at landmark t, this
module estimates the conditional survival curve, scores competing models by
their cross-validated conditional predictive density at t, and picks the next
measurement time by maximizing the expected information gain about the
residual event time subject to a conditional-survival constraint.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import expit, logsumexp

from . import model as md
from .errors import ConfigError, DomainError, NumericError
from .mcmc import (
    RE_SWEEPS,
    SLICE_NODE_BUDGET,
    PosteriorSamples,
    ThetaBatch,
    _ConditionData,
    _log_weights,
    _re_mh_draws,
    _weighted_draws,
    posterior_mode_re,
)
from .model import SubjectHistory
from .numerics import GK15, span_cells

DEFAULT_T_MAX = 5.0
EVENT_TIME_TOL = 1e-6   # event-time Newton step, relative to max(1, T), that ends a row
EVENT_TIME_MAX_STEPS = 100
HAZARD_NODE_BUDGET = 1 << 18   # nodes x draws in one cv_dcl or simulate chunk
PI_BISECTION_TOL = 1e-3   # |pi - kappa| that ends the bisection for t_up

# RNG stream tags so the independent Monte Carlo schemes never share draws
_PI_STREAM = 1
_EKL_STREAM = 2
_CV_IDX_STREAM = 3
_CV_RE_STREAM = 4
_EKL_POOL_STREAM = 5


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
    n_outer: int = 2000     # landmark draws: pi, t_up and the outer information-gain replications
    n_inner: int = 50       # landmark pool that every outer replication reweights

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if not 0.0 < self.kappa < 1.0:
            raise ConfigError(f"kappa must lie in (0, 1), got {self.kappa}")
        if self.grid_size < 2:
            raise ConfigError("grid_size must be >= 2")
        # the event-time cap of the information-gain scheme is t + 100 * t_max
        if not (self.t_max > 0 and math.isfinite(100.0 * self.t_max)):
            raise ConfigError(f"t_max must be positive with 100 * t_max finite, got {self.t_max}")
        _check_counts(n_outer=self.n_outer, n_inner=self.n_inner)


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
        if self.selected is not None and not np.any(pi[grid == self.selected] >= self.kappa):
            raise ConfigError(f"selected time {self.selected} is off the grid or has pi < kappa")


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
    """Landmark draws (theta, b) from p(theta, b | Y(t), T* > t), with the
    condition (a stack of one history) and the mode-centred proposal they
    were drawn with; b is (1, g_pi, q).

    Each theta row's b is the state of the conditional-RE kernel
    ``_re_mh_draws`` after RE_SWEEPS sweeps.  The same draws serve every
    horizon u, so the estimated curve is nonincreasing in u and deterministic
    given the seed.  In a plan they are also the outer replications of the
    information-gain scheme.
    """

    def __init__(self, history, samples, spec, assoc, g_pi, seed):
        _check_counts(g_pi=g_pi)
        rng = _stream(seed, _PI_STREAM)
        idx = rng.integers(0, samples.n_draws, size=g_pi)
        self.th = ThetaBatch.from_samples(samples, idx)
        self.t = history.t
        self.cdata = _ConditionData(spec, assoc, [history])
        self.proposal = posterior_mode_re(self.cdata, samples.mean_parameters(spec))
        self.b = _re_mh_draws(self.cdata, self.th, self.proposal, [rng], RE_SWEEPS,
                              names=["the history"])

    def curve(self, us) -> np.ndarray:
        """pi at every horizon in ``us``, from one running hazard over
        {t} and ``us`` and the knots between them."""
        us = np.asarray(us, dtype=float)
        if np.any(us < self.t):
            raise DomainError(f"conditional survival needs u >= t, got {us.min()} < {self.t}")
        edges = _edges(self.cdata.spec, self.t, us)
        cum = _running_hazard(self.cdata, self.b, self.th, edges)[0]
        return np.exp(-cum).mean(axis=0)[np.searchsorted(edges, us)]

    def pi(self, u: float) -> float:
        return float(self.curve([u])[0])


def conditional_survival(history: SubjectHistory, u: float, samples: PosteriorSamples,
                         spec, assoc, g_pi: int = 2000, seed: int = 0) -> float:
    """pi(u | t): survival past u given survival past t and the history."""
    return float(pi_curve(history, [u], samples, spec, assoc, g_pi, seed)[0])


def pi_curve(history, us, samples, spec, assoc, g_pi: int = 2000, seed: int = 0) -> np.ndarray:
    """Conditional survival at several horizons with common draws."""
    return _PiMachine(history, samples, spec, assoc, g_pi, seed).curve(us)


# ---------------------------------------------------------------------------
# Cross-validated dynamic conditional likelihood
# ---------------------------------------------------------------------------

def cv_dcl(samples: PosteriorSamples, dataset: md.Dataset, t: float, spec, assoc,
           n_theta_draws: int = None, n_re_draws: int = 25, seed: int = 0) -> float:
    """Mean conditional predictive log density over subjects still at risk at t.

    For each subject with T_i > t the conditional density
    p(T_i, delta_i | T_i > t, measurements up to t, theta) is estimated per
    posterior draw by self-normalized importance sampling: ``n_re_draws``
    draws of b from the Student-t proposal at the mode of
    p(b | Y(t), T* > t, theta-hat) weigh the conditional target given survival
    past T_i and delta_i there, and that given survival past t; the density is
    the ratio of their sums.  The per-subject predictive density is the
    harmonic-mean combination over posterior draws (conditional predictive
    ordinate).  Higher is better.

    The subjects at risk are scored in chunks of stacked histories, one mode
    search and one proposal draw each, with as many subjects as keep its
    nodes x rows within HAZARD_NODE_BUDGET; the targets run in slices.  Each
    subject draws on its own stream and each design row is its own time's, so
    a subject's value does not depend on the chunks or on the other subjects.
    A posterior draw whose weights are all zero is a NumericError.
    """
    _check_counts(n_re_draws=n_re_draws)
    if n_theta_draws is not None:
        _check_counts(n_theta_draws=n_theta_draws)
    at_risk = [s for s in dataset.subjects if s.event_time > t]
    if not at_risk:
        raise DomainError(f"no subjects at risk at landmark t={t}")
    if n_theta_draws is None or n_theta_draws >= samples.n_draws:
        idx = np.arange(samples.n_draws)
    else:
        idx = _stream(seed, _CV_IDX_STREAM).integers(0, samples.n_draws, size=n_theta_draws)
    th = ThetaBatch.from_samples(samples, idx)
    theta_hat = samples.mean_parameters(spec)
    histories = [SubjectHistory.from_subject(s, t) for s in at_risk]
    # a chunk's widest design: the nodes of some [0, T_i], or the measurements
    ends = span_cells(0.0, [s.event_time for s in at_risk], spec.hazard_breakpoints)
    width = max(GK15.nodes.size * np.bincount(ends[2]).max(), *(h.times.size for h in histories))
    size = max(1, HAZARD_NODE_BUDGET // (width * th.size * n_re_draws))

    total = 0.0
    for start in range(0, len(at_risk), size):
        chunk, stack = at_risk[start:start + size], histories[start:start + size]
        cdata = _ConditionData(spec, assoc, stack)
        later = [replace(h, t=s.event_time) for h, s in zip(stack, chunk)]
        follow = _ConditionData(spec, assoc, later, events=[s.event == 1 for s in chunk])
        proposal = posterior_mode_re(cdata, theta_hat)
        rngs = [_stream(seed, _CV_RE_STREAM, zlib.crc32(s.id.encode())) for s in chunk]
        b, _, log_norm = _weighted_draws(cdata, th, proposal, rngs, n_re_draws,
                                         [f"subject {s.id!r}" for s in chunk])
        per_theta = logsumexp(_log_weights(follow, th, proposal, b, n_re_draws) - log_norm, axis=2)
        log_cpo = -(logsumexp(-per_theta, axis=1) - math.log(idx.size))
        total = sum(log_cpo.tolist(), total)
    return total / len(at_risk)


# ---------------------------------------------------------------------------
# Event-time simulation by inversion
# ---------------------------------------------------------------------------

def _event_time_edges(spec, u: float, cap: float) -> np.ndarray:
    """Bracketing grid: doubled horizons plus hazard knots, knot-free cells."""
    horizons = u + 2.0 ** np.arange(math.ceil(math.log2(max(cap - u, 1.0))) + 1)
    return _edges(spec, u, np.append(horizons[horizons < cap], cap))


def _edges(spec, t: float, times) -> np.ndarray:
    """t, the given times and the hazard knots between them, sorted and unique:
    the edges of knot-free cells."""
    hi = np.max(times, initial=t)
    knots = [c for c in spec.hazard_breakpoints if t < c < hi]
    return np.unique(np.concatenate([[t], times, knots]))


def _running_hazard(cdata, b, th, edges) -> np.ndarray:
    """Hazard integral from edges[0] to every edge, one column per edge after
    the axes of b.shape[:-1], from designs over the knot-free cells between
    them, each over as many cells as fit in SLICE_NODE_BUDGET nodes x rows;
    an overflow is +inf."""
    step = max(1, SLICE_NODE_BUDGET // (GK15.nodes.size * b[..., 0].size))
    cells = [np.zeros(b.shape[:-1] + (1,))]
    cells += [cdata.cell_cum_hazard(b, th, edges[i:i + step + 1])
              for i in range(0, edges.size - 1, step)]
    with np.errstate(over="ignore"):
        return np.cumsum(np.concatenate(cells, axis=-1), axis=-1)


def _event_time_batch(cdata, th: ThetaBatch, b: np.ndarray, v: np.ndarray, cap: float):
    """Inversion draws T* with S(T*)/S(u) = v for every row of b (every
    (history, draw) of ``cdata``), where u is ``cdata.t`` and v
    (shaped b.shape[:-1]) holds the uniforms; (times, capped), shaped as v.
    The running hazard over the cells of ``_event_time_edges`` finds each
    row's cell [lo, hi]; inside it, Newton on the hazard solves
    Lambda(lo -> T) = -log v - Lambda(u -> lo), bisecting where a step would
    leave the row's bracket, until a step is at most EVENT_TIME_TOL * max(1, T)
    or no float lies strictly inside the bracket.  A row's time does not
    depend on the other rows."""
    u = cdata.t
    with np.errstate(divide="ignore"):
        target = -np.log(v)
    edges = _event_time_edges(cdata.spec, u, cap)
    cum = _running_hazard(cdata, b, th, edges)
    at = lambda k: np.take_along_axis(cum, k[..., None], axis=-1)[..., 0]
    first = np.sum(cum < target[..., None], axis=-1)
    capped = first >= edges.size
    cell = np.clip(first, 1, edges.size - 1)
    lo, hi = edges[cell - 1], edges[cell]
    start = lo
    goal = target - at(cell - 1)
    times = np.where(capped, cap, np.nan)
    active = ~capped
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        guess = lo + (hi - lo) * (goal / (at(cell) - at(cell - 1)))
        for _ in range(EVENT_TIME_MAX_STEPS):
            tol = EVENT_TIME_TOL * np.maximum(1.0, times)
            mid = 0.5 * (lo + hi)
            split = (lo < mid) & (mid < hi)
            inside = np.isfinite(guess) & (lo < guess) & (guess < hi)
            # a Newton point within tol of T that rounds onto the bracket ends the row at T
            stay = ~inside & (np.abs(guess - times) <= tol)
            step = np.where(inside, guess, np.where(split, mid, hi))
            done = ~split | stay | (np.abs(step - times) <= tol)
            times = np.where(active & ~stay, step, times)
            active &= ~done
            if not active.any():
                break
            f = cdata.cum_hazard_rowwise(b, th, start, times) - goal
            lo = np.where(active & (f < 0.0), times, lo)
            hi = np.where(active & (f > 0.0), times, hi)
            guess = times - f / np.exp(cdata.log_hazard_rowwise(times, b, th))
    return times, capped


def simulate_event_time(theta: md.Parameters, spec, assoc, covariates, b, u: float,
                        rng, cap: float = None):
    """One event time past u by inversion: draw v ~ U(0,1), solve
    S(T*)/S(u) = v by safeguarded Newton inside the knot-free cell that
    brackets it (``_event_time_batch``).  Returns (time, capped); capped
    means the survival ratio never fell to v before the cap."""
    if cap is None:
        cap = u + 100.0 * DEFAULT_T_MAX
    cdata = _ConditionData(spec, assoc, [SubjectHistory(covariates, (), (), u)])
    th = ThetaBatch.from_parameters(theta, 1)
    b = np.reshape(np.asarray(b, dtype=float), (1, 1, -1))
    times, capped = _event_time_batch(cdata, th, b, rng.random((1, 1)), cap)
    return float(times[0, 0]), bool(capped[0, 0])


def simulate_future_measurement(spec, subject, b, theta: md.Parameters, u: float, rng):
    """One draw of the longitudinal outcome at time u from the mixed model."""
    eta = md.linear_predictor(spec.longitudinal, subject, b, theta.beta, u)
    return float(spec.longitudinal.family.sample(rng, eta, theta.phi))


# ---------------------------------------------------------------------------
# Expected information gain for the next measurement
# ---------------------------------------------------------------------------

def _ekl_draws(history, us, samples, spec, assoc, config: ScheduleConfig,
               machine: _PiMachine = None) -> np.ndarray:
    """Per-replication values of the information-gain scheme, one row per time
    in ``us``: the log density of T*_i under one landmark pool (theta_j, b_j)
    reweighted by p(y_i(u) | theta_j, b_j) exp(-Lambda_j(t -> u)), or 0 where
    T*_i <= u.  Given (theta, b), y(u) and T* are independent, so that pool
    has the law of (theta, b) given y_i(u) and survival past u.  Replication
    i takes row i of the landmark draw ``machine``: ``schedule_next``'s, or
    the same draw built here when None."""
    t = history.t
    us = [float(u) for u in us]
    if not us or not all(u > t for u in us):
        raise DomainError(f"candidate times must be given and exceed the landmark t={t}, "
                          f"got {us}")
    if machine is None:
        machine = _PiMachine(history, samples, spec, assoc, config.n_outer, config.seed)
    cdata, th_a, b_a = machine.cdata, machine.th, machine.b
    family = spec.longitudinal.family
    gaussian = family.name == "gaussian"

    # the landmark draw (theta_a, b_a) of replication i gives both y_i(u) and T*_i
    rng = _stream(config.seed, _EKL_STREAM)
    times, _ = _event_time_batch(cdata, th_a, b_a, rng.random((1, th_a.size)),
                                 cap=t + 100.0 * config.t_max)
    t_star = times[0]
    noise = rng.standard_normal(th_a.size) if gaussian else rng.random(th_a.size)

    # the pool (theta_j, b_j), j < n_inner, on a stream of its own
    pool_rng = _stream(config.seed, _EKL_POOL_STREAM)
    idx = pool_rng.integers(0, samples.n_draws, size=config.n_inner)
    th_p = ThetaBatch.from_samples(samples, idx)
    b_p = _re_mh_draws(cdata, th_p, machine.proposal, [pool_rng], RE_SWEEPS,
                       names=["the history"])

    # log h_j(T*_i) - Lambda_j(t -> T*_i), shape (n_outer, n_inner); its edges
    # hold no candidate time, so a value does not depend on the other times
    edges = _edges(spec, t, t_star)
    cum = _running_hazard(cdata, b_p, th_p, edges)[0]
    log_dens = (cdata.log_hazard_grid(t_star[None], b_p, th_p)[0]
                - cum[:, np.searchsorted(edges, t_star)].T)

    values = np.empty((len(us), th_a.size))
    for k, u in enumerate(us):
        point = md.Design(spec, ("eta",), history.covariates, np.array([u]))
        eta_a = md.trajectory_features(point, th_a.beta, b_a[0])["eta"][0]
        y_u = (eta_a + np.sqrt(th_a.phi) * noise if gaussian
               else (noise < expit(eta_a)).astype(float))
        eta_p = md.trajectory_features(point, th_p.beta, b_p[0])["eta"][0]
        ll = md.long_log_terms(family, y_u[:, None], eta_p, th_p.phi)
        survive = cdata.cum_hazard(b_p, th_p, u, lower=t)[0]
        numerator = logsumexp(ll + log_dens, axis=1) - logsumexp(ll - survive, axis=1)
        values[k] = np.where(t_star > u, numerator, 0.0)
    return values


def ekl(history, us, samples, spec, assoc, config: ScheduleConfig, *,
        _machine: _PiMachine = None) -> tuple:
    """Expected information gain from measuring at each time in ``us``: one
    ``EklResult`` per time.

    ``lower`` and ``upper`` are the 2.5th and 97.5th percentiles of the
    per-replication values: their spread, not an interval for the estimate (a
    mean), and blind to the error of the pool all replications share.
    Replications whose simulated event comes before u count as 0, so ``upper``
    is often exactly 0.0.  Only the numerator term of the information-gain
    ratio is computed, so values are comparable across candidate times for one
    subject and landmark but may be negative.  Row i of the landmark draw
    that gives a plan's pi and t_up (``config.n_outer`` rows of (theta, b),
    handed over by ``schedule_next`` as ``_machine``) gives y(u) and T* of
    replication i, one pool of ``config.n_inner`` landmark draws their
    predictive density, both for all of ``us``: a value does not depend on
    the other times, and ``ekl(history, [plan.grid[k]], ...)[0]`` is
    ``plan.ekl[k]``.
    """
    values = _ekl_draws(history, us, samples, spec, assoc, config, _machine)
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
    """min of the kappa-crossing time of the survival curve and t + t_max, by
    bisection until |pi - kappa| <= PI_BISECTION_TOL or no float lies strictly
    inside the bracket."""
    horizon = t + config.t_max
    if machine.pi(horizon) >= config.kappa:
        return horizon
    lo, hi = t, horizon
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        p = machine.pi(mid)
        if abs(p - config.kappa) <= PI_BISECTION_TOL:
            return mid
        if p > config.kappa:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo


def schedule_next(history: SubjectHistory, samples: PosteriorSamples, spec, assoc,
                  config: ScheduleConfig) -> SchedulePlan:
    """Plan the next measurement for a subject event-free at the landmark."""
    t = history.t
    machine = _PiMachine(history, samples, spec, assoc, config.n_outer, config.seed)

    t_up = _upper_limit(machine, t, config)
    span = min(t_up - t, config.t_max)
    if span <= 1e-3:
        grid = t + max(span, 1e-3) * np.arange(1, config.grid_size + 1) / config.grid_size
        pi_values = machine.curve(grid)
        results, choice = tuple(EklResult(0.0, 0.0, 0.0) for _ in grid), None
    else:
        grid = t + span / config.grid_size * np.arange(1, config.grid_size + 1)
        pi_values = machine.curve(grid)
        results = ekl(history, grid, samples, spec, assoc, config, _machine=machine)
        estimates = np.array([r.estimate for r in results])
        choice = _select_candidate(estimates, pi_values, config.kappa)
    return SchedulePlan(
        landmark=t, kappa=config.kappa, t_up=t + span, grid=grid, ekl=results, pi=pi_values,
        selected=None if choice is None else float(grid[choice]),
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
