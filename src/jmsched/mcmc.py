"""Posterior sampling: model fitting, conditional random-effect draws, DIC.

The fitting sampler is Metropolis-within-Gibbs.  An iteration runs a
vectorized random-walk sweep over every subject's random effects; an adaptive
random-walk move on beta; one Metropolis-Hastings move on the hazard block
(gamma_h0, gamma, alpha) proposed from the Newton (IWLS) step of its full
conditional, a concave Poisson-type GLM on the quadrature nodes; a joint
rescale of tau_h and the penalized spline part; location sweeps beta[k] <->
b[:, k]; and conjugate draws of the dispersion, D and the smoothing
parameters.  Step sizes adapt during burn-in only.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.special import gammaln, logsumexp

from . import model as md
from .errors import ConfigError, DataError, NumericError, SpecError
from .numerics import GK15, mapped_nodes, span_nodes

BLOCK_TARGET_RATE = 0.234
ADAPT_WINDOW = 50     # draws between updates of a block proposal's shape
SCALAR_TARGET_RATE = 0.44
RE_CANDIDATES = 8    # candidates per theta row in a sweep of the conditional-RE kernel
RE_SWEEPS = 3        # sweeps of that kernel before the state it keeps
# nodes x draws in one slice of the kernel's target (and in one design of
# dynpred's running hazard): a float64 temporary is then 0.5 MB, within a
# 2 MiB L2 cache that 2^18 spilled
SLICE_NODE_BUDGET = 1 << 16
PROPOSAL_DF = 4.0
MODE_STEP_TOL = 1e-8   # Newton step length, in posterior sd, that ends the mode search
MODE_MAX_STEPS = 100


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSet:
    """Diffuse/conjugate priors for every parameter block."""

    beta_variance: float = 100.0
    gamma_variance: float = 100.0
    alpha_variance: float = 100.0
    phi_shape: float = 0.01
    phi_rate: float = 0.01
    d_df_extra: int = 2              # inverse-Wishart df = q + d_df_extra, identity scale
    tau_shape: float = 1.0           # tau_h ~ Gamma(tau_shape, tau_hdelta)
    tau_delta_shape: float = 1e-3
    tau_delta_rate: float = 1e-3

    def __post_init__(self):
        for name in ("beta_variance", "gamma_variance", "alpha_variance", "phi_shape",
                     "phi_rate", "tau_shape", "tau_delta_shape", "tau_delta_rate"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"prior hyperparameter {name} must be positive")


@dataclass(frozen=True)
class McmcConfig:
    seed: int
    chains: int = 2
    iterations: int = 7000
    burn_in: int = 2000
    thin: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < iterations")


# ---------------------------------------------------------------------------
# Posterior sample container
# ---------------------------------------------------------------------------

@dataclass
class PosteriorSamples:
    """Stacked MCMC draws (all chains, post burn-in, thinned)."""

    beta: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    gamma_h0: np.ndarray
    phi: np.ndarray
    tau_h: np.ndarray
    tau_hdelta: np.ndarray
    D: np.ndarray
    chain: np.ndarray
    iteration: np.ndarray
    ranef: np.ndarray = None          # (G, n_subjects, q) or None
    subject_ids: tuple = ()
    diagnostics: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    @property
    def n_draws(self) -> int:
        return self.beta.shape[0]

    @property
    def n_random(self) -> int:
        return self.D.shape[1]

    def mean_parameters(self, spec: md.JointModelSpec) -> md.Parameters:
        """Posterior means, summed over contiguous columns as ``read_draws_csv``
        lays them out (numpy sums strided ones in another order, other bits)."""
        mean = lambda draws: np.asfortranarray(draws).mean(0)
        return md.Parameters(
            beta=mean(self.beta), phi=float(self.phi.mean()),
            D=self.D.mean(0), gamma=mean(self.gamma), alpha=mean(self.alpha),
            baseline=spec.make_baseline(mean(self.gamma_h0), float(self.tau_h.mean())),
        )

    @classmethod
    def degenerate(cls, theta: md.Parameters, n_draws: int) -> "PosteriorSamples":
        """A synthetic posterior concentrated at one parameter value."""
        rep = lambda a: np.repeat(np.asarray(a, float)[None, ...], n_draws, axis=0)
        return cls(
            beta=rep(theta.beta), gamma=rep(theta.gamma), alpha=rep(theta.alpha),
            gamma_h0=rep(theta.gamma_h0), phi=np.full(n_draws, theta.phi),
            tau_h=np.full(n_draws, theta.tau_h), tau_hdelta=np.ones(n_draws),
            D=rep(theta.D), chain=np.zeros(n_draws, dtype=int),
            iteration=np.arange(n_draws),
        )


# ---------------------------------------------------------------------------
# Theta batches (posterior draws stacked for vectorized prediction)
# ---------------------------------------------------------------------------

class ThetaBatch:
    """Arrays of parameter draws with pre-factored covariance matrices."""

    def __init__(self, beta, gamma, alpha, gamma_h0, phi, D):
        self.beta = np.atleast_2d(np.asarray(beta, float))
        self.gamma = np.atleast_2d(np.asarray(gamma, float))
        self.alpha = np.atleast_2d(np.asarray(alpha, float))
        self.gamma_h0 = np.atleast_2d(np.asarray(gamma_h0, float))
        self.phi = np.atleast_1d(np.asarray(phi, float))
        self.D = np.asarray(D, float)
        if self.D.ndim == 2:
            self.D = self.D[None, ...]
        self.chol_D = np.linalg.cholesky(self.D)
        self.inv_D = np.linalg.inv(self.D)
        self.logdet_D = 2.0 * np.sum(np.log(np.diagonal(self.chol_D, axis1=1, axis2=2)), axis=1)

    @property
    def size(self) -> int:
        return self.beta.shape[0]

    @property
    def n_random(self) -> int:
        return self.D.shape[1]

    @classmethod
    def from_samples(cls, samples: PosteriorSamples, idx) -> "ThetaBatch":
        idx = np.asarray(idx, dtype=int)
        return cls(samples.beta[idx], samples.gamma[idx], samples.alpha[idx],
                   samples.gamma_h0[idx], samples.phi[idx], samples.D[idx])

    @classmethod
    def from_parameters(cls, theta: md.Parameters, size: int = 1) -> "ThetaBatch":
        rep = lambda a: np.repeat(np.asarray(a, float)[None, ...], size, axis=0)
        return cls(rep(theta.beta), rep(theta.gamma), rep(theta.alpha),
                   rep(theta.gamma_h0), np.full(size, theta.phi), rep(theta.D))

    def take(self, rows) -> "ThetaBatch":
        """The draws at ``rows`` (indices, or a slice for views), with their
        factors of D taken along, not recomputed."""
        out = copy.copy(self)
        for name, value in vars(self).items():
            setattr(out, name, value[rows])
        return out

    def re_log_prior(self, b: np.ndarray) -> np.ndarray:
        """log N(b; 0, D) row by row; b is (size, q), or (..., size, q)."""
        quad = np.einsum("...bi,bij,...bj->...b", b, self.inv_D, b)
        q = self.n_random
        return -0.5 * (q * math.log(2.0 * math.pi) + self.logdet_D + quad)


# ---------------------------------------------------------------------------
# Conditional random-effect target
# ---------------------------------------------------------------------------

class _ConditionData:
    """Vectorized evaluator of p(b | the measurements of a history, survival
    past its landmark t, theta), times h(t) if ``events`` flags the history,
    for each of a sequence of S histories; one history is a sequence of one.

    b and every output carry a leading history axis, b (S, B, q), as do the
    per-draw times of the rowwise methods; ``log_target`` also takes axes
    before it, b (..., S, B, q).  ``t`` is the shared landmark (one row of
    nodes) or one per history (nodes padded); the measurements are padded to
    the longest history and masked, so each history's values are its own.
    """

    def __init__(self, spec, assoc, histories, events=None):
        self.spec = spec
        self.assoc = assoc
        self.family = spec.longitudinal.family
        histories = list(histories)
        ts = np.array([h.t for h in histories])
        self.t = histories[0].t if np.all(ts == ts[0]) else ts
        self.n_histories = len(histories)
        self.covariates = [h.covariates for h in histories]
        times, self.observed = _padded([h.times for h in histories], 0.0)
        self.y, _ = _padded([h.y for h in histories], 0.0)
        self.family.check_response(self.y)
        self.meas = md.Design(spec, ("eta",), self.covariates, times)
        self.nodes = self._nodes(0.0, self.t)
        self.events = None if events is None else np.asarray(events, dtype=bool)
        self.at_t = self._design(ts[:, None]) if self.events is not None else None

    def _nodes(self, lower: float, upper) -> md.Design:
        """Design over the Gauss-Kronrod nodes of [lower, upper]; with one
        upper per history, each history's nodes padded with zero weights to
        the longest span."""
        spans = [span_nodes(lower, u, self.spec.hazard_breakpoints, GK15)
                 for u in np.ravel(upper)]
        if np.ndim(upper) == 0:
            s, wq = spans[0]
        else:
            s, _ = _padded([nodes for nodes, _ in spans], lower)
            wq, _ = _padded([weights for _, weights in spans], 0.0)
        return md.Design(self.spec, self.assoc.features, self.covariates, s, weights=wq)

    def _log_hazard(self, design: md.Design, th, rows=None):
        """b -> the clamped log hazard on the design, its theta terms computed
        once; a term that overflows is clamped with it, without a warning."""
        with np.errstate(over="ignore"):
            lh = md.log_hazard_in_b(design, self.assoc, th.gamma_h0, th.gamma, th.beta,
                                    th.alpha, rows)
        return np.errstate(over="ignore")(
            lambda b: np.clip(lh(b), -md.LOG_HAZARD_BOUND, md.LOG_HAZARD_BOUND))

    def _cum_hazard(self, th, design):
        """b -> the hazard integral over the nodes of ``design``; an overflow
        is +inf."""
        if not design.times.size:
            return lambda b: np.zeros(b.shape[:-1])
        lh = self._log_hazard(design, th)
        def cum(b):
            with np.errstate(over="ignore"):
                return np.matmul(design.weights[..., None, :], np.exp(lh(b)))[..., 0, :]
        return cum

    def cum_hazard(self, b, th, upper, lower=0.0) -> np.ndarray:
        """The hazard integral over [lower, upper], ``upper`` one time or one
        per history."""
        return self._cum_hazard(th, self._nodes(lower, upper))(b)

    def cell_cum_hazard(self, b, th, edges) -> np.ndarray:
        """Hazard integral over every cell [edges[j], edges[j + 1]] for every
        draw, shape b.shape[:-1] + (edges.size - 1,), from one design over all
        cells' Gauss-Kronrod nodes.  Cells must not cross a hazard breakpoint;
        an overflow is +inf."""
        edges = np.asarray(edges, float)
        s, wq = mapped_nodes(GK15, edges[:-1, None], edges[1:, None])
        lh = self._log_hazard(self._design(s.ravel()), th)(b).reshape(
            self.n_histories, *s.shape, -1)
        with np.errstate(over="ignore"):
            return np.matmul(wq[:, None, :], np.exp(lh))[..., 0, :].swapaxes(-1, -2)

    def _design(self, times) -> md.Design:
        return md.Design(self.spec, self.assoc.features, self.covariates, times)

    def log_hazard_rowwise(self, times, b, th) -> np.ndarray:
        """log hazard at a per-draw time: draw r of history s at times[s, r]."""
        return self._log_hazard(self._design(np.asarray(times, float)), th,
                                np.arange(th.size))(b)

    def log_hazard_grid(self, times, b, th) -> np.ndarray:
        """log hazard of every draw at every time: times (S, K) and b
        (S, th.size, q) give (S, K, th.size)."""
        return self._log_hazard(self._design(np.asarray(times, float)), th)(b)

    def cum_hazard_rowwise(self, b, th, lower, upper) -> np.ndarray:
        """Hazard integral over per-draw intervals: draw r integrates over
        [lower[r], upper[r]] (lower and upper shaped as b.shape[:-1]).

        Single-span Gauss-Kronrod per row; callers must ensure each interval
        does not cross a hazard breakpoint.
        """
        s, w = mapped_nodes(GK15, np.asarray(lower, float)[..., None],
                            np.asarray(upper, float)[..., None])
        rows = np.repeat(np.arange(th.size), GK15.nodes.size)
        lh = self._log_hazard(self._design(s.reshape(self.n_histories, -1)), th, rows)(b)
        vals = np.where(w != 0.0, w * np.exp(lh.reshape(w.shape)), 0.0)
        return np.cumsum(vals, axis=-1)[..., -1]     # summed node by node, in order

    def target(self, th):
        """``log_target`` at fixed ``th`` as a function of b: the terms free of b
        are computed once, here; each call adds the terms in b in the order of
        a fresh evaluation."""
        eta_m = md.features_in_b(self.meas, th.beta) if self.meas.times.size else None
        cum = self._cum_hazard(th, self.nodes)
        event = self._log_hazard(self.at_t, th) if self.events is not None else None

        def log_target(b):
            out = th.re_log_prior(b)
            if eta_m is not None:
                terms = md.long_log_terms(self.family, self.y[..., None], eta_m(b)["eta"], th.phi)
                out = out + np.where(self.observed[..., None], terms, 0.0).sum(-2)
            if event is not None:
                return out - cum(b) + np.where(self.events[:, None], event(b)[..., 0, :], 0.0)
            return out - cum(b)
        return log_target

    def log_target(self, b, th) -> np.ndarray:
        """Unnormalized log p(b | the condition) at every row of (b, th)."""
        return self.target(th)(b)

    def log_target_newton(self, b, th):
        """Gradient and precision (negative Hessian) of ``log_target`` without
        its event term at b (S, q), one point per history, for the single theta
        row of ``th``: -D^-1 b and D^-1 from the prior; Z'(y - mu)/phi and
        Z'V(mu)Z/phi from the measurements (canonical links); and, as
        log h = c + A b is affine in b (A: the association at unit b), -A'r and
        A' diag(r) A with r = w exp(log h), 0 where clamped."""
        inv_D = th.inv_D[0]
        q = b.shape[-1]
        grad = (-inv_D @ b[..., None])[..., 0]
        prec = np.broadcast_to(inv_D, b.shape + (q,)).copy()
        if self.meas.times.size:
            Z = self.meas.pairs["eta"][1]
            Zt = Z.swapaxes(-1, -2)
            eta = md.trajectory_features(self.meas, th.beta, b[..., None, :])["eta"][..., 0]
            mu = self.family.mean(eta)
            phi, var = ((th.phi[0], np.ones_like(mu)) if self.family.has_dispersion
                        else (1.0, mu * (1.0 - mu)))
            resid, var = (self.y - mu) * self.observed, var * self.observed
            grad += (Zt @ resid[..., None])[..., 0] / phi
            prec += (Zt * var[..., None, :]) @ Z / phi
        if self.nodes.times.size:
            lh = self._log_hazard(self.nodes, th)(b[..., None, :])[..., 0]
            r = np.where(np.abs(lh) < md.LOG_HAZARD_BOUND, self.nodes.weights * np.exp(lh), 0.0)
            units = {f: Z_f for f, (_, Z_f) in self.nodes.pairs.items()}
            A = np.broadcast_to(self.assoc.value(th.alpha[0], **units, b=np.eye(q)),
                                lh.shape + (q,))
            At = A.swapaxes(-1, -2)
            grad -= (At @ r[..., None])[..., 0]
            prec += (At * r[..., None, :]) @ A
        return grad, prec


def _padded(rows, fill: float):
    """Rows of unequal lengths as one (len(rows), longest) array, ``fill`` past
    each row's end, and the mask of the given entries."""
    sizes = np.array([np.size(r) for r in rows], dtype=int)
    given = np.arange(sizes.max(initial=0)) < sizes[:, None]
    out = np.full(given.shape, fill, dtype=float)
    out[given] = np.concatenate([np.ravel(r) for r in rows])
    return out, given


# ---------------------------------------------------------------------------
# Student-t proposals and the conditional random-effects sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReProposal:
    """Independence-proposal parameters of each of S histories: multivariate
    t(PROPOSAL_DF) at the target mode, cov's Cholesky factor and inverse
    cached; ``fallback``: the mode search found no usable precision.  Every
    field has a leading history axis."""

    mean: np.ndarray
    cov: np.ndarray
    fallback: np.ndarray = False
    iterations: np.ndarray = 0

    @cached_property
    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.cov)

    @cached_property
    def inv(self) -> np.ndarray:
        return np.linalg.inv(self.cov)


def _mvt_draw(rngs, proposal: ReProposal, size: int) -> np.ndarray:
    """``size`` draws around each history's mode, (S, size, q); history s
    draws on rngs[s], so its draws do not depend on the other histories."""
    q = proposal.mean.shape[-1]
    z = np.array([rng.standard_normal((size, q)) for rng in rngs])
    g = np.array([rng.chisquare(PROPOSAL_DF, size) for rng in rngs])
    return (proposal.mean[..., None, :]
            + (z @ proposal.chol.swapaxes(-1, -2)) * np.sqrt(PROPOSAL_DF / g)[..., None])


def _mvt_logpdf(x, proposal: ReProposal) -> np.ndarray:
    """Log density at x (S, B, q): one batched Mahalanobis product over every
    history and row, by the cached inverse cov."""
    q = proposal.mean.shape[-1]
    df = PROPOSAL_DF
    dev = x - proposal.mean[..., None, :]
    maha = np.sum((dev @ proposal.inv) * dev, axis=-1)
    const = (gammaln((df + q) / 2.0) - gammaln(df / 2.0) - 0.5 * q * math.log(df * math.pi)
             - np.log(proposal.chol.diagonal(axis1=-2, axis2=-1)).sum(-1))
    return const[..., None] - 0.5 * (df + q) * np.log1p(maha / df)


def posterior_mode_re(cdata: _ConditionData, theta: md.Parameters) -> ReProposal:
    """Mode and curvature of p(b | cdata's condition, theta), for the t proposal.

    The log target is strictly concave in b (the log hazard is affine in b,
    both families are log-concave, the prior is Gaussian), so Newton steps
    from 0 on its exact gradient and precision, each halved until the target
    does not decrease, find the mode; the covariance is the inverse precision
    there.  A target or precision that is not finite, or a precision that is
    not positive definite, falls back to mean 0, cov D.  A round is one
    stacked evaluation and one eigendecomposition of all S histories'
    precisions (a non-finite one read as the identity), which gives the
    fallback test, the Newton step and the inverse precision; each history
    halves its step, stops and falls back on its own, by masks.
    """
    th1 = ThetaBatch.from_parameters(theta, 1)
    target = cdata.target(th1)
    q, n = theta.n_random, cdata.n_histories
    b = np.zeros((n, q))
    value = target(b[..., None, :])[..., 0]
    fallback = ~np.isfinite(value)
    searching = ~fallback
    steps = np.zeros(n, dtype=int)
    cov = np.zeros((n, q, q))
    while searching.any():
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # see fallback
            grad, prec = cdata.log_target_newton(b, th1)
            finite = np.isfinite(prec).all(axis=(-2, -1))
            lam, vec = np.linalg.eigh(np.where(finite[..., None, None], prec, np.eye(q)))
            # prec^-1 = V diag(1 / lam) V', exactly symmetric
            inv = np.sum(vec[..., :, None, :] * vec[..., None, :, :] / lam[..., None, None, :], -1)
            step = np.sum(inv * grad[..., None, :], axis=-1)
        fallback |= searching & ~(finite & (lam[..., 0] > 0.0))
        searching &= ~fallback
        cov = np.where(searching[..., None, None], inv, cov)
        step = np.where(searching[..., None], step, 0.0)
        searching &= (steps < MODE_MAX_STEPS) & ~(np.sum(step * grad, -1) < MODE_STEP_TOL**2)
        halving, new = searching.copy(), value.copy()
        while halving.any():
            cand = target((b + step)[..., None, :])[..., 0]
            done = halving & ((cand >= value) | (np.sum(step * grad, -1) < MODE_STEP_TOL**2))
            new, halving = np.where(done, cand, new), halving & ~done
            step = np.where(halving[..., None], 0.5 * step, step)
        b, value = np.where(searching[..., None], b + step, b), np.where(searching, new, value)
        steps += searching
    return ReProposal(mean=np.where(fallback[..., None], 0.0, b),
                      cov=np.where(fallback[..., None, None], theta.D, cov),
                      fallback=fallback, iterations=np.where(fallback, 0, steps))


def _log_weights(cdata: _ConditionData, th: ThetaBatch, proposal: ReProposal, b, m: int):
    """log p(b | condition, theta) - log q(b) of b (S, th.size * m, q), draws
    r * m ... r * m + m - 1 of row r, as (S, th.size, m).  The target runs
    over slices of whole rows within SLICE_NODE_BUDGET, on b laid out
    (m, S, th.size, q): its theta terms are formed once per row, not once per
    draw."""
    b_k = np.moveaxis(b.reshape(cdata.n_histories, th.size, m, -1), 2, 0)
    width = max(cdata.nodes.times.shape[-1], cdata.meas.times.shape[-1], 1)
    step = max(1, SLICE_NODE_BUDGET // (width * cdata.n_histories * m))
    log_p = np.concatenate([cdata.log_target(b_k[:, :, i:i + step], th.take(slice(i, i + step)))
                            for i in range(0, th.size, step)], axis=-1)
    return np.moveaxis(log_p - _mvt_logpdf(b_k, proposal), 0, -1)


def _weighted_draws(cdata: _ConditionData, th: ThetaBatch, proposal: ReProposal, rngs,
                    m: int, names):
    """``m`` proposal draws of b per theta row of ``th`` for each history s of
    ``cdata`` (on rngs[s]), weighted within their row, never across rows:
    b (S, th.size * m, q), the log weights (S, th.size, m) of
    ``_log_weights`` and each row's log normalizer (S, th.size, 1).  A row of
    zero weights is a NumericError naming names[s]."""
    b = _mvt_draw(rngs, proposal, th.size * m)
    log_w = _log_weights(cdata, th, proposal, b, m)
    log_norm = logsumexp(log_w, axis=2, keepdims=True)
    zero = ~np.all(log_norm > -np.inf, axis=(1, 2))
    if zero.any():
        raise NumericError(f"every importance weight of {names[zero.argmax()]} at landmark "
                           f"t={cdata.t} is zero for a posterior draw")
    return b, log_w, log_norm


def _re_mh_draws(cdata: _ConditionData, th: ThetaBatch, proposal: ReProposal,
                 rngs, warmup: int, n_keep: int = 0, *, names):
    """Iterated sampling-importance-resampling (i-SIR; Andrieu, Lee & Vihola
    2018, Bernoulli 24(2)) of the conditional REs of every history, on
    th.size parallel rows per history: b (S, th.size, q).

    The first sweep keeps one of RE_CANDIDATES weighted proposal draws per
    row (``_weighted_draws``; Smith & Gelfand 1992, Am. Stat. 46(2)).  Each
    later sweep keeps the row's current state as one of RE_CANDIDATES
    candidates beside fresh draws, so p(b | condition, theta) stays exactly
    invariant.  A sweep keeps the first candidate whose weight CDF passes a
    uniform on rngs[s], scaled to the row's total, so the kept weight is
    positive.  Runs ``warmup`` sweeps and returns the last state; with
    ``n_keep`` > 0 runs that many more and returns their states,
    (S, th.size * n_keep, q), sweep by sweep.  History s draws on rngs[s], so
    its draws are those it gets alone.  A row whose first-sweep weights are
    all zero is a NumericError naming names[s] (``_weighted_draws``).
    """
    n, size, m = cdata.n_histories, th.size, RE_CANDIDATES
    b, log_w, _ = _weighted_draws(cdata, th, proposal, rngs, m, names)
    b = b.reshape(n, size, m, -1)
    kept = []
    for sweep in range(warmup + n_keep):
        if sweep:
            fresh = _mvt_draw(rngs, proposal, size * (m - 1))
            b = np.concatenate([state[:, :, None], fresh.reshape(n, size, m - 1, -1)], axis=2)
            log_w = np.concatenate([state_w, _log_weights(cdata, th, proposal, fresh, m - 1)],
                                   axis=2)
        cdf = np.cumsum(np.exp(log_w - log_w.max(axis=2, keepdims=True)), axis=-1)
        v = np.array([rng.random(size) for rng in rngs])[..., None] * cdf[..., -1:]
        pick = np.sum(cdf <= v, axis=-1, keepdims=True)
        state = np.take_along_axis(b, pick[..., None], axis=2)[:, :, 0]
        state_w = np.take_along_axis(log_w, pick, axis=2)
        if sweep >= warmup:
            kept.append(state)
    return np.concatenate(kept, axis=1) if n_keep else state


def sample_random_effects(history: md.SubjectHistory, theta: md.Parameters,
                          spec: md.JointModelSpec, assoc: md.AssociationForm,
                          n_draws: int, seed=None) -> np.ndarray:
    """Successive states of the i-SIR chain ``_re_mh_draws`` targeting
    p(b | the measurements of ``history``, survival past ``history.t``,
    theta) after RE_SWEEPS sweeps; returns (n_draws, q).

    The proposal is a multivariate Student-t (4 df) at the mode of the
    strictly concave log target, with the inverse of its exact precision
    there as covariance (``posterior_mode_re``).  A target that is zero at
    every first-sweep candidate is a NumericError.
    """
    cdata = _ConditionData(spec, assoc, [history])
    proposal = posterior_mode_re(cdata, theta)
    th = ThetaBatch.from_parameters(theta, 1)
    return _re_mh_draws(cdata, th, proposal, [np.random.default_rng(seed)], RE_SWEEPS,
                        n_keep=n_draws, names=["the history"])[0]


# ---------------------------------------------------------------------------
# Fitting machinery
# ---------------------------------------------------------------------------

_LOGLIK_INPUTS = ("beta", "gamma", "alpha", "gamma_h0", "phi", "b")


class _LoglikTerms:
    """The pieces of the fit log likelihood at one parameter state.

    ``xb`` and ``zb`` map a trajectory feature to X.beta and Z.b over its
    rows (``_FitData``); ``hazard`` (H.gamma_h0 + W.gamma) and ``assoc`` are
    over the hazard rows, ``rate`` (w exp(log h), log h clipped) over their
    nodes; ``long``, ``surv``, ``bad`` (log-hazard guard tripped) and
    ``value`` are per subject.  No piece is changed in place once computed,
    so the terms of a later state may share any of them.
    """

    def __init__(self, beta, gamma, alpha, gamma_h0, phi, b):
        self.beta, self.gamma, self.alpha = beta, gamma, alpha
        self.gamma_h0, self.phi, self.b = gamma_h0, phi, b


class _FitData:
    """Precomputed designs and segment indices for the whole dataset.  The
    hazard rows are every quadrature node, then every event time; each
    trajectory feature has one stack of rows: the measurements first for
    "eta", then the hazard rows if the association reads the feature."""

    def __init__(self, dataset: md.Dataset, spec: md.JointModelSpec,
                 assoc: md.AssociationForm):
        self.spec = spec
        self.assoc = assoc
        self.family = spec.longitudinal.family
        self.n = dataset.n
        lspec = spec.longitudinal
        self.p = lspec.n_fixed
        self.q = lspec.n_random
        self.pw = len(spec.hazard_covariates)
        self.n_alpha = assoc.n_params
        self.Q = spec.n_baseline
        if assoc.variant == "shared_random_effects" and assoc.n_params != self.q:
            raise SpecError(
                f"shared_random_effects needs {self.q} association parameters "
                f"(the random-effect dimension), got {assoc.n_params}"
            )

        self.W = np.array([s.covariate_row(spec.hazard_covariates) for s in dataset.subjects]
                          ).reshape(self.n, self.pw)
        self.delta = np.array([s.event for s in dataset.subjects], dtype=float)
        self.T = np.array([s.event_time for s in dataset.subjects])

        self.features = assoc.features
        midx, y_all = [], []
        node_idx, node_w = [], []
        meas, nodes, events = [], [], []
        for i, s in enumerate(dataset.subjects):
            midx += [i] * s.n_obs
            y_all.append(s.y)
            sn, wn = span_nodes(0.0, s.event_time, spec.hazard_breakpoints, GK15)
            node_idx += [i] * sn.size
            node_w.append(wn)
            meas.append(md.Design(spec, ("eta",), s.covariates, s.times))
            nodes.append(md.Design(spec, self.features, s.covariates, sn))
            events.append(md.Design(spec, self.features, s.covariates, self.T[i: i + 1]))

        self.midx = np.array(midx, dtype=int)
        self.y = np.concatenate(y_all)
        self.family.check_response(self.y)
        self.nidx = np.array(node_idx, dtype=int)
        self.node_w = np.concatenate(node_w)
        self.hidx = np.concatenate([self.nidx, np.arange(self.n)])

        self.H = spec.baseline_matrix(np.concatenate([d.times for d in nodes + events]))
        # the static rows of the hazard block's transposed node design
        self.HW_nT = np.ascontiguousarray(np.vstack([self.H[: -self.n].T, self.W[self.nidx].T]))

        self.rows = {f: self.hidx for f in self.features}
        self.rows["eta"] = np.concatenate([self.midx] + [self.hidx] * ("eta" in self.features))
        self.X, self.ZT = {}, {}
        for f in self.rows:
            pairs = [d.pairs[f] for d in meas + nodes + events if f in d.features]
            self.X[f] = np.concatenate([X for X, _ in pairs])
            # Z transposed, (q, rows): ``_z_times_b`` reads it a column of Z at a time
            self.ZT[f] = np.ascontiguousarray(np.concatenate([Z for _, Z in pairs]).T)
        # the shared-random-effects association reads b itself, not beta
        self.assoc_inputs = ("alpha", "beta", "b") if self.features else ("alpha", "b")

        self.K = spec.penalty_K()
        self.rho = spec.penalty.rank

    def per_subject_loglik(self, beta, gamma, alpha, gamma_h0, phi, b,
                           base: _LoglikTerms = None) -> _LoglikTerms:
        """Longitudinal + survival log likelihood per subject, as ``.value``.

        Each feature's X.beta and Z.b are formed once over its stack of rows,
        and the log hazard once over the hazard rows.  A subject whose log
        hazard exceeds the guard bound at a node or its event time gets -inf
        (so MH proposals that diverge are rejected, never saturated).  With
        ``base``, the terms of an earlier call, each piece whose inputs are
        the very objects ``base`` was computed from is reused, not
        recomputed; so an input array must never be changed in place.
        """
        t = _LoglikTerms(beta, gamma, alpha, gamma_h0, phi, b)

        new = set(_LOGLIK_INPUTS) if base is None else {
            k for k in _LOGLIK_INPUTS if getattr(t, k) is not getattr(base, k)}
        changed = lambda *names: not new.isdisjoint(names)

        if changed("beta"):
            t.xb = {f: X @ beta for f, X in self.X.items()}
        else:
            t.xb = base.xb
        if changed("b"):
            t.zb = {f: self._z_times_b(f, b) for f in self.ZT}
        else:
            t.zb = base.zb

        if changed("beta", "b", "phi"):
            m = self.midx.size
            terms = md.long_log_terms(self.family, self.y, t.xb["eta"][:m] + t.zb["eta"][:m], phi)
            t.long = np.bincount(self.midx, weights=terms, minlength=self.n)
        else:
            t.long = base.long

        if changed("gamma", "gamma_h0"):
            w_gamma = self.W @ gamma if self.pw else np.zeros(self.n)
            t.hazard = self.H @ gamma_h0 + w_gamma[self.hidx]
        else:
            t.hazard = base.hazard
        if changed(*self.assoc_inputs):
            t.assoc = self._assoc_at(t, alpha)
        else:
            t.assoc = base.assoc

        if changed("beta", "gamma", "alpha", "gamma_h0", "b"):
            lh = t.hazard + t.assoc
            t.bad = np.zeros(self.n, dtype=bool)
            t.bad[self.hidx[np.abs(lh) > md.LOG_HAZARD_BOUND]] = True
            lh = np.clip(lh, -md.LOG_HAZARD_BOUND, md.LOG_HAZARD_BOUND)
            t.rate = self.node_w * np.exp(lh[: -self.n])
            t.surv = (self.delta * lh[-self.n:]
                      - np.bincount(self.nidx, weights=t.rate, minlength=self.n))
        else:
            t.surv, t.bad, t.rate = base.surv, base.bad, base.rate

        t.value = t.long + t.surv
        t.value[t.bad] = -np.inf
        return t

    def _z_times_b(self, f, b):
        """Z.b over the rows of feature f, the bytes of
        ``np.sum(Z * b[rows], axis=1)``: numpy sums a row of fewer than 8 terms
        left to right, as this running sum over the columns of Z does, and a
        longer row pairwise."""
        ZT, rows = self.ZT[f], self.rows[f]
        if self.q >= 8:
            return np.sum(ZT.T * b[rows], axis=1)
        bT = b.T
        zb = ZT[0] * bT[0][rows]
        for k in range(1, self.q):
            zb += ZT[k] * bT[k][rows]
        return zb

    def _assoc_at(self, t: _LoglikTerms, alpha):
        """The association term at every hazard row, from the features in ``t``."""
        nh = self.hidx.size
        feats = {f: t.xb[f][-nh:] + t.zb[f][-nh:] for f in self.features}
        b_rows = None if self.features else t.b[self.hidx]
        return self.assoc.value(alpha, **feats, b=b_rows)

    def hazard_newton(self, t: _LoglikTerms, tau_h, priors, free):
        """Newton step for the hazard block theta = (gamma_h0, gamma, alpha) at ``t``.

        Given beta and b, log h = [H | W | F] theta at every hazard row (F: the
        association at unit alpha), so the survival log likelihood is concave
        in theta.  Returns the Newton mean and the lower Cholesky factor of the
        precision, the prior's (tau_h K, inverse variances) included, over the
        ``free`` coordinates; None if not positive definite.
        """
        F = np.array([self._assoc_at(t, e) for e in np.eye(self.n_alpha)])
        F_n, F_T = F[:, : -self.n], F[:, -self.n:].T     # node columns, event columns
        prior = np.diag(np.concatenate([
            np.zeros(self.Q), np.full(self.pw, 1.0 / priors.gamma_variance),
            np.full(self.n_alpha, 1.0 / priors.alpha_variance)]))
        prior[: self.Q, : self.Q] = tau_h * self.K
        theta = np.concatenate([t.gamma_h0, t.gamma, t.alpha])
        # the weighted Gram matrix by blocks, which never copies the static rows;
        # the held rate is of the clipped log hazard, but the Newton step runs
        # only at states with no guarded row, where the clip changes nothing
        Sr, Fr = self.HW_nT * t.rate, F_n * t.rate
        s = Sr.shape[0]
        prec = np.empty_like(prior)
        prec[:s, :s] = Sr @ self.HW_nT.T
        prec[:s, s:] = Sr @ F_n.T
        prec[s:, :s] = prec[:s, s:].T
        prec[s:, s:] = Fr @ F_n.T
        prec += prior
        # one product over [H | W | F] at the event times: split into a static
        # part and F's, it sums in another order and moves the draws' bytes
        grad = (self.delta @ np.hstack([self.H[-self.n:], self.W, F_T])
                - np.concatenate([Sr.sum(1), Fr.sum(1)]) - prior @ theta)
        chol, info = dpotrf(prec[free][:, free], lower=1)
        if info != 0:
            return None
        step, _ = dpotrs(chol, grad[free], lower=1)
        return theta[free] + step, chol

    def merge_rows(self, cur: _LoglikTerms, cand: _LoglikTerms, rows) -> _LoglikTerms:
        """Terms of the state with ``cand``'s random effects for the subjects
        where ``rows`` is true and ``cur``'s elsewhere; ``cand`` must differ
        from ``cur`` in ``b`` alone (``per_subject_loglik(..., base=cur)``)."""
        assert all(getattr(cand, k) is getattr(cur, k) for k in _LOGLIK_INPUTS if k != "b")
        t = copy.copy(cur)
        t.b = np.where(rows[:, None], cand.b, cur.b)
        t.zb = {f: np.where(rows[self.rows[f]], cand.zb[f], z) for f, z in cur.zb.items()}
        at = rows[self.hidx]
        t.assoc = np.where(at, cand.assoc, cur.assoc)
        t.rate = np.where(at[: -self.n], cand.rate, cur.rate)
        for name in ("long", "surv", "bad", "value"):
            setattr(t, name, np.where(rows, getattr(cand, name), getattr(cur, name)))
        return t

    def re_log_prior(self, b, chol_D):
        """log N(b_i; 0, D) per subject, from the Cholesky factor of D."""
        # U' u = b' for the upper factor U = chol_D.T: ``solve_triangular``'s call and rounding
        u = dtrtrs(chol_D.T, b.T, lower=0, trans=1)[0]
        quad = np.sum(u * u, axis=0)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol_D))))
        return -0.5 * (self.q * math.log(2.0 * math.pi) + logdet + quad)


class _AdaptiveBlock:
    """Random-walk proposal with running-covariance shape and RM scaling."""

    def __init__(self, dim: int):
        self.dim = dim
        self.target = SCALAR_TARGET_RATE if dim == 1 else BLOCK_TARGET_RATE
        self.log_scale = math.log(2.38 / math.sqrt(dim))
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))
        self.chol = np.eye(dim)
        self.adapting = True

    def draw(self, rng) -> np.ndarray:
        return math.exp(self.log_scale) * (self.chol @ rng.standard_normal(self.dim))

    def record(self, acc_prob: float, x: np.ndarray):
        if not self.adapting:
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)
        gain = 1.0 / self.count**0.6
        self.log_scale += gain * (acc_prob - self.target)
        if self.count % ADAPT_WINDOW == 0 and self.count >= max(20, 2 * self.dim):
            cov = self.m2 / (self.count - 1) + 1e-9 * np.eye(self.dim)
            try:
                self.chol = np.linalg.cholesky(cov / np.mean(np.diag(cov)))
            except np.linalg.LinAlgError:
                pass

    def freeze(self):
        self.adapting = False


class _AdaptiveVector:
    """Per-subject scalar step sizes for the random-effect sweeps."""

    def __init__(self, n: int, dim: int):
        self.target = SCALAR_TARGET_RATE if dim == 1 else BLOCK_TARGET_RATE
        self.log_scales = np.full(n, math.log(2.38 / math.sqrt(dim)))
        self.count = 0
        self.adapting = True

    @property
    def scales(self):
        return np.exp(self.log_scales)

    def record(self, acc_probs: np.ndarray):
        if not self.adapting:
            return
        self.count += 1
        gain = 1.0 / self.count**0.6
        self.log_scales += gain * (acc_probs - self.target)

    def freeze(self):
        self.adapting = False


def _inverse_wishart_draw(rng, df, scale: np.ndarray) -> np.ndarray:
    """One inverse-Wishart(df, scale) draw, (q, q), by the Bartlett
    decomposition (Smith & Hocking 1972, JRSS C 21(3)): the generator calls
    and then the LAPACK/BLAS calls of scipy.stats' inverse-Wishart ``rvs``,
    in its order, without its argument checks, so it gives scipy's bytes and
    leaves ``rng`` where scipy leaves it."""
    q = scale.shape[0]
    A = np.zeros((q, q))
    A[np.tri(q, k=-1, dtype=bool)] = rng.normal(size=q * (q - 1) // 2)  # row-major, as scipy
    A[np.diag_indices(q)] = rng.chisquare((df - q + 1) + np.arange(q), size=q) ** 0.5
    C = dpotrf(scale, lower=1)[0]        # lower factor, upper triangle zeroed
    if q == 1:
        return (C / A) ** 2
    CA = dtrsm(1.0, A, C, side=1, lower=1)
    return dtrmm(1.0, CA, CA, side=1, lower=1, trans_a=1)


def _initial_state(fd: _FitData, priors: PriorSet, rng, freeze):
    state = {}
    if fd.family.name == "gaussian" and fd.midx.size:
        X_m = fd.X["eta"][: fd.midx.size]
        coef, *_ = np.linalg.lstsq(X_m, fd.y, rcond=None)
        resid = fd.y - X_m @ coef
        state["beta"] = coef
        state["phi"] = float(max(np.var(resid), 0.05))
    else:
        state["beta"] = np.zeros(fd.p)
        state["phi"] = 1.0
    state["gamma"] = np.zeros(fd.pw)
    state["alpha"] = np.zeros(fd.n_alpha)
    crude = max(float(fd.delta.sum()), 0.5) / float(fd.T.sum())
    gh = np.zeros(fd.Q)
    gh[0] = math.log(crude)
    state["gamma_h0"] = gh
    state["tau_h"] = 1.0
    state["tau_hdelta"] = 1.0
    state["D"] = np.eye(fd.q)
    state["b"] = np.zeros((fd.n, fd.q))
    # overdispersed starts per chain
    for name in ("beta", "gamma", "alpha"):
        state[name] = state[name] + 0.1 * rng.standard_normal(state[name].shape)
    state["gamma_h0"] = state["gamma_h0"] + 0.1 * rng.standard_normal(fd.Q)
    for name, value in freeze.items():
        key = "b" if name == "ranef" else name
        if key in ("phi", "tau_h", "tau_hdelta"):
            state[key] = float(value)
        else:
            state[key] = np.asarray(value, dtype=float).copy()
    return state


def _run_chain(fd: _FitData, priors: PriorSet, config: McmcConfig, chain_idx: int,
               freeze: dict):
    rng = np.random.default_rng([config.seed, chain_idx])
    state = _initial_state(fd, priors, rng, freeze)
    frozen = set(freeze.keys())
    gaussian = fd.family.name == "gaussian"

    beta_prop = _AdaptiveBlock(fd.p) if "beta" not in frozen else None
    b_prop = _AdaptiveVector(fd.n, fd.q) if "ranef" not in frozen else None

    # ``cur`` holds the likelihood terms of the current state, so a move
    # recomputes only the terms that depend on the blocks it proposes.  State
    # arrays are replaced, never changed in place: the terms recognize their
    # inputs by identity.
    cur = None

    def loglik(**over):
        return fd.per_subject_loglik(
            **{name: over.get(name, state[name]) for name in _LOGLIK_INPUTS}, base=cur)

    cur = loglik()
    if not np.all(np.isfinite(cur.value)):
        raise NumericError(
            "log-hazard guard tripped at the initial state; the model diverges "
            "on this dataset")
    chol_D = np.linalg.cholesky(state["D"])
    re_i = fd.re_log_prior(state["b"], chol_D)
    kept = {name: [] for name in
            ("beta", "gamma", "alpha", "gamma_h0", "phi", "tau_h", "tau_hdelta", "D", "b", "iteration")}

    def log_post(terms, s):
        """Log likelihood plus the log priors the Metropolis moves change, at ``s``."""
        g, tau = s["gamma_h0"], s["tau_h"]
        return (float(terms.value.sum()) + (priors.tau_shape - 1.0 + 0.5 * fd.rho) * math.log(tau)
                - tau * (s["tau_hdelta"] + 0.5 * float(g @ fd.K @ g))
                + sum(md._normal_prior_logpdf(s[n], getattr(priors, f"{n}_variance"))
                      for n in ("beta", "gamma", "alpha")))

    # ``log_post`` of the current state, with ``cur`` and the state's objects it
    # read: a move recomputes it only after something replaced one of them
    post_inputs = ("gamma_h0", "tau_h", "tau_hdelta", "beta", "gamma", "alpha")
    post_key = lambda: (cur, *(state[n] for n in post_inputs))
    held = None

    def current_log_post():
        nonlocal held
        if held is None or any(a is not b for a, b in zip(post_key(), held[0])):
            held = post_key(), log_post(cur, state)
        return held[1]

    def accept(cand, log_q=0.0, **over):
        """MH step to state ``over`` with terms ``cand``; ``log_q``: proposal terms."""
        nonlocal cur, held
        cand_post = log_post(cand, {**state, **over})
        delta = cand_post - current_log_post() + log_q
        acc_prob = math.exp(min(delta, 0.0)) if np.isfinite(delta) else 0.0
        if rng.random() < acc_prob:
            state.update(over)
            cur = cand
            held = post_key(), cand_post
        return acc_prob

    # the hazard block moves as one vector; frozen blocks stay put
    hazard = ("gamma_h0", "gamma", "alpha")
    hazard_free = np.concatenate([np.full(state[n].size, n not in frozen) for n in hazard])
    hazard_names = [n for n in hazard if n not in frozen and state[n].size]
    hazard_cuts = np.cumsum([state[n].size for n in hazard_names])[:-1]

    newton = lambda terms: fd.hazard_newton(terms, state["tau_h"], priors, hazard_free)
    def newton_log_density(x, mean, chol):
        return float(np.sum(np.log(np.diag(chol))) - 0.5 * np.sum((chol.T @ (x - mean)) ** 2))

    # location sweeps trade a fixed-effect coordinate against all random
    # effects; the trajectory (hence the whole likelihood) is invariant for
    # feature-based associations, so the ratio involves only the priors
    sweep_ok = ("beta" not in frozen and "ranef" not in frozen
                and fd.assoc.variant != "shared_random_effects")
    sweep_props = [_AdaptiveVector(1, 1) for _ in range(fd.q)] if sweep_ok else []

    # rescaling move on (tau_h, penalized spline component): lets the
    # smoothing parameter jump scales without fighting the smoothness prior
    rescale_prop = None
    if "gamma_h0" not in frozen and "tau_h" not in frozen:
        pen = fd.K - fd.spec.penalty.ridge * np.eye(fd.Q)
        eigvals, eigvecs = np.linalg.eigh(pen)
        v_range = eigvecs[:, eigvals > 1e-9]
        rescale_prop = _AdaptiveVector(1, 1)

    for it in range(config.iterations):
        # --- random effects, one vectorized sweep over subjects
        if b_prop is not None:
            z = rng.standard_normal((fd.n, fd.q))
            cand_b = state["b"] + b_prop.scales[:, None] * (z @ chol_D.T)
            cand = loglik(b=cand_b)
            cand_re = fd.re_log_prior(cand_b, chol_D)
            ratio = (cand.value + cand_re) - (cur.value + re_i)
            accept_rows = np.log(rng.random(fd.n)) < ratio
            cur = fd.merge_rows(cur, cand, accept_rows)
            state["b"] = cur.b
            re_i = np.where(accept_rows, cand_re, re_i)
            b_prop.record(np.exp(np.minimum(ratio, 0.0)))

        # --- longitudinal coefficients (adaptive random-walk Metropolis)
        if beta_prop is not None:
            beta_cand = state["beta"] + beta_prop.draw(rng)
            beta_prop.record(accept(loglik(beta=beta_cand), beta=beta_cand), state["beta"])

        # --- hazard block: Metropolis-Hastings with the Newton proposal; the
        # reverse step is taken at the candidate with the same beta and b
        forward = newton(cur) if hazard_names else None
        if forward is not None:
            mean, chol = forward
            x = np.concatenate([state[n] for n in hazard_names])
            x_cand = mean + dtrtrs(chol, rng.standard_normal(mean.size), lower=1, trans=1)[0]
            over = dict(zip(hazard_names, np.split(x_cand, hazard_cuts)))
            cand = loglik(**over)
            reverse = newton(cand) if np.all(np.isfinite(cand.value)) else None
            accept(cand, -np.inf if reverse is None else
                   newton_log_density(x, *reverse) - newton_log_density(x_cand, mean, chol),
                   **over)

        # --- joint rescale of the smoothing parameter and the spline wiggle
        if rescale_prop is not None:
            log_c = float(rescale_prop.scales[0] * rng.standard_normal())
            c = math.exp(log_c)
            g = state["gamma_h0"]
            g_pen = v_range @ (v_range.T @ g)
            g_cand = (g - g_pen) + g_pen / math.sqrt(c)
            tau_cand = c * state["tau_h"]
            jacobian = (1.0 - 0.5 * v_range.shape[1]) * log_c
            acc_prob = accept(loglik(gamma_h0=g_cand), jacobian, gamma_h0=g_cand, tau_h=tau_cand)
            rescale_prop.record(np.array([acc_prob]))

        # --- location sweeps beta[k] <-> b[:, k]; an accepted sweep leaves
        # ``cur`` at the old beta and b until the refresh after the sweeps
        for k, prop in enumerate(sweep_props):
            delta_k = float(prop.scales[0] * rng.standard_normal())
            b_cand = state["b"].copy()
            b_cand[:, k] -= delta_k
            cand_re = fd.re_log_prior(b_cand, chol_D)
            beta_k = state["beta"][k]
            dprior = -((beta_k + delta_k) ** 2 - beta_k**2) / (2.0 * priors.beta_variance)
            ratio = float(cand_re.sum() - re_i.sum()) + dprior
            acc_prob = math.exp(min(ratio, 0.0))
            if rng.random() < acc_prob:
                state["beta"] = state["beta"].copy()
                state["beta"][k] += delta_k
                state["b"] = b_cand
                re_i = cand_re
            prop.record(np.array([acc_prob]))
        cur = loglik()

        # --- conjugate updates
        if gaussian and "phi" not in frozen and fd.midx.size:
            m = fd.midx.size
            ssr = float(np.sum((fd.y - (cur.xb["eta"][:m] + cur.zb["eta"][:m])) ** 2))
            shape = priors.phi_shape + 0.5 * fd.midx.size
            rate = priors.phi_rate + 0.5 * ssr
            state["phi"] = float(rate / rng.gamma(shape))
            cur = loglik()
        if "D" not in frozen:
            scale = np.eye(fd.q) + state["b"].T @ state["b"]
            df = fd.q + priors.d_df_extra + fd.n
            state["D"] = _inverse_wishart_draw(rng, df, scale)
            chol_D = np.linalg.cholesky(state["D"])
            re_i = fd.re_log_prior(state["b"], chol_D)
        if "tau_h" not in frozen:
            g = state["gamma_h0"]
            rate = state["tau_hdelta"] + 0.5 * float(g @ fd.K @ g)
            state["tau_h"] = float(rng.gamma(priors.tau_shape + 0.5 * fd.rho) / rate)
        if "tau_hdelta" not in frozen:
            rate = priors.tau_delta_rate + state["tau_h"]
            state["tau_hdelta"] = float(rng.gamma(priors.tau_delta_shape + priors.tau_shape) / rate)

        if it + 1 == config.burn_in:
            for prop in (beta_prop, b_prop, rescale_prop, *sweep_props):
                if prop is not None:
                    prop.freeze()

        if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
            for name in ("beta", "gamma", "alpha", "gamma_h0", "D", "b"):
                kept[name].append(np.array(state[name], copy=True))
            for name in ("phi", "tau_h", "tau_hdelta"):
                kept[name].append(float(state[name]))
            kept["iteration"].append(it)

    return kept


def fit(dataset: md.Dataset, spec: md.JointModelSpec, assoc: md.AssociationForm,
        priors: PriorSet, config: McmcConfig, freeze: dict = None) -> PosteriorSamples:
    """Sample the joint posterior of parameters and random effects.

    ``freeze`` maps block names (beta, gamma, alpha, gamma_h0, phi, D, tau_h,
    tau_hdelta, ranef) to fixed values; frozen blocks are never updated.
    """
    if dataset.n == 0:
        raise DataError("dataset is empty")
    freeze = dict(freeze or {})
    fd = _FitData(dataset, spec, assoc)
    flags = []
    if dataset.n_events == 0:
        flags.append("degenerate data: no events observed; survival parameters "
                     "are informed by the prior only")

    chains_kept = [_run_chain(fd, priors, config, c, freeze) for c in range(config.chains)]

    def gather(name):
        return np.concatenate([np.asarray(k[name]) for k in chains_kept], axis=0)

    per_chain = len(chains_kept[0]["iteration"])
    samples = PosteriorSamples(
        beta=gather("beta"), gamma=gather("gamma"), alpha=gather("alpha"),
        gamma_h0=gather("gamma_h0"), phi=gather("phi"), tau_h=gather("tau_h"),
        tau_hdelta=gather("tau_hdelta"), D=gather("D"),
        ranef=gather("b"),
        chain=np.repeat(np.arange(config.chains), per_chain),
        iteration=gather("iteration").astype(int),
        subject_ids=tuple(s.id for s in dataset.subjects),
        flags=flags,
    )

    names, mat = md.flatten(samples, fd.family.has_dispersion)
    by_chain = mat.reshape(config.chains, per_chain, -1)
    diagnostics = {}
    for j, name in enumerate(names):
        seqs = by_chain[:, :, j]
        diagnostics[name] = (split_rhat(seqs), effective_sample_size(seqs))
    samples.diagnostics = diagnostics
    worst = max((r for r, _ in diagnostics.values()), default=1.0)
    if worst > 1.1:
        offender = max(diagnostics, key=lambda k: diagnostics[k][0])
        samples.flags.append(
            f"non-convergence: Rhat for {offender} = {diagnostics[offender][0]:.3f} > 1.1")
    return samples


# ---------------------------------------------------------------------------
# DIC
# ---------------------------------------------------------------------------

def dic(samples: PosteriorSamples, dataset: md.Dataset, spec: md.JointModelSpec,
        assoc: md.AssociationForm) -> float:
    """Deviance information criterion at paired (theta, b) draws."""
    if samples.n_draws == 0:
        raise SpecError("posterior sample is empty")
    if samples.ranef is None:
        raise SpecError("DIC needs per-subject random-effect draws")
    fd = _FitData(dataset, spec, assoc)

    def deviance(where, *state):
        dev = -2.0 * float(fd.per_subject_loglik(*state).value.sum())
        if not math.isfinite(dev):
            raise NumericError(f"deviance is not finite, or a log hazard passes the guard "
                               f"bound {md.LOG_HAZARD_BOUND:g}, at {where}")
        return dev

    with np.errstate(over="ignore", invalid="ignore"):  # raised by deviance, not warned
        dbar = float(np.mean([
            deviance(f"chain {samples.chain[g]} iteration {samples.iteration[g]}",
                     samples.beta[g], samples.gamma[g], samples.alpha[g], samples.gamma_h0[g],
                     float(samples.phi[g]), samples.ranef[g])
            for g in range(samples.n_draws)]))
        mean = samples.mean_parameters(spec)
        d_hat = deviance("the posterior mean", mean.beta, mean.gamma, mean.alpha,
                         mean.gamma_h0, mean.phi, samples.ranef.mean(0))
        value = dbar + (dbar - d_hat)
    if not math.isfinite(value):
        raise NumericError("DIC is not finite")
    return value


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def split_rhat(seqs: np.ndarray) -> float:
    """Split-chain potential scale reduction factor; seqs is (chains, draws)."""
    seqs = np.atleast_2d(np.asarray(seqs, dtype=float))
    half = seqs.shape[1] // 2
    if half < 2:
        return 1.0
    parts = np.concatenate([seqs[:, :half], seqs[:, half: 2 * half]], axis=0)
    m, k = parts.shape
    within = parts.var(axis=1, ddof=1).mean()
    if within == 0.0 or not np.isfinite(within):
        return 1.0
    between = k * parts.mean(axis=1).var(ddof=1)
    var_plus = (k - 1) / k * within + between / k
    return float(np.sqrt(var_plus / within))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    n = x.size
    xc = x - x.mean()
    spectrum = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(spectrum * np.conjugate(spectrum))[:n].real
    return acov / n


def effective_sample_size(seqs: np.ndarray) -> float:
    """Effective sample size across chains (Geyer initial monotone sequence)."""
    seqs = np.atleast_2d(np.asarray(seqs, dtype=float))
    m, n = seqs.shape
    if n < 4 or not np.all(np.isfinite(seqs)):
        return float(m * n)
    within = seqs.var(axis=1, ddof=1).mean()
    if within == 0.0 or not np.isfinite(within):
        return float(m * n)
    mean_acov = np.stack([_autocovariance(s) for s in seqs]).mean(axis=0)
    between = seqs.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_plus = within * (n - 1) / n + between
    rho = 1.0 - (within - mean_acov) / var_plus
    tau = 1.0
    prev_pair = np.inf
    for k in range(1, n // 2):
        pair = rho[2 * k - 1] + rho[2 * k]
        if pair < 0:
            break
        pair = min(pair, prev_pair)
        prev_pair = pair
        tau += 2.0 * pair
    return float(min(m * n, m * n / tau))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _write_number_table(path, samples: PosteriorSamples, names, mat) -> None:
    """One row per draw: chain, iteration, then the row of ``mat``."""
    # ``tolist`` gives Python ints and floats, whose ``repr`` is that of
    # ``repr(float(v))`` for a numpy float v
    md.write_csv(path, ["chain", "iteration", *names], (
        [chain, iteration, *map(repr, row)] for chain, iteration, row in zip(
            np.asarray(samples.chain, dtype=int).tolist(),
            np.asarray(samples.iteration, dtype=int).tolist(),
            np.asarray(mat, dtype=float).tolist())))


def _read_number_table(path):
    """Header and rows of a draws or random-effects CSV; a fault is a DataError at its line."""
    rows = md.read_csv(path, ["chain", "iteration"])
    _, header = next(rows)
    lines, data = [], []
    for ln, row in rows:
        try:  # fast path; a non-finite sum sends the row to the field-by-field check
            values = [float(v) for v in row]
            if not math.isfinite(sum(values)):
                raise ValueError
        except ValueError:
            values = [md.parse_float(v, path, ln, n) for n, v in zip(header, row)]
        lines.append(ln)
        data.append(values)
    if not data:
        raise DataError(f"{path}: no draws after the header")
    return header, lines, np.array(data).reshape(len(data), len(header))


def write_draws_csv(samples: PosteriorSamples, spec: md.JointModelSpec, path) -> None:
    """One row per draw; header names every scalar parameter."""
    _write_number_table(path, samples, *md.flatten(samples, spec.longitudinal.family.has_dispersion))


def read_draws_csv(path, spec: md.JointModelSpec) -> PosteriorSamples:
    header, lines, data = _read_number_table(path)
    lspec = spec.longitudinal
    sizes = (lspec.n_fixed, len(spec.hazard_covariates),
             sum(name.startswith("alpha[") for name in header), spec.n_baseline)
    expected = md.flat_names(sizes, lspec.n_random, lspec.family.has_dispersion)
    if header[2:] != expected:
        raise DataError(f"{path} line 1: the model's parameter columns are "
                        f"chain,iteration,{','.join(expected)}")
    keys = data[:, :2]
    whole = np.all((keys == np.floor(keys)) & (np.abs(keys) < 2.0**63), axis=1)
    if not whole.all():
        raise DataError(f"{path} line {lines[np.argmin(whole)]}: chain and iteration "
                        f"must be integers")
    cols = {name: data[:, j] for j, name in enumerate(header)}
    v = md.unflatten(cols)
    valid = (v["sigma2"] > 0) & (v["tau_h"] > 0) & (np.linalg.eigvalsh(v["D"])[:, 0] > 0)
    if not valid.all():
        raise DataError(f"{path} line {lines[np.argmin(valid)]}: sigma2 and tau_h must be "
                        f"positive and D[i,j] positive definite")
    return PosteriorSamples(
        beta=v["beta"], gamma=v["gamma"], alpha=v["alpha"], gamma_h0=v["gamma_h0"],
        phi=v["sigma2"], tau_h=v["tau_h"], tau_hdelta=np.ones(data.shape[0]), D=v["D"],
        chain=keys[:, 0].astype(int), iteration=keys[:, 1].astype(int),
    )


def write_ranef_csv(samples: PosteriorSamples, path) -> None:
    if samples.ranef is None:
        raise SpecError("samples carry no random-effect draws")
    G, n, q = samples.ranef.shape
    names = [f"b[{sid},{k}]" for sid in samples.subject_ids for k in range(q)]
    _write_number_table(path, samples, names, samples.ranef.reshape(G, n * q))


def read_ranef_csv(path, draws: PosteriorSamples, subject_ids):
    """(subject_ids, ranef array (G, n, q)) paired with ``draws`` by row: row g
    carries draw g's (chain, iteration) and q random effects; and with
    ``subject_ids`` by id: columns are taken in that order, each id must have
    columns and each column's subject be an id."""
    header, lines, data = _read_number_table(path)
    ids = tuple(dict.fromkeys(name[2:].rpartition(",")[0] for name in header[2:]))
    n = len(ids)
    q = (len(header) - 2) // n if n else 1
    if header[2:] != [f"b[{sid},{k}]" for sid in ids for k in range(q)]:
        raise DataError(f"{path} line 1: random-effect columns must be b[subject,k] "
                        f"for k = 0, 1, ... of every subject in turn")
    if n and q != draws.n_random:
        raise DataError(f"{path} line 1: {q} random effects per subject, the draws "
                        f"have {draws.n_random}")
    keys = np.column_stack([draws.chain, draws.iteration])
    m = min(len(lines), len(keys))
    differ = np.flatnonzero(np.any(data[:m, :2] != keys[:m], axis=1))
    if differ.size or len(lines) > m:
        row = differ[0] if differ.size else m
        raise DataError(f"{path} line {lines[row]}: chain,iteration must be those of "
                        f"draw {row + 1} of the parameter draws")
    if len(lines) < len(keys):
        raise DataError(f"{path}: {len(lines)} random-effect draws for "
                        f"{len(keys)} parameter draws")
    column = {sid: k for k, sid in enumerate(ids)}
    missing = [sid for sid in subject_ids if sid not in column]
    if missing:
        raise DataError(f"{path} line 1: no random-effect columns for subject {missing[0]!r}")
    known = set(subject_ids)
    extra = [sid for sid in ids if sid not in known]
    if extra:
        raise DataError(f"{path} line 1: subject {extra[0]!r} is not in the dataset")
    ranef = data[:, 2:].reshape(data.shape[0], n, q)[:, [column[sid] for sid in subject_ids]]
    return tuple(subject_ids), np.ascontiguousarray(ranef)


def write_diagnostics_report(samples: PosteriorSamples, path) -> None:
    with open(path, "w") as fh:
        fh.write("parameter rhat ess\n")
        for name, (rhat, ess) in samples.diagnostics.items():
            fh.write(f"{name} {rhat:.4f} {ess:.1f}\n")
        for flag in samples.flags:
            fh.write(f"flag: {flag}\n")
