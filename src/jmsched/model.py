"""Model specification, linear predictors, hazards, survival, and log densities.

A joint model couples a generalized linear mixed model for a repeatedly
measured outcome with a relative-risk model whose hazard depends on features
of the subject-specific trajectory (value, slope, integral, or the random
effects themselves) on top of a penalized B-spline log baseline hazard.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, gammaln
from scipy.stats import invwishart

from .errors import DataError, DomainError, NumericError, SpecError
from .numerics import (
    GK15,
    BSplineBasis,
    DifferencePenalty,
    NaturalCubicBasis,
    bspline_eval,
    bspline_matrix,
    mapped_nodes,
    ncs_deriv_matrix,
    ncs_matrix,
    penalty_matrix,
    span_nodes,
)

LOG_HAZARD_BOUND = 700.0

ASSOCIATION_VARIANTS = (
    "current_value",
    "slope",
    "value_and_slope",
    "cumulative",
    "shared_random_effects",
)


# ---------------------------------------------------------------------------
# Outcome families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialFamily:
    """Outcome family with its canonical one-to-one monotonic link.

    gaussian uses the identity link with free dispersion phi (the error
    variance); bernoulli uses the logit link with dispersion fixed at 1.
    """

    name: str

    def __post_init__(self):
        if self.name not in ("gaussian", "bernoulli"):
            raise SpecError(f"unknown family '{self.name}' (gaussian or bernoulli)")

    @property
    def has_dispersion(self) -> bool:
        return self.name == "gaussian"

    def check_response(self, y) -> None:
        y = np.asarray(y, dtype=float)
        if self.name == "bernoulli" and not np.all((y == 0.0) | (y == 1.0)):
            raise DataError("bernoulli responses must be 0 or 1")

    def mean(self, eta):
        if self.name == "gaussian":
            return eta
        return expit(eta)

    def sample(self, rng, eta, phi):
        """One draw of the outcome at each linear predictor in ``eta``, in order:
        the values of as many one-value draws on ``rng``."""
        eta = np.asarray(eta, dtype=float)
        if self.name == "gaussian":
            return eta + math.sqrt(phi) * rng.standard_normal(eta.shape)
        return (rng.random(eta.shape) < self.mean(eta)).astype(float)


GAUSSIAN = ExponentialFamily("gaussian")
BERNOULLI = ExponentialFamily("bernoulli")


def long_log_terms(family: ExponentialFamily, y, eta, phi):
    """Log densities of measurements y given their linear predictors eta.

    Broadcasts y, eta and phi; the responses are not checked (they are
    checked once, where data enter).  A scalar phi goes through ``math.log``
    and per-draw phi through ``np.log``: the two can differ in the last bit,
    and the fit's draws are pinned to the former.
    """
    if family.name == "gaussian":
        log_norm = (math.log(2.0 * math.pi * phi) if np.ndim(phi) == 0
                    else np.log(2.0 * np.pi * phi))
        return -0.5 * log_norm - (y - eta) ** 2 / (2.0 * phi)
    return y * eta - np.logaddexp(0.0, eta)


def long_log_density(family: ExponentialFamily, y, eta, phi: float = 1.0):
    """Log density of one longitudinal measurement given its linear predictor."""
    family.check_response(y)
    out = long_log_terms(family, np.asarray(y, dtype=float), np.asarray(eta, dtype=float), phi)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Time effects for the longitudinal design
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearTime:
    """Single feature t."""

    n_terms = 1
    breakpoints = ()

    def terms_matrix(self, ts):
        return np.asarray(ts, dtype=float)[:, None]

    def derivs_matrix(self, ts):
        return np.ones((np.size(ts), 1))


@dataclass(frozen=True)
class PolynomialTime:
    """Features t, t^2, ..., t^degree."""

    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise SpecError("polynomial time effect needs degree >= 1")

    @property
    def n_terms(self):
        return self.degree

    breakpoints = ()

    def terms_matrix(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.column_stack([ts ** k for k in range(1, self.degree + 1)])

    def derivs_matrix(self, ts):
        ts = np.asarray(ts, dtype=float)
        return np.column_stack([k * ts ** (k - 1) for k in range(1, self.degree + 1)])


@dataclass(frozen=True)
class SplineTime:
    """Natural cubic spline features of time."""

    basis: NaturalCubicBasis

    @property
    def n_terms(self):
        return self.basis.num_basis

    @property
    def breakpoints(self):
        """Every knot, the boundary ones too: past them the spline is linear."""
        lo, hi = self.basis.boundary_knots
        return (lo, *self.basis.interior_knots, hi)

    def terms_matrix(self, ts):
        return ncs_matrix(self.basis, ts)

    def derivs_matrix(self, ts):
        return ncs_deriv_matrix(self.basis, ts)


# ---------------------------------------------------------------------------
# Longitudinal submodel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LongitudinalSpec:
    """Design builders for the mixed model, one row per time.

    The fixed row is [1, time features, covariates]; the random row is
    [1, first `random_time_terms` time features], the leading ``n_random``
    columns of the fixed row (and likewise for slopes and integrals), so
    every random builder is a slice of its fixed one.  Every fixed builder
    takes (times, covariate values: one row for all times, or one row per
    time) and every random builder takes times (see ``FEATURE_BUILDERS``).
    """

    family: ExponentialFamily
    time_effect: object = None  # LinearTime, PolynomialTime, SplineTime, or None
    covariates: tuple = ()
    random_time_terms: int = None  # default: all time terms

    def __post_init__(self):
        n_time = self.time_effect.n_terms if self.time_effect is not None else 0
        rt = self.random_time_terms
        if rt is None:
            rt = n_time
        if not 0 <= rt <= n_time:
            raise SpecError(
                f"random_time_terms must lie in [0, {n_time}], got {rt}"
            )
        object.__setattr__(self, "random_time_terms", int(rt))
        object.__setattr__(self, "covariates", tuple(self.covariates))

    @property
    def n_time_terms(self) -> int:
        return self.time_effect.n_terms if self.time_effect is not None else 0

    @property
    def n_fixed(self) -> int:
        return 1 + self.n_time_terms + len(self.covariates)

    @property
    def n_random(self) -> int:
        return 1 + self.random_time_terms

    @property
    def time_breakpoints(self):
        return self.time_effect.breakpoints if self.time_effect is not None else ()

    def _time_terms_matrix(self, ts):
        if self.time_effect is None:
            return np.zeros((np.size(ts), 0))
        return np.asarray(self.time_effect.terms_matrix(ts), dtype=float)

    def _time_derivs_matrix(self, ts):
        if self.time_effect is None:
            return np.zeros((np.size(ts), 0))
        return np.asarray(self.time_effect.derivs_matrix(ts), dtype=float)

    def _time_integrals(self, ts) -> np.ndarray:
        """Cumulative integrals of each time feature from 0 to every t, by the
        composite Gauss-Kronrod rule over the cells between 0, the times and
        the time knots."""
        ts = np.asarray(ts, dtype=float)
        edges = np.unique(np.concatenate(
            [[0.0], ts, [c for c in self.time_breakpoints if 0.0 < c < ts.max(initial=0.0)]]))
        edges = edges[edges >= 0.0]
        nodes, widths = mapped_nodes(GK15, edges[:-1, None], edges[1:, None])
        terms = widths[..., None] * self._time_terms_matrix(nodes.ravel()).reshape(
            nodes.shape + (self.n_time_terms,))
        # node by node: .sum(axis=1) sums one time term pairwise, in other bits
        cells = sum(terms[:, k] for k in range(GK15.nodes.size))
        cum = np.cumsum(np.concatenate([np.zeros((1, self.n_time_terms)), cells]), axis=0)
        return cum[np.searchsorted(edges, ts)]

    def fixed_matrix(self, ts, cov_values) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        cov_values = np.asarray(cov_values, dtype=float)
        ones = np.ones((ts.size, 1))
        covs = np.broadcast_to(cov_values, (ts.size, cov_values.shape[-1]))
        return np.column_stack([ones, self._time_terms_matrix(ts), covs])

    def fixed_deriv_matrix(self, ts, cov_values) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.column_stack([np.zeros((ts.size, 1)), self._time_derivs_matrix(ts),
                                np.zeros((ts.size, np.shape(cov_values)[-1]))])

    def fixed_integral_matrix(self, ts, cov_values) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        cov_values = np.asarray(cov_values, dtype=float)
        ints = self._time_integrals(ts)
        return np.column_stack([ts[:, None], ints, ts[:, None] * cov_values])

    def random_matrix(self, ts) -> np.ndarray:
        return self.fixed_matrix(ts, ())[:, : self.n_random]

    def random_deriv_matrix(self, ts) -> np.ndarray:
        return self.fixed_deriv_matrix(ts, ())[:, : self.n_random]

    def random_integral_matrix(self, ts) -> np.ndarray:
        return self.fixed_integral_matrix(ts, ())[:, : self.n_random]


# ---------------------------------------------------------------------------
# Association between trajectory and hazard
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssociationForm:
    """Which trajectory features enter the log relative risk."""

    variant: str
    n_params: int = None

    def __post_init__(self):
        if self.variant not in ASSOCIATION_VARIANTS:
            raise SpecError(
                f"unknown association variant '{self.variant}'; "
                f"valid: {', '.join(ASSOCIATION_VARIANTS)}"
            )
        arity = {"current_value": 1, "slope": 1, "value_and_slope": 2, "cumulative": 1}
        n = self.n_params
        if self.variant == "shared_random_effects":
            if n is None or n < 1:
                raise SpecError(
                    "shared_random_effects needs n_params = random-effect dimension"
                )
        else:
            if n is None:
                n = arity[self.variant]
            elif n != arity[self.variant]:
                raise SpecError(
                    f"{self.variant} takes {arity[self.variant]} association "
                    f"parameter(s), got {n}"
                )
        object.__setattr__(self, "n_params", int(n))

    @property
    def features(self) -> tuple:
        """The trajectory features f reads; shared random effects read b itself."""
        return {"current_value": ("eta",), "slope": ("slope",),
                "value_and_slope": ("eta", "slope"), "cumulative": ("integral",),
                "shared_random_effects": ()}[self.variant]

    def value(self, alpha, eta=None, slope=None, integral=None, b=None):
        """f(features; alpha); broadcasts over leading axes of the features."""
        alpha = np.asarray(alpha, dtype=float)
        if alpha.shape[-1] != self.n_params:
            raise SpecError(
                f"association '{self.variant}' expects {self.n_params} "
                f"parameter(s), got {alpha.shape[-1]}"
            )
        if self.variant == "current_value":
            return alpha[..., 0] * eta
        if self.variant == "slope":
            return alpha[..., 0] * slope
        if self.variant == "value_and_slope":
            return alpha[..., 0] * eta + alpha[..., 1] * slope
        if self.variant == "cumulative":
            return alpha[..., 0] * integral
        return np.sum(alpha * b, axis=-1)


# ---------------------------------------------------------------------------
# Baseline hazard
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineHazard:
    """Penalized-spline log baseline hazard.

    ``coefficients[0]`` is the intercept; the remaining entries multiply the
    B-spline basis functions.  The difference penalty runs over the full
    coefficient vector (the intercept direction lies in the null space of the
    unridged penalty).
    """

    basis: BSplineBasis
    coefficients: np.ndarray
    penalty: DifferencePenalty
    smoothing: float

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.shape != (self.basis.num_basis + 1,):
            raise SpecError(
                f"baseline needs {self.basis.num_basis + 1} coefficients "
                f"(intercept + basis), got {coefs.shape}"
            )
        if self.penalty.dim != coefs.size:
            raise SpecError(
                f"penalty dim {self.penalty.dim} != coefficient length {coefs.size}"
            )
        if not self.smoothing > 0:
            raise SpecError("smoothing parameter must be positive")
        object.__setattr__(self, "coefficients", coefs)

    def design_row(self, t) -> np.ndarray:
        # constant extrapolation outside the spline support (clamped time);
        # simulated event times may land beyond the last observed time
        lo, hi = self.basis.boundary_knots
        return np.concatenate([[1.0], bspline_eval(self.basis, min(max(t, lo), hi))])

    def log_h0(self, t) -> float:
        return float(self.design_row(t) @ self.coefficients)


def default_baseline_basis(observed_times, n_coefficients: int = 15, degree: int = 3) -> BSplineBasis:
    """B-spline basis with interior knots at quantiles of the observed times.

    ``n_coefficients`` counts the intercept plus the spline functions, so the
    basis itself has ``n_coefficients - 1`` functions.
    """
    times = np.asarray(observed_times, dtype=float)
    if times.size == 0 or np.any(times <= 0):
        raise SpecError("baseline knots need positive observed times")
    n_basis = n_coefficients - 1
    n_interior = n_basis - degree - 1
    if n_interior < 0:
        raise SpecError(
            f"n_coefficients={n_coefficients} too small for degree {degree}"
        )
    hi = float(np.max(times)) * (1.0 + 1e-9)
    if n_interior:
        qs = np.quantile(times, np.arange(1, n_interior + 1) / (n_interior + 1))
        qs = np.clip(qs, hi * 1e-6, hi * (1 - 1e-6))
        # nudge ties apart; quantile knots must be strictly ascending
        for k in range(1, len(qs)):
            if qs[k] <= qs[k - 1]:
                qs[k] = qs[k - 1] + 1e-8 * hi
        interior = tuple(qs)
    else:
        interior = ()
    return BSplineBasis(degree=degree, interior_knots=interior, boundary_knots=(0.0, hi))


# ---------------------------------------------------------------------------
# Joint model specification and parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JointModelSpec:
    """Full model definition minus the parameter values."""

    longitudinal: LongitudinalSpec
    baseline_basis: BSplineBasis
    hazard_covariates: tuple = ()
    penalty_order: int = 2
    penalty_ridge: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "hazard_covariates", tuple(self.hazard_covariates))

    @property
    def n_baseline(self) -> int:
        return self.baseline_basis.num_basis + 1

    @property
    def penalty(self) -> DifferencePenalty:
        return DifferencePenalty(self.penalty_order, self.n_baseline, self.penalty_ridge)

    def penalty_K(self) -> np.ndarray:
        return penalty_matrix(self.penalty)

    def make_baseline(self, coefficients, smoothing) -> BaselineHazard:
        return BaselineHazard(self.baseline_basis, np.asarray(coefficients, float),
                              self.penalty, float(smoothing))

    def baseline_matrix(self, ts) -> np.ndarray:
        # clamped evaluation: the log baseline is held at its boundary value
        # outside the spline support
        lo, hi = self.baseline_basis.boundary_knots
        ts = np.clip(np.asarray(ts, dtype=float), lo, hi)
        return np.column_stack([np.ones((ts.size, 1)), bspline_matrix(self.baseline_basis, ts)])

    @property
    def hazard_breakpoints(self):
        """Knot locations splitting the hazard integrals into smooth spans."""
        return tuple(sorted(set(self.baseline_basis.interior_knots)
                            | set(self.longitudinal.time_breakpoints)))


@dataclass(frozen=True)
class Parameters:
    """One realization of the full parameter vector."""

    beta: np.ndarray
    phi: float
    D: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    baseline: BaselineHazard

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=float)) if np.size(self.gamma) else np.empty(0)
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        D = np.atleast_2d(np.asarray(self.D, dtype=float))
        if not self.phi > 0:
            raise SpecError(f"dispersion must be positive, got {self.phi}")
        if D.shape[0] != D.shape[1] or not np.allclose(D, D.T, atol=1e-10):
            raise SpecError("D must be a symmetric matrix")
        try:
            np.linalg.cholesky(D)
        except np.linalg.LinAlgError:
            raise SpecError("D must be positive definite") from None
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "D", D)

    @property
    def gamma_h0(self) -> np.ndarray:
        return self.baseline.coefficients

    @property
    def tau_h(self) -> float:
        return self.baseline.smoothing

    @property
    def n_random(self) -> int:
        return self.D.shape[0]


# ---------------------------------------------------------------------------
# Flat parameter vector: one name per scalar
# ---------------------------------------------------------------------------

FLAT_BLOCKS = ("beta", "gamma", "alpha", "gamma_h0")


def flat_names(sizes, q: int, dispersion: bool = True) -> list:
    """Names of the flat parameter vector, in its order: beta[k], gamma[k],
    alpha[k] and gamma_h0[k] (``sizes`` gives the four lengths), sigma2 when
    ``dispersion``, D[i,j] over the lower triangle of the q x q covariance,
    then tau_h."""
    names = [f"{block}[{k}]" for block, n in zip(FLAT_BLOCKS, sizes) for k in range(n)]
    names += ["sigma2"] if dispersion else []
    names += [f"D[{i},{j}]" for i in range(q) for j in range(i + 1)]
    return names + ["tau_h"]


def flatten(params, dispersion: bool = True):
    """(names, values) of the flat vector of ``params`` (Parameters, or
    stacked draws whose leading axis carries through)."""
    blocks = [np.asarray(getattr(params, block), dtype=float) for block in FLAT_BLOCKS]
    D = np.asarray(params.D, dtype=float)
    q = D.shape[-1]
    scalar = lambda v: np.asarray(v, dtype=float)[..., None]
    cols = blocks + ([scalar(params.phi)] if dispersion else [])
    cols += [D[..., i, j, None] for i in range(q) for j in range(i + 1)]
    cols.append(scalar(params.tau_h))
    names = flat_names([blk.shape[-1] for blk in blocks], q, dispersion)
    return names, np.concatenate(cols, axis=-1)


def unflatten(columns) -> dict:
    """The blocks named by ``flatten``, from a mapping of name to value (or to
    per-draw values).  Other names are ignored; a missing sigma2 or tau_h
    reads as 1."""
    lead = np.broadcast_shapes(*(np.shape(v) for v in columns.values()))

    def size(pattern):
        n = 0
        while pattern.format(n) in columns:
            n += 1
        return n

    out = {}
    for block in FLAT_BLOCKS:
        stacked = np.zeros((size(block + "[{}]"),) + lead)
        for k in range(stacked.shape[0]):
            stacked[k] = columns[f"{block}[{k}]"]
        # each scalar's draws stay contiguous, so means over draws sum pairwise
        out[block] = np.moveaxis(stacked, 0, -1)
    q = size("D[{0},{0}]")
    out["D"] = np.zeros(lead + (q, q))
    for i in range(q):
        for j in range(i + 1):
            out["D"][..., i, j] = out["D"][..., j, i] = columns[f"D[{i},{j}]"]
    for name in ("sigma2", "tau_h"):
        out[name] = np.full(lead, columns.get(name, 1.0), dtype=float)
    return out


def parameters_from_flat(columns, spec: JointModelSpec) -> Parameters:
    """Parameters from the named scalars of one flat vector."""
    v = unflatten(columns)
    return Parameters(beta=v["beta"], phi=float(v["sigma2"]), D=v["D"], gamma=v["gamma"],
                      alpha=v["alpha"],
                      baseline=spec.make_baseline(v["gamma_h0"], float(v["tau_h"])))


# ---------------------------------------------------------------------------
# Observed data
# ---------------------------------------------------------------------------

def parse_float(value, path, line, column) -> float:
    """A finite number read from a file field; a ``DataError`` naming where it sits if not."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise DataError(f"{path} line {line} column {column}: "
                        f"could not parse {value!r} as a finite number")
    return number


def text_lines(path, error=DataError):
    """Stream the lines of a UTF-8 text file; an unreadable file is an ``error`` naming it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield from fh
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise error(f"cannot read {path}: not UTF-8 text") from None


def key_values(lines, where, error):
    """Yield ``(line, key, value)`` for each ``key=value`` line; ``#`` starts a
    comment, blank lines are skipped, and a key may appear once."""
    seen = set()
    for ln, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise error(f"{where} line {ln}: expected key=value, got {raw.rstrip()!r}")
        key, value = (s.strip() for s in text.split("=", 1))
        if key in seen:
            raise error(f"{where} line {ln}: duplicate key {key!r}")
        seen.add(key)
        yield ln, key, value


def read_csv(path, header_start):
    """Stream a UTF-8 CSV file whose header starts with ``header_start``.

    Yields ``(line, row)``, the header first; blank lines are skipped and every
    other row must hold as many fields as the header.  Any fault is a
    ``DataError`` naming the file and line.
    """
    reader = csv.reader(text_lines(path))
    try:
        header = next(filter(None, reader), None)
        if header is None or header[:len(header_start)] != list(header_start):
            raise DataError(f"{path} line {reader.line_num or 1}: header must start with "
                            f"{','.join(header_start)}")
        yield reader.line_num, header
        for row in filter(None, reader):
            if len(row) != len(header):
                raise DataError(f"{path} line {reader.line_num} column "
                                f"{min(len(row), len(header)) + 1}: "
                                f"expected {len(header)} fields")
            yield reader.line_num, row
    except csv.Error as exc:
        raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def write_csv(path, header, rows) -> None:
    """Write ``header`` then each of ``rows`` as UTF-8 CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _covariate_row(covariates, names) -> np.ndarray:
    try:
        return np.array([float(covariates[n]) for n in names])
    except KeyError as exc:
        raise DataError(f"missing covariate {exc.args[0]!r}") from None


@dataclass(frozen=True)
class Subject:
    """One subject: measurements, observed event/censoring time, covariates."""

    id: str
    times: np.ndarray
    y: np.ndarray
    event_time: float
    event: int
    covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if times.shape != y.shape:
            raise DataError(f"subject {self.id}: times and values differ in length")
        if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
            raise DataError(f"subject {self.id}: measurement times must be ascending and >= 0")
        if not self.event_time > 0:
            raise DataError(f"subject {self.id}: observed time must be positive")
        if times.size and times[-1] > self.event_time:
            raise DataError(
                f"subject {self.id}: measurement time {times[-1]} exceeds "
                f"observed time {self.event_time}"
            )
        if self.event not in (0, 1):
            raise DataError(f"subject {self.id}: event indicator must be 0 or 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "event_time", float(self.event_time))
        object.__setattr__(self, "event", int(self.event))

    @property
    def n_obs(self) -> int:
        return self.times.size

    def covariate_row(self, names) -> np.ndarray:
        return _covariate_row(self.covariates, names)

    def __eq__(self, other):
        if not isinstance(other, Subject):
            return NotImplemented
        return (
            self.id == other.id
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.y, other.y)
            and self.event_time == other.event_time
            and self.event == other.event
            and dict(self.covariates) == dict(other.covariates)
        )

    __hash__ = None


@dataclass(frozen=True)
class Dataset:
    subjects: tuple

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))

    @property
    def n(self) -> int:
        return len(self.subjects)

    @property
    def n_events(self) -> int:
        return sum(s.event for s in self.subjects)

    def observed_times(self) -> np.ndarray:
        return np.array([s.event_time for s in self.subjects])

    def get(self, subject_id: str) -> Subject:
        for s in self.subjects:
            if s.id == subject_id:
                return s
        raise DataError(f"unknown subject id {subject_id!r}")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return len(self.subjects) == len(other.subjects) and all(
            a == b for a, b in zip(self.subjects, other.subjects)
        )

    __hash__ = None


@dataclass(frozen=True)
class SubjectHistory:
    """A (possibly new) subject observed event-free up to the landmark time."""

    covariates: dict
    times: np.ndarray
    y: np.ndarray
    t: float

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float)) if np.size(self.times) else np.empty(0)
        y = np.atleast_1d(np.asarray(self.y, dtype=float)) if np.size(self.y) else np.empty(0)
        if times.shape != y.shape:
            raise DataError("history times and values differ in length")
        if not self.t >= 0.0:
            raise DomainError(f"a landmark is a time >= 0, got {self.t}")
        if times.size and times[-1] > self.t:
            raise DataError(f"history has a measurement at {times[-1]} after the landmark {self.t}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", float(self.t))

    @classmethod
    def from_subject(cls, subject: Subject, t: float) -> "SubjectHistory":
        keep = subject.times <= t
        return cls(dict(subject.covariates), subject.times[keep], subject.y[keep], t)

    def covariate_row(self, names) -> np.ndarray:
        return _covariate_row(self.covariates, names)


# ---------------------------------------------------------------------------
# Design rows and the log-hazard kernel
# ---------------------------------------------------------------------------

# trajectory feature -> the LongitudinalSpec builder of its fixed rows
FEATURE_BUILDERS = {
    "eta": "fixed_matrix",
    "slope": "fixed_deriv_matrix",
    "integral": "fixed_integral_matrix",
}


def _feature_rows(lspec: LongitudinalSpec, feature: str, times, cov_long):
    """(X_f, Z_f) from one builder call: Z_f is the leading n_random columns of X_f."""
    X = getattr(lspec, FEATURE_BUILDERS[feature])(times, cov_long)
    return X, np.ascontiguousarray(X[:, : lspec.n_random])


class Design:
    """Design rows at a set of times for one covariate profile, or for each
    of a list of profiles.

    ``w`` is the hazard covariate row.  ``H`` (the baseline-hazard rows) and
    ``pairs`` (each requested trajectory feature's (X_f, Z_f) rows) are built
    on first use, so a one-off design over many times never holds rows it
    has not reached yet.  With S profiles ``w`` is (S, pw), ``times`` is one
    row of K times per profile or one row for all, and ``pairs`` gain a
    leading profile axis, each feature's rows coming from one builder call
    over all S x K times; ``H`` follows the shape of ``times``.
    """

    def __init__(self, spec: JointModelSpec, features, covariates, times,
                 weights: np.ndarray = None):
        self.spec = spec
        self.features = features
        self.covariates = covariates
        self.times = np.asarray(times, dtype=float)
        self.weights = weights
        self.w = _covariate_rows(covariates, spec.hazard_covariates)

    @cached_property
    def H(self) -> np.ndarray:
        H = self.spec.baseline_matrix(self.times.ravel())
        return H.reshape(self.times.shape + H.shape[-1:])

    @cached_property
    def pairs(self) -> dict:
        lspec = self.spec.longitudinal
        cov_long = _covariate_rows(self.covariates, lspec.covariates)
        if cov_long.ndim == 1:
            return {f: _feature_rows(lspec, f, self.times, cov_long) for f in self.features}
        times = np.broadcast_to(self.times, cov_long.shape[:1] + self.times.shape[-1:])
        # each profile's row once per time, repeated along the last axis: along
        # axis 0, numpy's repeat of a matrix without columns (no covariates)
        # costs time in the number of rows made
        cov_long = np.repeat(cov_long.T, times.shape[1], axis=1).T

        def rows(feature):
            built = _feature_rows(lspec, feature, times.ravel(), cov_long)
            return tuple(m.reshape(times.shape + m.shape[-1:]) for m in built)
        return {f: rows(f) for f in self.features}


def _covariate_rows(covariates, names) -> np.ndarray:
    """The covariate row of one profile (a mapping), or (S, len(names)) for a
    list of S profiles."""
    if not isinstance(covariates, list):
        return _covariate_row(covariates, names)
    return np.array([_covariate_row(c, names) for c in covariates]).reshape(
        len(covariates), len(names))


def _contract(A: np.ndarray, P: np.ndarray, rows=None) -> np.ndarray:
    """Design rows A (..., K, d) against parameter rows P (..., B, d).

    Without ``rows`` every parameter row is evaluated at every time, shape
    (..., K, B), the leading axes broadcast; with ``rows``, time k belongs to
    parameter row rows[k], shape (..., K).
    """
    if rows is None:
        return A @ P.swapaxes(-1, -2)
    return np.einsum("...kp,...kp->...k", A, P[..., rows, :])


def features_in_b(design: Design, beta, rows=None):
    """b -> X_f.beta + Z_f.b for each feature of the design (shapes as
    ``_contract``), with every X_f.beta computed once, here."""
    xb = {f: _contract(X, beta, rows) for f, (X, _) in design.pairs.items()}
    return lambda b: {f: xb[f] + _contract(design.pairs[f][1], b, rows) for f in xb}


def trajectory_features(design: Design, beta, b, rows=None) -> dict:
    """X_f.beta + Z_f.b for each feature of the design (shapes as ``_contract``)."""
    return features_in_b(design, beta, rows)(b)


def log_hazard_in_b(design: Design, assoc: AssociationForm, gamma_h0, gamma, beta,
                    alpha, rows=None):
    """b -> log h = (H.gamma_h0 + w.gamma) + f(X_f.beta + Z_f.b, b; alpha), unclamped.

    The terms free of b are computed once, here, so a caller that evaluates
    many b at fixed parameters pays only for the rest.  Every parameter
    argument holds B rows, and b (B, q) a leading profile axis as well when
    the design has one; the shapes follow ``_contract``.  The caller guards
    the bound: raise, reject or clamp.
    """
    w_gamma = (gamma @ design.w.T).T
    if rows is None:
        offset = _contract(design.H, gamma_h0) + w_gamma[..., None, :]
        b_at = lambda b: b[..., None, :, :]     # each draw's b at every time
    else:
        offset = _contract(design.H, gamma_h0, rows) + w_gamma[..., rows]
        alpha, b_at = alpha[rows], lambda b: b[..., rows, :]
    feats = features_in_b(design, beta, rows)
    return lambda b: offset + assoc.value(alpha, **feats(b), b=b_at(b))


def log_hazard_rows(design: Design, assoc: AssociationForm, gamma_h0, gamma, beta,
                    alpha, b, rows=None) -> np.ndarray:
    """log h at b, as ``log_hazard_in_b``."""
    return log_hazard_in_b(design, assoc, gamma_h0, gamma, beta, alpha, rows)(b)


# ---------------------------------------------------------------------------
# Predictors
# ---------------------------------------------------------------------------

def _long_covs(spec: LongitudinalSpec, subject) -> np.ndarray:
    return _covariate_row(subject.covariates, spec.covariates)


def _predictor(spec: LongitudinalSpec, feature: str, subject, b, beta, t) -> float:
    """One trajectory feature at time t, from one row of the design builders."""
    beta = np.asarray(beta, dtype=float)
    b = np.asarray(b, dtype=float)
    X, Z = _feature_rows(spec, feature, np.array([t]), _long_covs(spec, subject))
    x, z = X[0], Z[0]
    if beta.shape != x.shape:
        raise SpecError(f"beta has length {beta.size}, design expects {x.size}")
    if b.shape != z.shape:
        raise SpecError(f"b has length {b.size}, random design expects {z.size}")
    return float(x @ beta + z @ b)


def linear_predictor(spec: LongitudinalSpec, subject, b, beta, t) -> float:
    """eta(t) = x(t).beta + z(t).b."""
    return _predictor(spec, "eta", subject, b, beta, t)


def predictor_slope(spec: LongitudinalSpec, subject, b, beta, t) -> float:
    """d eta / dt via the analytic time-basis derivatives."""
    return _predictor(spec, "slope", subject, b, beta, t)


def predictor_integral(spec: LongitudinalSpec, subject, b, beta, t) -> float:
    """Integral of eta over [0, t]."""
    if t == 0.0:
        return 0.0
    return _predictor(spec, "integral", subject, b, beta, t)


# ---------------------------------------------------------------------------
# Hazard and survival
# ---------------------------------------------------------------------------

def log_hazard_at_times(theta: Parameters, spec: JointModelSpec, assoc: AssociationForm,
                        subject, b, times) -> np.ndarray:
    """Vectorized log hazard at an array of positive times (one parameter row)."""
    design = Design(spec, assoc.features, subject.covariates, times)
    row = lambda a: np.asarray(a, dtype=float)[None, :]
    return log_hazard_rows(design, assoc, row(theta.gamma_h0), row(theta.gamma),
                           row(theta.beta), row(theta.alpha), row(b))[:, 0]


def log_hazard(theta: Parameters, spec: JointModelSpec, assoc: AssociationForm,
               subject, b, t) -> float:
    """log h(t) = log h0(t) + gamma.w + f(trajectory features, b; alpha)."""
    if not t > 0:
        raise DomainError(f"hazard is defined for t > 0, got t={t}")
    return float(log_hazard_at_times(theta, spec, assoc, subject, b, np.array([t]))[0])


def cumulative_hazard(theta, spec, assoc, subject, b, t, lower: float = 0.0) -> float:
    """Integral of the hazard over [lower, t] by composite Gauss-Kronrod."""
    if t < lower:
        raise DomainError(f"needs t >= {lower}, got {t}")
    if t == lower:
        return 0.0
    nodes, weights = span_nodes(lower, t, spec.hazard_breakpoints, GK15)
    lh = log_hazard_at_times(theta, spec, assoc, subject, b, nodes)
    if np.max(lh) > LOG_HAZARD_BOUND:
        s = nodes[np.argmax(lh)]
        raise NumericError(f"hazard overflow (log h = {np.max(lh):.1f}) at s={s}")
    return float(weights @ np.exp(np.maximum(lh, -LOG_HAZARD_BOUND)))


def survival(theta, spec, assoc, subject, b, t) -> float:
    """S(t) = exp(-integral of the hazard over [0, t]); S(0) = 1."""
    if t < 0:
        raise DomainError(f"survival needs t >= 0, got {t}")
    return math.exp(-cumulative_hazard(theta, spec, assoc, subject, b, t))


def surv_log_density(theta, spec, assoc, subject: Subject, b) -> float:
    """delta * log h(T) - integral of the hazard over [0, T]."""
    out = -cumulative_hazard(theta, spec, assoc, subject, b, subject.event_time)
    if subject.event:
        out += log_hazard(theta, spec, assoc, subject, b, subject.event_time)
    return out


# ---------------------------------------------------------------------------
# Posterior building blocks
# ---------------------------------------------------------------------------

def mvn_logpdf(x, cov) -> float:
    """Multivariate normal log density at x with mean 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    factor = cho_factor(cov, lower=True)
    quad = float(x @ cho_solve(factor, x))
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return -0.5 * (x.size * math.log(2.0 * math.pi) + logdet + quad)


def _normal_prior_logpdf(values, variance) -> float:
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size == 0:
        return 0.0
    return float(
        -0.5 * values.size * math.log(2.0 * math.pi * variance)
        - np.sum(values**2) / (2.0 * variance)
    )


def _gamma_logpdf(x, shape, rate) -> float:
    return float(shape * math.log(rate) - gammaln(shape) + (shape - 1.0) * math.log(x) - rate * x)


def _inv_gamma_logpdf(x, shape, rate) -> float:
    return float(shape * math.log(rate) - gammaln(shape) - (shape + 1.0) * math.log(x) - rate / x)


def log_prior(theta: Parameters, spec: JointModelSpec, priors, tau_hdelta: float = 1.0) -> float:
    """log p(theta) under diffuse normal / conjugate priors and the spline penalty."""
    q = theta.n_random
    out = _normal_prior_logpdf(theta.beta, priors.beta_variance)
    out += _normal_prior_logpdf(theta.gamma, priors.gamma_variance)
    out += _normal_prior_logpdf(theta.alpha, priors.alpha_variance)
    if spec.longitudinal.family.has_dispersion:
        out += _inv_gamma_logpdf(theta.phi, priors.phi_shape, priors.phi_rate)
    out += float(invwishart.logpdf(theta.D, q + priors.d_df_extra, np.eye(q)))
    # improper smoothness prior on the baseline coefficients
    K = spec.penalty_K()
    g = theta.gamma_h0
    out += 0.5 * spec.penalty.rank * math.log(theta.tau_h)
    out -= 0.5 * theta.tau_h * float(g @ K @ g)
    out += _gamma_logpdf(theta.tau_h, priors.tau_shape, tau_hdelta)
    out += _gamma_logpdf(tau_hdelta, priors.tau_delta_shape, priors.tau_delta_rate)
    return out


def log_posterior_unnormalized(theta: Parameters, dataset: Dataset, ranef,
                               spec: JointModelSpec, assoc: AssociationForm,
                               priors, tau_hdelta: float = 1.0) -> float:
    """Joint log density of data, random effects, and parameters (up to a constant)."""
    ranef = np.atleast_2d(np.asarray(ranef, dtype=float))
    if ranef.shape != (dataset.n, theta.n_random):
        raise SpecError(
            f"random effects must be {dataset.n} x {theta.n_random}, got {ranef.shape}"
        )
    total = 0.0
    for subject, b in zip(dataset.subjects, ranef):
        for t_l, y_l in zip(subject.times, subject.y):
            eta = linear_predictor(spec.longitudinal, subject, b, theta.beta, t_l)
            total += float(long_log_density(spec.longitudinal.family, y_l, eta, theta.phi))
        total += surv_log_density(theta, spec, assoc, subject, b)
        total += mvn_logpdf(b, theta.D)
    return total + log_prior(theta, spec, priors, tau_hdelta)
