import math

import numpy as np
import pytest

from jmsched.errors import DataError, DomainError, SpecError
from jmsched.mcmc import PriorSet
from jmsched.model import (
    ASSOCIATION_VARIANTS,
    BERNOULLI,
    GAUSSIAN,
    AssociationForm,
    Dataset,
    JointModelSpec,
    LinearTime,
    LongitudinalSpec,
    Parameters,
    PolynomialTime,
    SplineTime,
    Subject,
    SubjectHistory,
    linear_predictor,
    log_hazard,
    log_posterior_unnormalized,
    long_log_density,
    mvn_logpdf,
    predictor_integral,
    predictor_slope,
    surv_log_density,
    survival,
)
from jmsched.numerics import BSplineBasis, NaturalCubicBasis, integrate

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def make_spec(time_effect=LinearTime(), covariates=(), hazard_covariates=(),
              interior=(2.0, 5.0), upper=10.0, random_time_terms=None):
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=time_effect,
                             covariates=covariates, random_time_terms=random_time_terms)
    basis = BSplineBasis(degree=3, interior_knots=interior, boundary_knots=(0.0, upper))
    return JointModelSpec(longitudinal=lspec, baseline_basis=basis,
                          hazard_covariates=hazard_covariates)


def make_theta(spec, beta, alpha, gamma=(), D=None, log_baseline=-2.0, phi=0.25):
    q = spec.longitudinal.n_random
    gh = np.zeros(spec.n_baseline)
    gh[0] = log_baseline
    return Parameters(beta=np.asarray(beta, float), phi=phi,
                      D=np.eye(q) if D is None else np.asarray(D, float),
                      gamma=np.asarray(gamma, float), alpha=np.asarray(alpha, float),
                      baseline=spec.make_baseline(gh, 1.0))


SUBJ = Subject(id="s1", times=[0.0, 1.0, 2.5], y=[3.4, 3.9, 4.4],
               event_time=4.0, event=1, covariates={"age": 40.0, "female": 1.0})


# --- linear predictor ---------------------------------------------------------

def test_linear_predictor_zero_coefficients():
    spec = make_spec()
    assert linear_predictor(spec.longitudinal, SUBJ, np.zeros(2), np.zeros(2), 1.7) == 0.0


def test_linear_predictor_intercept_only():
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=None)
    assert linear_predictor(lspec, SUBJ, np.zeros(1), np.array([3.67]), 2.0) == pytest.approx(3.67)


def test_linear_predictor_dot_product_oracle():
    basis = NaturalCubicBasis((0.0, 10.0), (2.0, 4.0, 6.0))
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=SplineTime(basis))
    rng = np.random.default_rng(4)
    beta = rng.standard_normal(5)
    b = rng.standard_normal(5)
    t = 3.14
    x = lspec.fixed_matrix(np.array([t]), np.empty(0))[0]
    z = lspec.random_matrix(np.array([t]))[0]
    oracle = math.fsum(float(a) * float(c) for a, c in zip(x, beta))
    oracle += math.fsum(float(a) * float(c) for a, c in zip(z, b))
    assert linear_predictor(lspec, SUBJ, b, beta, t) == pytest.approx(oracle, abs=1e-14)


def test_linear_predictor_dimension_mismatch():
    spec = make_spec()
    with pytest.raises(SpecError):
        linear_predictor(spec.longitudinal, SUBJ, np.zeros(2), np.zeros(5), 1.0)
    with pytest.raises(SpecError):
        linear_predictor(spec.longitudinal, SUBJ, np.zeros(4), np.zeros(2), 1.0)


# --- slope ---------------------------------------------------------------------

def test_slope_linear_time_effect():
    spec = make_spec()
    beta = np.array([3.0, 0.4])
    b = np.array([0.2, 0.1])
    for t in (0.3, 1.0, 7.7):
        assert predictor_slope(spec.longitudinal, SUBJ, b, beta, t) == pytest.approx(0.5)


def test_slope_intercept_only_is_zero():
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=None)
    assert predictor_slope(lspec, SUBJ, np.zeros(1), np.array([3.0]), 1.0) == 0.0


def test_slope_matches_finite_difference_on_spline():
    basis = NaturalCubicBasis((0.0, 10.0), (3.0,))
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=SplineTime(basis))
    rng = np.random.default_rng(5)
    beta = rng.standard_normal(3)
    b = rng.standard_normal(3)
    h = 1e-6
    for t in (0.5, 2.9, 6.0, 9.5):
        fd = (linear_predictor(lspec, SUBJ, b, beta, t + h)
              - linear_predictor(lspec, SUBJ, b, beta, t - h)) / (2 * h)
        assert predictor_slope(lspec, SUBJ, b, beta, t) == pytest.approx(fd, abs=1e-5)


# --- integral -------------------------------------------------------------------

def test_integral_at_zero():
    spec = make_spec()
    assert predictor_integral(spec.longitudinal, SUBJ, np.zeros(2), np.ones(2), 0.0) == 0.0


def test_integral_constant_predictor():
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=None)
    c = 2.75
    for t in (0.5, 3.0, 9.0):
        got = predictor_integral(lspec, SUBJ, np.zeros(1), np.array([c]), t)
        assert got == pytest.approx(c * t, abs=1e-12)


def test_integral_linear_predictor_analytic():
    spec = make_spec()
    a, slope = 1.3, 0.7
    got = predictor_integral(spec.longitudinal, SUBJ, np.zeros(2), np.array([a, slope]), 2.0)
    assert got == pytest.approx(2 * a + 2 * slope, abs=1e-10)


def _integral_oracle(time_effect, ts):
    """Integral of each time feature (for a spline, of ``ncs_matrix``) from 0
    to every t, by ``integrate`` over the cells between 0, the interior knots
    and t; no design builder is involved."""
    out = np.zeros((ts.size, time_effect.n_terms))
    for i, t in enumerate(ts):
        edges = [0.0, *[c for c in time_effect.breakpoints if 0.0 < c < t], t]
        for j in range(time_effect.n_terms):
            f = lambda s: time_effect.terms_matrix(np.array([s]))[0, j]
            out[i, j] = sum(integrate(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
    return out


ROW_TIME_EFFECTS = {
    "none": (None, 0),
    "linear": (LinearTime(), 1),
    "poly3": (PolynomialTime(3), 1),
    "ncs": (SplineTime(NaturalCubicBasis((0.0, 8.0), (2.0, 4.0))), 1),
}


@pytest.mark.parametrize("time_key", sorted(ROW_TIME_EFFECTS))
def test_random_rows_are_the_leading_columns_of_the_fixed_rows(time_key):
    """Each feature's Z is [1 | time terms[:, :rt]] (value), [0 | derivatives]
    (slope) or [t | integrals] (integral), built here from the time effect
    alone; the kernel's Z is a contiguous copy of X's leading columns."""
    from jmsched.model import _feature_rows

    time_effect, rt = ROW_TIME_EFFECTS[time_key]
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=time_effect, covariates=("age",),
                             random_time_terms=rt)
    ts = np.array([3.3, 0.0, 1.0, 4.5, 2.0, 1.0, 7.9])
    n = ts.size
    if time_effect is None:
        terms = derivs = ints = np.zeros((n, 0))
    else:
        terms, derivs = time_effect.terms_matrix(ts), time_effect.derivs_matrix(ts)
        ints = _integral_oracle(time_effect, ts)
    expected = {"eta": np.column_stack([np.ones(n), terms[:, :rt]]),
                "slope": np.column_stack([np.zeros(n), derivs[:, :rt]]),
                "integral": np.column_stack([ts, ints[:, :rt]])}
    builders = {"eta": lspec.random_matrix, "slope": lspec.random_deriv_matrix,
                "integral": lspec.random_integral_matrix}
    for feature, Z_expected in expected.items():
        X, Z = _feature_rows(lspec, feature, ts, np.array([40.0]))
        assert Z.flags.c_contiguous and np.array_equal(Z, X[:, : lspec.n_random])
        np.testing.assert_allclose(Z, Z_expected, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(builders[feature](ts), Z)


def test_fixed_integral_matrix_at_unsorted_repeated_times_across_knots():
    """Times out of order, repeated, at 0, at and between the spline knots:
    polynomial terms integrate to t^(k+1)/(k+1), spline terms to the sum of
    ``integrate`` over the knot cells (GK15 is exact on each cubic piece),
    covariate columns to t times the covariate."""
    ts = np.array([4.5, 1.0, 2.0, 4.5, 0.0, 3.3, 7.5, 2.0, 1.0, 4.0])
    poly = LongitudinalSpec(family=GAUSSIAN, time_effect=PolynomialTime(3),
                            covariates=("age",))
    got = poly.fixed_integral_matrix(ts, np.array([40.0]))
    exact = np.column_stack([ts, *[ts ** (k + 1) / (k + 1) for k in (1, 2, 3)], 40.0 * ts])
    np.testing.assert_allclose(got, exact, rtol=1e-13, atol=1e-13)

    spline = SplineTime(NaturalCubicBasis((0.0, 8.0), (2.0, 4.0)))
    got = LongitudinalSpec(family=GAUSSIAN, time_effect=spline).fixed_integral_matrix(
        ts, np.empty(0))
    np.testing.assert_allclose(got, np.column_stack([ts, _integral_oracle(spline, ts)]),
                               rtol=1e-13, atol=1e-13)


# --- hazard ---------------------------------------------------------------------

def test_log_hazard_constant_intercept():
    spec = make_spec()
    theta = make_theta(spec, beta=[0.0, 0.0], alpha=[0.0], log_baseline=-1.3)
    for t in (0.2, 3.0, 9.9):
        assert log_hazard(theta, spec, AssociationForm("current_value"), SUBJ,
                          np.zeros(2), t) == pytest.approx(-1.3, abs=1e-12)


def test_log_hazard_current_value_hand_assembled():
    spec = make_spec(covariates=("age",), hazard_covariates=("age", "female"))
    assoc = AssociationForm("current_value")
    theta = make_theta(spec, beta=[3.0, 0.3, -0.01], alpha=[0.25],
                       gamma=[0.02, -0.1], D=np.eye(2), log_baseline=-2.0)
    b = np.array([0.4, -0.05])
    t = 2.2
    eta = linear_predictor(spec.longitudinal, SUBJ, b, theta.beta, t)
    hand = (theta.baseline.log_h0(t)
            + 0.02 * SUBJ.covariates["age"] - 0.1 * SUBJ.covariates["female"]
            + 0.25 * eta)
    assert log_hazard(theta, spec, assoc, SUBJ, b, t) == pytest.approx(hand, abs=1e-12)


def test_log_hazard_shared_random_effects_zero_b():
    spec = make_spec(hazard_covariates=("female",))
    assoc = AssociationForm("shared_random_effects", n_params=2)
    theta = make_theta(spec, beta=[3.0, 0.3], alpha=[0.5, -0.2], gamma=[0.7],
                       log_baseline=-1.0)
    t = 1.5
    expected = theta.baseline.log_h0(t) + 0.7 * 1.0
    assert log_hazard(theta, spec, assoc, SUBJ, np.zeros(2), t) == pytest.approx(expected, abs=1e-12)


def test_log_hazard_rejects_nonpositive_time():
    spec = make_spec()
    theta = make_theta(spec, beta=[0.0, 0.0], alpha=[0.0])
    with pytest.raises(DomainError):
        log_hazard(theta, spec, AssociationForm("current_value"), SUBJ, np.zeros(2), 0.0)


def test_value_and_slope_reduces_to_current_value_bitwise():
    spec = make_spec()
    theta_vs = make_theta(spec, beta=[3.0, 0.3], alpha=[0.25, 0.0])
    theta_cv = make_theta(spec, beta=[3.0, 0.3], alpha=[0.25])
    b = np.array([0.3, 0.02])
    for t in (0.4, 1.9, 6.2):
        lh_vs = log_hazard(theta_vs, spec, AssociationForm("value_and_slope"), SUBJ, b, t)
        lh_cv = log_hazard(theta_cv, spec, AssociationForm("current_value"), SUBJ, b, t)
        assert lh_vs == lh_cv


# --- survival -------------------------------------------------------------------

def test_survival_at_zero_is_one():
    spec = make_spec()
    theta = make_theta(spec, beta=[3.0, 0.3], alpha=[0.1])
    assert survival(theta, spec, AssociationForm("current_value"), SUBJ, np.zeros(2), 0.0) == 1.0


def test_survival_constant_hazard_analytic():
    spec = make_spec()
    lam = 0.17
    theta = make_theta(spec, beta=[0.0, 0.0], alpha=[0.0], log_baseline=math.log(lam))
    assoc = AssociationForm("current_value")
    for t in np.arange(0.5, 10.0, 0.5):
        got = survival(theta, spec, assoc, SUBJ, np.zeros(2), t)
        assert got == pytest.approx(math.exp(-lam * t), abs=1e-8)


def test_survival_monotone_in_time():
    spec = make_spec()
    assoc = AssociationForm("current_value")
    rng = np.random.default_rng(6)
    for _ in range(5):
        theta = make_theta(spec, beta=rng.normal(size=2), alpha=[rng.normal() * 0.3],
                           log_baseline=-2.0 + rng.normal() * 0.3)
        b = rng.normal(size=2) * 0.3
        ts = np.linspace(0.0, 9.5, 25)
        vals = [survival(theta, spec, assoc, SUBJ, b, t) for t in ts]
        assert all(v2 <= v1 + 1e-15 for v1, v2 in zip(vals, vals[1:]))


def test_neg_log_survival_derivative_recovers_hazard():
    spec = make_spec(covariates=("age",), hazard_covariates=("female",))
    assoc = AssociationForm("current_value")
    theta = make_theta(spec, beta=[2.0, 0.2, -0.01], alpha=[0.15], gamma=[0.3])
    b = np.array([0.25, 0.04])
    h = 1e-4
    for t in (1.0, 2.5, 6.0):
        s_hi = survival(theta, spec, assoc, SUBJ, b, t + h)
        s_lo = survival(theta, spec, assoc, SUBJ, b, t - h)
        fd = (-math.log(s_hi) + math.log(s_lo)) / (2 * h)
        hz = math.exp(log_hazard(theta, spec, assoc, SUBJ, b, t))
        assert fd == pytest.approx(hz, rel=1e-4)


# --- longitudinal log densities --------------------------------------------------

def test_long_log_density_bernoulli_even_odds():
    assert long_log_density(BERNOULLI, 1.0, 0.0) == pytest.approx(math.log(0.5))
    assert long_log_density(BERNOULLI, 0.0, 0.0) == pytest.approx(math.log(0.5))


def test_long_log_density_gaussian_at_mode():
    phi = 0.3
    assert long_log_density(GAUSSIAN, 1.7, 1.7, phi) == pytest.approx(-0.5 * math.log(2 * math.pi * phi))


def test_long_log_density_gaussian_hand_formula():
    got = long_log_density(GAUSSIAN, 1.2, 0.7, 0.25)
    expected = -0.5 * math.log(2 * math.pi * 0.25) - 0.5**2 / (2 * 0.25)
    assert got == pytest.approx(expected, abs=1e-14)


def test_long_log_density_rejects_bad_bernoulli():
    with pytest.raises(DataError):
        long_log_density(BERNOULLI, 0.4, 0.0)


# --- survival log density ---------------------------------------------------------

def test_surv_log_density_censored_equals_log_survival():
    spec = make_spec()
    assoc = AssociationForm("current_value")
    theta = make_theta(spec, beta=[3.0, 0.2], alpha=[0.2])
    b = np.array([0.1, 0.05])
    censored = Subject(id="c", times=[0.0], y=[3.1], event_time=3.5, event=0,
                       covariates=SUBJ.covariates)
    got = surv_log_density(theta, spec, assoc, censored, b)
    assert got == pytest.approx(math.log(survival(theta, spec, assoc, censored, b, 3.5)), abs=1e-12)


def test_surv_log_density_event_constant_hazard():
    spec = make_spec()
    lam = 0.25
    theta = make_theta(spec, beta=[0.0, 0.0], alpha=[0.0], log_baseline=math.log(lam))
    got = surv_log_density(theta, spec, AssociationForm("current_value"), SUBJ, np.zeros(2))
    assert got == pytest.approx(math.log(lam) - lam * SUBJ.event_time, abs=1e-8)


def test_surv_log_density_vanishing_time():
    spec = make_spec()
    theta = make_theta(spec, beta=[0.0, 0.0], alpha=[0.0])
    tiny = Subject(id="t", times=[], y=[], event_time=1e-9, event=0, covariates={})
    assert surv_log_density(theta, spec, AssociationForm("current_value"), tiny,
                            np.zeros(2)) == pytest.approx(0.0, abs=1e-9)


# --- joint posterior ---------------------------------------------------------------

def test_log_posterior_term_by_term():
    spec = make_spec(hazard_covariates=("female",))
    assoc = AssociationForm("current_value")
    priors = PriorSet()
    theta = make_theta(spec, beta=[3.0, 0.2], alpha=[0.2], gamma=[0.4])
    one = Subject(id="o", times=[1.0], y=[3.3], event_time=2.0, event=1,
                  covariates={"female": 1.0})
    b = np.array([[0.2, -0.1]])
    total = log_posterior_unnormalized(theta, Dataset((one,)), b, spec, assoc, priors,
                                       tau_hdelta=1.0)
    from jmsched.model import log_prior

    eta = linear_predictor(spec.longitudinal, one, b[0], theta.beta, 1.0)
    parts = (long_log_density(GAUSSIAN, 3.3, eta, theta.phi)
             + surv_log_density(theta, spec, assoc, one, b[0])
             + mvn_logpdf(b[0], theta.D)
             + log_prior(theta, spec, priors, 1.0))
    assert total == pytest.approx(parts, abs=1e-12)


def test_log_posterior_data_terms_double():
    spec = make_spec()
    assoc = AssociationForm("current_value")
    priors = PriorSet()
    theta = make_theta(spec, beta=[3.0, 0.2], alpha=[0.1])
    from jmsched.model import log_prior

    s2 = Subject(id="s2", times=SUBJ.times, y=SUBJ.y, event_time=SUBJ.event_time,
                 event=SUBJ.event, covariates=SUBJ.covariates)
    b1 = np.array([[0.2, -0.1]])
    b2 = np.vstack([b1, b1])
    single = log_posterior_unnormalized(theta, Dataset((SUBJ,)), b1, spec, assoc, priors)
    double = log_posterior_unnormalized(theta, Dataset((SUBJ, s2)), b2, spec, assoc, priors)
    prior = log_prior(theta, spec, priors, 1.0)
    assert double - prior == pytest.approx(2.0 * (single - prior), abs=1e-10)


def test_log_posterior_standard_normal_random_effects():
    spec = make_spec()
    assert mvn_logpdf(np.zeros(2), np.eye(2)) == pytest.approx(-math.log(2 * math.pi))


def test_log_posterior_permutation_invariant():
    spec = make_spec(hazard_covariates=("female",))
    assoc = AssociationForm("current_value")
    priors = PriorSet()
    theta = make_theta(spec, beta=[3.0, 0.2], alpha=[0.15], gamma=[0.3])
    rng = np.random.default_rng(8)
    subjects = []
    for i in range(6):
        times = np.sort(rng.uniform(0, 3.0, size=3))
        subjects.append(Subject(
            id=f"p{i}", times=times, y=3.0 + rng.normal(size=3),
            event_time=float(3.0 + rng.uniform(0.1, 2.0)), event=int(rng.random() < 0.5),
            covariates={"female": float(rng.random() < 0.5)}))
    b = rng.normal(size=(6, 2)) * 0.3
    base = log_posterior_unnormalized(theta, Dataset(tuple(subjects)), b, spec, assoc, priors)
    perm = rng.permutation(6)
    shuffled = log_posterior_unnormalized(
        theta, Dataset(tuple(subjects[k] for k in perm)), b[perm], spec, assoc, priors)
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_hazard_positive_for_prior_draws():
    spec = make_spec(hazard_covariates=("female",))
    assoc = AssociationForm("current_value")
    rng = np.random.default_rng(9)
    priors = PriorSet()
    for _ in range(50):
        beta = rng.normal(scale=math.sqrt(priors.beta_variance), size=2)
        gamma = rng.normal(scale=math.sqrt(priors.gamma_variance), size=1)
        alpha = rng.normal(scale=math.sqrt(priors.alpha_variance), size=1)
        gh = np.zeros(spec.n_baseline)
        gh[0] = rng.normal(scale=math.sqrt(priors.gamma_variance))
        theta = Parameters(beta=beta, phi=0.25, D=np.eye(2), gamma=gamma, alpha=alpha,
                           baseline=spec.make_baseline(gh, 1.0))
        b = rng.normal(size=2)
        lh = log_hazard(theta, spec, assoc, SUBJ, b, float(rng.uniform(0.1, 9.9)))
        hazard = math.exp(min(max(lh, -700.0), 700.0))  # the sampler's clamp guard
        assert math.isfinite(hazard) and hazard > 0.0


# --- data validation ----------------------------------------------------------------

def test_subject_invariants():
    with pytest.raises(DataError):
        Subject(id="x", times=[0.0, 2.0], y=[1.0, 1.0], event_time=1.0, event=1)
    with pytest.raises(DataError):
        Subject(id="x", times=[2.0, 1.0], y=[1.0, 1.0], event_time=3.0, event=1)
    with pytest.raises(DataError):
        Subject(id="x", times=[0.5], y=[1.0], event_time=1.0, event=2)


def test_parameters_require_spd_covariance():
    spec = make_spec()
    gh = np.zeros(spec.n_baseline)
    with pytest.raises(SpecError):
        Parameters(beta=np.zeros(2), phi=1.0, D=np.array([[1.0, 2.0], [2.0, 1.0]]),
                   gamma=np.empty(0), alpha=np.zeros(1),
                   baseline=spec.make_baseline(gh, 1.0))


def test_association_variant_validation():
    with pytest.raises(SpecError):
        AssociationForm("nonsense")
    with pytest.raises(SpecError):
        AssociationForm("shared_random_effects")
    assert AssociationForm("value_and_slope").n_params == 2


def test_default_baseline_basis_quantile_knots():
    from jmsched.model import default_baseline_basis

    rng = np.random.default_rng(11)
    times = rng.uniform(0.5, 9.0, size=300)
    basis = default_baseline_basis(times, n_coefficients=15, degree=3)
    assert basis.num_basis == 14
    knots = np.array(basis.interior_knots)
    assert knots.size == 10
    assert np.all(np.diff(knots) > 0)
    lo, hi = basis.boundary_knots
    assert lo == 0.0 and hi >= times.max()
    # knots sit at equally spaced quantiles of the observed times
    expected = np.quantile(times, np.arange(1, 11) / 11)
    assert np.allclose(knots, expected, atol=1e-8)


# --- one subject's hazard and density through every evaluation path ---------------

CROSS_TIME_EFFECTS = {
    "linear": LinearTime(),
    "poly2": PolynomialTime(2),
    "ncs": SplineTime(NaturalCubicBasis((0.0, 10.0), (3.0, 6.5))),
}
CROSS_SUBJECT_Y = {"gaussian": [3.4, 3.9, 4.4, 4.1], "bernoulli": [1.0, 0.0, 1.0, 1.0]}


def cross_path_case(variant, family, time_key):
    lspec = LongitudinalSpec(family=family, time_effect=CROSS_TIME_EFFECTS[time_key],
                             covariates=("age",))
    basis = BSplineBasis(degree=3, interior_knots=(2.0, 5.0), boundary_knots=(0.0, 10.0))
    spec = JointModelSpec(longitudinal=lspec, baseline_basis=basis,
                          hazard_covariates=("female",))
    q = lspec.n_random
    assoc = AssociationForm(variant, q if variant == "shared_random_effects" else None)
    rng = np.random.default_rng(31)
    gh = np.concatenate([[-2.0], 0.2 * rng.standard_normal(spec.n_baseline - 1)])
    theta = Parameters(
        beta=np.concatenate([[0.8, 0.15], 0.05 * rng.standard_normal(lspec.n_fixed - 3),
                             [0.01]]),
        phi=0.3 if family.has_dispersion else 1.0,
        D=np.eye(q), gamma=np.array([0.4]),
        alpha=0.1 + 0.2 * rng.random(assoc.n_params),
        baseline=spec.make_baseline(gh, 1.0))
    b = 0.2 * rng.standard_normal(q)
    subject = Subject(id="x", times=[0.0, 1.0, 2.5, 4.2], y=CROSS_SUBJECT_Y[family.name],
                      event_time=6.0, event=1, covariates={"age": 40.0, "female": 1.0})
    return spec, assoc, theta, b, subject


@pytest.mark.parametrize("time_key", sorted(CROSS_TIME_EFFECTS))
@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI], ids=lambda f: f.name)
@pytest.mark.parametrize("variant", ASSOCIATION_VARIANTS)
def test_hazard_and_density_agree_across_evaluation_paths(variant, family, time_key):
    from jmsched.mcmc import ThetaBatch, _ConditionData, _FitData
    from jmsched.model import cumulative_hazard

    spec, assoc, theta, b, subject = cross_path_case(variant, family, time_key)
    close = dict(rtol=1e-10, atol=0.0)
    T = subject.event_time
    ts = np.array([0.7, 2.2, 4.5, T])
    b1 = b[None, :]
    th1 = ThetaBatch.from_parameters(theta, 1)
    cdata = _ConditionData(spec, assoc, SubjectHistory.from_subject(subject, T))

    # log hazard: scalar API, per-time batch, rowwise batch
    lh = np.array([log_hazard(theta, spec, assoc, subject, b, t) for t in ts])
    np.testing.assert_allclose([cdata.log_hazard_grid([t], b1, th1)[0, 0] for t in ts], lh,
                               **close)
    th_rows = ThetaBatch.from_parameters(theta, ts.size)
    b_rows = np.repeat(b1, ts.size, axis=0)
    np.testing.assert_allclose(cdata.log_hazard_rowwise(ts, b_rows, th_rows), lh, **close)

    # cumulative hazard: scalar API, node batch, rowwise intervals inside one knot span
    cum = cumulative_hazard(theta, spec, assoc, subject, b, T)
    np.testing.assert_allclose(cdata.cum_hazard(b1, th1, T)[0], cum, **close)
    lower, upper = np.array([0.3, 2.1, 5.2]), np.array([1.8, 2.9, 6.0])
    assert all(not lo < c < hi for lo, hi in zip(lower, upper)
               for c in spec.hazard_breakpoints)
    pieces = [cumulative_hazard(theta, spec, assoc, subject, b, hi, lower=lo)
              for lo, hi in zip(lower, upper)]
    th3 = ThetaBatch.from_parameters(theta, 3)
    np.testing.assert_allclose(
        cdata.cum_hazard_rowwise(np.repeat(b1, 3, axis=0), th3, lower, upper), pieces, **close)

    # survival and longitudinal terms of the fit likelihood
    fd = _FitData(Dataset((subject,)), spec, assoc)
    terms = fd.per_subject_loglik(theta.beta, theta.gamma, theta.alpha, theta.gamma_h0,
                                  theta.phi, b1)
    np.testing.assert_allclose(terms.surv[0], surv_log_density(theta, spec, assoc, subject, b),
                               **close)
    long_scalar = math.fsum(
        long_log_density(family, y, linear_predictor(spec.longitudinal, subject, b,
                                                     theta.beta, t), theta.phi)
        for t, y in zip(subject.times, subject.y))
    np.testing.assert_allclose(terms.long[0], long_scalar, **close)

    # the conditional target minus its prior and survival parts
    long_target = (cdata.log_target(b1, th1)[0] - th1.re_log_prior(b1)[0]
                   + cdata.cum_hazard(b1, th1, T)[0])
    np.testing.assert_allclose(long_target, long_scalar, **close)


def _theta_rows(theta, size, rng):
    """A batch of ``size`` parameter rows scattered around theta."""
    from jmsched.mcmc import ThetaBatch

    jitter = lambda a: np.asarray(a) + 0.05 * rng.standard_normal((size, np.size(a)))
    return ThetaBatch(jitter(theta.beta), jitter(theta.gamma), jitter(theta.alpha),
                      jitter(theta.gamma_h0), np.full(size, theta.phi),
                      np.repeat(theta.D[None], size, axis=0))


def _fresh_target(spec, assoc, history, b, th):
    """The conditional log target at every row of (b, th), written out from
    the kernel with nothing computed ahead of b."""
    from jmsched.model import (LOG_HAZARD_BOUND, Design, log_hazard_rows, long_log_terms,
                               trajectory_features)
    from jmsched.numerics import GK15, span_nodes

    family, cov = spec.longitudinal.family, history.covariates
    out = th.re_log_prior(b)
    eta = trajectory_features(Design(spec, ("eta",), cov, history.times), th.beta, b)["eta"]
    out = out + long_log_terms(family, history.y[:, None], eta, th.phi).sum(0)
    s, w = span_nodes(0.0, history.t, spec.hazard_breakpoints, GK15)
    lh = log_hazard_rows(Design(spec, assoc.features, cov, s), assoc, th.gamma_h0, th.gamma,
                         th.beta, th.alpha, b)
    return out - w @ np.exp(np.clip(lh, -LOG_HAZARD_BOUND, LOG_HAZARD_BOUND))


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI], ids=lambda f: f.name)
@pytest.mark.parametrize("variant", ASSOCIATION_VARIANTS)
def test_reused_condition_target_equals_fresh_evaluation(variant, family):
    """One condition's target, reused across theta batches, and one batch's
    evaluator reused across b, give the bits of a fresh evaluation of every
    row.  (Rows evaluated as one-row batches may differ in the last bit: BLAS
    sums a matrix-vector product in another order.)"""
    from jmsched.mcmc import _ConditionData

    spec, assoc, theta, b, subject = cross_path_case(variant, family, "ncs")
    history = SubjectHistory.from_subject(subject, 5.0)
    cdata = _ConditionData(spec, assoc, history)
    rng = np.random.default_rng(8)
    for th in [_theta_rows(theta, 3, rng), _theta_rows(theta, 4, rng)]:
        target = cdata.target(th)
        for _ in range(2):
            bs = b + 0.1 * rng.standard_normal((th.size, b.size))
            fresh = _fresh_target(spec, assoc, history, bs, th)
            assert np.array_equal(target(bs), fresh)
            assert np.array_equal(cdata.log_target(bs, th), fresh)


@pytest.mark.parametrize("family", [GAUSSIAN, BERNOULLI], ids=lambda f: f.name)
@pytest.mark.parametrize("variant", ASSOCIATION_VARIANTS)
def test_gathered_rowwise_hazard_equals_expanded_rows(variant, family):
    """The log hazard of every draw at every time, from one design row per
    time (``log_hazard_grid``), equals the rowwise log hazard of the expanded
    (time, draw) rows."""
    from jmsched.mcmc import ThetaBatch, _ConditionData

    spec, assoc, theta, b, subject = cross_path_case(variant, family, "ncs")
    history = SubjectHistory.from_subject(subject, 5.0)
    cdata = _ConditionData(spec, assoc, history)
    rng = np.random.default_rng(9)
    times = np.array([0.7, 2.2, 4.5])
    th = _theta_rows(theta, 4, rng)
    bs = b + 0.1 * rng.standard_normal((th.size, b.size))
    grid = cdata.log_hazard_grid(times, bs, th)
    assert grid.shape == (times.size, th.size)
    k, r = np.divmod(np.arange(grid.size), th.size)
    th_r = ThetaBatch(th.beta[r], th.gamma[r], th.alpha[r], th.gamma_h0[r], th.phi[r], th.D[r])
    np.testing.assert_allclose(cdata.log_hazard_rowwise(times[k], bs[r], th_r), grid.ravel(),
                               rtol=1e-13, atol=1e-13)
