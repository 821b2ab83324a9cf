import dataclasses
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from jmsched.dynpred import (
    PI_BISECTION_TOL,
    EklResult,
    ModelScore,
    ScheduleConfig,
    SchedulePlan,
    _ekl_draws,
    _event_time_batch,
    _event_time_edges,
    _select_candidate,
    _stream,
    conditional_survival,
    cv_dcl,
    ekl,
    pi_curve,
    schedule_next,
    simulate_event_time,
    simulate_future_measurement,
)
from jmsched.errors import ConfigError, DomainError, NumericError
from jmsched.mcmc import (
    RE_SWEEPS,
    PosteriorSamples,
    ThetaBatch,
    _ConditionData,
    _re_mh_draws,
    posterior_mode_re,
)
from jmsched.model import (
    BERNOULLI,
    GAUSSIAN,
    LOG_HAZARD_BOUND,
    AssociationForm,
    Dataset,
    JointModelSpec,
    LinearTime,
    LongitudinalSpec,
    Parameters,
    Subject,
    SubjectHistory,
)
from jmsched.numerics import GK15, BSplineBasis, mapped_nodes
from jmsched.simulate import SimulationDesign, generate_dataset

from conftest import gaussian_joint_model

# an overflow or invalid value anywhere in prediction or scheduling is a failure
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def flat_hazard_model(lam=0.05, alpha=0.0, beta=(3.5, 0.2), d=(0.3, 0.02), phi=0.25):
    spec, assoc = gaussian_joint_model(interior=(), upper=12.0)
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(lam)
    theta = Parameters(beta=np.array(beta), phi=phi, D=np.diag(d),
                       gamma=np.array([0.0]), alpha=np.array([alpha]),
                       baseline=spec.make_baseline(gh, 1.0))
    return spec, assoc, theta


HIST = SubjectHistory({"w": 0.0}, [0.0, 0.3], [3.5, 3.7], t=0.3)


# --- conditional survival -------------------------------------------------------

def test_pi_at_landmark_is_exactly_one():
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 100)
    assert conditional_survival(HIST, 0.3, samples, spec, assoc, g_pi=50, seed=0) == 1.0


def test_pi_rejects_u_before_landmark():
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(DomainError):
        conditional_survival(HIST, 0.2, samples, spec, assoc, g_pi=10, seed=0)


def test_pi_constant_hazard_analytic():
    lam = 0.12
    spec, assoc, theta = flat_hazard_model(lam=lam)
    samples = PosteriorSamples.degenerate(theta, 2000)
    for u in (1.3, 2.3, 4.3):
        got = conditional_survival(HIST, u, samples, spec, assoc, g_pi=2000, seed=1)
        assert got == pytest.approx(math.exp(-lam * (u - 0.3)), abs=0.01)


def test_pi_curve_monotone_with_common_draws(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0, 2.0], [3.6, 3.9, 4.1], t=2.0)
    us = 2.0 + np.linspace(0.0, 4.0, 9)
    curve = pi_curve(history, us, small_joint["samples"], small_joint["spec"],
                     small_joint["assoc"], g_pi=400, seed=5)
    assert curve[0] == 1.0
    assert np.all(np.diff(curve) <= 1e-12)
    assert np.all((curve >= 0.0) & (curve <= 1.0))


@pytest.mark.parametrize("kwargs", [dict(g_pi=0), dict(g_pi=-1)])
def test_pi_curve_rejects_nonpositive_counts(kwargs):
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(ConfigError):
        pi_curve(HIST, [0.5], samples, spec, assoc, **{"g_pi": 10, **kwargs})


# --- event-time inversion sampler -------------------------------------------------

class _FixedUniform:
    """Deterministic stand-in for a Generator: fixed uniforms, real normals."""

    def __init__(self, value):
        self.value = value
        self._rng = np.random.default_rng(0)

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_event_time_v_one_returns_condition_time():
    spec, assoc, theta = flat_hazard_model(lam=0.4)
    t_star, capped = simulate_event_time(theta, spec, assoc, {"w": 0.0}, np.zeros(2),
                                         1.7, _FixedUniform(1.0 - 1e-12))
    assert not capped
    assert t_star == pytest.approx(1.7, abs=1e-4)


def test_event_time_smaller_v_is_later():
    spec, assoc, theta = flat_hazard_model(lam=0.3)
    times = [
        simulate_event_time(theta, spec, assoc, {"w": 0.0}, np.zeros(2), 1.0,
                            _FixedUniform(v))[0]
        for v in (0.9, 0.5, 0.2, 0.05)
    ]
    assert all(a < b for a, b in zip(times, times[1:]))


def test_event_time_caps_with_flag():
    spec, assoc, theta = flat_hazard_model(lam=1e-9)
    t_star, capped = simulate_event_time(theta, spec, assoc, {"w": 0.0}, np.zeros(2),
                                         0.5, _FixedUniform(0.5), cap=30.0)
    assert capped
    assert t_star == 30.0


def test_event_time_exponential_law_batch():
    lam = 0.3
    spec, assoc, theta = flat_hazard_model(lam=lam)
    cdata = _ConditionData(spec, assoc, [SubjectHistory({"w": 0.0}, [], [], 1.0)])
    th = ThetaBatch.from_parameters(theta, 4000)
    times, capped = _event_time_batch(cdata, th, np.zeros((1, 4000, 2)),
                                      np.random.default_rng(8).random((1, 4000)), cap=501.0)
    assert not capped.any()
    res = stats.kstest(times[0] - 1.0, "expon", args=(0.0, 1.0 / lam))
    assert res.pvalue > 0.01


def test_event_time_scalar_matches_law_loosely():
    lam = 0.5
    spec, assoc, theta = flat_hazard_model(lam=lam)
    rng = np.random.default_rng(10)
    draws = np.array([
        simulate_event_time(theta, spec, assoc, {"w": 0.0}, np.zeros(2), 2.0, rng)[0]
        for _ in range(400)
    ])
    res = stats.kstest(draws - 2.0, "expon", args=(0.0, 1.0 / lam))
    assert res.pvalue > 0.005


def spline_hazard_model(association="current_value"):
    """A baseline spline with knots at 2, 5 and 8 that is not flat, and an
    association of the trajectory with the hazard."""
    spec, _ = gaussian_joint_model()
    assoc = AssociationForm(association)
    gh = np.array([math.log(0.3), 0.4, -0.3, 0.5, 0.2, -0.4, 0.3, 0.1])
    theta = Parameters(beta=np.array([3.6, 0.25]), phi=0.25, D=np.diag([0.35, 0.02]),
                       gamma=np.array([0.5]), alpha=np.full(assoc.n_params, 0.25),
                       baseline=spec.make_baseline(gh, 1.0))
    return spec, assoc, theta


def test_event_time_flat_hazard_is_exact():
    lam, u = 0.3, 1.0
    spec, assoc, theta = flat_hazard_model(lam=lam)
    cdata = _ConditionData(spec, assoc, [SubjectHistory({"w": 0.0}, [], [], u)])
    v = np.random.default_rng(21).random((1, 2000))
    times, capped = _event_time_batch(cdata, ThetaBatch.from_parameters(theta, v.size),
                                      np.zeros((1, v.size, 2)), v, cap=u + 500.0)
    assert not capped.any()
    np.testing.assert_allclose(times, u - np.log(v) / lam, rtol=1e-9, atol=0.0)


def test_event_time_solves_the_inversion_equation_across_cells():
    """On a spline hazard with knots, current-value association and nonzero
    b, each uncapped T* satisfies Lambda(u -> T*) = -log v."""
    spec, assoc, theta = spline_hazard_model()
    u, n = 0.5, 60
    cdata = _ConditionData(spec, assoc, [SubjectHistory({"w": 1.0}, [0.0, 0.5], [3.5, 3.8], u)])
    b = np.random.default_rng(22).normal(scale=[0.6, 0.15], size=(n, 2))
    v = np.random.default_rng(23).random(n)
    times, capped = _event_time_batch(cdata, ThetaBatch.from_parameters(theta, n), b[None],
                                      v[None], cap=u + 500.0)
    times, capped = times[0], capped[0]
    edges = _event_time_edges(spec, u, u + 500.0)
    assert np.unique(np.searchsorted(edges, times[~capped])).size >= 3
    th1 = ThetaBatch.from_parameters(theta, 1)
    for r in np.flatnonzero(~capped):
        got = cdata.cum_hazard(b[None, r:r + 1], th1, times[r], lower=u)[0, 0]
        assert got == pytest.approx(-math.log(v[r]), rel=1e-8)


@pytest.mark.parametrize("u", [0.0, 0.5])
def test_event_time_clamped_hazard_ends_just_past_u(u):
    spec, assoc, theta = flat_hazard_model()
    gh = np.zeros(spec.n_baseline)
    gh[0] = LOG_HAZARD_BOUND + 100.0
    theta = dataclasses.replace(theta, baseline=spec.make_baseline(gh, 1.0))
    cdata = _ConditionData(spec, assoc, [SubjectHistory({"w": 0.0}, [], [], u)])
    times, capped = _event_time_batch(cdata, ThetaBatch.from_parameters(theta, 500),
                                      np.zeros((1, 500, 2)),
                                      np.random.default_rng(24).random((1, 500)), cap=u + 500.0)
    assert not capped.any()
    assert np.all((times > u) & (times <= u + 1e-6))


def test_event_time_vanishing_hazard_is_capped():
    spec, assoc, theta = flat_hazard_model()
    gh = np.zeros(spec.n_baseline)
    gh[0] = -LOG_HAZARD_BOUND - 100.0
    theta = dataclasses.replace(theta, baseline=spec.make_baseline(gh, 1.0))
    cdata = _ConditionData(spec, assoc, [SubjectHistory({"w": 0.0}, [], [], 1.0)])
    times, capped = _event_time_batch(cdata, ThetaBatch.from_parameters(theta, 500),
                                      np.zeros((1, 500, 2)),
                                      np.random.default_rng(25).random((1, 500)), cap=501.0)
    assert capped.all()
    assert np.all(times == 501.0)


@pytest.mark.parametrize("association",
                         ["current_value", "slope", "value_and_slope", "cumulative"])
def test_cell_cum_hazard_matches_per_cell_integrals(association):
    spec, assoc, theta = spline_hazard_model(association)
    cdata = _ConditionData(spec, assoc, [SubjectHistory({"w": 1.0}, [0.0, 0.5], [3.5, 3.8], 0.5)])
    b = np.random.default_rng(26).normal(scale=[0.6, 0.15], size=(1, 7, 2))
    th = ThetaBatch.from_parameters(theta, 7)
    edges = _event_time_edges(spec, 0.5, 40.0)
    got = cdata.cell_cum_hazard(b, th, edges)[0]
    want = np.column_stack([cdata.cum_hazard(b, th, hi, lower=lo)[0]
                            for lo, hi in zip(edges[:-1], edges[1:])])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# --- future measurement ------------------------------------------------------------

def test_future_measurement_degenerate_noise():
    spec, assoc, theta = flat_hazard_model(phi=1e-12)
    holder = SubjectHistory({"w": 0.0}, [], [], t=0.0)
    b = np.array([0.3, -0.05])
    rng = np.random.default_rng(0)
    got = simulate_future_measurement(spec, holder, b, theta, 2.0, rng)
    eta = theta.beta[0] + b[0] + (theta.beta[1] + b[1]) * 2.0
    assert got == pytest.approx(eta, abs=1e-5)


def test_future_measurement_bernoulli_even_odds():
    lspec = LongitudinalSpec(family=BERNOULLI, time_effect=LinearTime())
    basis = BSplineBasis(degree=3, interior_knots=(), boundary_knots=(0.0, 10.0))
    spec = JointModelSpec(longitudinal=lspec, baseline_basis=basis)
    gh = np.zeros(spec.n_baseline)
    theta = Parameters(beta=np.zeros(2), phi=1.0, D=np.eye(2), gamma=np.empty(0),
                       alpha=np.zeros(1), baseline=spec.make_baseline(gh, 1.0))
    holder = SubjectHistory({}, [], [], t=0.0)
    rng = np.random.default_rng(1)
    draws = [simulate_future_measurement(spec, holder, np.zeros(2), theta, 1.0, rng)
             for _ in range(10000)]
    assert set(draws) <= {0.0, 1.0}
    assert np.mean(draws) == pytest.approx(0.5, abs=0.02)


def test_future_measurement_gaussian_moments():
    spec, assoc, theta = flat_hazard_model(phi=0.49)
    holder = SubjectHistory({"w": 0.0}, [], [], t=0.0)
    rng = np.random.default_rng(2)
    b = np.array([0.2, 0.03])
    draws = np.array([
        simulate_future_measurement(spec, holder, b, theta, 1.5, rng)
        for _ in range(10000)
    ])
    eta = theta.beta[0] + b[0] + (theta.beta[1] + b[1]) * 1.5
    assert draws.mean() == pytest.approx(eta, abs=4.0 * 0.7 / 100.0)
    assert draws.var() == pytest.approx(0.49, rel=0.06)


# --- cross-validated dynamic conditional likelihood ---------------------------------

@pytest.fixture(scope="module")
def exponential_cohort():
    lam = 0.2
    spec, assoc, theta = flat_hazard_model(lam=lam)
    design = SimulationDesign(
        n_subjects=60, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 1.0, 2.0, 3.0), seed=14, censor_admin=9.0,
        covariates={"w": ("constant", 0.0)})
    return lam, spec, assoc, theta, generate_dataset(design)


def test_cv_dcl_matches_analytic_conditional_density(exponential_cohort):
    lam, spec, assoc, theta, dataset = exponential_cohort
    t = 2.0
    samples = PosteriorSamples.degenerate(theta, 60)
    got = cv_dcl(samples, dataset, t, spec, assoc, n_theta_draws=30, n_re_draws=5,
                 seed=3)
    at_risk = [s for s in dataset.subjects if s.event_time > t]
    analytic = np.mean([
        s.event * math.log(lam) - lam * (s.event_time - t) for s in at_risk
    ])
    assert got == pytest.approx(analytic, abs=0.02)


def test_cv_dcl_permutation_invariant(exponential_cohort):
    lam, spec, assoc, theta, dataset = exponential_cohort
    samples = PosteriorSamples.degenerate(theta, 25)
    kwargs = dict(n_theta_draws=10, n_re_draws=4, seed=9)
    base = cv_dcl(samples, dataset, 2.0, spec, assoc, **kwargs)
    perm = np.random.default_rng(1).permutation(dataset.n)
    shuffled = Dataset(tuple(dataset.subjects[k] for k in perm))
    again = cv_dcl(samples, shuffled, 2.0, spec, assoc, **kwargs)
    assert again == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("kwargs", [dict(n_theta_draws=0), dict(n_re_draws=0),
                                    dict(n_re_draws=-1)])
def test_cv_dcl_rejects_nonpositive_counts(exponential_cohort, kwargs):
    _, spec, assoc, theta, dataset = exponential_cohort
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(ConfigError):
        cv_dcl(samples, dataset, 2.0, spec, assoc,
               **{"n_theta_draws": 5, "n_re_draws": 2, **kwargs})


def test_cv_dcl_with_every_weight_of_a_draw_zero_is_a_numeric_error(monkeypatch,
                                                                     exponential_cohort):
    """A posterior draw whose importance weights are all zero (target -inf at
    every one of its random-effect draws) ends in an error naming the
    subject and the landmark, never in a nan."""
    _, spec, assoc, theta, dataset = exponential_cohort
    last = [s for s in dataset.subjects if s.event_time > 2.0][-1]
    log_target = _ConditionData.log_target

    def zero_first_draw_of_last_subject(self, b, th):
        out = log_target(self, b, th)
        out[..., -1, 0] = -np.inf       # every proposal draw of the last history's first row
        return out

    monkeypatch.setattr(_ConditionData, "log_target", zero_first_draw_of_last_subject)
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(NumericError, match=f"subject '{last.id}' at landmark t=2.0"):
        cv_dcl(samples, dataset, 2.0, spec, assoc, n_theta_draws=5, n_re_draws=3)


def test_cv_dcl_empty_landmark(exponential_cohort):
    _, spec, assoc, theta, dataset = exponential_cohort
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(DomainError):
        cv_dcl(samples, dataset, 100.0, spec, assoc, n_theta_draws=5, n_re_draws=2)


CV_CASES = [(GAUSSIAN, "current_value"), (GAUSSIAN, "slope"), (BERNOULLI, "current_value")]
CV_LANDMARK = 1.5
CV_KWARGS = dict(n_theta_draws=6, n_re_draws=3, seed=5)


def _cv_cohort(family, variant):
    """24 subjects of a linear-time model with a random slope, and 12
    posterior draws scattered about the truth."""
    lspec = LongitudinalSpec(family=family, time_effect=LinearTime())
    basis = BSplineBasis(degree=3, interior_knots=(2.0, 5.0), boundary_knots=(0.0, 12.0))
    spec = JointModelSpec(longitudinal=lspec, baseline_basis=basis, hazard_covariates=("w",))
    assoc = AssociationForm(variant)
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(0.15)
    theta = Parameters(beta=np.array([3.5, 0.2] if family is GAUSSIAN else [0.4, -0.3]),
                       phi=0.25 if family is GAUSSIAN else 1.0, D=np.diag([0.3, 0.05]),
                       gamma=np.array([0.4]), alpha=np.array([0.3]),
                       baseline=spec.make_baseline(gh, 1.0))
    dataset = generate_dataset(SimulationDesign(
        n_subjects=24, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 0.5, 1.0, 2.0), seed=31, censor_admin=8.0,
        covariates={"w": ("bernoulli", 0.5)}))
    samples = PosteriorSamples.degenerate(theta, 12)
    rng = np.random.default_rng(8)
    for name in ("beta", "gamma", "alpha", "gamma_h0"):
        block = getattr(samples, name)
        setattr(samples, name, block + 0.05 * rng.standard_normal(block.shape))
    return spec, assoc, samples, dataset


@pytest.mark.parametrize("family, variant", CV_CASES)
def test_cv_dcl_is_the_mean_of_its_one_subject_scores(monkeypatch, family, variant):
    """Subjects scored in stacked chunks (at least three here, by a small
    node budget) score as each does alone: every subject keeps its stream,
    and the padding of shorter histories and spans changes nothing."""
    import jmsched.dynpred as dynpred

    spec, assoc, samples, dataset = _cv_cohort(family, variant)
    rows = CV_KWARGS["n_theta_draws"] * CV_KWARGS["n_re_draws"]
    widest = GK15.nodes.size * (1 + len(spec.hazard_breakpoints))
    monkeypatch.setattr(dynpred, "HAZARD_NODE_BUDGET", 3 * widest * rows)
    chunks = []

    def counted(spec, assoc, histories, events=None):
        if events is None:       # the landmark condition; its follow-up twin has events
            chunks.append(len(histories))
        return _ConditionData(spec, assoc, histories, events)

    monkeypatch.setattr(dynpred, "_ConditionData", counted)
    whole = cv_dcl(samples, dataset, CV_LANDMARK, spec, assoc, **CV_KWARGS)
    assert len(chunks) >= 3 and max(chunks) >= 2

    at_risk = [s for s in dataset.subjects if s.event_time > CV_LANDMARK]
    alone = [cv_dcl(samples, Dataset((s,)), CV_LANDMARK, spec, assoc, **CV_KWARGS)
             for s in at_risk]
    assert whole == pytest.approx(np.mean(alone), abs=1e-10)


def test_cumulative_cv_dcl_of_a_pair_is_the_mean_of_its_one_subject_scores():
    """With the cumulative association, a stacked chunk's integral rows are
    each history's own, so every pair of consecutive subjects at risk scores
    exactly the mean of the two subjects scored alone."""
    spec, assoc, samples, dataset = _cv_cohort(GAUSSIAN, "cumulative")
    at_risk = [s for s in dataset.subjects if s.event_time > CV_LANDMARK]

    def score(*subjects):
        return cv_dcl(samples, Dataset(subjects), CV_LANDMARK, spec, assoc, **CV_KWARGS)

    for first, second in zip(at_risk[::2], at_risk[1::2]):
        assert score(first, second) == (score(first) + score(second)) / 2


def test_cv_dcl_memory_does_not_grow_with_the_draws():
    """One subject at 2,000 posterior draws x 25 random-effect draws: both
    targets run over slices within the node budget, so the traced peak stays
    a few MB (a follow-up hazard over every draw's nodes at once takes 84 MB)."""
    import tracemalloc

    spec, assoc, samples, dataset = _cv_cohort(GAUSSIAN, "current_value")
    subject = max((s for s in dataset.subjects if s.event_time > CV_LANDMARK),
                  key=lambda s: s.event_time)
    samples = PosteriorSamples.degenerate(samples.mean_parameters(spec), 2000)
    tracemalloc.start()
    try:
        value = cv_dcl(samples, Dataset((subject,)), CV_LANDMARK, spec, assoc, n_re_draws=25,
                       seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(value)
    assert peak < 16e6


@pytest.mark.parametrize("case, expected", zip(CV_CASES, [
    -2.0855051003260425, -1.9347473555010144, -1.483211621593276]))
def test_cv_dcl_keeps_its_values(case, expected):
    """cvDCL as computed one subject at a time, with each subject's own
    stream: stacking the subjects moves it by rounding only."""
    spec, assoc, samples, dataset = _cv_cohort(*case)
    got = cv_dcl(samples, dataset, CV_LANDMARK, spec, assoc, **CV_KWARGS)
    assert got == pytest.approx(expected, abs=1e-8)


# --- expected information gain -------------------------------------------------------

def test_ekl_zero_when_event_certain_before_u():
    spec, assoc, theta = flat_hazard_model(lam=25.0)
    samples = PosteriorSamples.degenerate(theta, 200)
    config = ScheduleConfig(seed=2, n_outer=120, n_inner=8)
    result = ekl(HIST, [1.3], samples, spec, assoc, config)
    assert result == (EklResult(0.0, 0.0, 0.0),)


def test_ekl_deterministic_given_seed(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0], [3.6, 3.9], t=1.5)
    config = ScheduleConfig(seed=6, n_outer=50, n_inner=6)
    a = ekl(history, [2.5], small_joint["samples"], small_joint["spec"],
            small_joint["assoc"], config)
    b = ekl(history, [2.5], small_joint["samples"], small_joint["spec"],
            small_joint["assoc"], config)
    assert a == b


def test_ekl_interval_brackets_estimate(small_joint):
    history = SubjectHistory({"w": 0.0}, [0.0, 0.8], [3.7, 4.0], t=1.0)
    config = ScheduleConfig(seed=8, n_outer=80, n_inner=6)
    (r,) = ekl(history, [2.0], small_joint["samples"], small_joint["spec"],
               small_joint["assoc"], config)
    assert r.lower <= r.estimate <= r.upper


def test_ekl_requires_future_time():
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    config = ScheduleConfig(seed=1, n_outer=10, n_inner=2)
    with pytest.raises(DomainError):
        ekl(HIST, [0.3], samples, spec, assoc, config)


@pytest.mark.parametrize("us", [[], [1.3, 0.3], [1.3, HIST.t]])
def test_ekl_rejects_empty_or_past_times(us):
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    config = ScheduleConfig(seed=1, n_outer=10, n_inner=2)
    with pytest.raises(DomainError):
        ekl(HIST, us, samples, spec, assoc, config)


def test_ekl_value_does_not_depend_on_other_times(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0], [3.6, 3.9], t=1.5)
    config = ScheduleConfig(seed=9, n_outer=40, n_inner=5)
    args = (small_joint["samples"], small_joint["spec"], small_joint["assoc"], config)
    us = [1.9, 2.6, 3.4]
    together = ekl(history, us, *args)
    assert len(together) == len(us)
    for k, u in enumerate(us):
        assert ekl(history, [u], *args)[0] == together[k]
    assert ekl(history, us[::-1], *args) == together[::-1]


def test_ekl_gating_fraction_matches_conditional_survival():
    lam = 0.15
    spec, assoc, theta = flat_hazard_model(lam=lam)
    samples = PosteriorSamples.degenerate(theta, 500)
    config = ScheduleConfig(seed=12, n_outer=800, n_inner=4)
    u = 1.3
    (values,) = _ekl_draws(HIST, [u], samples, spec, assoc, config)
    frac_zero = float(np.mean(values == 0.0))
    p_gate = 1.0 - math.exp(-lam * (u - HIST.t))
    se = math.sqrt(p_gate * (1.0 - p_gate) / config.n_outer)
    assert frac_zero == pytest.approx(p_gate, abs=3.0 * se)


def toy_landmark_posterior(family, alpha, beta0, d, lam0, y, phi, t_land):
    """The random-intercept toy's quadrature over b given the measurements y
    at 0, 0.5, 1 and survival past t_land: on a grid of b, the linear
    predictor beta0 + b, the flat hazard lam0 exp(alpha eta) and the
    normalized weights of p(b | y, T* > t_land)."""
    bg = np.linspace(-6 * math.sqrt(d), 6 * math.sqrt(d), 301)
    eta = beta0 + bg
    lam_b = lam0 * np.exp(alpha * eta)
    if family is GAUSSIAN:
        loglik = stats.norm.logpdf(np.array(y)[:, None], eta, math.sqrt(phi)).sum(0)
    else:
        loglik = (np.array(y)[:, None] * eta - np.logaddexp(0.0, eta)).sum(0)
    log_wt = loglik - lam_b * t_land + stats.norm.logpdf(bg, 0.0, math.sqrt(d))
    wt = np.exp(log_wt - log_wt.max())
    return eta, lam_b, wt / wt.sum()


def intercept_toy(family, alpha, beta0, d, lam0, y, phi=1.0):
    """A random-intercept model with a flat baseline and the current-value
    association, a subject measured at 0, 0.5 and 1 and event-free at t = 1,
    and the nested-quadrature value of the information-gain numerator at
    u = 2 (the oracle of acceptance criterion 7, for either family).  Every
    survival ratio is an explicit exponential in b, and y(u) is integrated on
    a grid (gaussian) or summed over {0, 1} (bernoulli)."""
    spec = JointModelSpec(LongitudinalSpec(family=family, time_effect=None),
                          BSplineBasis(degree=3, interior_knots=(), boundary_knots=(0.0, 12.0)))
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(lam0)
    theta = Parameters(beta=np.array([beta0]), phi=phi, D=np.array([[d]]), gamma=np.empty(0),
                       alpha=np.array([alpha]), baseline=spec.make_baseline(gh, 1.0))
    t_land, u = 1.0, 2.0
    history = SubjectHistory({}, [0.0, 0.5, 1.0], y, t=t_land)

    eta, lam_b, wt = toy_landmark_posterior(family, alpha, beta0, d, lam0, y, phi, t_land)
    if family is GAUSSIAN:
        sd_y = math.sqrt(phi + d)
        yg = np.linspace(beta0 - 6 * sd_y, beta0 + 6 * sd_y, 161)
        like_yu = stats.norm.pdf(yg[:, None], eta, math.sqrt(phi)) * (yg[1] - yg[0])
    else:
        like_yu = np.stack([1.0 - expit(eta), expit(eta)])
    p_y = like_yu @ wt
    w_aug = like_yu * wt / p_y[:, None]
    w_u = w_aug * np.exp(-lam_b * (u - t_land))
    w_u /= w_u.sum(1, keepdims=True)
    edges = np.concatenate([[0.0], np.geomspace(1e-3, 30.0 / lam_b.min(), 80)])
    s_nodes, s_w = (a.ravel() for a in mapped_nodes(GK15, edges[:-1, None], edges[1:, None]))
    decay = np.exp(-np.outer(s_nodes, lam_b))
    log_pstar = np.log((decay * lam_b) @ w_u.T).T
    p_t = ((decay * (lam_b * np.exp(-lam_b * (u - t_land)))) @ w_aug.T).T
    oracle = float(p_y @ ((log_pstar * p_t) @ s_w))
    return history, spec, AssociationForm("current_value"), theta, u, oracle


@pytest.mark.parametrize("family, beta0, d, lam0, y, phi, n_outer, n_inner", [
    (GAUSSIAN, 3.0, 0.3, 0.01, [3.1, 3.4, 3.2], 0.2, 2000, 50),
    # one Bernoulli outcome says less about b than one gaussian one; more
    # replications and a larger pool resolve a flipped y(u) (about -4 SE)
    (BERNOULLI, 0.0, 4.0, 0.2, [1.0, 0.0, 1.0], 1.0, 8000, 200),
], ids=["gaussian", "bernoulli"])
def test_ekl_pool_matches_quadrature_oracle(family, beta0, d, lam0, y, phi, n_outer, n_inner):
    """The pooled estimator against nested quadrature on the criterion-7 toy
    at a strong association (alpha = 1.5), and on its Bernoulli-marker
    version."""
    history, spec, assoc, theta, u, oracle = intercept_toy(family, 1.5, beta0, d, lam0, y, phi)
    samples = PosteriorSamples.degenerate(theta, 1000)
    config = ScheduleConfig(seed=77, n_outer=n_outer, n_inner=n_inner)
    (values,) = _ekl_draws(history, [u], samples, spec, assoc, config)
    z = abs(values.mean() - oracle) / (values.std() / math.sqrt(values.size))
    assert z < 3.0, f"estimator {values.mean():.4f} vs oracle {oracle:.4f}, z = {z:.2f}"


# the criterion-7 toy of either family: beta0, d, lam0, y and phi
TOY_CASES = [(GAUSSIAN, 3.0, 0.3, 0.01, [3.1, 3.4, 3.2], 0.2),
             (BERNOULLI, 0.0, 4.0, 0.2, [1.0, 0.0, 1.0], 1.0)]


@pytest.mark.parametrize("family, beta0, d, lam0, y, phi", TOY_CASES,
                         ids=["gaussian", "bernoulli"])
def test_pi_curve_matches_quadrature_oracle(family, beta0, d, lam0, y, phi):
    """pi(u | t) of a subject at risk at t = 1 on the criterion-7 toy at a
    strong association (alpha = 1.5), at three horizons, against
    sum over b of p(b | y, T* > t) exp(-lam_b (u - t)) by quadrature.  The
    Monte Carlo SE comes from 20 seeds of the default 2,000 rows.  Too few
    sweeps of the kernel miss by the self-normalized bias of the first one:
    with 8 candidates the Bernoulli case misses by 5.6-5.9 SE after one sweep
    and 3.3-3.7 SE after two, and reads |z| <= 0.7 after RE_SWEEPS = 3.  With
    the weights dropped (plain proposal draws) it misses by 52-68 SE."""
    history, spec, assoc, theta, _, _ = intercept_toy(family, 1.5, beta0, d, lam0, y, phi)
    t = history.t
    _, lam_b, wt = toy_landmark_posterior(family, 1.5, beta0, d, lam0, y, phi, t)
    us = np.array([1.25, 2.0, 3.0])
    oracle = np.exp(-np.outer(us - t, lam_b)) @ wt
    samples = PosteriorSamples.degenerate(theta, 10)
    values = np.array([pi_curve(history, us, samples, spec, assoc, seed=seed)
                       for seed in range(20)])
    z = np.abs(values.mean(0) - oracle) / (values.std(0, ddof=1) / math.sqrt(20))
    assert np.all(z < 3.0), f"pi {values.mean(0)} vs oracle {oracle}, z = {z}"


def _sbc_chi2(ranks, n_bins):
    expected = ranks.size / n_bins
    return float(((np.bincount(ranks, minlength=n_bins) - expected) ** 2 / expected).sum())


def _landmark_draw_sbc(family, beta, phi, seed):
    """Simulation-based calibration of the landmark draw (Talts et al. 2018,
    arXiv:1804.06788) with theta fixed: the criterion-3 design (its visits,
    baseline spline and covariate w; the cumulative association at
    alpha = 1.5) with the given marker.  b ~ N(0, D) and the measurements at
    the visits up to t = 3 are drawn for 1,900 cases, and a case is kept with
    probability exp(-Lambda(t)), its survival past t: about 1,000 are.  Each
    kept case takes L = 19 rows of the stacked kernel ``_re_mh_draws`` at the
    sweeps a landmark draw runs, and the rank of the truth among them, for
    each coordinate of b and for log h(t), is uniform on 0..L when the kernel
    samples p(b | y, T* > t).  Returns the chi-square of the 20 rank counts of
    each, the 99.9% quantile of that chi-square over 20,000 uniform rank sets
    of the same size at seed 0, and the number of kept cases."""
    lspec = LongitudinalSpec(family=family, time_effect=LinearTime())
    basis = BSplineBasis(degree=3, interior_knots=(2.5, 5.0, 7.5), boundary_knots=(0.0, 10.5))
    spec = JointModelSpec(longitudinal=lspec, baseline_basis=basis, hazard_covariates=("w",))
    assoc = AssociationForm("cumulative")
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(0.06)
    theta = Parameters(beta=np.array(beta), phi=phi, D=np.diag([0.35, 0.02]),
                       gamma=np.array([0.5]), alpha=np.array([1.5]),
                       baseline=spec.make_baseline(gh, 1.0))
    t, n_draws, rng = 3.0, 19, np.random.default_rng(seed)
    visits = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    w = (rng.random(1900) < 0.5).astype(float)
    b = rng.multivariate_normal(np.zeros(2), theta.D, size=w.size)
    eta = theta.beta[0] + b[:, :1] + (theta.beta[1] + b[:, 1:]) * visits
    if family is BERNOULLI:
        y = (rng.random(eta.shape) < expit(eta)).astype(float)
    else:
        y = eta + math.sqrt(phi) * rng.standard_normal(eta.shape)
    histories = [SubjectHistory({"w": w_i}, visits, y_i, t=t) for w_i, y_i in zip(w, y)]
    th1 = ThetaBatch.from_parameters(theta, 1)
    cum = _ConditionData(spec, assoc, histories).cum_hazard(b[:, None, :], th1, t)[:, 0]
    keep = rng.random(w.size) < np.exp(-cum)
    histories, b = [h for h, k in zip(histories, keep) if k], b[keep]

    cdata = _ConditionData(spec, assoc, histories)
    th = ThetaBatch.from_parameters(theta, n_draws)
    rngs = [_stream(seed, 9, i) for i in range(len(histories))]
    draws = _re_mh_draws(cdata, th, posterior_mode_re(cdata, theta), rngs, RE_SWEEPS,
                         names=[f"case {i}" for i in range(len(histories))])
    at_t = np.full((len(histories), 1), t)
    log_h = cdata.log_hazard_grid(at_t, draws, th)[:, 0]
    log_h_true = cdata.log_hazard_grid(at_t, b[:, None, :], th1)[:, 0, 0]
    ranks = {"b[0]": np.sum(draws[..., 0] < b[:, None, 0], axis=1),
             "b[1]": np.sum(draws[..., 1] < b[:, None, 1], axis=1),
             "log h(t)": np.sum(log_h < log_h_true[:, None], axis=1)}

    null = np.random.default_rng(0).integers(0, n_draws + 1, size=(20000, len(histories)))
    limit = np.quantile([_sbc_chi2(r, n_draws + 1) for r in null], 0.999)
    chi2 = {name: _sbc_chi2(r, n_draws + 1) for name, r in ranks.items()}
    return chi2, limit, len(histories)


def test_landmark_draw_is_calibrated():
    """``_landmark_draw_sbc`` with a Bernoulli marker, beta = (0, 0.25), at
    data seed 0: 22, 17 and 24 against the limit 43.1.  On scratch
    copies, dropping the survival term from the target reads 254 for b[0] and
    267 for log h(t), and dropping the weights (plain proposal draws) 90 and
    108.  A halved measurement term stays within the null (24, 23 and 35):
    five Bernoulli outcomes say little about b, and the gaussian case below
    and the pi oracle test catch it."""
    chi2, limit, kept = _landmark_draw_sbc(BERNOULLI, (0.0, 0.25), 1.0, seed=0)
    assert 900 < kept < 1100
    assert all(v < limit for v in chi2.values()), f"rank chi-square {chi2}, limit {limit:.1f}"


def test_landmark_draw_is_calibrated_for_a_gaussian_marker():
    """``_landmark_draw_sbc`` with a gaussian marker, beta = (0, 0.25) and
    phi = 0.1, at data seed 1: 18, 23 and 23 against the limit 43.7.  Five
    measurements pin b[0] to about a twentieth of its prior variance, so a
    target with the measurement term halved draws b too wide: on a scratch
    copy it reads 61 for b[0] and 88 for log h(t).  Dropping the weights reads
    72 for b[0]; dropping the survival term stays within the null here (the
    Bernoulli case catches it).  At data seed 0, b[0] reads 44.4 against the
    limit 43.9 with this kernel and 48.8 with 32 candidates and 10 sweeps, an
    unlucky set of cases: over data seeds 1-12 its mean is 19.6 (at most
    27.9) with this kernel and 20.5 (at most 30.8) with the longer one."""
    chi2, limit, kept = _landmark_draw_sbc(GAUSSIAN, (0.0, 0.25), 0.1, seed=1)
    assert 900 < kept < 1100
    assert all(v < limit for v in chi2.values()), f"rank chi-square {chi2}, limit {limit:.1f}"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("event_time, event", [(1.8, 1), (2.5, 0)], ids=["event", "censored"])
@pytest.mark.parametrize("family, beta0, d, lam0, y, phi", TOY_CASES,
                         ids=["gaussian", "bernoulli"])
def test_cv_dcl_matches_quadrature_oracle(family, beta0, d, lam0, y, phi, event_time, event):
    """cvDCL of one subject at risk at t = 1 on the criterion-7 toy at a
    strong association (alpha = 1.5), with an event or censored after t,
    against log p(T, delta | T > t, Y(t), theta) by quadrature over b.  The
    Monte Carlo SE comes from 20 seeds; with the importance weights dropped
    (a plain mean over proposal draws) every case misses by more than 6 SE."""
    history, spec, assoc, theta, _, _ = intercept_toy(family, 1.5, beta0, d, lam0, y, phi)
    t = history.t
    _, lam_b, wt = toy_landmark_posterior(family, 1.5, beta0, d, lam0, y, phi, t)
    oracle = math.log(wt @ (lam_b**event * np.exp(-lam_b * (event_time - t))))
    dataset = Dataset((Subject("s0", history.times, history.y, event_time, event),))
    samples = PosteriorSamples.degenerate(theta, 10)
    values = np.array([cv_dcl(samples, dataset, t, spec, assoc, n_re_draws=400, seed=seed)
                       for seed in range(20)])
    z = abs(values.mean() - oracle) / (values.std(ddof=1) / math.sqrt(values.size))
    assert z < 3.0, f"cvDCL {values.mean():.4f} vs oracle {oracle:.4f}, z = {z:.2f}"


# --- scheduling -----------------------------------------------------------------------

def test_selection_rule_feasibility_and_ties():
    # only feasible point wins regardless of gain
    assert _select_candidate(np.array([5.0, 1.0, 4.0]),
                             np.array([0.5, 0.9, 0.7]), 0.8) == 1
    # ties break toward the earliest candidate
    assert _select_candidate(np.array([2.0, 2.0, 2.0]),
                             np.array([0.9, 0.9, 0.9]), 0.8) == 0
    # infeasible everywhere
    assert _select_candidate(np.array([1.0, 2.0]), np.array([0.1, 0.2]), 0.8) is None


def test_schedule_grid_reproduces_full_horizon_shape():
    spec, assoc, theta = flat_hazard_model(lam=0.01)  # survival stays above kappa
    samples = PosteriorSamples.degenerate(theta, 300)
    config = ScheduleConfig(seed=3, n_outer=40, n_inner=4)
    plan = schedule_next(HIST, samples, spec, assoc, config)
    assert plan.t_up - plan.landmark == 5.0
    assert np.array_equal(plan.grid, np.array([1.3, 2.3, 3.3, 4.3, 5.3]))
    assert plan.selected is not None
    assert plan.advisory is None


def test_schedule_respects_survival_constraint(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0, 2.0], [3.6, 4.0, 4.3], t=2.0)
    config = ScheduleConfig(seed=4, n_outer=60, n_inner=6)
    plan = schedule_next(history, small_joint["samples"], small_joint["spec"],
                         small_joint["assoc"], config)
    assert plan.grid.size == config.grid_size
    steps = np.diff(plan.grid)
    assert np.allclose(steps, steps[0], atol=1e-9)
    assert plan.t_up <= history.t + config.t_max + 1e-12
    if plan.selected is not None:
        k = int(np.nonzero(plan.grid == plan.selected)[0][0])
        assert plan.pi[k] >= config.kappa
        assert plan.selected <= history.t + config.t_max


def test_schedule_immediately_binding_constraint():
    spec, assoc, theta = flat_hazard_model(lam=400.0)
    samples = PosteriorSamples.degenerate(theta, 100)
    config = ScheduleConfig(seed=5, n_outer=20, n_inner=3)
    plan = schedule_next(HIST, samples, spec, assoc, config)
    assert plan.selected is None
    assert "intervene" in plan.advisory


def test_schedule_deterministic(small_joint):
    history = SubjectHistory({"w": 0.0}, [0.0, 0.5], [3.4, 3.6], t=1.0)
    config = ScheduleConfig(seed=17, n_outer=30, n_inner=4)
    a = schedule_next(history, small_joint["samples"], small_joint["spec"],
                      small_joint["assoc"], config)
    b = schedule_next(history, small_joint["samples"], small_joint["spec"],
                      small_joint["assoc"], config)
    assert np.array_equal(a.grid, b.grid)
    assert a.ekl == b.ekl
    assert np.array_equal(a.pi, b.pi)
    assert a.selected == b.selected


def test_schedule_ekl_is_ekl_at_each_grid_point(small_joint):
    """A plan scores its grid in one ``ekl`` call, and each value is what
    ``ekl`` gives at that grid point alone."""
    history = SubjectHistory({"w": 0.0}, [0.0, 0.5], [3.4, 3.6], t=1.0)
    config = ScheduleConfig(seed=17, n_outer=30, n_inner=4)
    args = (small_joint["samples"], small_joint["spec"], small_joint["assoc"], config)
    plan = schedule_next(history, *args)
    assert plan.t_up - plan.landmark > 1e-3
    for u, result in zip(plan.grid, plan.ekl):
        assert ekl(history, [u], *args) == (result,)


def test_schedule_pi_is_pi_curve_on_the_landmark_draw(small_joint):
    """A plan's pi is predict's estimator on the plan's n_outer landmark draws."""
    history = SubjectHistory({"w": 0.0}, [0.0, 0.5], [3.4, 3.6], t=1.0)
    config = ScheduleConfig(seed=17, n_outer=30, n_inner=4)
    args = (small_joint["samples"], small_joint["spec"], small_joint["assoc"])
    plan = schedule_next(history, *args, config)
    assert np.array_equal(plan.pi, pi_curve(history, plan.grid, *args, g_pi=config.n_outer,
                                            seed=config.seed))


def test_schedule_upper_limit_at_huge_t_max_matches_closed_form():
    """With a flat hazard lam, pi(u | t) = exp(-lam (u - t)) on every draw, so
    the bisection for t_up ends within PI_BISECTION_TOL / (lam (kappa - tol))
    of ln(1 / kappa) / lam however wide its first bracket."""
    lam, kappa = 0.01, 0.8
    spec, assoc, theta = flat_hazard_model(lam=lam)
    samples = PosteriorSamples.degenerate(theta, 100)
    config = ScheduleConfig(seed=3, kappa=kappa, t_max=1e300, n_outer=40, n_inner=4)
    plan = schedule_next(HIST, samples, spec, assoc, config)
    assert plan.t_up - plan.landmark == pytest.approx(
        math.log(1.0 / kappa) / lam, abs=PI_BISECTION_TOL / (lam * (kappa - PI_BISECTION_TOL)))
    assert plan.advisory is None


def test_schedule_plan_validates_selected_feasibility():
    """A selected time must be a grid point whose pi is at least kappa."""
    for selected in (2.0, 2.5):
        with pytest.raises(ConfigError):
            SchedulePlan(landmark=1.0, kappa=0.8, t_up=3.0, grid=np.array([2.0, 3.0]),
                         ekl=(EklResult(0, 0, 0), EklResult(0, 0, 0)),
                         pi=np.array([0.5, 0.9]), selected=selected)


def test_schedule_config_validation():
    with pytest.raises(ConfigError):
        ScheduleConfig(seed=1, kappa=1.5)
    with pytest.raises(ConfigError):
        ScheduleConfig(seed=1, grid_size=1)
    with pytest.raises(ConfigError):
        ScheduleConfig(seed=1, n_outer=0)
    # the event-time cap t + 100 * t_max must be finite
    for t_max in (math.inf, 1.7e308):
        with pytest.raises(ConfigError):
            ScheduleConfig(seed=1, t_max=t_max)


def test_model_score_alignment_contract():
    with pytest.raises(ConfigError):
        ModelScore(model="m", dic=1.0, landmarks=(1.0, 2.0), cvdcl=(0.1,),
                   n_at_risk=(5, 4))
