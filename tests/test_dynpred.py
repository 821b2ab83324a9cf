import math

import numpy as np
import pytest
from scipy import stats

from jmsched.dynpred import (
    EklResult,
    ModelScore,
    ScheduleConfig,
    SchedulePlan,
    _ekl_draws,
    _event_time_batch,
    _select_candidate,
    conditional_survival,
    cv_dcl,
    ekl,
    pi_curve,
    schedule_next,
    simulate_event_time,
    simulate_future_measurement,
)
from jmsched.errors import ConfigError, DomainError
from jmsched.mcmc import PosteriorSamples, ThetaBatch, _ConditionData
from jmsched.model import (
    BERNOULLI,
    Dataset,
    JointModelSpec,
    LinearTime,
    LongitudinalSpec,
    Parameters,
    SubjectHistory,
)
from jmsched.numerics import BSplineBasis
from jmsched.simulate import SimulationDesign, generate_dataset

from conftest import gaussian_joint_model


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
    assert conditional_survival(HIST, 0.3, samples, spec, assoc, g_pi=50, seed=0,
                                warmup=20) == 1.0


def test_pi_rejects_u_before_landmark():
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(DomainError):
        conditional_survival(HIST, 0.2, samples, spec, assoc, g_pi=10, seed=0, warmup=5)


def test_pi_constant_hazard_analytic():
    lam = 0.12
    spec, assoc, theta = flat_hazard_model(lam=lam)
    samples = PosteriorSamples.degenerate(theta, 2000)
    for u in (1.3, 2.3, 4.3):
        got = conditional_survival(HIST, u, samples, spec, assoc, g_pi=2000, seed=1,
                                   warmup=50)
        assert got == pytest.approx(math.exp(-lam * (u - 0.3)), abs=0.01)


def test_pi_curve_monotone_with_common_draws(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0, 2.0], [3.6, 3.9, 4.1], t=2.0)
    us = 2.0 + np.linspace(0.0, 4.0, 9)
    curve = pi_curve(history, us, small_joint["samples"], small_joint["spec"],
                     small_joint["assoc"], g_pi=400, seed=5, warmup=150)
    assert curve[0] == 1.0
    assert np.all(np.diff(curve) <= 1e-12)
    assert np.all((curve >= 0.0) & (curve <= 1.0))


@pytest.mark.parametrize("kwargs", [dict(g_pi=0), dict(g_pi=-1), dict(warmup=0),
                                    dict(warmup=-3)])
def test_pi_curve_rejects_nonpositive_counts(kwargs):
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(ConfigError):
        pi_curve(HIST, [0.5], samples, spec, assoc, **{"g_pi": 10, "warmup": 5, **kwargs})


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
    cdata = _ConditionData(spec, assoc, SubjectHistory({"w": 0.0}, [], [], 1.0))
    th = ThetaBatch.from_parameters(theta, 4000)
    times, capped = _event_time_batch(cdata, th, np.zeros((4000, 2)),
                                      np.random.default_rng(8), cap=501.0)
    assert not capped.any()
    res = stats.kstest(times - 1.0, "expon", args=(0.0, 1.0 / lam))
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
                 seed=3, warmup=40)
    at_risk = [s for s in dataset.subjects if s.event_time > t]
    analytic = np.mean([
        s.event * math.log(lam) - lam * (s.event_time - t) for s in at_risk
    ])
    assert got == pytest.approx(analytic, abs=0.02)


def test_cv_dcl_permutation_invariant(exponential_cohort):
    lam, spec, assoc, theta, dataset = exponential_cohort
    samples = PosteriorSamples.degenerate(theta, 25)
    kwargs = dict(n_theta_draws=10, n_re_draws=4, seed=9, warmup=30)
    base = cv_dcl(samples, dataset, 2.0, spec, assoc, **kwargs)
    perm = np.random.default_rng(1).permutation(dataset.n)
    shuffled = Dataset(tuple(dataset.subjects[k] for k in perm))
    again = cv_dcl(samples, shuffled, 2.0, spec, assoc, **kwargs)
    assert again == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("kwargs", [dict(n_theta_draws=0), dict(n_re_draws=0),
                                    dict(n_re_draws=-1), dict(warmup=0), dict(warmup=-1)])
def test_cv_dcl_rejects_nonpositive_counts(exponential_cohort, kwargs):
    _, spec, assoc, theta, dataset = exponential_cohort
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(ConfigError):
        cv_dcl(samples, dataset, 2.0, spec, assoc,
               **{"n_theta_draws": 5, "n_re_draws": 2, "warmup": 5, **kwargs})


def test_cv_dcl_empty_landmark(exponential_cohort):
    _, spec, assoc, theta, dataset = exponential_cohort
    samples = PosteriorSamples.degenerate(theta, 10)
    with pytest.raises(DomainError):
        cv_dcl(samples, dataset, 100.0, spec, assoc, n_theta_draws=5, n_re_draws=2)


# --- expected information gain -------------------------------------------------------

def test_ekl_zero_when_event_certain_before_u():
    spec, assoc, theta = flat_hazard_model(lam=25.0)
    samples = PosteriorSamples.degenerate(theta, 200)
    config = ScheduleConfig(seed=2, n_outer=120, n_inner=8, n_pi=100, re_warmup=40)
    result = ekl(HIST, [1.3], samples, spec, assoc, config)
    assert result == (EklResult(0.0, 0.0, 0.0),)


def test_ekl_deterministic_given_seed(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0], [3.6, 3.9], t=1.5)
    config = ScheduleConfig(seed=6, n_outer=50, n_inner=6, n_pi=100, re_warmup=60)
    a = ekl(history, [2.5], small_joint["samples"], small_joint["spec"],
            small_joint["assoc"], config)
    b = ekl(history, [2.5], small_joint["samples"], small_joint["spec"],
            small_joint["assoc"], config)
    assert a == b


def test_ekl_interval_brackets_estimate(small_joint):
    history = SubjectHistory({"w": 0.0}, [0.0, 0.8], [3.7, 4.0], t=1.0)
    config = ScheduleConfig(seed=8, n_outer=80, n_inner=6, n_pi=100, re_warmup=60)
    (r,) = ekl(history, [2.0], small_joint["samples"], small_joint["spec"],
               small_joint["assoc"], config)
    assert r.lower <= r.estimate <= r.upper


def test_ekl_requires_future_time():
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    config = ScheduleConfig(seed=1, n_outer=10, n_inner=2, n_pi=10, re_warmup=5)
    with pytest.raises(DomainError):
        ekl(HIST, [0.3], samples, spec, assoc, config)


@pytest.mark.parametrize("us", [[], [1.3, 0.3], [1.3, HIST.t]])
def test_ekl_rejects_empty_or_past_times(us):
    spec, assoc, theta = flat_hazard_model()
    samples = PosteriorSamples.degenerate(theta, 10)
    config = ScheduleConfig(seed=1, n_outer=10, n_inner=2, n_pi=10, re_warmup=5)
    with pytest.raises(DomainError):
        ekl(HIST, us, samples, spec, assoc, config)


def test_ekl_value_does_not_depend_on_other_times(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0], [3.6, 3.9], t=1.5)
    config = ScheduleConfig(seed=9, n_outer=40, n_inner=5, n_pi=100, re_warmup=50)
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
    config = ScheduleConfig(seed=12, n_outer=800, n_inner=4, n_pi=100, re_warmup=40)
    u = 1.3
    (values,) = _ekl_draws(HIST, [u], samples, spec, assoc, config)
    frac_zero = float(np.mean(values == 0.0))
    p_gate = 1.0 - math.exp(-lam * (u - HIST.t))
    se = math.sqrt(p_gate * (1.0 - p_gate) / config.n_outer)
    assert frac_zero == pytest.approx(p_gate, abs=3.0 * se)


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
    config = ScheduleConfig(seed=3, n_outer=40, n_inner=4, n_pi=200, re_warmup=40)
    plan = schedule_next(HIST, samples, spec, assoc, config)
    assert plan.t_up - plan.landmark == 5.0
    assert np.array_equal(plan.grid, np.array([1.3, 2.3, 3.3, 4.3, 5.3]))
    assert plan.selected is not None
    assert plan.advisory is None


def test_schedule_respects_survival_constraint(small_joint):
    history = SubjectHistory({"w": 1.0}, [0.0, 1.0, 2.0], [3.6, 4.0, 4.3], t=2.0)
    config = ScheduleConfig(seed=4, n_outer=60, n_inner=6, n_pi=300, re_warmup=100)
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
    config = ScheduleConfig(seed=5, n_outer=20, n_inner=3, n_pi=150, re_warmup=30)
    plan = schedule_next(HIST, samples, spec, assoc, config)
    assert plan.selected is None
    assert "intervene" in plan.advisory


def test_schedule_deterministic(small_joint):
    history = SubjectHistory({"w": 0.0}, [0.0, 0.5], [3.4, 3.6], t=1.0)
    config = ScheduleConfig(seed=17, n_outer=30, n_inner=4, n_pi=120, re_warmup=50)
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
    config = ScheduleConfig(seed=17, n_outer=30, n_inner=4, n_pi=120, re_warmup=50)
    args = (small_joint["samples"], small_joint["spec"], small_joint["assoc"], config)
    plan = schedule_next(history, *args)
    assert plan.t_up - plan.landmark > 1e-3
    for u, result in zip(plan.grid, plan.ekl):
        assert ekl(history, [u], *args) == (result,)


def test_schedule_plan_validates_selected_feasibility():
    with pytest.raises(ConfigError):
        SchedulePlan(landmark=1.0, kappa=0.8, t_up=3.0, grid=np.array([2.0, 3.0]),
                     ekl=(EklResult(0, 0, 0), EklResult(0, 0, 0)),
                     pi=np.array([0.5, 0.9]), selected=2.0)


def test_schedule_config_validation():
    with pytest.raises(ConfigError):
        ScheduleConfig(seed=1, kappa=1.5)
    with pytest.raises(ConfigError):
        ScheduleConfig(seed=1, grid_size=1)
    with pytest.raises(ConfigError):
        ScheduleConfig(seed=1, n_outer=0)


def test_model_score_alignment_contract():
    with pytest.raises(ConfigError):
        ModelScore(model="m", dic=1.0, landmarks=(1.0, 2.0), cvdcl=(0.1,),
                   n_at_risk=(5, 4))
