import dataclasses
import hashlib
import math

import numpy as np
import pytest

from jmsched import dynpred, simulate
from jmsched.dynpred import simulate_event_time, simulate_future_measurement
from jmsched.errors import ConfigError
from jmsched.model import (
    BERNOULLI,
    GAUSSIAN,
    AssociationForm,
    JointModelSpec,
    LinearTime,
    LongitudinalSpec,
    Parameters,
    SplineTime,
    Subject,
    SubjectHistory,
    parameters_from_flat,
)
from jmsched.numerics import GK15, BSplineBasis, NaturalCubicBasis
from jmsched.simulate import (
    SimulationDesign,
    _draw_covariates,
    generate_dataset,
    parse_truth,
    truth_report,
)

from conftest import gaussian_joint_model, true_parameters

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def flat_design(lam=0.1, n=200, seed=1, censor_admin=None, censor_rate=None,
                alpha=0.0, jitter=0.0, visits=(0.0, 1.0, 2.0, 3.0, 4.0)):
    spec, assoc = gaussian_joint_model(interior=(), upper=12.0)
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(lam)
    theta = Parameters(beta=np.array([3.5, 0.2]), phi=0.25, D=np.diag([0.3, 0.02]),
                       gamma=np.array([0.0]), alpha=np.array([alpha]),
                       baseline=spec.make_baseline(gh, 1.0))
    return SimulationDesign(
        n_subjects=n, parameters=theta, spec=spec, assoc=assoc, visit_times=visits,
        seed=seed, visit_jitter=jitter, censor_admin=censor_admin,
        censor_rate=censor_rate, covariates={"w": ("constant", 0.0)})


def kaplan_meier_at(dataset, t):
    times = np.array([s.event_time for s in dataset.subjects])
    events = np.array([s.event for s in dataset.subjects])
    order = np.argsort(times)
    times, events = times[order], events[order]
    surv = 1.0
    at_risk = len(times)
    for tt, ev in zip(times, events):
        if tt > t:
            break
        if ev:
            surv *= 1.0 - 1.0 / at_risk
        at_risk -= 1
    return surv


def test_no_censoring_all_events():
    dataset = generate_dataset(flat_design(n=60, lam=0.3))
    assert all(s.event == 1 for s in dataset.subjects)


def test_capped_event_time_is_censored_at_the_cap():
    # with no censoring configured, a draw that never reaches its event
    # before the cap (100 x 5 here) is censored there, not an event
    dataset = generate_dataset(flat_design(n=20, lam=1e-4, seed=5))
    capped = [s for s in dataset.subjects if s.event_time == 500.0]
    assert len(capped) >= 15
    assert all(s.event == 0 for s in capped)
    assert all(s.event == 1 for s in dataset.subjects if s.event_time < 500.0)


def test_kaplan_meier_matches_constant_hazard():
    dataset = generate_dataset(flat_design(lam=0.1, n=2000, seed=7))
    assert kaplan_meier_at(dataset, 5.0) == pytest.approx(math.exp(-0.5), abs=0.03)


def test_same_seed_identical_dataset():
    a = generate_dataset(flat_design(n=40, seed=3, jitter=0.1, censor_admin=6.0))
    b = generate_dataset(flat_design(n=40, seed=3, jitter=0.1, censor_admin=6.0))
    assert a == b
    c = generate_dataset(flat_design(n=40, seed=4, jitter=0.1, censor_admin=6.0))
    assert a != c


def test_measurement_times_respect_observed_time():
    dataset = generate_dataset(flat_design(n=150, seed=5, jitter=0.1, censor_admin=3.5,
                                           lam=0.4))
    for s in dataset.subjects:
        assert s.times.size == 0 or s.times[-1] <= s.event_time
        assert np.all(np.diff(s.times) >= 0)


def test_event_fraction_matches_analytic():
    lam, admin, n = 0.2, 4.0, 2000
    dataset = generate_dataset(flat_design(lam=lam, n=n, seed=11, censor_admin=admin))
    p = 1.0 - math.exp(-lam * admin)
    se = math.sqrt(p * (1.0 - p) / n)
    assert dataset.n_events / n == pytest.approx(p, abs=3.0 * se)


def test_measurement_counts_match_truncated_schedule():
    visits = (0.0, 1.0, 2.0, 3.0, 4.0)
    dataset = generate_dataset(flat_design(lam=0.35, n=120, seed=9, jitter=0.0,
                                           visits=visits))
    for s in dataset.subjects:
        expected = sum(1 for v in visits if v <= s.event_time)
        assert s.n_obs == expected


def test_design_validation():
    with pytest.raises(ConfigError):
        flat_design(n=0)
    with pytest.raises(ConfigError):
        flat_design(visits=())
    with pytest.raises(ConfigError):
        flat_design(censor_admin=-1.0)


def test_truth_report_round_trip():
    spec, _ = gaussian_joint_model()
    design = flat_design(n=2)
    text = truth_report(design)
    values = parse_truth(text)
    rebuilt = parameters_from_flat(values, design.spec)
    theta = design.parameters
    assert np.allclose(rebuilt.beta, theta.beta, atol=1e-12)
    assert np.allclose(rebuilt.D, theta.D, atol=1e-12)
    assert np.allclose(rebuilt.gamma_h0, theta.gamma_h0, atol=1e-12)
    assert rebuilt.phi == theta.phi
    assert rebuilt.tau_h == theta.tau_h


def test_truth_report_lists_each_scalar_once():
    design = flat_design(n=2)
    theta = design.parameters
    text = truth_report(design)
    keys = [line.split("=")[0] for line in text.strip().splitlines()]
    assert len(keys) == len(set(keys))
    expected = (theta.beta.size + theta.gamma.size + theta.alpha.size
                + theta.gamma_h0.size + 1 + theta.n_random * (theta.n_random + 1) // 2 + 1)
    assert len(keys) == expected


def test_truth_report_hash_stable():
    h1 = hashlib.sha256(truth_report(flat_design(n=5)).encode()).hexdigest()
    h2 = hashlib.sha256(truth_report(flat_design(n=5)).encode()).hexdigest()
    assert h1 == h2


def test_recovery_smoke_posterior_draws_have_truth_nearby(small_joint):
    # crude sanity that the shared fixture's simulated fit brackets the truth
    samples = small_joint["samples"]
    theta = small_joint["theta"]
    for k in range(2):
        lo, hi = np.percentile(samples.beta[:, k], [0.5, 99.5])
        assert lo <= theta.beta[k] <= hi


def test_huge_fixed_effect_overflows_to_finite_clamped_output_without_warning():
    """A finite fixed effect so large that X.beta overflows at the hazard's
    nodes is clamped with the log hazard: no RuntimeWarning (an error in this
    module), and every time and value of the cohort is finite."""
    design = flat_design(n=30, alpha=0.2, jitter=0.05, censor_admin=8.0)
    huge = dataclasses.replace(design.parameters, beta=np.array([3.5, 1e308]))
    dataset = generate_dataset(dataclasses.replace(design, parameters=huge))
    assert all(math.isfinite(s.event_time) and s.event_time > 0 for s in dataset.subjects)
    assert all(np.isfinite(s.y).all() for s in dataset.subjects)


# --- the stacked inversion against one inversion per subject ---------------------------

def per_subject_reference(design):
    """The cohort drawn one subject at a time: each subject's event time by
    ``simulate_event_time`` on the subject's own stream, between its b and
    its censoring draws."""
    theta = design.parameters
    chol = np.linalg.cholesky(theta.D)
    cap = 100.0 * max(design.censor_admin or 0.0, max(design.visit_times), 5.0)
    subjects = []
    for i in range(design.n_subjects):
        rng = np.random.default_rng([design.seed, i])
        covs = _draw_covariates(design, rng)
        b = chol @ rng.standard_normal(theta.n_random)
        t_star, capped = simulate_event_time(theta, design.spec, design.assoc, covs, b, 0.0,
                                             rng, cap=cap)
        censor = np.inf if design.censor_admin is None else design.censor_admin
        if design.censor_rate is not None:
            censor = min(censor, rng.exponential(1.0 / design.censor_rate))
        observed = min(t_star, censor)
        visits = np.array(design.visit_times)
        if design.visit_jitter > 0:
            visits = visits + rng.uniform(-design.visit_jitter, design.visit_jitter,
                                          size=visits.size)
        visits = np.unique(np.clip(visits, 0.0, None))
        visits = visits[visits <= observed]
        holder = SubjectHistory(covs, np.empty(0), np.empty(0), t=0.0)
        values = [simulate_future_measurement(design.spec, holder, b, theta, float(u), rng)
                  for u in visits]
        subjects.append(Subject(id=f"s{i:04d}", times=visits, y=values, event_time=observed,
                                event=int(t_star <= censor and not capped), covariates=covs))
    return subjects


def benchmark_design(n=200, seed=3):
    """The benchmark's cohort: criterion 3's current-value design."""
    spec, assoc = gaussian_joint_model(interior=(2.5, 5.0, 7.5), upper=10.5)
    return SimulationDesign(
        n_subjects=n, parameters=true_parameters(spec, lam=0.06, alpha=0.2), spec=spec,
        assoc=assoc, visit_times=(0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        seed=seed, censor_admin=10.0, covariates={"w": ("bernoulli", 0.5)})


def variant_design(association="current_value", family=GAUSSIAN, time_effect=LinearTime(),
                   long_covariate=False, censor_rate=None, n=60, seed=4):
    """A two-random-effect model with a spline baseline hazard, varied by one knob."""
    lspec = LongitudinalSpec(family=family, time_effect=time_effect, random_time_terms=1,
                             covariates=("z",) if long_covariate else ())
    spec = JointModelSpec(longitudinal=lspec, hazard_covariates=("w",),
                          baseline_basis=BSplineBasis(3, (2.0, 5.0, 8.0), (0.0, 12.0)))
    assoc = AssociationForm(association, 2 if association == "shared_random_effects" else None)
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(0.07)
    intercept, slope = (3.6, 0.25) if family is GAUSSIAN else (-0.5, 0.3)
    theta = Parameters(beta=np.array([intercept, slope] + [0.1] * (lspec.n_fixed - 2)),
                       phi=0.25, D=np.diag([0.35, 0.02]), gamma=np.array([0.5]),
                       alpha=np.full(assoc.n_params, 0.25),
                       baseline=spec.make_baseline(gh, 1.0))
    covariates = {"w": ("bernoulli", 0.5)}
    if long_covariate:
        covariates["z"] = ("normal", 0.0, 1.0)
    return SimulationDesign(
        n_subjects=n, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0), seed=seed, visit_jitter=0.1,
        censor_admin=10.0, censor_rate=censor_rate, covariates=covariates)


def test_benchmark_cohort_matches_per_subject_inversion_bit_for_bit():
    design = benchmark_design()
    assert generate_dataset(design).subjects == tuple(per_subject_reference(design))


@pytest.mark.parametrize("knobs", [
    {"association": "cumulative"}, {"association": "value_and_slope"},
    {"association": "shared_random_effects"},
    {"time_effect": SplineTime(NaturalCubicBasis((0.0, 6.0), (2.0, 4.0)))},
    {"family": BERNOULLI}, {"long_covariate": True}, {"censor_rate": 0.1},
], ids=["cumulative", "value_and_slope", "shared_random_effects", "ncs_time", "bernoulli",
        "long_covariate", "censor_rate"])
def test_stacked_inversion_matches_per_subject_inversion(knobs):
    """Event times agree with one inversion per subject to rounding (the
    stacked designs may sum in another order); every other field is exact."""
    design = variant_design(**knobs)
    got, ref = generate_dataset(design).subjects, per_subject_reference(design)
    assert len(got) == len(ref)
    np.testing.assert_allclose([s.event_time for s in got], [s.event_time for s in ref],
                               rtol=1e-12, atol=0.0)
    for a, b in zip(got, ref):
        assert a == dataclasses.replace(b, event_time=a.event_time)


def test_subject_record_does_not_depend_on_cohort_size():
    design = variant_design(censor_rate=0.1, n=40)
    full = generate_dataset(design).subjects
    assert generate_dataset(dataclasses.replace(design, n_subjects=15)).subjects == full[:15]


@pytest.mark.parametrize("budget, sizes", [("7 subjects", [7] * 5 + [5]),
                                           ("3 cells", [1] * 40)])
def test_cohort_does_not_depend_on_inversion_chunks(monkeypatch, budget, sizes):
    """A node budget of 7 subjects' cells, which splits the cohort into chunks
    of 7, or of 3 cells, which leaves one subject per chunk and 3 cells per
    running-hazard design, gives the cohort of one chunk."""
    design = benchmark_design(n=40)
    whole = generate_dataset(design)
    cells = dynpred._event_time_edges(design.spec, 0.0, 100.0 * design.censor_admin).size - 1
    monkeypatch.setattr(dynpred, "HAZARD_NODE_BUDGET",
                        GK15.nodes.size * (cells * 7 if budget == "7 subjects" else 3))
    chunks, batch = [], simulate._event_time_batch

    def counted(cdata, *args):
        chunks.append(cdata.n_histories)
        return batch(cdata, *args)
    monkeypatch.setattr(simulate, "_event_time_batch", counted)
    assert generate_dataset(design) == whole
    assert chunks == sizes
