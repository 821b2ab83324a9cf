import hashlib
import math

import numpy as np
import pytest

from jmsched.errors import ConfigError
from jmsched.model import Parameters, parameters_from_flat
from jmsched.simulate import (
    SimulationDesign,
    generate_dataset,
    parse_truth,
    truth_report,
)

from conftest import gaussian_joint_model


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
