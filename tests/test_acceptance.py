"""Acceptance suite: one test per criterion, each printing a PASS line.

The first block pins the tolerances; everything heavy (the recovery fit, the
model-ranking study, the scheduling study) runs once as a module fixture.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import math
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.stats import norm

import jmsched as jm
from jmsched.dynpred import (
    ScheduleConfig,
    _ekl_draws,
    _event_time_batch,
    conditional_survival,
    cv_dcl,
    ekl,
    schedule_next,
)
from jmsched.mcmc import (
    McmcConfig,
    PosteriorSamples,
    PriorSet,
    ThetaBatch,
    _ConditionData,
    dic,
    fit,
    sample_random_effects,
)
from jmsched.model import GAUSSIAN, flatten
from jmsched.numerics import (
    BSplineBasis,
    DifferencePenalty,
    QuadratureRule,
    bspline_deriv,
    bspline_eval,
    integrate,
    mapped_nodes,
    penalty_matrix,
)
from jmsched.simulate import SimulationDesign, generate_dataset

from conftest import gaussian_joint_model, true_parameters
from test_mcmc import chain_se, conjugate_history, grid_ks_distance, intercept_model

# pinned tolerances, straight from the criteria
TOL_SURVIVAL = 1e-8
TOL_CONDITIONAL = 0.01
TOL_PARTITION = 1e-12
TOL_DERIV = 1e-5
TOL_GL_EXACT = 1e-12
RECOVERY_SD_MULTIPLE = 3.0
RHAT_LIMIT = 1.1
VAR_REL_TOL = 0.10
KS_GRID_LIMIT = 0.05
KS_ALPHA = 0.01
TOL_CVDCL_ANALYTIC = 0.02
RANKING_WINS = 16     # >= 80% of 20 replicates
EKL_SE_MULTIPLE = 3.0


@pytest.fixture
def report(capsys):
    """Emit one pass line per criterion past pytest's capture."""

    def _report(criterion, message):
        with capsys.disabled():
            sys.stdout.write(f"\nPASS criterion {criterion}: {message}\n")
            sys.stdout.flush()

    return _report


def flat_exponential_model(lam, alpha=0.0):
    spec, assoc = gaussian_joint_model(interior=(), upper=12.0)
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(lam)
    theta = jm.Parameters(beta=np.array([3.5, 0.2]), phi=0.25, D=np.diag([0.3, 0.02]),
                          gamma=np.array([0.0]), alpha=np.array([alpha]),
                          baseline=spec.make_baseline(gh, 1.0))
    return spec, assoc, theta


# ---------------------------------------------------------------------------
# Criterion 1: closed-form survival
# ---------------------------------------------------------------------------

def test_criterion_1_closed_form_survival(report):
    lam = 0.13
    spec, assoc, theta = flat_exponential_model(lam)
    subject = jm.SubjectHistory({"w": 0.0}, [0.0], [3.5], t=0.4)
    worst = 0.0
    for t in np.arange(0.1, 10.0 + 1e-9, 0.1):
        got = jm.survival(theta, spec, assoc, subject, np.zeros(2), float(t))
        worst = max(worst, abs(got - math.exp(-lam * t)))
    assert worst < TOL_SURVIVAL

    samples = PosteriorSamples.degenerate(theta, 2000)
    worst_pi = 0.0
    for u in (1.4, 2.4, 4.4, 6.4):
        pi = conditional_survival(subject, u, samples, spec, assoc, g_pi=2000, seed=3)
        worst_pi = max(worst_pi, abs(pi - math.exp(-lam * (u - subject.t))))
    assert worst_pi < TOL_CONDITIONAL
    report(1, f"survival max err {worst:.2e} (tol {TOL_SURVIVAL}); "
             f"conditional max err {worst_pi:.4f} (tol {TOL_CONDITIONAL})")


# ---------------------------------------------------------------------------
# Criterion 2: numerics suite
# ---------------------------------------------------------------------------

def test_criterion_2_numerics(report):
    basis = BSplineBasis(degree=3, interior_knots=(2.0, 4.0, 6.0, 8.0),
                         boundary_knots=(0.0, 10.0))
    rng = np.random.default_rng(0)
    ts = rng.uniform(0.0, 10.0, size=1000)
    worst_pu = max(abs(bspline_eval(basis, t).sum() - 1.0) for t in ts)
    assert worst_pu < TOL_PARTITION

    h = 1e-6
    worst_fd = 0.0
    for t in rng.uniform(0.1, 9.9, size=100):
        fd = (bspline_eval(basis, t + h) - bspline_eval(basis, t - h)) / (2 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(bspline_deriv(basis, t) - fd))))
    assert worst_fd < TOL_DERIV

    for order in (1, 2):
        for dim in range(5, 21):
            p = DifferencePenalty(order=order, dim=dim)
            unridged = penalty_matrix(p) - p.ridge * np.eye(dim)
            assert np.linalg.matrix_rank(unridged, tol=1e-8) == dim - order

    worst_gl = 0.0
    for n in (2, 3, 5, 8):
        rule = QuadratureRule.gauss_legendre(n)
        for _ in range(20):
            poly = np.polynomial.Polynomial(rng.uniform(-1, 1, size=2 * n))
            exact = poly.integ()(1.0) - poly.integ()(0.0)
            err = abs(integrate(poly, 0.0, 1.0, rule) - exact) / max(abs(exact), 1e-8)
            worst_gl = max(worst_gl, err)
    assert worst_gl < TOL_GL_EXACT
    report(2, f"partition {worst_pu:.1e}, derivative {worst_fd:.1e}, "
             f"penalty ranks exact, GL exactness {worst_gl:.1e}")


# ---------------------------------------------------------------------------
# Criterion 3: parameter recovery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recovery_fit():
    lspec = jm.LongitudinalSpec(family=GAUSSIAN, time_effect=jm.LinearTime())
    basis = BSplineBasis(degree=3, interior_knots=(2.5, 5.0, 7.5),
                         boundary_knots=(0.0, 10.5))
    spec = jm.JointModelSpec(longitudinal=lspec, baseline_basis=basis,
                             hazard_covariates=("w",))
    assoc = jm.AssociationForm("current_value")
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(0.06)
    theta = jm.Parameters(beta=np.array([3.6, 0.25]), phi=0.25, D=np.diag([0.35, 0.02]),
                          gamma=np.array([0.5]), alpha=np.array([0.2]),
                          baseline=spec.make_baseline(gh, 1.0))
    design = SimulationDesign(
        n_subjects=200, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        seed=101, censor_admin=10.0, covariates={"w": ("bernoulli", 0.5)})
    dataset = generate_dataset(design)
    config = McmcConfig(seed=2024, chains=2, iterations=7000, burn_in=2000)
    samples = fit(dataset, spec, assoc, PriorSet(), config)
    return theta, samples


def test_criterion_3_parameter_recovery(recovery_fit, report):
    theta, samples = recovery_fit
    targets = {
        "beta[0]": (samples.beta[:, 0], theta.beta[0]),
        "beta[1]": (samples.beta[:, 1], theta.beta[1]),
        "alpha[0]": (samples.alpha[:, 0], theta.alpha[0]),
        "gamma[0]": (samples.gamma[:, 0], theta.gamma[0]),
        "sigma2": (samples.phi, theta.phi),
    }
    zs = {}
    for name, (draws, truth) in targets.items():
        z = abs(draws.mean() - truth) / draws.std()
        zs[name] = z
        assert z < RECOVERY_SD_MULTIPLE, f"{name} off truth by {z:.2f} posterior sd"
    worst_rhat = max(r for r, _ in samples.diagnostics.values())
    assert worst_rhat < RHAT_LIMIT, f"worst Rhat {worst_rhat:.3f}"
    assert not samples.flags
    report(3, "recovery |z| = " + ", ".join(f"{k}:{v:.2f}" for k, v in zs.items())
          + f"; worst Rhat {worst_rhat:.3f} < {RHAT_LIMIT}")


# ---------------------------------------------------------------------------
# Criterion 4: conjugate oracle for the conditional RE sampler
# ---------------------------------------------------------------------------

def test_criterion_4_conjugate_oracle(report):
    spec, assoc, theta = intercept_model()
    times = [0.0, 0.7, 1.5, 2.2]
    y = [3.4, 3.3, 3.9, 3.6]
    history, m, v = conjugate_history(theta, times, y, t=2.5)
    draws = sample_random_effects(history, theta, spec, assoc, n_draws=5000, seed=4)
    se = chain_se(draws[:, 0])
    mean_err = abs(draws.mean() - m)
    assert mean_err < 3.0 * se
    assert abs(draws.var() - v) / v < VAR_REL_TOL
    ks = grid_ks_distance(seed=31, n_draws=5000)
    assert ks < KS_GRID_LIMIT
    report(4, f"conjugate mean err {mean_err:.4f} (< 3 SE = {3 * se:.4f}), var rel "
             f"err {abs(draws.var() - v) / v:.3f} (<{VAR_REL_TOL}); 2-d KS {ks:.3f} "
             f"(<{KS_GRID_LIMIT})")


# ---------------------------------------------------------------------------
# Criterion 5: inversion sampler law
# ---------------------------------------------------------------------------

def test_criterion_5_inversion_sampler_law(report):
    lam = 0.3
    spec, assoc, theta = flat_exponential_model(lam)
    cdata = _ConditionData(spec, assoc, [jm.SubjectHistory({"w": 0.0}, [], [], 1.0)])
    th = ThetaBatch.from_parameters(theta, 10000)
    times, capped = _event_time_batch(cdata, th, np.zeros((1, 10000, 2)),
                                      np.random.default_rng(42).random((1, 10000)), cap=501.0)
    assert not capped.any()
    res = stats.kstest(times[0] - 1.0, "expon", args=(0.0, 1.0 / lam))
    assert res.pvalue > KS_ALPHA
    report(5, f"KS statistic {res.statistic:.4f}, p = {res.pvalue:.3f} > {KS_ALPHA} "
             f"at 10^4 draws")


# ---------------------------------------------------------------------------
# Criterion 6: cvDCL analytic check and model ranking
# ---------------------------------------------------------------------------

def test_criterion_6_cvdcl_analytic(report):
    lam = 0.2
    spec, assoc, theta = flat_exponential_model(lam)
    design = SimulationDesign(
        n_subjects=60, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 1.0, 2.0, 3.0), seed=14, censor_admin=9.0,
        covariates={"w": ("constant", 0.0)})
    dataset = generate_dataset(design)
    t = 2.0
    samples = PosteriorSamples.degenerate(theta, 60)
    got = cv_dcl(samples, dataset, t, spec, assoc, n_theta_draws=30, n_re_draws=5,
                 seed=3)
    at_risk = [s for s in dataset.subjects if s.event_time > t]
    analytic = float(np.mean([
        s.event * math.log(lam) - lam * (s.event_time - t) for s in at_risk]))
    err = abs(got - analytic)
    assert err < TOL_CVDCL_ANALYTIC
    report(6, f"analytic conditional log density err {err:.4f} (<{TOL_CVDCL_ANALYTIC})")


def ranking_model(association):
    lspec = jm.LongitudinalSpec(family=GAUSSIAN, time_effect=jm.LinearTime(),
                                random_time_terms=0)
    basis = BSplineBasis(degree=3, interior_knots=(4.0,), boundary_knots=(0.0, 12.5))
    spec = jm.JointModelSpec(longitudinal=lspec, baseline_basis=basis)
    return spec, jm.AssociationForm(association)


@pytest.fixture(scope="module")
def ranking_study():
    """20 replicates: simulate under the current-value form, fit it and a
    mis-specified slope form, score both with cvDCL and DIC."""
    spec, assoc_true = ranking_model("current_value")
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(0.012)
    theta = jm.Parameters(beta=np.array([3.0, 0.15]), phi=0.2, D=np.array([[0.5]]),
                          gamma=np.empty(0), alpha=np.array([0.8]),
                          baseline=spec.make_baseline(gh, 1.0))
    results = []
    for rep in range(20):
        design = SimulationDesign(
            n_subjects=110, parameters=theta, spec=spec, assoc=assoc_true,
            visit_times=(0.0, 1.0, 2.0, 3.0, 4.5, 6.0, 8.0), seed=500 + rep,
            censor_admin=12.0, covariates={})
        dataset = generate_dataset(design)
        t_land = float(np.median([s.event_time for s in dataset.subjects]))
        config = McmcConfig(seed=900 + rep, chains=1, iterations=1600, burn_in=600)
        row = {}
        for name in ("current_value", "slope"):
            sp, asc = ranking_model(name)
            samples = fit(dataset, sp, asc, PriorSet(), config)
            row[name] = (
                cv_dcl(samples, dataset, t_land, sp, asc, n_theta_draws=120,
                       n_re_draws=8, seed=3),
                dic(samples, dataset, sp, asc),
            )
        results.append(row)
    return results


def test_criterion_6_cvdcl_ranks_generating_model(ranking_study, report):
    wins = sum(r["current_value"][0] > r["slope"][0] for r in ranking_study)
    assert wins >= RANKING_WINS, f"generating model ranked first in {wins}/20"
    report(6, f"cvDCL ranks the generating association first in {wins}/20 replicates "
             f"(need >= {RANKING_WINS})")


def test_dic_prefers_true_structure(ranking_study, report):
    # companion check (not a numbered criterion): the true structure should
    # usually attain the lower DIC as well
    wins = sum(r["current_value"][1] < r["slope"][1] for r in ranking_study)
    assert wins >= RANKING_WINS
    report("6 (DIC comparator)",
          f"true structure has lower DIC in {wins}/20 replicates")


# ---------------------------------------------------------------------------
# Criterion 7: information-gain estimator vs nested quadrature
# ---------------------------------------------------------------------------

def test_criterion_7_ekl_matches_quadrature_oracle(report):
    lspec = jm.LongitudinalSpec(family=GAUSSIAN, time_effect=None)
    basis = BSplineBasis(degree=3, interior_knots=(), boundary_knots=(0.0, 12.0))
    spec = jm.JointModelSpec(longitudinal=lspec, baseline_basis=basis)
    assoc = jm.AssociationForm("current_value")
    beta0, phi, d, alpha, lam0 = 3.0, 0.2, 0.3, 0.5, 0.01
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(lam0)
    theta = jm.Parameters(beta=np.array([beta0]), phi=phi, D=np.array([[d]]),
                          gamma=np.empty(0), alpha=np.array([alpha]),
                          baseline=spec.make_baseline(gh, 1.0))
    times = np.array([0.0, 0.5, 1.0])
    y = np.array([3.1, 3.4, 3.2])
    t_land, u = 1.0, 2.0
    history = jm.SubjectHistory({}, times, y, t=t_land)

    # deterministic oracle: nested quadrature over (b, y(u), T*); the flat
    # baseline makes every survival ratio an explicit exponential in b
    nb, ny = 301, 161
    bg = np.linspace(-6 * math.sqrt(d), 6 * math.sqrt(d), nb)
    lam_b = lam0 * np.exp(alpha * (beta0 + bg))
    loglik = norm.logpdf(y[:, None], beta0 + bg[None, :], math.sqrt(phi)).sum(0)
    log_wt = loglik - lam_b * t_land + norm.logpdf(bg, 0.0, math.sqrt(d))
    wt = np.exp(log_wt - log_wt.max())
    wt /= wt.sum()
    sd_y = math.sqrt(phi + d)
    yg = np.linspace(beta0 - 6 * sd_y, beta0 + 6 * sd_y, ny)
    like_yu = norm.pdf(yg[:, None], beta0 + bg[None, :], math.sqrt(phi))
    p_y = like_yu @ wt
    w_aug = like_yu * wt[None, :]
    w_aug /= w_aug.sum(1, keepdims=True)
    w_u = like_yu * wt[None, :] * np.exp(-lam_b * (u - t_land))[None, :]
    w_u /= w_u.sum(1, keepdims=True)
    gk = QuadratureRule.gauss_kronrod_15()
    edges = np.concatenate([[0.0], np.geomspace(1e-3, 30.0 / lam_b.min(), 80)])
    s_nodes, s_w = [], []
    for a, b_ in zip(edges[:-1], edges[1:]):
        xs, ws = mapped_nodes(gk, a, b_)
        s_nodes.append(xs)
        s_w.append(ws)
    s_nodes = np.concatenate(s_nodes)
    s_w = np.concatenate(s_w)
    decay = np.exp(-np.outer(s_nodes, lam_b))
    log_pstar = np.log((decay * lam_b[None, :]) @ w_u.T).T
    p_t = ((decay * (lam_b * np.exp(-lam_b * (u - t_land)))[None, :]) @ w_aug.T).T
    inner = (log_pstar * p_t) @ s_w
    dy = yg[1] - yg[0]
    ekl_true = float((p_y * inner).sum() * dy)

    samples = PosteriorSamples.degenerate(theta, 1000)
    config = ScheduleConfig(seed=77, n_outer=2000, n_inner=50)
    (values,) = _ekl_draws(history, [u], samples, spec, assoc, config)
    se = values.std() / math.sqrt(values.size)
    z = abs(values.mean() - ekl_true) / se
    assert z < EKL_SE_MULTIPLE, (
        f"estimator {values.mean():.4f} vs oracle {ekl_true:.4f}, z = {z:.2f}")
    report(7, f"estimator {values.mean():.4f} vs oracle {ekl_true:.4f} "
             f"(|z| = {z:.2f} < {EKL_SE_MULTIPLE})")


# ---------------------------------------------------------------------------
# Criterion 8: scheduling contract
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scheduling_rig():
    spec, assoc = gaussian_joint_model()
    theta = true_parameters(spec)
    fit_design = SimulationDesign(
        n_subjects=100, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0), seed=61,
        censor_admin=10.0, covariates={"w": ("bernoulli", 0.5)})
    dataset = generate_dataset(fit_design)
    samples = fit(dataset, spec, assoc, PriorSet(),
                  McmcConfig(seed=71, chains=1, iterations=2500, burn_in=800))
    held_out = SimulationDesign(
        n_subjects=120, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0), seed=62,
        censor_admin=10.0, covariates={"w": ("bernoulli", 0.5)})
    new_subjects = generate_dataset(held_out)
    return spec, assoc, samples, new_subjects


def test_criterion_8_scheduling_contract(scheduling_rig, report):
    spec, assoc, samples, new_subjects = scheduling_rig
    t_land = 1.0
    eligible = [s for s in new_subjects.subjects if s.event_time > t_land][:50]
    assert len(eligible) == 50
    n_selected = 0
    for k, subject in enumerate(eligible):
        history = jm.SubjectHistory.from_subject(subject, t_land)
        config = ScheduleConfig(seed=1000 + k, kappa=0.8, t_max=5.0, grid_size=5,
                                n_outer=40, n_inner=5)
        plan = schedule_next(history, samples, spec, assoc, config)
        assert plan.grid.size == config.grid_size
        steps = np.diff(plan.grid)
        assert np.allclose(steps, steps[0], rtol=0, atol=1e-9), "grid not equidistant"
        assert plan.t_up <= t_land + config.t_max + 1e-12
        if plan.selected is None:
            assert plan.advisory is not None
            continue
        n_selected += 1
        idx = int(np.nonzero(plan.grid == plan.selected)[0][0])
        assert plan.pi[idx] >= config.kappa, "selected time violates the constraint"
        assert plan.selected <= t_land + config.t_max + 1e-12
        # earliest-maximum tie-break among feasible candidates
        estimates = np.array([r.estimate for r in plan.ekl])
        feasible = plan.pi >= config.kappa
        best = np.max(estimates[feasible])
        expected = int(np.nonzero(feasible & (estimates == best))[0][0])
        assert idx == expected

    # the published grid shape: landmark 0.3, full five-unit horizon
    spec_f, assoc_f, theta_f = flat_exponential_model(lam=0.01)
    flat_samples = PosteriorSamples.degenerate(theta_f, 300)
    history = jm.SubjectHistory({"w": 0.0}, [0.0, 0.3], [3.5, 3.7], t=0.3)
    config = ScheduleConfig(seed=3, n_outer=40, n_inner=4)
    plan = schedule_next(history, flat_samples, spec_f, assoc_f, config)
    assert np.array_equal(plan.grid, np.array([1.3, 2.3, 3.3, 4.3, 5.3]))
    assert plan.t_up - plan.landmark == 5.0
    report(8, f"50 plans respect the constraint and grid contract "
             f"({n_selected} with a selected time); grid shape at t=0.3 "
             f"reproduced exactly")


# ---------------------------------------------------------------------------
# Criterion 9: determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(scheduling_rig, report):
    spec, assoc, samples, new_subjects = scheduling_rig
    # fit: byte-identical draws for identical (seed, config)
    subset = jm.Dataset(new_subjects.subjects[:30])
    config = McmcConfig(seed=314, chains=2, iterations=300, burn_in=100)
    one = fit(subset, spec, assoc, PriorSet(), config)
    two = fit(subset, spec, assoc, PriorSet(), config)
    assert flatten(one)[1].tobytes() == flatten(two)[1].tobytes()
    assert one.ranef.tobytes() == two.ranef.tobytes()

    history = jm.SubjectHistory.from_subject(new_subjects.subjects[0], 1.0)
    sched_config = ScheduleConfig(seed=2718, n_outer=30, n_inner=4)
    r1 = ekl(history, [2.0], samples, spec, assoc, sched_config)
    r2 = ekl(history, [2.0], samples, spec, assoc, sched_config)
    assert r1 == r2

    p1 = schedule_next(history, samples, spec, assoc, sched_config)
    p2 = schedule_next(history, samples, spec, assoc, sched_config)
    assert np.array_equal(p1.grid, p2.grid)
    assert p1.ekl == p2.ekl
    assert np.array_equal(p1.pi, p2.pi)
    assert p1.selected == p2.selected
    report(9, "fit draws byte-identical; ekl and schedule_next identical under "
             "a fixed seed")
