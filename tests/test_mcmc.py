import copy
import csv
import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import invgamma, invwishart

from jmsched.errors import ConfigError, NumericError, SpecError
from jmsched.mcmc import (
    RE_CANDIDATES,
    McmcConfig,
    PosteriorSamples,
    PriorSet,
    ReProposal,
    ThetaBatch,
    _AdaptiveBlock,
    _ConditionData,
    _FitData,
    _inverse_wishart_draw,
    _mvt_draw,
    _mvt_logpdf,
    _re_mh_draws,
    _weighted_draws,
    dic,
    effective_sample_size,
    fit,
    posterior_mode_re,
    read_draws_csv,
    read_ranef_csv,
    sample_random_effects,
    split_rhat,
    write_draws_csv,
    write_ranef_csv,
)
from jmsched.model import (
    BERNOULLI,
    GAUSSIAN,
    ASSOCIATION_VARIANTS,
    AssociationForm,
    Dataset,
    JointModelSpec,
    LinearTime,
    LongitudinalSpec,
    Parameters,
    Subject,
    SubjectHistory,
    flatten,
)
from jmsched.numerics import BSplineBasis

from jmsched.simulate import SimulationDesign, generate_dataset

from conftest import gaussian_joint_model, true_parameters

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def intercept_model(lam=0.1, alpha=0.0, d=0.5, phi=0.2, beta0=3.0):
    """Random-intercept-only gaussian model with a flat baseline hazard."""
    lspec = LongitudinalSpec(family=GAUSSIAN, time_effect=LinearTime(),
                             random_time_terms=0)
    basis = BSplineBasis(degree=3, interior_knots=(), boundary_knots=(0.0, 15.0))
    spec = JointModelSpec(longitudinal=lspec, baseline_basis=basis)
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(lam)
    theta = Parameters(beta=np.array([beta0, 0.2]), phi=phi, D=np.array([[d]]),
                       gamma=np.empty(0), alpha=np.array([alpha]),
                       baseline=spec.make_baseline(gh, 1.0))
    return spec, AssociationForm("current_value"), theta


# --- conditional random-effects mode ------------------------------------------

def one_history(proposal):
    """The proposal of a stack of one history, without the history axis."""
    return ReProposal(mean=proposal.mean[0], cov=proposal.cov[0],
                      fallback=proposal.fallback[0], iterations=proposal.iterations[0])


def history_mode(history, theta, spec, assoc):
    cdata = _ConditionData(spec, assoc, [history])
    return one_history(posterior_mode_re(cdata, theta))


def conjugate_history(theta, times, y, t):
    history = SubjectHistory({}, times, y, t=t)
    resid = np.asarray(y) - (theta.beta[0] + theta.beta[1] * np.asarray(times))
    v = 1.0 / (len(times) / theta.phi + 1.0 / theta.D[0, 0])
    m = v * resid.sum() / theta.phi
    return history, m, v


def test_posterior_mode_conjugate_case():
    spec, assoc, theta = intercept_model()
    times = [0.0, 0.7, 1.5, 2.2]
    y = [3.4, 3.3, 3.9, 3.6]
    history, m, v = conjugate_history(theta, times, y, t=2.5)
    prop = history_mode(history, theta, spec, assoc)
    assert prop.mean[0] == pytest.approx(m, abs=1e-6)
    assert prop.cov[0, 0] == pytest.approx(v, abs=1e-4)
    assert not prop.fallback


def test_posterior_mode_no_data_recovers_prior():
    spec, assoc, theta = intercept_model(d=0.7)
    history = SubjectHistory({}, [], [], t=0.0)
    prop = history_mode(history, theta, spec, assoc)
    assert prop.mean[0] == pytest.approx(0.0, abs=1e-6)
    assert prop.cov[0, 0] == pytest.approx(0.7, abs=1e-4)


def test_posterior_mode_quadratic_converges_quickly():
    spec, assoc, theta = intercept_model()
    times = np.linspace(0.0, 2.0, 5)
    y = 3.0 + 0.2 * times
    history = SubjectHistory({}, times, y, t=2.0)
    prop = history_mode(history, theta, spec, assoc)
    assert prop.iterations <= 20


def test_posterior_mode_falls_back_when_target_is_not_finite():
    """A hazard integral that overflows at b = 0 gives mean 0 and covariance D."""
    spec, assoc, theta = intercept_model(lam=math.exp(690.0), d=0.7)
    history = SubjectHistory({}, [], [], t=1e10)
    cdata = _ConditionData(spec, assoc, [history])
    target = cdata.log_target(np.zeros((1, 1, 1)), ThetaBatch.from_parameters(theta))
    assert np.isneginf(target[0, 0])
    prop = one_history(posterior_mode_re(cdata, theta))
    assert prop.fallback
    assert np.array_equal(prop.mean, [0.0]) and np.array_equal(prop.cov, theta.D)


def test_stacked_mode_search_gives_each_history_its_own_proposal():
    """Histories of unequal lengths searched in one stack, one with a target
    that is not finite at b = 0 and one whose search halves a step: each gets
    the mode, covariance, iteration count and fallback it gets alone."""
    from conftest import gaussian_joint_model, true_parameters

    spec, assoc = gaussian_joint_model()
    theta = true_parameters(spec, alpha=0.8)
    histories = [SubjectHistory({"w": 1.0}, [0.0, 0.5, 1.5], [3.5, 3.9, 4.6], 2.0),
                 SubjectHistory({"w": 0.0}, [], [], 2.0),
                 SubjectHistory({"w": 0.0}, [0.0], [1e200], 2.0),
                 SubjectHistory({"w": 1.0}, [0.0, 1.0], [6.0, 7.4], 2.0),
                 SubjectHistory({"w": 1.0}, [0.0, 1.0], [12.0, 16.0], 2.0)]  # halves a step
    with np.errstate(over="ignore"):  # the third history's squared residual
        stacked = posterior_mode_re(_ConditionData(spec, assoc, histories), theta)
        alone = [history_mode(h, theta, spec, assoc) for h in histories]
    assert stacked.fallback.tolist() == [False, False, True, False, False]
    for s, prop in enumerate(alone):
        assert stacked.fallback[s] == prop.fallback
        assert stacked.iterations[s] == prop.iterations
        np.testing.assert_allclose(stacked.mean[s], prop.mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(stacked.cov[s], prop.cov, rtol=1e-12, atol=1e-14)


def test_stacked_mode_search_falls_back_history_by_history(monkeypatch):
    """A precision of NaN and one with a negative eigenvalue, each in one
    history's first round: those two histories fall back to mean 0, cov D,
    while every other history gets, bit for bit, what its own search gets."""
    spec, assoc = gaussian_joint_model()
    theta = true_parameters(spec, alpha=0.8)
    histories = [SubjectHistory({"w": 1.0}, [0.0, 0.5, 1.5], [3.5, 3.9, 4.6], 2.0),
                 SubjectHistory({"w": 0.0, "fault": 1.0}, [0.0, 1.0], [3.0, 3.2], 2.0),
                 SubjectHistory({"w": 1.0}, [0.0, 1.0], [6.0, 7.4], 2.0),
                 SubjectHistory({"w": 0.0, "fault": 2.0}, [0.5], [2.0], 2.0),
                 SubjectHistory({"w": 0.0}, [], [], 2.0)]
    newton = _ConditionData.log_target_newton

    def faulty(self, b, th):
        grad, prec = newton(self, b, th)
        fault = np.array([c.get("fault", 0.0) for c in self.covariates])[:, None, None]
        first = np.all(b == 0.0, axis=-1)[..., None, None]
        prec = np.where(first & (fault == 1.0), np.nan, prec)
        return grad, np.where(first & (fault == 2.0), -prec, prec)

    monkeypatch.setattr(_ConditionData, "log_target_newton", faulty)
    stacked = posterior_mode_re(_ConditionData(spec, assoc, histories), theta)
    alone = [history_mode(h, theta, spec, assoc) for h in histories]
    assert stacked.fallback.tolist() == [False, True, False, True, False]
    for s, prop in enumerate(alone):
        if stacked.fallback[s]:
            assert np.array_equal(stacked.mean[s], [0.0, 0.0])
            assert np.array_equal(stacked.cov[s], theta.D) and stacked.iterations[s] == 0
        assert stacked.fallback[s] == prop.fallback
        assert stacked.iterations[s] == prop.iterations
        assert np.array_equal(stacked.mean[s], prop.mean)
        assert np.array_equal(stacked.cov[s], prop.cov)


# --- Student-t proposal density -------------------------------------------------

def scipy_t_logpdf(x, mean, cov):
    from scipy.stats import multivariate_t
    return multivariate_t(loc=mean, shape=cov, df=4).logpdf(x)


@pytest.mark.parametrize("q", [1, 2])
def test_mvt_logpdf_matches_scipy_for_one_history(q):
    rng = np.random.default_rng(q)
    a = rng.normal(size=(q, q))
    proposal = ReProposal(mean=rng.normal(size=(1, q)), cov=(a @ a.T + 0.5 * np.eye(q))[None])
    x = _mvt_draw([rng], proposal, 50)
    np.testing.assert_allclose(_mvt_logpdf(x, proposal)[0],
                               scipy_t_logpdf(x[0], proposal.mean[0], proposal.cov[0]),
                               rtol=1e-12)


def test_mvt_logpdf_matches_scipy_for_stacked_histories():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 2, 2))
    proposal = ReProposal(mean=rng.normal(size=(3, 2)) * [[1.0], [10.0], [0.1]],
                          cov=a @ a.swapaxes(-1, -2) + np.diag([0.1, 2.0]),
                          fallback=np.zeros(3, bool), iterations=np.ones(3, int))
    x = _mvt_draw(np.random.default_rng(6).spawn(3), proposal, 40)
    got = _mvt_logpdf(x, proposal)
    assert got.shape == (3, 40)
    for s in range(3):
        np.testing.assert_allclose(got[s], scipy_t_logpdf(x[s], proposal.mean[s],
                                                          proposal.cov[s]), rtol=1e-12)


def test_mvt_logpdf_matches_scipy_for_a_fallback_proposal():
    spec, assoc, theta = intercept_model(lam=math.exp(690.0), d=0.7)
    history = SubjectHistory({}, [], [], t=1e10)
    proposal = posterior_mode_re(_ConditionData(spec, assoc, [history]), theta)
    assert proposal.fallback[0] and np.array_equal(proposal.cov[0], theta.D)
    x = np.linspace(-3.0, 3.0, 13)[:, None]
    np.testing.assert_allclose(_mvt_logpdf(x[None], proposal)[0],
                               scipy_t_logpdf(x, [0.0], theta.D), rtol=1e-12)


# --- conditional random-effects draws -------------------------------------------

def test_zero_survival_chain_rejects_every_candidate():
    """Survival to 1e10 under a hazard of e^690: the target is -inf at every
    candidate of the kernel's first sweep, so no state can be drawn and the
    draw ends in a NumericError, without an overflow or an inf - inf."""
    spec, assoc, theta = intercept_model(lam=math.exp(690.0), d=0.7)
    history = SubjectHistory({}, [], [], t=1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="every importance weight of the history at "
                                               "landmark t=10000000000.0 is zero"):
            sample_random_effects(history, theta, spec, assoc, n_draws=50, seed=3)


def chain_se(draws):
    """Autocorrelation-adjusted Monte Carlo standard error of the chain mean."""
    ess = effective_sample_size(draws.reshape(1, -1))
    return draws.std() / math.sqrt(ess)


def test_sample_random_effects_prior_recovery():
    spec, assoc, theta = intercept_model(d=0.6)
    history = SubjectHistory({}, [], [], t=0.0)
    draws = sample_random_effects(history, theta, spec, assoc, n_draws=4000, seed=21)
    assert abs(draws.mean()) < 3.0 * chain_se(draws[:, 0])
    assert draws.var() == pytest.approx(0.6, rel=0.15)


def test_sample_random_effects_conjugate_moments():
    spec, assoc, theta = intercept_model()
    times = [0.0, 0.7, 1.5, 2.2]
    y = [3.4, 3.3, 3.9, 3.6]
    history, m, v = conjugate_history(theta, times, y, t=2.5)
    draws = sample_random_effects(history, theta, spec, assoc, n_draws=5000, seed=4)
    assert draws.mean() == pytest.approx(m, abs=3.0 * chain_se(draws[:, 0]))
    assert draws.var() == pytest.approx(v, rel=0.10)


def grid_ks_distance(seed=31, n_draws=5000):
    """Worst marginal KS distance of the 2-d conditional RE sampler against a
    dense-grid posterior computed by an independent direct implementation."""
    spec, assoc = gaussian_joint_model(interior=(), upper=15.0)
    theta = true_parameters(spec, lam=0.08, alpha=0.3)
    times = np.array([0.0, 1.0, 2.5])
    y = np.array([3.3, 4.2, 4.4])
    t_land = 3.0
    history = SubjectHistory({"w": 1.0}, times, y, t=t_land)
    draws = sample_random_effects(history, theta, spec, assoc, n_draws=n_draws, seed=seed)

    # independent oracle: dense-grid posterior for (b0, b1)
    lam0 = math.exp(theta.gamma_h0[0])
    w_term = math.exp(theta.gamma[0] * 1.0)

    def log_target(b0, b1):
        eta = theta.beta[0] + b0 + (theta.beta[1] + b1) * times
        ll = -0.5 * np.sum((y - eta) ** 2) / theta.phi
        # integrated hazard with the current-value association, by quadrature
        a = float(theta.alpha[0])
        c0 = theta.beta[0] + b0
        c1 = theta.beta[1] + b1
        integral = quad(lambda s: lam0 * w_term * math.exp(a * (c0 + c1 * s)),
                        0.0, t_land, limit=200)[0]
        prior = -0.5 * (b0**2 / theta.D[0, 0] + b1**2 / theta.D[1, 1])
        return ll - integral + prior

    g0 = np.linspace(-2.5, 2.5, 161)
    g1 = np.linspace(-0.6, 0.6, 161)
    logpost = np.array([[log_target(a0, a1) for a1 in g1] for a0 in g0])
    post = np.exp(logpost - logpost.max())
    post /= post.sum()

    worst = 0.0
    for axis, grid in ((0, g0), (1, g1)):
        marginal = post.sum(axis=1 - axis)
        cdf = np.cumsum(marginal)
        xs = np.sort(draws[:, axis])
        ecdf = np.arange(1, xs.size + 1) / xs.size
        cdf_at = np.interp(xs, grid, cdf)
        worst = max(worst, float(np.max(np.abs(ecdf - cdf_at))))
    return worst


def test_sample_random_effects_2d_matches_grid_posterior():
    assert grid_ks_distance(seed=31) < 0.05


# --- detailed balance of the adaptive block sampler -------------------------------

def test_adaptive_block_recovers_toy_target():
    cov = np.array([[1.0, 0.6], [0.6, 1.5]])
    prec = np.linalg.inv(cov)

    def logp(x):
        return -0.5 * float(x @ prec @ x)

    block = _AdaptiveBlock(dim=2)
    rng = np.random.default_rng(13)
    x = np.zeros(2)
    lp = logp(x)
    warm, total = 4000, 24000
    kept = []
    for it in range(total):
        cand = x + block.draw(rng)
        lc = logp(cand)
        acc = math.exp(min(lc - lp, 0.0))
        if rng.random() < acc:
            x, lp = cand, lc
        block.record(acc, x)
        if it == warm:
            block.freeze()
        if it >= warm:
            kept.append(x.copy())
    kept = np.array(kept)
    ess = min(effective_sample_size(kept[None, :, 0]),
              effective_sample_size(kept[None, :, 1]))
    for k in range(2):
        se = math.sqrt(cov[k, k] / ess)
        assert abs(kept[:, k].mean()) < 3.0 * se
    corr = np.corrcoef(kept.T)[0, 1]
    target_corr = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
    assert corr == pytest.approx(target_corr, abs=3.0 * 1.5 / math.sqrt(ess))


# --- Gibbs conjugacy ----------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_data():
    spec, assoc = gaussian_joint_model(interior=(2.0,), upper=12.0)
    theta = true_parameters(spec, lam=0.08)
    rng = np.random.default_rng(40)
    subjects = []
    for i in range(25):
        times = np.array([0.0, 1.0, 2.0, 3.5])
        b = rng.normal(size=2) * [0.5, 0.1]
        y = theta.beta[0] + b[0] + (theta.beta[1] + b[1]) * times + rng.normal(size=4) * 0.5
        obs = float(rng.uniform(4.0, 10.0))
        subjects.append(Subject(id=f"g{i}", times=times, y=y, event_time=obs,
                                event=int(rng.random() < 0.5), covariates={"w": 1.0}))
    return spec, assoc, theta, Dataset(tuple(subjects)), rng.normal(size=(25, 2)) * 0.3


def test_gibbs_phi_full_conditional(tiny_data):
    spec, assoc, theta, dataset, b_fix = tiny_data
    priors = PriorSet()
    freeze = {
        "beta": theta.beta, "gamma": theta.gamma, "alpha": theta.alpha,
        "gamma_h0": theta.gamma_h0, "ranef": b_fix,
        "tau_h": 1.0, "tau_hdelta": 1.0, "D": np.eye(2),
    }
    config = McmcConfig(seed=3, chains=1, iterations=4000, burn_in=0)
    samples = fit(dataset, spec, assoc, priors, config, freeze=freeze)

    # analytic full conditional of the dispersion given everything else
    resid = []
    for s, b in zip(dataset.subjects, b_fix):
        eta = theta.beta[0] + b[0] + (theta.beta[1] + b[1]) * s.times
        resid.append(s.y - eta)
    ssr = float(np.sum(np.concatenate(resid) ** 2))
    n_meas = sum(s.n_obs for s in dataset.subjects)
    shape = priors.phi_shape + 0.5 * n_meas
    rate = priors.phi_rate + 0.5 * ssr
    mean = rate / (shape - 1.0)
    sd = mean / math.sqrt(shape - 2.0)
    assert samples.phi.mean() == pytest.approx(mean, abs=4.0 * sd / math.sqrt(4000))
    assert samples.phi.var() == pytest.approx(invgamma(shape, scale=rate).var(), rel=0.25)


def test_gibbs_d_full_conditional(tiny_data):
    spec, assoc, theta, dataset, b_fix = tiny_data
    priors = PriorSet()
    freeze = {
        "beta": theta.beta, "gamma": theta.gamma, "alpha": theta.alpha,
        "gamma_h0": theta.gamma_h0, "ranef": b_fix,
        "tau_h": 1.0, "tau_hdelta": 1.0, "phi": 0.25,
    }
    config = McmcConfig(seed=5, chains=1, iterations=4000, burn_in=0)
    samples = fit(dataset, spec, assoc, priors, config, freeze=freeze)
    scale = np.eye(2) + b_fix.T @ b_fix
    df = 2 + priors.d_df_extra + dataset.n
    expected_mean = scale / (df - 2 - 1)
    got = samples.D.mean(axis=0)
    mc_sd = np.abs(expected_mean) * 2.0 / math.sqrt(df - 2 - 3) / math.sqrt(4000 / 10)
    assert np.allclose(got, expected_mean, atol=np.maximum(4.0 * mc_sd, 5e-3))


def test_smoothing_prior_shrinks_second_differences(tiny_data):
    spec, assoc, theta, dataset, _ = tiny_data
    priors = PriorSet()
    config = McmcConfig(seed=9, chains=1, iterations=1200, burn_in=400)
    variances = []
    for tau in (1.0, 100.0):
        samples = fit(dataset, spec, assoc, priors, config,
                      freeze={"tau_h": tau, "tau_hdelta": 1.0})
        gh_bar = samples.gamma_h0.mean(axis=0)
        variances.append(np.var(np.diff(gh_bar, n=2)))
    assert variances[1] < variances[0]


# --- fit: determinism, invariants, frozen-alpha comparison ------------------------

def test_fit_reproducible_bitwise(tiny_data):
    spec, assoc, _, dataset, _ = tiny_data
    config = McmcConfig(seed=123, chains=2, iterations=400, burn_in=150)
    a = fit(dataset, spec, assoc, PriorSet(), config)
    b = fit(dataset, spec, assoc, PriorSet(), config)
    assert flatten(a)[1].tobytes() == flatten(b)[1].tobytes()
    assert a.ranef.tobytes() == b.ranef.tobytes()


def test_fit_draw_count_contract(tiny_data):
    spec, assoc, _, dataset, _ = tiny_data
    config = McmcConfig(seed=2, chains=2, iterations=500, burn_in=200, thin=3)
    samples = fit(dataset, spec, assoc, PriorSet(), config)
    assert samples.n_draws == 2 * math.ceil((500 - 200) / 3)


def test_fit_flags_all_censored():
    spec, assoc = gaussian_joint_model(interior=(), upper=12.0)
    rng = np.random.default_rng(3)
    subjects = [
        Subject(id=f"c{i}", times=[0.0, 1.0], y=list(3 + rng.normal(size=2)),
                event_time=5.0, event=0, covariates={"w": 0.0})
        for i in range(8)
    ]
    samples = fit(Dataset(tuple(subjects)), spec, assoc, PriorSet(),
                  McmcConfig(seed=1, chains=1, iterations=120, burn_in=40))
    assert any("no events" in f for f in samples.flags)


def test_fit_alpha_frozen_matches_mixed_model(tiny_data):
    spec, assoc, theta, dataset, _ = tiny_data
    config = McmcConfig(seed=11, chains=2, iterations=1500, burn_in=500)
    samples = fit(dataset, spec, assoc, PriorSet(), config,
                  freeze={"alpha": np.zeros(1)})

    # independent estimator: GLS with the marginal covariance at the
    # posterior-mean variance components
    d_hat = samples.D.mean(axis=0)
    phi_hat = float(samples.phi.mean())
    xtx = np.zeros((2, 2))
    xty = np.zeros(2)
    for s in dataset.subjects:
        X = np.column_stack([np.ones(s.n_obs), s.times])
        V = X @ d_hat @ X.T + phi_hat * np.eye(s.n_obs)
        Vi = np.linalg.inv(V)
        xtx += X.T @ Vi @ X
        xty += X.T @ Vi @ s.y
    beta_gls = np.linalg.solve(xtx, xty)

    for k in range(2):
        sd = samples.beta[:, k].std()
        ess = samples.diagnostics[f"beta[{k}]"][1]
        tol = max(4.0 * sd / math.sqrt(max(ess, 4.0)), 0.02)
        assert samples.beta[:, k].mean() == pytest.approx(beta_gls[k], abs=tol)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_inverse_wishart_draw_is_scipys_draw(q):
    """The Bartlett draw gives scipy's bytes from the same generator and
    leaves the generator where scipy leaves it."""
    for seed in range(20):
        scale_rng = np.random.default_rng([seed, q])
        B = scale_rng.normal(size=(30, q))
        scale = np.eye(q) + B.T @ B
        for df in (q - 0.5, q + 2, q + 2 + 200):
            mine, scipys = np.random.default_rng(seed), np.random.default_rng(seed)
            draw = _inverse_wishart_draw(mine, df, scale)
            ref = invwishart.rvs(df=df, scale=scale, random_state=scipys).reshape(q, q)
            assert draw.shape == (q, q)
            assert draw.tobytes() == ref.tobytes(), (seed, df)
            assert mine.random() == scipys.random(), (seed, df)


# --- incremental likelihood terms ------------------------------------------------

@pytest.mark.parametrize("q", range(1, 10))
def test_z_times_b_is_numpys_row_sum(q):
    """Z.b by columns of the transposed Z has the bytes of the row sum
    ``np.sum(Z * b[rows], axis=1)``, at every q."""
    rng = np.random.default_rng(q)
    rows = np.sort(rng.integers(0, 40, 500))
    Z, b = rng.normal(size=(500, q)), 1e3 * rng.normal(size=(40, q))
    fd = types.SimpleNamespace(ZT={"eta": np.ascontiguousarray(Z.T)}, rows={"eta": rows}, q=q)
    got = _FitData._z_times_b(fd, "eta", b)
    assert got.tobytes() == np.sum(Z * b[rows], axis=1).tobytes()


FAMILIES = {"gaussian": GAUSSIAN, "bernoulli": BERNOULLI}


@pytest.fixture(scope="module")
def family_cohorts():
    """A 30-subject cohort per family, with a hazard covariate and q = 2."""
    out = {}
    for name, family in FAMILIES.items():
        lspec = LongitudinalSpec(family=family, time_effect=LinearTime())
        basis = BSplineBasis(degree=3, interior_knots=(3.0, 6.0), boundary_knots=(0.0, 10.0))
        spec = JointModelSpec(longitudinal=lspec, baseline_basis=basis,
                              hazard_covariates=("w",))
        theta = true_parameters(spec, lam=0.1)
        if name == "bernoulli":
            theta = Parameters(beta=np.array([-0.5, 0.2]), phi=1.0, D=theta.D,
                               gamma=theta.gamma, alpha=theta.alpha, baseline=theta.baseline)
        design = SimulationDesign(
            n_subjects=30, parameters=theta, spec=spec, assoc=AssociationForm("current_value"),
            visit_times=(0.0, 1.0, 2.0, 4.0, 6.0), seed=31, censor_admin=9.0,
            covariates={"w": ("bernoulli", 0.5)})
        out[name] = spec, generate_dataset(design)
    return out


def _association(variant, spec):
    q = spec.longitudinal.n_random
    return AssociationForm(variant, q if variant == "shared_random_effects" else None)


def _assert_terms_equal(terms, fd, params):
    """Every piece of ``terms`` equals a from-scratch evaluation at ``params``."""
    full = fd.per_subject_loglik(**params)
    for name in ("value", "long", "surv", "bad", "b", "hazard", "assoc", "rate"):
        assert np.array_equal(getattr(terms, name), getattr(full, name)), name
    for name in ("xb", "zb"):
        mine, ref = getattr(terms, name), getattr(full, name)
        assert mine.keys() == ref.keys(), name
        for feature in ref:
            assert np.array_equal(mine[feature], ref[feature]), (name, feature)
    return full


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("variant", ASSOCIATION_VARIANTS)
def test_incremental_loglik_matches_full_evaluation(family_cohorts, family, variant):
    spec, dataset = family_cohorts[family]
    assoc = _association(variant, spec)
    fd = _FitData(dataset, spec, assoc)
    rng = np.random.default_rng(5)
    params = {
        "beta": np.array([3.6, 0.25]) if family == "gaussian" else np.array([-0.5, 0.2]),
        "gamma": np.array([0.5]), "alpha": np.full(assoc.n_params, 0.2),
        "gamma_h0": np.r_[math.log(0.1), np.zeros(fd.Q - 1)], "phi": 0.25,
        "b": rng.normal(size=(fd.n, fd.q)) * [0.5, 0.1],
    }
    cur = fd.per_subject_loglik(**params)
    _assert_terms_equal(cur, fd, params)

    def propose(**over):
        cand_params = {**params, **over}
        cand = fd.per_subject_loglik(**cand_params, base=cur)
        _assert_terms_equal(cand, fd, cand_params)
        return cand, cand_params

    def jitter(name, scale=0.05):
        return params[name] + scale * rng.standard_normal(params[name].shape)

    # accepted single-block moves
    for name in ("beta", "gamma", "alpha", "gamma_h0"):
        cur, params = propose(**{name: jitter(name)})
    # a rejected move leaves the current terms intact for the next one
    propose(alpha=jitter("alpha"))
    cur, params = propose(gamma_h0=jitter("gamma_h0"))
    # the hazard-block move, then the rescale (gamma_h0 alone)
    cur, params = propose(**{n: jitter(n) for n in ("gamma", "alpha", "gamma_h0")})
    cur, params = propose(gamma_h0=params["gamma_h0"] * np.r_[1.0, np.full(fd.Q - 1, 0.8)])

    # a b-sweep accepting every other subject: terms merged by row, and the
    # hazard block's Newton step at them is that of a fresh evaluation, so
    # the merged node rates cannot bias its MH ratio
    cand, cand_params = propose(b=jitter("b", 0.2))
    rows = np.arange(fd.n) % 2 == 0
    cur = fd.merge_rows(cur, cand, rows)
    params = {**params, "b": np.where(rows[:, None], cand_params["b"], params["b"])}
    full = _assert_terms_equal(cur, fd, params)
    free = np.ones(fd.Q + fd.pw + fd.n_alpha, dtype=bool)
    merged, fresh = (fd.hazard_newton(t, 2.5, PriorSet(), free) for t in (cur, full))
    assert all(np.array_equal(m, f) for m, f in zip(merged, fresh))

    # the phi refresh
    cur, params = propose(phi=0.3)

    # candidates that trip the log-hazard guard: a few subjects, then all
    b_wild = params["b"].copy()
    b_wild[:3] += 1e4
    cand, _ = propose(b=b_wild)
    assert np.all(np.isneginf(cand.value[:3])) and np.all(np.isfinite(cand.value[3:]))
    cur = fd.merge_rows(cur, cand, ~cand.bad)
    params = {**params, "b": np.where(cand.bad[:, None], params["b"], b_wild)}
    _assert_terms_equal(cur, fd, params)
    cand, _ = propose(gamma_h0=params["gamma_h0"] + np.r_[800.0, np.zeros(fd.Q - 1)])
    assert np.all(np.isneginf(cand.value))

    # an accepted location sweep beta[k] <-> b[:, k] moves beta and b without
    # an evaluation; the next one must see the shifted state
    for k in range(fd.q):
        beta = params["beta"].copy()
        beta[k] += 0.3
        b = params["b"].copy()
        b[:, k] -= 0.3
        params = {**params, "beta": beta, "b": b}
    cand, _ = propose(gamma=jitter("gamma"))
    cur, params = propose()
    cand, cand_params = propose(b=jitter("b", 0.2))
    _assert_terms_equal(fd.merge_rows(cur, cand, ~rows), fd,
                        {**params, "b": np.where(rows[:, None], params["b"], cand_params["b"])})


HAZARD_BLOCKS = ("gamma_h0", "gamma", "alpha")


def _central_differences(f, x, sd, idx):
    """Central-difference gradient and negative Hessian of f at x over the
    coordinates ``idx``, with steps in units of each coordinate's sd."""
    e = lambda j, h: h * sd[j] * (np.arange(x.size) == j)
    grad = np.array([(f(x + e(j, 1e-3)) - f(x - e(j, 1e-3))) / (2e-3 * sd[j]) for j in idx])
    h = 3e-3
    prec = np.array([[-(f(x + e(i, h) + e(j, h)) - f(x + e(i, h) - e(j, h))
                        - f(x - e(i, h) + e(j, h)) + f(x - e(i, h) - e(j, h)))
                      / (4.0 * h * h * sd[i] * sd[j]) for j in idx] for i in idx])
    return grad, prec


@pytest.mark.parametrize("family, variant, frozen",
                         [(f, v, ()) for f in sorted(FAMILIES) for v in ASSOCIATION_VARIANTS]
                         + [("gaussian", "current_value", ("alpha",))])
def test_hazard_newton_matches_finite_differences(family_cohorts, family, variant, frozen):
    """The Newton proposal's gradient and precision are those of the survival
    log likelihood plus the block priors, by central finite differences."""
    spec, dataset = family_cohorts[family]
    assoc = _association(variant, spec)
    fd = _FitData(dataset, spec, assoc)
    priors = PriorSet(gamma_variance=3.0, alpha_variance=5.0)
    tau_h = 2.5
    rng = np.random.default_rng(17)
    params = {
        "beta": np.array([3.6, 0.25]) if family == "gaussian" else np.array([-0.5, 0.2]),
        "gamma": np.array([0.5]), "alpha": 0.2 + 0.1 * rng.standard_normal(assoc.n_params),
        "gamma_h0": np.r_[math.log(0.1), 0.3 * rng.standard_normal(fd.Q - 1)], "phi": 0.25,
        "b": rng.normal(size=(fd.n, fd.q)) * [0.5, 0.1],
    }
    free = np.concatenate([np.full(params[n].size, n not in frozen) for n in HAZARD_BLOCKS])
    theta = np.concatenate([params[n] for n in HAZARD_BLOCKS])
    cuts = np.cumsum([params[n].size for n in HAZARD_BLOCKS])[:-1]

    def log_post(x):
        over = dict(zip(HAZARD_BLOCKS, np.split(x, cuts)))
        surv = fd.per_subject_loglik(**{**params, **over}).surv.sum()
        g = over["gamma_h0"]
        return (surv - 0.5 * tau_h * g @ fd.K @ g
                - over["gamma"] @ over["gamma"] / (2.0 * priors.gamma_variance)
                - over["alpha"] @ over["alpha"] / (2.0 * priors.alpha_variance))

    mean, chol = fd.hazard_newton(fd.per_subject_loglik(**params), tau_h, priors, free)
    prec = chol @ chol.T
    grad = prec @ (mean - theta[free])

    # steps and errors in units of each coordinate's posterior sd, since the
    # curvature spans eight orders of magnitude
    sd = np.zeros(theta.size)
    sd[free] = 1.0 / np.sqrt(np.diag(prec))
    fd_grad, fd_prec = _central_differences(log_post, theta, sd, np.flatnonzero(free))
    sd = sd[free]
    assert np.max(np.abs(grad - fd_grad) * sd) < 1e-6
    assert np.max(np.abs(prec - fd_prec) * np.outer(sd, sd)) < 3e-5


@pytest.mark.parametrize("family, variant, extra",
                         [(f, v, False) for f in sorted(FAMILIES) for v in ASSOCIATION_VARIANTS]
                         + [(f, "value_and_slope", True) for f in sorted(FAMILIES)])
def test_log_target_newton_matches_finite_differences(family_cohorts, family, variant, extra):
    """The mode search's gradient and precision are those of ``log_target``,
    by central finite differences; ``extra`` appends a measurement past the
    landmark and conditions on survival up to it."""
    spec, dataset = family_cohorts[family]
    assoc = _association(variant, spec)
    rng = np.random.default_rng(23)
    gaussian = family == "gaussian"
    theta = Parameters(
        beta=np.array([3.6, 0.25]) if gaussian else np.array([-0.5, 0.2]),
        phi=0.25 if gaussian else 1.0, D=np.array([[0.35, 0.03], [0.03, 0.02]]),
        gamma=np.array([0.5]), alpha=0.2 + 0.1 * rng.standard_normal(assoc.n_params),
        baseline=spec.make_baseline(
            np.r_[math.log(0.1), 0.3 * rng.standard_normal(spec.n_baseline - 1)], 1.0))
    subject = next(s for s in dataset.subjects if s.event_time > 3.0 and s.n_obs > 2)
    history = SubjectHistory.from_subject(subject, 3.0)
    if extra:
        history = SubjectHistory(history.covariates, np.append(history.times, 4.5),
                                 np.append(history.y, 1.0), 4.5)
    cdata = _ConditionData(spec, assoc, [history])
    th = ThetaBatch.from_parameters(theta)
    b = rng.normal(size=2) * [0.5, 0.1]
    grad, prec = (v[0] for v in cdata.log_target_newton(b[None], th))
    log_target = lambda x: cdata.log_target(x[None, None, :], th)[0, 0]

    sd = 1.0 / np.sqrt(np.diag(prec))
    fd_grad, fd_prec = _central_differences(log_target, b, sd, range(b.size))
    assert np.max(np.abs(grad - fd_grad) * sd) < 1e-6
    assert np.max(np.abs(prec - fd_prec) * np.outer(sd, sd)) < 3e-5


def _stacked_condition(family_cohorts, family, variant):
    """Three histories at landmark 3 with 0, 2 and 3 measurements, stacked,
    and a theta for them."""
    spec, dataset = family_cohorts[family]
    assoc = _association(variant, spec)
    gaussian = family == "gaussian"
    theta = dataclasses.replace(true_parameters(spec, lam=0.1),
                                beta=np.array([3.6, 0.25] if gaussian else [-0.5, 0.2]),
                                phi=0.25 if gaussian else 1.0, alpha=np.full(assoc.n_params, 0.3))
    subjects = [s for s in dataset.subjects if s.event_time > 3.0 and s.n_obs >= 3][:3]
    histories = [SubjectHistory(s.covariates, s.times[:k], s.y[:k], 3.0)
                 for s, k in zip(subjects, (0, 2, 3))]
    return spec, assoc, theta, histories


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("variant", ["current_value", "cumulative", "shared_random_effects"])
def test_stacked_chain_gives_each_history_its_own_draws(family_cohorts, family, variant):
    """Histories with 0, 2 and 3 measurements in one stack, each drawing on
    its own generator, get exactly the kernel states each gets alone."""
    spec, assoc, theta, histories = _stacked_condition(family_cohorts, family, variant)
    th = ThetaBatch.from_parameters(theta, 5)
    cdata = _ConditionData(spec, assoc, histories)
    proposal = posterior_mode_re(cdata, theta)
    seeds = (41, 42, 43)
    names = ["history 0", "history 1", "history 2"]
    stacked = _re_mh_draws(cdata, th, proposal, [np.random.default_rng(s) for s in seeds], 30,
                           names=names)
    assert stacked.shape == (3, th.size, 2)
    for k, h in enumerate(histories):
        alone = ReProposal(mean=proposal.mean[k:k + 1], cov=proposal.cov[k:k + 1])
        draws = _re_mh_draws(_ConditionData(spec, assoc, [h]), th, alone,
                             [np.random.default_rng(seeds[k])], 30, names=names[k:k + 1])
        assert np.array_equal(stacked[k], draws[0])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("variant", ["current_value", "cumulative", "shared_random_effects"])
def test_stacked_target_at_differing_landmarks_is_each_historys_own(family_cohorts, family,
                                                                    variant):
    """Histories with 0, 2 and 3 measurements conditioned on survival to
    their own times, two of them on an event there, give in one stack the
    target each gives alone, to rounding (the padded nodes sum in another
    order); a history flagged without an event gives the target of a
    condition without events."""
    spec, assoc, theta, histories = _stacked_condition(family_cohorts, family, variant)
    histories = [dataclasses.replace(h, t=t) for h, t in zip(histories, (3.0, 4.2, 6.5))]
    events = [True, False, True]
    rng = np.random.default_rng(61)
    th = ThetaBatch.from_parameters(theta, 5)
    b = 0.3 * rng.standard_normal((3, th.size, 2))
    cdata = _ConditionData(spec, assoc, histories, events=events)
    assert np.array_equal(cdata.t, [3.0, 4.2, 6.5])
    stacked = cdata.log_target(b, th)
    for k, (h, event) in enumerate(zip(histories, events)):
        alone = _ConditionData(spec, assoc, [h], events=[event]).log_target(b[k:k + 1], th)
        np.testing.assert_allclose(stacked[k], alone[0], rtol=1e-12, atol=0.0)
    plain = _ConditionData(spec, assoc, histories[1:2]).log_target(b[1:2], th)
    np.testing.assert_allclose(stacked[1], plain[0], rtol=1e-12, atol=0.0)


def test_one_sweep_of_the_kernel_resamples_the_weighted_draws(family_cohorts):
    """With warmup=1 the kernel is sampling-importance-resampling: on the same
    generators, each row's state is the draw of ``_weighted_draws`` that the
    row's next uniform picks through the inverse CDF of the row's weights."""
    spec, assoc, theta, histories = _stacked_condition(family_cohorts, "gaussian", "cumulative")
    th = ThetaBatch.from_parameters(theta, 7)
    cdata = _ConditionData(spec, assoc, histories)
    proposal = posterior_mode_re(cdata, theta)
    m, seeds, names = RE_CANDIDATES, (51, 52, 53), ["history 0", "history 1", "history 2"]
    state = _re_mh_draws(cdata, th, proposal, [np.random.default_rng(s) for s in seeds], 1,
                         names=names)
    rngs = [np.random.default_rng(s) for s in seeds]
    b, log_w, log_norm = _weighted_draws(cdata, th, proposal, rngs, m, names)
    cdf = np.cumsum(np.exp(log_w - log_norm), axis=-1)
    for s, rng in enumerate(rngs):
        u = rng.random(th.size)
        for r in range(th.size):
            k = np.searchsorted(cdf[s, r], u[r] * cdf[s, r, -1], side="right")
            assert np.array_equal(state[s, r], b[s, r * m + k])


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("variant", ASSOCIATION_VARIANTS)
def test_fit_draws_match_full_evaluation(family_cohorts, monkeypatch, family, variant):
    """The chain's incremental terms give the draws of full re-evaluation."""
    spec, dataset = family_cohorts[family]
    assoc = _association(variant, spec)
    config = McmcConfig(seed=4, chains=1, iterations=60, burn_in=20)
    incremental = fit(dataset, spec, assoc, PriorSet(), config)
    full = _FitData.per_subject_loglik
    monkeypatch.setattr(_FitData, "per_subject_loglik",
                        lambda self, *args, base=None, **kw: full(self, *args, **kw))
    reference = fit(dataset, spec, assoc, PriorSet(), config)
    assert flatten(incremental)[1].tobytes() == flatten(reference)[1].tobytes()
    assert incremental.ranef.tobytes() == reference.ranef.tobytes()


# --- DIC ---------------------------------------------------------------------------

def test_dic_degenerate_posterior_has_zero_complexity(tiny_data):
    spec, assoc, theta, dataset, b_fix = tiny_data
    samples = PosteriorSamples.degenerate(theta, 40)
    samples.ranef = np.repeat(b_fix[None, :, :], 40, axis=0)
    samples.subject_ids = tuple(s.id for s in dataset.subjects)
    value = dic(samples, dataset, spec, assoc)
    ll = 0.0
    from jmsched.model import linear_predictor, long_log_density, surv_log_density

    for s, b in zip(dataset.subjects, b_fix):
        for t_l, y_l in zip(s.times, s.y):
            eta = linear_predictor(spec.longitudinal, s, b, theta.beta, t_l)
            ll += long_log_density(GAUSSIAN, y_l, eta, theta.phi)
        ll += surv_log_density(theta, spec, assoc, s, b)
    assert value == pytest.approx(-2.0 * ll, abs=1e-6)  # p_D = 0


def test_dic_invariant_to_draw_order(small_joint):
    samples = small_joint["samples"]
    dataset = small_joint["dataset"]
    spec, assoc = small_joint["spec"], small_joint["assoc"]
    sub = np.arange(0, samples.n_draws, 10)
    perm = np.random.default_rng(0).permutation(sub)

    def take(idx):
        s = PosteriorSamples(
            beta=samples.beta[idx], gamma=samples.gamma[idx], alpha=samples.alpha[idx],
            gamma_h0=samples.gamma_h0[idx], phi=samples.phi[idx],
            tau_h=samples.tau_h[idx], tau_hdelta=samples.tau_hdelta[idx],
            D=samples.D[idx], chain=samples.chain[idx], iteration=samples.iteration[idx],
            ranef=samples.ranef[idx], subject_ids=samples.subject_ids)
        return dic(s, dataset, spec, assoc)

    assert take(sub) == pytest.approx(take(perm), abs=1e-8)


@pytest.mark.parametrize("value", [1e300, -1e300])
def test_dic_with_a_non_finite_deviance_is_a_numeric_error(small_joint, value):
    """A huge but finite random effect overflows one draw's deviance; DIC
    names that draw's chain and iteration instead of returning nan."""
    samples = copy.copy(small_joint["samples"])
    samples.ranef = samples.ranef.copy()
    samples.ranef[7, 2, 0] = value
    with pytest.raises(NumericError, match=f"chain {samples.chain[7]} "
                                           f"iteration {samples.iteration[7]}"):
        dic(samples, small_joint["dataset"], small_joint["spec"], small_joint["assoc"])


# --- diagnostics and persistence ----------------------------------------------------

def test_split_rhat_far_apart_chains():
    rng = np.random.default_rng(1)
    close = rng.normal(size=(2, 400))
    apart = np.vstack([rng.normal(size=400), 5.0 + rng.normal(size=400)])
    assert split_rhat(close) < 1.05
    assert split_rhat(apart) > 2.0


def test_effective_sample_size_detects_correlation():
    rng = np.random.default_rng(2)
    iid = rng.normal(size=(1, 2000))
    ar = np.empty((1, 2000))
    ar[0, 0] = 0.0
    for k in range(1, 2000):
        ar[0, k] = 0.95 * ar[0, k - 1] + rng.normal() * 0.1
    assert effective_sample_size(iid) > 1200
    assert effective_sample_size(ar) < 400


def test_effective_sample_size_of_a_non_finite_chain_is_its_length():
    seqs = np.ones((2, 50))
    seqs[0, 7] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert effective_sample_size(seqs) == 100.0


def test_draws_csv_round_trip(tmp_path, small_joint):
    samples = small_joint["samples"]
    spec = small_joint["spec"]
    path = tmp_path / "draws.csv"
    write_draws_csv(samples, spec, path)
    back = read_draws_csv(path, spec)
    assert np.array_equal(back.beta, samples.beta)
    assert np.array_equal(back.gamma_h0, samples.gamma_h0)
    assert np.array_equal(back.phi, samples.phi)
    assert np.array_equal(back.D, samples.D)
    assert np.array_equal(back.chain, samples.chain)


def test_mean_parameters_independent_of_draw_layout(tmp_path, small_joint):
    samples = small_joint["samples"]
    spec = small_joint["spec"]
    path = tmp_path / "draws.csv"
    write_draws_csv(samples, spec, path)
    here = samples.mean_parameters(spec)
    back = read_draws_csv(path, spec).mean_parameters(spec)
    assert flatten(here)[1].tobytes() == flatten(back)[1].tobytes()


def test_ranef_csv_round_trip(tmp_path, small_joint):
    samples = small_joint["samples"]
    path = tmp_path / "ranef.csv"
    write_ranef_csv(samples, path)
    ids, ranef = read_ranef_csv(path, samples, samples.subject_ids)
    assert ids == samples.subject_ids
    assert np.array_equal(ranef, samples.ranef)


EDGE_VALUES = (-0.0, 5e-324, 1e308, 0.1 + 0.2, 1.0 / 3.0)


def _reference_table(path, samples, names, mat):
    """A number table written with ``csv.writer`` and ``repr(float(v))``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "iteration", *names])
        writer.writerows([int(c), int(i), *[repr(float(v)) for v in row]]
                         for c, i, row in zip(samples.chain, samples.iteration, mat))


def test_number_tables_keep_the_bytes_of_repr_float(tmp_path):
    """Edge values are written as ``repr(float(v))`` and read back exactly."""
    spec, _ = gaussian_joint_model()
    theta = true_parameters(spec)
    n = len(EDGE_VALUES)
    samples = PosteriorSamples.degenerate(theta, n)
    samples.chain, samples.iteration = np.repeat([0, 1], [3, 2]), np.array([5, 6, 7, 5, 6])
    samples.beta = np.array([EDGE_VALUES, EDGE_VALUES[::-1]]).T.copy()
    samples.gamma_h0 = np.roll(np.resize(EDGE_VALUES, (n, spec.n_baseline)), 2, axis=1)
    samples.ranef = np.resize(EDGE_VALUES, (n, 3, 2))
    samples.subject_ids = ("a", "b", "c")

    write_draws_csv(samples, spec, tmp_path / "draws.csv")
    _reference_table(tmp_path / "draws_ref.csv", samples, *flatten(samples))
    assert (tmp_path / "draws.csv").read_bytes() == (tmp_path / "draws_ref.csv").read_bytes()
    back = read_draws_csv(tmp_path / "draws.csv", spec)
    assert flatten(back)[1].tobytes() == flatten(samples)[1].tobytes()

    write_ranef_csv(samples, tmp_path / "ranef.csv")
    names = [f"b[{sid},{k}]" for sid in samples.subject_ids for k in range(2)]
    _reference_table(tmp_path / "ranef_ref.csv", samples, names, samples.ranef.reshape(n, 6))
    assert (tmp_path / "ranef.csv").read_bytes() == (tmp_path / "ranef_ref.csv").read_bytes()
    ids, ranef = read_ranef_csv(tmp_path / "ranef.csv", back, samples.subject_ids)
    assert ids == samples.subject_ids
    assert ranef.tobytes() == samples.ranef.tobytes()


def test_mcmc_config_validation():
    with pytest.raises(ConfigError):
        McmcConfig(seed=1, iterations=100, burn_in=100)
    with pytest.raises(ConfigError):
        McmcConfig(seed=1, chains=0)
    with pytest.raises(ConfigError):
        McmcConfig(seed=1, thin=0)


def test_dic_requires_ranef(small_joint):
    samples = PosteriorSamples.degenerate(small_joint["theta"], 5)
    with pytest.raises(SpecError):
        dic(samples, small_joint["dataset"], small_joint["spec"], small_joint["assoc"])


# --- bernoulli outcome path ---------------------------------------------------

def test_bernoulli_joint_model_end_to_end(tmp_path):
    from jmsched.dynpred import conditional_survival, cv_dcl
    from jmsched.model import BERNOULLI
    from jmsched.simulate import SimulationDesign, generate_dataset

    lspec = LongitudinalSpec(family=BERNOULLI, time_effect=LinearTime(),
                             random_time_terms=0)
    basis = BSplineBasis(degree=3, interior_knots=(), boundary_knots=(0.0, 12.0))
    spec = JointModelSpec(longitudinal=lspec, baseline_basis=basis)
    assoc = AssociationForm("current_value")
    gh = np.zeros(spec.n_baseline)
    gh[0] = math.log(0.07)
    theta = Parameters(beta=np.array([-1.0, 0.4]), phi=1.0, D=np.array([[1.2]]),
                       gamma=np.empty(0), alpha=np.array([0.4]),
                       baseline=spec.make_baseline(gh, 1.0))
    design = SimulationDesign(
        n_subjects=40, parameters=theta, spec=spec, assoc=assoc,
        visit_times=(0.0, 1.0, 2.0, 3.5, 5.0), seed=50, censor_admin=9.0)
    dataset = generate_dataset(design)
    assert set(np.concatenate([s.y for s in dataset.subjects if s.n_obs])) <= {0.0, 1.0}

    samples = fit(dataset, spec, assoc, PriorSet(),
                  McmcConfig(seed=8, chains=1, iterations=500, burn_in=200))
    assert np.all(samples.phi == 1.0)  # dispersion fixed for bernoulli
    assert np.all(np.isfinite(samples.beta))

    path = tmp_path / "draws.csv"
    write_draws_csv(samples, spec, path)
    header = path.read_text().splitlines()[0]
    assert "sigma2" not in header
    back = read_draws_csv(path, spec)
    assert np.array_equal(back.beta, samples.beta)

    t_land = 2.0
    score = cv_dcl(samples, dataset, t_land, spec, assoc, n_theta_draws=20,
                   n_re_draws=4, seed=1)
    assert math.isfinite(score)
    history = SubjectHistory({}, [0.0, 1.0], [0.0, 1.0], t=1.5)
    pi = conditional_survival(history, 3.0, samples, spec, assoc, g_pi=200, seed=2)
    assert 0.0 <= pi <= 1.0
