import numpy as np
import pytest

from jmsched.errors import DomainError, NumericError, SpecError
from jmsched.numerics import (
    GK15,
    BSplineBasis,
    DifferencePenalty,
    NaturalCubicBasis,
    QuadratureRule,
    bspline_deriv,
    bspline_eval,
    integrate,
    integrate_composite,
    ncs_deriv,
    ncs_eval,
    penalty_matrix,
)


# --- independent oracle: textbook recursive B-spline evaluation -------------

def naive_bspline(x, k, i, t):
    if k == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = c2 = 0.0
    if t[i + k] != t[i]:
        c1 = (x - t[i]) / (t[i + k] - t[i]) * naive_bspline(x, k - 1, i, t)
    if t[i + k + 1] != t[i + 1]:
        c2 = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * naive_bspline(x, k - 1, i + 1, t)
    return c1 + c2


def naive_basis_row(basis, x):
    t = basis.knot_vector
    return np.array([naive_bspline(x, basis.degree, i, t) for i in range(basis.num_basis)])


CUBIC = BSplineBasis(degree=3, interior_knots=(2.0, 4.0, 6.0, 8.0), boundary_knots=(0.0, 10.0))


def test_bspline_degree0_indicator():
    basis = BSplineBasis(degree=0, interior_knots=(1.0,), boundary_knots=(0.0, 2.0))
    assert np.array_equal(bspline_eval(basis, 0.5), [1.0, 0.0])
    assert np.array_equal(bspline_eval(basis, 1.5), [0.0, 1.0])


def test_bspline_partition_of_unity():
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 10.0, size=1000):
        vals = bspline_eval(CUBIC, t)
        assert np.all(vals >= 0.0)
        assert abs(vals.sum() - 1.0) < 1e-12
    # closed upper boundary included
    assert abs(bspline_eval(CUBIC, 10.0).sum() - 1.0) < 1e-12


def test_bspline_matches_recursive_oracle():
    vals = bspline_eval(CUBIC, 3.3)
    oracle = naive_basis_row(CUBIC, 3.3)
    assert np.allclose(vals, oracle, atol=1e-12)
    rng = np.random.default_rng(1)
    for t in rng.uniform(0.01, 9.99, size=25):
        assert np.allclose(bspline_eval(CUBIC, t), naive_basis_row(CUBIC, t), atol=1e-12)


def test_bspline_domain_error():
    with pytest.raises(DomainError):
        bspline_eval(CUBIC, -0.5)
    with pytest.raises(DomainError):
        bspline_eval(CUBIC, 10.5)


def test_bspline_deriv_linear_slopes():
    basis = BSplineBasis(degree=1, interior_knots=(1.0,), boundary_knots=(0.0, 2.0))
    d = bspline_deriv(basis, 0.5)
    assert np.allclose(d, [-1.0, 1.0, 0.0])
    d = bspline_deriv(basis, 1.5)
    assert np.allclose(d, [0.0, -1.0, 1.0])


def test_bspline_deriv_sums_to_zero():
    rng = np.random.default_rng(2)
    for t in rng.uniform(0.01, 9.99, size=200):
        assert abs(bspline_deriv(CUBIC, t).sum()) < 1e-10


def test_bspline_deriv_matches_finite_difference():
    rng = np.random.default_rng(3)
    h = 1e-6
    for t in rng.uniform(0.1, 9.9, size=50):
        fd = (bspline_eval(CUBIC, t + h) - bspline_eval(CUBIC, t - h)) / (2 * h)
        d = bspline_deriv(CUBIC, t)
        assert np.allclose(d, fd, atol=1e-5, rtol=1e-5)


# --- natural cubic splines ---------------------------------------------------

NCS = NaturalCubicBasis(boundary_knots=(0.0, 19.0), interior_knots=(3.7,))


def truncated_power_cardinal(basis, t):
    """Independent construction: cardinalized truncated-power natural basis."""
    knots = np.concatenate([[basis.boundary_knots[0]], basis.interior_knots,
                            [basis.boundary_knots[1]]])
    K = len(knots)

    def d_k(x, k):
        num = (np.maximum(x - knots[k], 0.0) ** 3
               - np.maximum(x - knots[K - 1], 0.0) ** 3)
        return num / (knots[K - 1] - knots[k])

    def raw(x):
        feats = [np.ones_like(x), x]
        for k in range(K - 2):
            feats.append(d_k(x, k) - d_k(x, K - 2))
        return np.column_stack(feats)

    F = raw(knots)  # K x K, full rank
    # cardinal function j interpolates the indicator of knot j
    coefs = np.linalg.solve(F, np.eye(K))
    values = raw(np.atleast_1d(np.asarray(t, float))) @ coefs
    return values[:, 1:]  # drop the function pinned at the lower boundary


def test_ncs_matches_truncated_power_oracle():
    for t in [5.0, 0.0, 1.2, 3.7, 10.0, 18.9, 19.0]:
        assert np.allclose(ncs_eval(NCS, t), truncated_power_cardinal(NCS, t)[0],
                           atol=1e-10)


def test_ncs_linear_extrapolation():
    hi = 19.0
    value = ncs_eval(NCS, hi)
    slope = ncs_deriv(NCS, hi)
    for t in (20.0, 25.0, 40.0):
        assert np.allclose(ncs_eval(NCS, t), value + slope * (t - hi), atol=1e-10)
        assert np.allclose(ncs_deriv(NCS, t), slope, atol=1e-12)


def test_ncs_second_differences_vanish_outside():
    for grid in (np.linspace(-6.0, -0.5, 40), np.linspace(19.5, 30.0, 40)):
        vals = np.array([ncs_eval(NCS, t) for t in grid])
        second = np.diff(vals, n=2, axis=0)
        assert np.max(np.abs(second)) < 1e-8


def test_ncs_cardinal_at_knots():
    assert np.allclose(ncs_eval(NCS, 0.0), [0.0, 0.0], atol=1e-12)
    assert np.allclose(ncs_eval(NCS, 3.7), [1.0, 0.0], atol=1e-12)
    assert np.allclose(ncs_eval(NCS, 19.0), [0.0, 1.0], atol=1e-12)


def test_spline_bases_reject_wrong_boundary_length():
    for boundary in ((0.0,), (0.0, 4.0, 8.0)):
        with pytest.raises(SpecError):
            NaturalCubicBasis(boundary, ())
        with pytest.raises(SpecError):
            BSplineBasis(degree=3, interior_knots=(), boundary_knots=boundary)


def test_ncs_deriv_matches_finite_difference():
    h = 1e-6
    for t in np.linspace(0.2, 18.8, 23):
        fd = (ncs_eval(NCS, t + h) - ncs_eval(NCS, t - h)) / (2 * h)
        assert np.allclose(ncs_deriv(NCS, t), fd, atol=1e-5)


# --- difference penalties -----------------------------------------------------

def test_penalty_first_order_hand_computed():
    K = penalty_matrix(DifferencePenalty(order=1, dim=3))
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(K, expected + 1e-6 * np.eye(3), atol=1e-15)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("dim", [5, 8, 12, 20])
def test_penalty_rank(order, dim):
    p = DifferencePenalty(order=order, dim=dim)
    K = penalty_matrix(p)
    unridged = K - p.ridge * np.eye(dim)
    assert np.linalg.matrix_rank(unridged, tol=1e-8) == dim - order
    assert p.rank == dim - order


def test_penalty_smallest_eigenvalue_bounded_by_ridge():
    for order, dim in [(1, 6), (2, 10), (2, 15)]:
        K = penalty_matrix(DifferencePenalty(order=order, dim=dim))
        assert np.linalg.eigvalsh(K).min() >= 1e-6 - 1e-12
        assert np.allclose(K, K.T)


def test_penalty_rejects_bad_dims():
    with pytest.raises(SpecError):
        DifferencePenalty(order=2, dim=2)
    with pytest.raises(SpecError):
        DifferencePenalty(order=0, dim=5)


# --- quadrature ---------------------------------------------------------------

def test_gauss_legendre_2_point_cubic_exact():
    assert integrate(lambda x: x**3, 0.0, 1.0, QuadratureRule.gauss_legendre(2)) == pytest.approx(0.25, abs=1e-15)


def test_integrate_empty_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == 0.0


def test_gk15_exponential():
    assert integrate(np.exp, 0.0, 2.0, GK15) == pytest.approx(np.e**2 - 1.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_gauss_legendre_degree_exactness(n):
    rng = np.random.default_rng(n)
    rule = QuadratureRule.gauss_legendre(n)
    for _ in range(10):
        coefs = rng.uniform(-1.0, 1.0, size=2 * n)  # degree 2n-1
        poly = np.polynomial.Polynomial(coefs)
        exact = poly.integ()(1.5) - poly.integ()(-0.5)
        approx = integrate(poly, -0.5, 1.5, rule)
        assert approx == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_gk15_degree_22_exactness():
    rng = np.random.default_rng(7)
    coefs = rng.uniform(-1.0, 1.0, size=23)
    poly = np.polynomial.Polynomial(coefs)
    exact = poly.integ()(1.0) - poly.integ()(0.0)
    assert integrate(poly, 0.0, 1.0, GK15) == pytest.approx(exact, rel=1e-12)


def test_integrate_rejects_descending_bounds():
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 0.0)


def test_integrate_nonfinite_carries_node():
    with pytest.raises(NumericError) as err:
        integrate(lambda x: np.nan if x > 0.5 else 1.0, 0.0, 1.0)
    assert "s=" in str(err.value)


def test_composite_matches_plain_on_smooth_function():
    plain = integrate(np.sin, 0.0, 3.0)
    comp = integrate_composite(np.sin, 0.0, 3.0, breakpoints=(1.0, 2.0))
    assert comp == pytest.approx(plain, abs=1e-12)
