"""Spline bases, difference penalties, and fixed-order quadrature rules.

Everything here is a pure function of its arguments; the types are frozen
dataclasses and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError, SpecError

__all__ = [
    "BSplineBasis",
    "NaturalCubicBasis",
    "DifferencePenalty",
    "QuadratureRule",
    "GK15",
    "bspline_eval",
    "bspline_deriv",
    "bspline_matrix",
    "bspline_deriv_matrix",
    "ncs_eval",
    "ncs_deriv",
    "ncs_matrix",
    "ncs_deriv_matrix",
    "penalty_matrix",
    "integrate",
    "span_nodes",
]


# ---------------------------------------------------------------------------
# B-splines (Cox-de Boor, boundary knots replicated degree+1 times)
# ---------------------------------------------------------------------------

def _boundary_pair(knots) -> tuple:
    if np.size(knots) != 2:
        raise SpecError(f"a spline needs 2 boundary knots (lo, hi), got {np.size(knots)}")
    return tuple(knots)


@dataclass(frozen=True)
class BSplineBasis:
    """B-spline basis of a given degree on [boundary_low, boundary_high].

    The full knot vector replicates each boundary knot ``degree + 1`` times,
    so the basis is a partition of unity on the closed boundary interval.
    """

    degree: int
    interior_knots: tuple
    boundary_knots: tuple

    def __post_init__(self):
        if self.degree < 0:
            raise SpecError(f"spline degree must be >= 0, got {self.degree}")
        lo, hi = _boundary_pair(self.boundary_knots)
        if not lo < hi:
            raise SpecError(f"boundary knots must be increasing, got ({lo}, {hi})")
        ik = np.asarray(self.interior_knots, dtype=float)
        if ik.size and (np.any(np.diff(ik) <= 0) or ik[0] <= lo or ik[-1] >= hi):
            raise SpecError(
                "interior knots must be strictly ascending and strictly inside "
                f"the boundary interval ({lo}, {hi})"
            )
        object.__setattr__(self, "interior_knots", tuple(float(k) for k in ik))
        object.__setattr__(self, "boundary_knots", (float(lo), float(hi)))

    @property
    def num_basis(self) -> int:
        return len(self.interior_knots) + self.degree + 1

    @property
    def knot_vector(self) -> np.ndarray:
        lo, hi = self.boundary_knots
        return np.concatenate(
            [np.full(self.degree + 1, lo), self.interior_knots, np.full(self.degree + 1, hi)]
        )


def _cox_de_boor_matrix(knots: np.ndarray, ts: np.ndarray, up_to_degree: int) -> np.ndarray:
    """Basis values of order ``up_to_degree`` at each t, one column per span.

    Iterative Cox-de Boor recursion, vectorized over the evaluation points;
    the rightmost nonempty interval is treated as closed so the basis sums
    to 1 at the upper boundary.
    """
    ts = np.asarray(ts, dtype=float)
    n = len(knots) - 1
    values = ((knots[None, :-1] <= ts[:, None]) & (ts[:, None] < knots[None, 1:])).astype(float)
    at_end = ts >= knots[-1]
    if np.any(at_end):
        nonempty = np.nonzero(knots[:-1] < knots[1:])[0]
        if nonempty.size:
            values[at_end, nonempty[-1]] = 1.0
    for k in range(1, up_to_degree + 1):
        new = np.zeros((ts.size, n - k))
        for i in range(n - k):
            left_den = knots[i + k] - knots[i]
            right_den = knots[i + k + 1] - knots[i + 1]
            acc = 0.0
            if left_den > 0.0:
                acc = acc + (ts - knots[i]) / left_den * values[:, i]
            if right_den > 0.0:
                acc = acc + (knots[i + k + 1] - ts) / right_den * values[:, i + 1]
            new[:, i] = acc
        values = new
    return values


def _check_domain_all(basis: BSplineBasis, ts: np.ndarray) -> None:
    if ts.size == 0:
        return
    lo, hi = basis.boundary_knots
    if ts.min() < lo or ts.max() > hi:
        bad = ts[(ts < lo) | (ts > hi)][0]
        raise DomainError(f"t={bad} outside the boundary interval [{lo}, {hi}]")


def bspline_matrix(basis: BSplineBasis, ts) -> np.ndarray:
    """Design matrix of basis values, one row per evaluation point."""
    ts = np.asarray(ts, dtype=float)
    _check_domain_all(basis, ts)
    return _cox_de_boor_matrix(basis.knot_vector, ts, basis.degree)


def bspline_deriv_matrix(basis: BSplineBasis, ts) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    _check_domain_all(basis, ts)
    deg = basis.degree
    out = np.zeros((ts.size, basis.num_basis))
    if deg == 0:
        return out
    knots = basis.knot_vector
    lower = _cox_de_boor_matrix(knots, ts, deg - 1)
    for i in range(basis.num_basis):
        den1 = knots[i + deg] - knots[i]
        den2 = knots[i + deg + 1] - knots[i + 1]
        acc = 0.0
        if den1 > 0.0:
            acc = acc + lower[:, i] / den1
        if den2 > 0.0:
            acc = acc - lower[:, i + 1] / den2
        out[:, i] = deg * acc
    return out


def bspline_eval(basis: BSplineBasis, t: float) -> np.ndarray:
    """Values (B_1(t), ..., B_Q(t)); nonnegative and summing to 1."""
    return bspline_matrix(basis, np.array([t]))[0]


def bspline_deriv(basis: BSplineBasis, t: float) -> np.ndarray:
    """Exact first derivatives (B_1'(t), ..., B_Q'(t)); they sum to 0."""
    return bspline_deriv_matrix(basis, np.array([t]))[0]


# ---------------------------------------------------------------------------
# Natural cubic splines (cardinal basis, linear tails)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NaturalCubicBasis:
    """Cardinal natural cubic spline basis with linear extrapolation.

    With knots (lo, k_1, ..., k_m, hi) the natural splines that vanish at lo
    and take value 1 at exactly one of the remaining knots form the basis;
    there are ``m + 1`` functions.  Each basis function is the unique natural
    cubic interpolant of an indicator, computed through the classic
    tridiagonal second-derivative system, and is extended linearly outside
    the boundary knots (second derivative zero beyond them).
    """

    boundary_knots: tuple
    interior_knots: tuple = ()
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _curvatures: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = _boundary_pair(self.boundary_knots)
        if not lo < hi:
            raise SpecError(f"boundary knots must be increasing, got ({lo}, {hi})")
        ik = np.asarray(self.interior_knots, dtype=float)
        if ik.size and (np.any(np.diff(ik) <= 0) or ik[0] <= lo or ik[-1] >= hi):
            raise SpecError("interior knots must be strictly ascending inside the boundary")
        object.__setattr__(self, "boundary_knots", (float(lo), float(hi)))
        object.__setattr__(self, "interior_knots", tuple(float(k) for k in ik))
        knots = np.concatenate([[lo], ik, [hi]])
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_curvatures", _natural_spline_curvatures(knots))
        object.__setattr__(self, "_edge_slopes", _ncs_boundary_slopes(self))

    @property
    def num_basis(self) -> int:
        return len(self.interior_knots) + 1


def _natural_spline_curvatures(knots: np.ndarray) -> np.ndarray:
    """Second derivatives at the knots for each cardinal basis function.

    Column j holds the knot curvatures of the natural cubic interpolant of
    the indicator of knot j+1 (the function pinned at the first knot is
    dropped from the basis).  Boundary curvatures are zero by construction.
    """
    n_knots = len(knots)
    n_basis = n_knots - 1
    curv = np.zeros((n_knots, n_basis))
    if n_knots == 2:
        return curv
    h = np.diff(knots)
    interior = n_knots - 2
    lhs = np.zeros((interior, interior))
    for r in range(interior):
        lhs[r, r] = (h[r] + h[r + 1]) / 3.0
        if r > 0:
            lhs[r, r - 1] = h[r] / 6.0
        if r < interior - 1:
            lhs[r, r + 1] = h[r + 1] / 6.0
    for j in range(n_basis):
        y = np.zeros(n_knots)
        y[j + 1] = 1.0
        rhs = np.array(
            [(y[r + 2] - y[r + 1]) / h[r + 1] - (y[r + 1] - y[r]) / h[r] for r in range(interior)]
        )
        curv[1:-1, j] = np.linalg.solve(lhs, rhs)
    return curv


def _piece_values_slopes(knots, curv, ident, idx, ts):
    """Cubic piece formula on cells idx for points ts (vectorized)."""
    lo = knots[idx]
    hi = knots[idx + 1]
    h = hi - lo
    a = (hi - ts) / h
    b = (ts - lo) / h
    y_lo = ident[idx]
    y_hi = ident[idx + 1]
    c_lo = curv[idx]
    c_hi = curv[idx + 1]
    h2 = (h * h / 6.0)[:, None]
    value = (a[:, None] * y_lo + b[:, None] * y_hi
             + ((a**3 - a)[:, None] * c_lo + (b**3 - b)[:, None] * c_hi) * h2)
    slope = ((y_hi - y_lo) / h[:, None]
             + (h / 6.0)[:, None] * (-(3.0 * a**2 - 1.0)[:, None] * c_lo
                                     + (3.0 * b**2 - 1.0)[:, None] * c_hi))
    return value, slope


def _ncs_boundary_slopes(basis) -> np.ndarray:
    knots = basis._knots
    curv = basis._curvatures
    ident = np.eye(len(knots))[:, 1:]
    _, lo_slope = _piece_values_slopes(knots, curv, ident, np.array([0]), knots[0:1])
    _, hi_slope = _piece_values_slopes(knots, curv, ident,
                                       np.array([len(knots) - 2]), knots[-1:])
    return np.vstack([lo_slope, hi_slope])


def _ncs_matrix_and_slopes(basis: NaturalCubicBasis, ts):
    knots = basis._knots
    curv = basis._curvatures
    ts = np.asarray(ts, dtype=float)
    ident = np.eye(len(knots))[:, 1:]  # cardinal data, lower-boundary function dropped
    idx = np.clip(np.searchsorted(knots, ts, side="right") - 1, 0, len(knots) - 2)
    value, slope = _piece_values_slopes(knots, curv, ident, idx, ts)
    below = ts < knots[0]
    above = ts > knots[-1]
    if np.any(below):
        slope[below] = basis._edge_slopes[0]
        value[below] = ident[0] + np.outer(ts[below] - knots[0], basis._edge_slopes[0])
    if np.any(above):
        slope[above] = basis._edge_slopes[1]
        value[above] = ident[-1] + np.outer(ts[above] - knots[-1], basis._edge_slopes[1])
    return value, slope


def ncs_matrix(basis: NaturalCubicBasis, ts) -> np.ndarray:
    """Design matrix of natural spline basis values, one row per point."""
    return _ncs_matrix_and_slopes(basis, ts)[0]


def ncs_deriv_matrix(basis: NaturalCubicBasis, ts) -> np.ndarray:
    return _ncs_matrix_and_slopes(basis, ts)[1]


def ncs_eval(basis: NaturalCubicBasis, t: float) -> np.ndarray:
    """Natural cubic spline basis values at t (linear beyond the boundaries)."""
    return _ncs_matrix_and_slopes(basis, np.array([t]))[0][0]


def ncs_deriv(basis: NaturalCubicBasis, t: float) -> np.ndarray:
    """First derivatives of the natural spline basis at t."""
    return _ncs_matrix_and_slopes(basis, np.array([t]))[1][0]


# ---------------------------------------------------------------------------
# Difference penalties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferencePenalty:
    """r-th order difference penalty D_r' D_r + ridge * I on `dim` coefficients."""

    order: int
    dim: int
    ridge: float = 1e-6

    def __post_init__(self):
        if self.order < 1:
            raise SpecError(f"penalty order must be >= 1, got {self.order}")
        if self.dim <= self.order:
            raise SpecError(
                f"penalty needs dim > order, got dim={self.dim}, order={self.order}"
            )
        if self.ridge <= 0:
            raise SpecError("penalty ridge must be positive")

    def difference_matrix(self) -> np.ndarray:
        return np.diff(np.eye(self.dim), n=self.order, axis=0)

    @property
    def rank(self) -> int:
        """Rank of the unridged penalty, dim - order."""
        return self.dim - self.order


def penalty_matrix(p: DifferencePenalty) -> np.ndarray:
    """K = D_r' D_r + ridge * I; symmetric positive definite."""
    d = p.difference_matrix()
    return d.T @ d + p.ridge * np.eye(p.dim)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# 15-point Gauss-Kronrod nodes/weights on [-1, 1] (QUADPACK constants).
_GK15_X = np.array([
    0.991455371120812639207, 0.949107912342758524526, 0.864864423359769072790,
    0.741531185599394439864, 0.586087235467691130294, 0.405845151377397166907,
    0.207784955007898467601, 0.0,
])
_GK15_W = np.array([
    0.022935322010529224964, 0.063092092629978553291, 0.104790010322250183840,
    0.140653259715525918745, 0.169004726639267902827, 0.190350578064785409913,
    0.204432940075298892414, 0.209482141084727828013,
])


@dataclass(frozen=True)
class QuadratureRule:
    """Fixed nodes/weights on [-1, 1], applied by affine change of variables."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise SpecError("quadrature nodes and weights must be 1-d and equal length")
        if np.any(np.abs(nodes) > 1.0) or np.any(weights <= 0.0):
            raise SpecError("nodes must lie in [-1, 1] and weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def gauss_legendre(cls, n: int) -> "QuadratureRule":
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(nodes=x, weights=w)

    @classmethod
    def gauss_kronrod_15(cls) -> "QuadratureRule":
        x = np.concatenate([-_GK15_X[:-1], _GK15_X[::-1]])
        w = np.concatenate([_GK15_W[:-1], _GK15_W[::-1]])
        order = np.argsort(x)
        return cls(nodes=x[order], weights=w[order])


GK15 = QuadratureRule.gauss_kronrod_15()


def mapped_nodes(rule: QuadratureRule, a, b):
    """Quadrature nodes and weights transported to [a, b]; with column arrays
    of cell ends, one row of nodes per cell."""
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * rule.nodes, half * rule.weights


def integrate(f, a: float, b: float, rule: QuadratureRule = GK15) -> float:
    """Integral of f over [a, b] with the given fixed rule."""
    if a > b:
        raise DomainError(f"integration bounds must satisfy a <= b, got ({a}, {b})")
    if a == b:
        return 0.0
    xs, ws = mapped_nodes(rule, a, b)
    vals = np.array([f(x) for x in xs], dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise NumericError(f"non-finite integrand value at s={xs[bad][0]}")
    return float(ws @ vals)


def span_nodes(a: float, b: float, breakpoints=(), rule: QuadratureRule = GK15):
    """Stacked mapped nodes/weights of the composite rule over [a, b], split at
    the breakpoints strictly inside it."""
    if b <= a:
        return np.empty(0), np.empty(0)
    edges = np.array([a, *[c for c in sorted(set(breakpoints)) if a < c < b], b], dtype=float)
    xs, ws = mapped_nodes(rule, edges[:-1, None], edges[1:, None])
    return xs.ravel(), ws.ravel()
