"""Objective and constraint-set specs with their proximity and projection rules.

Every objective here has a closed-form prox; constrained variants are
supported when the objective splits coordinatewise so clipping is exact.

A SeparableSum is evaluated one vectorized pass per part kind over index
arrays grouped once at construction.  Each pass does the same IEEE
operations, in the same order, as the scalar rule for its kind, so the
result equals the coordinate-by-coordinate evaluation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, UnsupportedCombination, UnsupportedObjective
from .linalg import PIVOT_TOL, SpdFactor, blas_matrix, cholesky_factor, dot_rows, matvec_rows, solve_spd


@dataclass(frozen=True)
class Zero:
    """theta(x) = 0."""


@dataclass(frozen=True)
class L1:
    """theta(x) = weight * ||x||_1."""

    weight: float

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        if not self.weight >= 0:
            raise ValueError("l1 weight must be nonnegative")


@dataclass(frozen=True, eq=False)
class Quadratic:
    """theta(x) = 0.5 x^T P x + c^T x with P symmetric positive semidefinite."""

    p: np.ndarray
    c: np.ndarray
    # prox factorizations keyed by the prox parameter, filled only by
    # shifted_factor: each object starts with its own, dataclasses.replace
    # too.  Dict contents mutate, the field itself never does.  Races just
    # recompute an equal factor.
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _diagonal: bool = field(init=False, repr=False)  # P has no off-diagonal entry: coordinatewise

    def __post_init__(self):
        p = blas_matrix(self.p)
        c = np.asarray(self.c, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DimensionMismatch(f"P must be square, got shape {p.shape}")
        if c.shape != (p.shape[0],):
            raise DimensionMismatch(f"c has shape {c.shape}, P dim is {p.shape[0]}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)
        # PSD screen: a tiny ridge must make P positive definite
        cholesky_factor(p + 1e-10 * np.eye(p.shape[0]))
        object.__setattr__(self, "_diagonal", not np.any(p - np.diag(np.diag(p))))

    def shifted_factor(self, r: float) -> SpdFactor:
        """The Cholesky factor of P + r I, taken once per r."""
        factor = self._factors.get(r)
        if factor is None:
            factor = cholesky_factor(self.p + r * np.eye(self.p.shape[0]))
            self._factors[r] = factor
        return factor


@dataclass(frozen=True, eq=False)
class Linear:
    """theta(x) = c^T x."""

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1:
            raise DimensionMismatch(f"c must be a vector, got shape {c.shape}")
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class SeparableSum:
    """Coordinatewise sum of scalar objectives, one part per coordinate.

    The parts are grouped by kind into index and coefficient arrays
    once, here; prox and objective_value then work on whole groups.
    A scalar quadratic part's prox is (r q - c) / l / l with
    l = sqrt(p + r): the two triangular solves of its 1x1 Cholesky
    factor, in the same order, hence bit for bit the same result.
    """

    parts: tuple
    _groups: _PartGroups = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        for part in self.parts:
            if not isinstance(part, (Zero, L1, Quadratic, Linear)):
                raise UnsupportedObjective(f"unsupported part {type(part).__name__}")
            if isinstance(part, (Quadratic, Linear)) and part.c.shape != (1,):
                raise DimensionMismatch("separable parts must be scalar specs")
        object.__setattr__(self, "_groups", _PartGroups.of(self.parts))


@dataclass(frozen=True)
class _PartGroups:
    """Coordinates of a SeparableSum grouped by part kind, with the
    kind's coefficients aligned to its index array.  Zero parts need no
    group: their prox is q and their value 0, where each pass starts."""

    l1: np.ndarray
    l1_weight: np.ndarray
    linear: np.ndarray
    linear_c: np.ndarray
    quad: np.ndarray
    quad_p: np.ndarray
    quad_c: np.ndarray

    @classmethod
    def of(cls, parts: tuple) -> _PartGroups:
        def where(kind):
            return np.array([i for i, part in enumerate(parts) if isinstance(part, kind)], dtype=np.intp)

        def coef(idx, get):
            return np.array([get(parts[i]) for i in idx], dtype=float)

        l1, linear, quad = where(L1), where(Linear), where(Quadratic)
        return cls(
            l1=l1,
            l1_weight=coef(l1, lambda part: part.weight),
            linear=linear,
            linear_c=coef(linear, lambda part: part.c[0]),
            quad=quad,
            quad_p=coef(quad, lambda part: part.p[0, 0]),
            quad_c=coef(quad, lambda part: part.c[0]),
        )


@dataclass(frozen=True)
class WholeSpace:
    """No constraint."""


@dataclass(frozen=True)
class NonnegativeOrthant:
    """x >= 0 componentwise."""


@dataclass(frozen=True, eq=False)
class Box:
    """lower <= x <= upper componentwise.  A bound may be infinite on its
    own side (lower -inf, upper +inf); a lower bound of +inf or an upper
    bound of -inf leaves no feasible point and is a ValueError, as are
    crossed or NaN bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise DimensionMismatch("box bounds must be vectors of equal length")
        if not np.all(lower <= upper):
            raise ValueError("box bounds are crossed")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("box has no feasible point: a lower bound of +inf or an upper bound of -inf")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def project(spec, v: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto the set; of each row, for a stack
    of vectors along the last axis."""
    v = np.asarray(v, dtype=float)
    if isinstance(spec, WholeSpace):
        return v.copy()
    if isinstance(spec, NonnegativeOrthant):
        return np.maximum(v, 0.0)
    if isinstance(spec, Box):
        if v.shape[-1:] != spec.lower.shape:
            raise DimensionMismatch(f"vector shape {v.shape} does not match box bounds")
        return np.clip(v, spec.lower, spec.upper)
    raise UnsupportedObjective(f"unknown set spec {type(spec).__name__}")


def members(spec, v: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Membership of each vector along v's last axis, optionally with
    slack tol: a boolean array of shape v.shape[:-1], or for the whole
    space a True that broadcasts against it.  Any set other than the
    whole space and the orthant is read as a Box: spec is one that a
    Block or the problem's multiplier set admitted, which refuse every
    other kind when they are built."""
    if isinstance(spec, WholeSpace):
        return np.True_
    if isinstance(spec, NonnegativeOrthant):
        return np.all(v >= -tol, axis=-1)
    return np.all(v >= spec.lower - tol, axis=-1) & np.all(v <= spec.upper + tol, axis=-1)


def contains(spec, v: np.ndarray, tol: float = 0.0) -> bool:
    """Membership test of one vector, optionally with slack tol."""
    return bool(members(spec, v, tol))


def objective_value(theta, x: np.ndarray):
    """Evaluate theta at x: a float for one vector, or for a stack of
    vectors along the last axis an array of values with each row's bits."""
    x = np.asarray(x, dtype=float)
    one = x.ndim <= 1
    if isinstance(theta, Zero):
        return 0.0 if one else np.zeros(x.shape[:-1])
    if isinstance(theta, L1):
        value = theta.weight * np.sum(np.abs(x), axis=None if one else -1)
        return float(value) if one else value
    if isinstance(theta, Quadratic):
        _check_dim(theta.c.shape, x)
        return dot_rows(0.5 * x, matvec_rows(theta.p, x)) + dot_rows(theta.c, x)
    if isinstance(theta, Linear):
        _check_dim(theta.c.shape, x)
        return dot_rows(theta.c, x)
    if isinstance(theta, SeparableSum):
        _check_dim((len(theta.parts),), x)
        g = theta._groups
        values = np.zeros_like(x)
        values[..., g.l1] = g.l1_weight * np.abs(x[..., g.l1])
        values[..., g.linear] = g.linear_c * x[..., g.linear]
        xq = x[..., g.quad]
        values[..., g.quad] = 0.5 * xq * (g.quad_p * xq) + g.quad_c * xq
        # summed in part order, left to right, as the scalar terms always were
        if one:
            return float(sum(values.tolist()))
        rows = values.reshape(math.prod(x.shape[:-1]), x.shape[-1]).tolist()
        return np.array([sum(row) for row in rows]).reshape(x.shape[:-1])
    raise UnsupportedObjective(f"unknown objective {type(theta).__name__}")


def prox(theta, r: float, q: np.ndarray) -> np.ndarray:
    """argmin_y theta(y) + (r/2)||y - q||^2, in closed form.

    A stack of q, one per row of a 2-d array, gives one prox per row with
    that row's bits: every kind but Quadratic works elementwise on the
    whole stack, and a Quadratic takes one pair of triangular solves per
    row (a solve of all rows at once rounds differently)."""
    # inline, not errors.require_positive: this runs for every block on every
    # iteration and on every FISTA inner iteration, so it takes no helper call
    if not 0 < r < math.inf:
        raise ValueError(f"prox parameter r = {r} must be a finite positive number")
    q = np.asarray(q, dtype=float)
    if isinstance(theta, Zero):
        return q.copy()
    if isinstance(theta, L1):
        shift = theta.weight / r
        return np.sign(q) * np.maximum(np.abs(q) - shift, 0.0)
    if isinstance(theta, Linear):
        _check_dim(theta.c.shape, q)
        return q - theta.c / r
    if isinstance(theta, Quadratic):
        _check_dim(theta.c.shape, q)
        factor = theta.shifted_factor(r)
        rhs = r * q - theta.c
        if q.ndim == 1:  # of c's shape, as _check_dim found
            return factor.solve(rhs)
        for row in rhs:
            row[:] = solve_spd(factor, row)
        return rhs
    if isinstance(theta, SeparableSum):
        _check_dim((len(theta.parts),), q)
        return _separable_prox(theta._groups, r, q)
    raise UnsupportedObjective(f"no prox rule for {type(theta).__name__}")


def _separable_prox(g: _PartGroups, r: float, q: np.ndarray) -> np.ndarray:
    pivot = g.quad_p + r
    bad = np.flatnonzero(pivot <= PIVOT_TOL)
    if bad.size:
        i = bad[0]
        raise NotPositiveDefinite(f"pivot {pivot[i]:.3e} at coordinate {g.quad[i]}")
    out = q.copy()
    # a stack indexes its last axis, at about four times the cost of a vector's plain index
    l1, linear, quad = (g.l1, g.linear, g.quad) if q.ndim == 1 else ((..., g.l1), (..., g.linear), (..., g.quad))
    q1 = q[l1]
    out[l1] = np.sign(q1) * np.maximum(np.abs(q1) - g.l1_weight / r, 0.0)
    out[linear] = q[linear] - g.linear_c / r
    root = np.sqrt(pivot)
    out[quad] = (r * q[quad] - g.quad_c) / root / root
    return out


def prox_constrained(theta, x_set, r: float, q: np.ndarray) -> np.ndarray:
    """argmin_y theta(y) + (r/2)||y - q||^2 over the set.

    Exact for any theta on the whole space; on any other set it clips
    the free prox through project, which is exact precisely when theta
    is coordinatewise separable.  Another theta there raises
    UnsupportedCombination; a set kind that no Block admits reaches
    project, which raises UnsupportedObjective for it.
    """
    if isinstance(x_set, WholeSpace):
        return prox(theta, r, q)
    if not coordinatewise(theta):
        raise UnsupportedCombination(
            f"{type(theta).__name__} over {type(x_set).__name__} has no exact rule"
        )
    return project(x_set, prox(theta, r, q))


def coordinatewise(theta) -> bool:
    """Whether theta splits into a sum of scalar terms, one per coordinate."""
    if isinstance(theta, (Zero, L1, Linear, SeparableSum)):
        return True
    return isinstance(theta, Quadratic) and theta._diagonal


def _check_dim(shape: tuple, x: np.ndarray) -> None:
    """x has the objective's shape, or is a stack of such vectors along its
    last axis; one vector passes at the first comparison, with no slice."""
    if x.shape != shape and x.shape[-1:] != shape:
        raise DimensionMismatch(f"vector shape {x.shape} does not match objective shape {shape}")
