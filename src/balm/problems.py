"""Problem containers, the saddle-point operator, and KKT residuals.

A problem couples a separable objective sum_i theta_i(x_i) with linear
constraints sum_i A_i x_i = b or >= b; the multiplier lives in the whole
space for equalities and in the nonnegative orthant for inequalities.
A SeparableProblem holds the blocks (theta_i, X_i, A_i); a Problem is
the one-block case and its own only block (blocks == (prob,), split(x)
== [x]), so every function here reads problems blockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, UnsupportedCombination
from .linalg import blas_matrix, dot_rows, gram_norm_bound, matvec_rows
from .prox import (
    Box,
    L1,
    Linear,
    NonnegativeOrthant,
    Quadratic,
    SeparableSum,
    WholeSpace,
    Zero,
    coordinatewise,
    objective_value,
    project,
    prox_constrained,
)


class Sense(Enum):
    EQUALITY = "eq"
    INEQUALITY = "geq"


def _as_matrix(a) -> np.ndarray:
    a = blas_matrix(a)
    if a.ndim != 2:
        raise DimensionMismatch(f"constraint matrix must be 2-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("constraint matrix has non-finite entries")
    return a


def _as_rhs(b, m: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape != (m,):
        raise DimensionMismatch(f"rhs has shape {b.shape}, expected ({m},)")
    if not np.all(np.isfinite(b)):
        raise ValueError("rhs has non-finite entries")
    return b


@dataclass(frozen=True, eq=False)
class Block:
    """One additive piece of a separable problem: theta_i, X_i and A_i.

    The objective and the set must fit A_i's columns: each is evaluated
    at zeros(n) once, so the prox module's own shape checks refuse
    another width (DimensionMismatch) and an unknown kind
    (UnsupportedObjective) here, where the block is built, not mid-run.
    """

    theta: object
    x_set: object
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _as_matrix(self.a))
        with np.errstate(all="ignore"):  # a non-finite coefficient is the caller's to refuse
            project(self.x_set, np.zeros(self.n))
            objective_value(self.theta, np.zeros(self.n))

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class Problem(Block):
    """min theta(x) s.t. A x = b (or >= b), x in x_set: the one-block case
    of SeparableProblem, and its own only block."""

    b: np.ndarray
    sense: Sense

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "b", _as_rhs(self.b, self.m))

    @property
    def blocks(self) -> tuple:
        return (self,)

    def split(self, x: np.ndarray) -> list:
        return [x]

    @cached_property
    def gram_norm(self) -> float:
        """A certified upper bound on ||A^T A|| (linalg.gram_norm_bound),
        cached; every stepsize default and check, and the inner solver's
        Lipschitz constant, reads it."""
        return gram_norm_bound(self.a)


@dataclass(frozen=True, eq=False)
class SeparableProblem:
    """min sum_i theta_i(x_i) s.t. sum_i A_i x_i = b (or >= b)."""

    blocks: tuple
    b: np.ndarray
    sense: Sense

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) < 1:
            raise DimensionMismatch("at least one block is required")
        m = blocks[0].a.shape[0]
        for blk in blocks:
            if blk.a.shape[0] != m:
                raise DimensionMismatch("blocks disagree on the constraint row count")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "b", _as_rhs(self.b, m))

    @property
    def m(self) -> int:
        return self.blocks[0].m

    @cached_property
    def n(self) -> int:
        return sum(blk.n for blk in self.blocks)

    @property
    def block_dims(self) -> tuple:
        return tuple(blk.n for blk in self.blocks)

    def split(self, x: np.ndarray) -> list:
        """Views of the stacked primal vector, one per block; a batch of
        stacked vectors, one per row, splits along its last axis."""
        if x.shape[-1:] != (self.n,):
            raise DimensionMismatch(f"x has shape {x.shape}, expected ({self.n},) or (k, {self.n})")
        out, at = [], 0
        for blk in self.blocks:
            out.append(x[..., at : at + blk.n])
            at += blk.n
        return out

    @cached_property
    def block_gram_norms(self) -> tuple:
        """Certified upper bounds on ||A_i^T A_i||, one per block
        (linalg.gram_norm_bound), cached like Problem.gram_norm."""
        return tuple(gram_norm_bound(blk.a) for blk in self.blocks)

    @cached_property
    def flat(self) -> Problem:
        """The equivalent single-block problem (flatten_blocks), built once:
        a flattening method's stepsize default, its run and its replay all
        read this copy, and with it one cached gram_norm."""
        return flatten_blocks(self)


@dataclass(frozen=True, eq=False)
class PrimalDualPoint:
    """A primal/multiplier pair (x, lambda)."""

    x: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.x, self.lam])

    @staticmethod
    def from_array(w: np.ndarray, n: int) -> "PrimalDualPoint":
        return PrimalDualPoint(w[:n], w[n:])


@dataclass(frozen=True)
class KktResidual:
    primal: float
    dual: float
    complementarity: float

    def max(self) -> float:
        """The largest component; nan if any component is nan, so a nan
        residual is never within tolerance.  The components are nonnegative,
        so their sum is nan exactly when one of them is."""
        if math.isnan(self.primal + self.dual + self.complementarity):
            return math.nan
        return max(self.primal, self.dual, self.complementarity)

    def within(self, tol: float) -> bool:
        return self.max() <= tol


def multiplier_set(prob):
    """The set the multiplier ranges over."""
    return WholeSpace() if prob.sense is Sense.EQUALITY else NonnegativeOrthant()


def coupling(prob, x: np.ndarray) -> np.ndarray:
    """A x - b = sum_i A_i x_i - b, read blockwise.  The sum starts from
    the first block's product, so one block gives a x - b bit for bit.
    A stack of x, one per row, gives one residual per row (matvec_rows)."""
    blocks, xs = prob.blocks, prob.split(x)
    acc = matvec_rows(blocks[0].a, xs[0])
    for i in range(1, len(xs)):
        acc += matvec_rows(blocks[i].a, xs[i])
    acc -= prob.b
    return acc


def total_objective(prob, x: np.ndarray):
    """theta(x) = sum_i theta_i(x_i), starting from the first block's value;
    one value per row for a stack of x (prox.objective_value)."""
    values = [objective_value(blk.theta, xi) for blk, xi in zip(prob.blocks, prob.split(x))]
    return sum(values[1:], values[0])


def vi_operator(prob, w: PrimalDualPoint) -> np.ndarray:
    """The saddle-point operator F(w) = (-A^T lambda, A x - b), stacked.
    A point whose x and lambda are stacks of rows gives one F per row."""
    tops = [-matvec_rows(blk.a.T, w.lam) for blk in prob.blocks]
    return np.concatenate(tops + [coupling(prob, w.x)], axis=-1)


def lagrangian(prob, w: PrimalDualPoint) -> float:
    """theta(x) - lambda^T (A x - b)."""
    return total_objective(prob, w.x) - float(w.lam @ coupling(prob, w.x))


def _norm(v: np.ndarray) -> float | np.ndarray:
    """||v||_2 as sqrt(v . v), what np.linalg.norm computes for a 1-d
    array, bit for bit, without its argument handling.  The squares
    overflow above ~1e154 on finite input; only then is the norm taken
    as s ||v / s|| with s = max |v_i|.  A stack of vectors, one per row,
    gives an array of norms with each row's bits (dot_rows); a finite
    row whose squares overflow takes the rescaled norm of its own."""
    if v.ndim > 1:
        out = np.sqrt(dot_rows(v, v))
        for i in np.flatnonzero(~np.isfinite(out) & np.isfinite(v).all(axis=-1)):
            out[i] = _norm(v[i])
        return out
    out = math.sqrt(v.dot(v))
    if not math.isfinite(out) and np.isfinite(v).all():
        scale = float(np.max(np.abs(v)))
        u = v / scale
        out = scale * math.sqrt(u.dot(u))
    return out


class PointProducts:
    """The matrix products and proxes at one point w, each computed at
    most once: A x - b (resid), A_i^T lambda for every block i (at_lam)
    and block i's prox_constrained(theta_i, X_i, r, x_i + A_i^T lambda / r)
    for each weight r asked for (prox); xs is prob.split(w.x), taken once.
    A point whose x and lambda are stacks of rows gives each product per
    row, with the bits of that row's own point.

    run keeps one for the current iterate and hands it to the step and to
    kkt_residual; whichever reads an entry first fills it, so the
    residual's A^T lambda is the next step's, and so is its unit-weight
    prox wherever the step's weight is 1 (q / 1.0 == q exactly).  A prox
    is stored under its (block, weight) and served only for that pair.  A
    caller that already holds A x - b passes it as resid.  run keeps only
    the current iterate's, so a history stores none.
    """

    __slots__ = ("prob", "w", "xs", "_resid", "_at_lam", "_prox")

    def __init__(self, prob, w: PrimalDualPoint, resid: np.ndarray | None = None):
        self.prob, self.w, self.xs, self._resid = prob, w, prob.split(w.x), resid
        self._at_lam = [None] * len(prob.blocks)
        self._prox = {}

    def resid(self) -> np.ndarray:
        if self._resid is None:
            self._resid = coupling(self.prob, self.w.x)
        return self._resid

    def at_lam(self, i: int = 0) -> np.ndarray:
        out = self._at_lam[i]
        if out is None:
            a, lam = self.prob.blocks[i].a, self.w.lam
            # one point keeps .dot, whose 1 x 1 product keeps a -0.0 that a BLAS sum from +0.0 drops
            out = self._at_lam[i] = a.T.dot(lam) if lam.ndim == 1 else matvec_rows(a.T, lam)
        return out

    def prox(self, i: int, r: float) -> np.ndarray:
        out = self._prox.get((i, r))
        if out is None:
            blk = self.prob.blocks[i]
            q = self.xs[i] + (self.at_lam(i) if r == 1.0 else self.at_lam(i) / r)  # q / 1.0 is q
            out = self._prox[i, r] = prox_constrained(blk.theta, blk.x_set, r, q)
        return out


def kkt_residual(prob, w: PrimalDualPoint, products: PointProducts | None = None) -> KktResidual | list:
    """Primal, dual and complementarity residual norms at w.

    The dual residual is the prox-based fixed-point gap
    ||x - prox(theta, X, 1, x + A^T lambda)||; it vanishes exactly at
    stationary points of the Lagrangian over X.  products, when given,
    holds w's A x - b, A_i^T lambda and unit-weight proxes
    (PointProducts(prob, w)); the residual reuses what it holds and
    leaves in it what it computes, so a step at weight 1 from w takes
    the residual's prox as its primal half.

    A point whose x and lambda are 2-d stacks, one point per row, gives a
    list of one KktResidual per row, each equal field for field to the
    residual of that row alone: every product is one BLAS call per row
    (matvec_rows, dot_rows) and every prox works row by row (prox.prox).
    That holds for rows whose entries sit next to each other in memory,
    row slices of a C-ordered table among them; a column-major stack
    leaves the one-call-per-row path and may round differently.
    """
    at = PointProducts(prob, w) if products is None else products
    resid = at.resid()
    if prob.sense is Sense.EQUALITY:
        primal = _norm(resid)
        comp = 0.0
    else:
        primal = _norm(np.minimum(resid, 0.0))
        comp = abs(dot_rows(w.lam, resid))
    gaps = [xi - at.prox(i, 1.0) for i, xi in enumerate(at.xs)]
    dual = _norm(np.concatenate(gaps, axis=-1) if len(gaps) > 1 else gaps[0])  # one gap needs no copy
    if resid.ndim == 1:
        return KktResidual(primal=primal, dual=dual, complementarity=comp)
    comps = np.broadcast_to(comp, primal.shape).tolist()
    return [KktResidual(*fields) for fields in zip(primal.tolist(), dual.tolist(), comps)]


def default_start(prob) -> PrimalDualPoint:
    """Zeros projected onto the primal set, with a zero multiplier."""
    x0 = np.concatenate([project(blk.x_set, np.zeros(blk.n)) for blk in prob.blocks])
    return PrimalDualPoint(x0, np.zeros(prob.m))


def flatten_blocks(prob: SeparableProblem) -> Problem:
    """Merge a separable problem into an equivalent single-block problem.

    Used to feed block-structured instances to single-block methods.
    Quadratic/linear/zero blocks merge into one quadratic; otherwise all
    blocks must be coordinatewise separable and merge into a scalar sum.
    """
    a = np.hstack([blk.a for blk in prob.blocks])
    thetas = [blk.theta for blk in prob.blocks]
    if all(isinstance(t, (Quadratic, Linear, Zero)) for t in thetas):
        theta = _merge_quadratic(prob)
    elif all(coordinatewise(t) for t in thetas):
        theta = SeparableSum(tuple(_scalar_parts(prob)))
    else:
        raise UnsupportedCombination("blocks do not merge into a supported objective")
    return Problem(theta, _merge_sets(prob), a, prob.b, prob.sense)


def quadratic_terms(theta) -> tuple:
    """(P, c) with theta(x) = 0.5 x^T P x + c^T x for a Quadratic, Linear or Zero objective; a
    missing term is the scalar 0.0, which adds and subtracts exactly as an array of zeros does."""
    if isinstance(theta, Quadratic):
        return theta.p, theta.c
    return 0.0, theta.c if isinstance(theta, Linear) else 0.0


def _merge_quadratic(prob):
    n = prob.n
    p, c, at = np.zeros((n, n)), np.zeros(n), 0
    for blk in prob.blocks:
        p[at : at + blk.n, at : at + blk.n], c[at : at + blk.n] = quadratic_terms(blk.theta)
        at += blk.n
    return Quadratic(p, c)


def _scalar_parts(prob):
    """One scalar part per coordinate: a Zero or L1 block's own (frozen)
    object, a SeparableSum's parts, a slice of a Linear or diagonal Quadratic."""
    for blk in prob.blocks:
        t = blk.theta
        if isinstance(t, (Zero, L1)):
            yield from (t,) * blk.n
        elif isinstance(t, SeparableSum):
            yield from t.parts
        elif isinstance(t, Linear):
            yield from (Linear(t.c[i : i + 1]) for i in range(blk.n))
        else:
            yield from (Quadratic(t.p[i : i + 1, i : i + 1], t.c[i : i + 1]) for i in range(blk.n))


def _merge_sets(prob):
    """The blocks' sets as one set over the stacked x.  Blocks whose sets
    are all whole-space, or all the orthant, keep that set; any other mix
    is the box of the blocks' bounds: a Box block's own lower and upper
    arrays, and for another block its set's projection of -inf and +inf
    (not a box's: clipping -inf to a -0.0 lower bound gives +0.0)."""
    sets = [blk.x_set for blk in prob.blocks]
    if {type(s) for s in sets} in ({WholeSpace}, {NonnegativeOrthant}):
        return sets[0]
    lower, upper = [], []
    for blk, s in zip(prob.blocks, sets):
        lower.append(s.lower if isinstance(s, Box) else project(s, np.full(blk.n, -np.inf)))
        upper.append(s.upper if isinstance(s, Box) else project(s, np.full(blk.n, np.inf)))
    return Box(np.concatenate(lower), np.concatenate(upper))
