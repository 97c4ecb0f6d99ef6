from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import balm
import balm.linalg as linalg
from balm.bench import generate_instance
from balm.errors import DimensionMismatch, NoConvergence, NotPositiveDefinite
from balm.linalg import (
    EPS,
    GRAM_MARGIN,
    SpdFactor,
    blas_matrix,
    cholesky_factor,
    dot_rows,
    gram_norm_bound,
    h_quadratic,
    matvec_rows,
    solve_spd,
    spectral_norm_sq,
)

import support


def test_cholesky_identity():
    f = cholesky_factor(np.eye(3))
    assert np.array_equal(f.lower, np.eye(3))


def test_cholesky_diagonal():
    f = cholesky_factor(np.diag([4.0, 9.0]))
    assert np.array_equal(f.lower, np.diag([2.0, 3.0]))


def test_cholesky_worked_2x2():
    f = cholesky_factor(np.array([[4.0, 2.0], [2.0, 2.0]]))
    assert np.allclose(f.lower, [[2.0, 0.0], [1.0, 1.0]], atol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_semidefinite():
    # rank one: second pivot is exactly zero
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(ValueError):
        cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        cholesky_factor(np.ones((2, 3)))


def test_cholesky_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 41))
        g = rng.standard_normal((n, n))
        m = g @ g.T + (0.1 + rng.random()) * np.eye(n)
        m = 0.5 * (m + m.T)
        f = cholesky_factor(m)
        rel = np.linalg.norm(f.lower @ f.lower.T - m) / np.linalg.norm(m)
        assert rel <= 1e-10
        assert np.array_equal(f.lower, np.tril(f.lower))


def _column_named(factor, m):
    """The column a NotPositiveDefinite names, or None when m factors."""
    try:
        factor(m)
    except NotPositiveDefinite as exc:
        return int(str(exc).rsplit(" ", 1)[1])
    return None


def _cholesky_case(kind: str, n: int, seed: int) -> np.ndarray:
    """An exactly symmetric matrix of order n whose pivots all lie at
    least 10 PIVOT_TOL from PIVOT_TOL: SPD with eigenvalues in [0.1, 1]
    ("well"), in [1e-10, 1] ("eigen"), or in [0.1, 1] scaled by a diagonal
    spanning 10^+-5 ("graded"); or L0 D L0^T with a unit lower L0, pivots
    D_jj in [0.1, 2] but one at or below -1e-12 ("indefinite")."""
    rng = np.random.default_rng(seed)
    if kind == "indefinite":
        unit = np.tril(rng.standard_normal((n, n)) / math.sqrt(n), -1) + np.eye(n)
        pivots = rng.uniform(0.1, 2.0, n)
        pivots[rng.integers(n)] = -(10.0 ** rng.uniform(-12, 0))
        m = (unit * pivots) @ unit.T
    else:
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        m = (q * np.logspace(0, -10 if kind == "eigen" else -1, n)) @ q.T
        if kind == "graded":
            d = 10.0 ** rng.uniform(-5, 5, n)
            m *= np.outer(d, d)
    return 0.5 * (m + m.T)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    n=st.integers(0, 200),
    kind=st.sampled_from(["well", "eigen", "graded", "indefinite"]),
    order=st.sampled_from(["C", "F"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=0, kind="well", order="C", seed=0)
@example(n=1, kind="indefinite", order="F", seed=0)
@example(n=200, kind="eigen", order="F", seed=1)
@example(n=200, kind="indefinite", order="C", seed=2)
def test_cholesky_factor_agrees_with_the_column_loop(n, kind, order, seed):
    """The dpotrf factor against tests/support.cholesky_reference, with
    S = diag(sqrt(m_jj)) and A = S^-1 M S^-1:
    - both reconstruct M: |L L^T - M|_ij <= 2 (n + 1) eps sqrt(m_ii m_jj),
      the backward error of Cholesky plus the rounding of the product;
    - the factors agree row by row: |L - L_ref|_ij <= 2 (n + 1) eps
      cond_2(A) sqrt(m_ii), two backward-stable factors of one matrix;
    - an indefinite M is refused at the column the loop refuses it;
    - the strictly upper triangle of M is never read, and L comes back
      C-ordered and lower triangular whatever the order of M."""
    if kind == "indefinite" and n == 0:
        n = 1  # an indefinite matrix has at least one column
    m = _cholesky_case(kind, n, seed)
    given_m = np.asfortranarray(m) if order == "F" else np.ascontiguousarray(m)
    if kind == "indefinite":
        expected = _column_named(support.cholesky_reference, m)
        assert expected is not None
        assert _column_named(cholesky_factor, given_m) == expected
        return
    factor = cholesky_factor(given_m)
    lower, reference = factor.lower, support.cholesky_reference(m)
    assert factor.dim == n and lower.flags.c_contiguous and np.array_equal(lower, np.tril(lower))
    scale = np.sqrt(np.diag(m))
    bound = 2 * (n + 1) * EPS
    for each in (lower, reference):
        assert np.all(np.abs(each @ each.T - m) <= bound * np.outer(scale, scale))
    cond = np.linalg.cond(m / np.outer(scale, scale)) if n else 1.0
    assert np.all(np.abs(lower - reference) <= bound * cond * scale[:, None])
    skewed = given_m + np.triu(np.full((n, n), 0.4 * linalg.SYMMETRY_TOL), 1)
    assert np.array_equal(cholesky_factor(skewed).lower, lower)


@pytest.mark.parametrize(
    "m, column",
    [
        # the pivot at column 1 is 1.1e-15; the next, -9.0e14, is where dpotrf stops
        ([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 1.0], [0.0, 1.0, 1.0]], 1),
        ([[1.0, 0.0, 0.0], [0.0, 1e-15, 0.0], [0.0, 0.0, 1.0]], 1),
        ([[4.0, 2.0], [2.0, 1.0]], 1),
        ([[-1.0]], 0),
    ],
    ids=["stops-later", "positive-below-tol", "zero", "negative"],
)
def test_cholesky_names_the_first_pivot_at_or_below_the_threshold(m, column):
    m = np.array(m)
    assert _column_named(support.cholesky_reference, m) == column
    assert _column_named(cholesky_factor, m) == column


def test_solve_spd_worked():
    f = cholesky_factor(np.array([[4.0, 2.0], [2.0, 2.0]]))
    assert np.allclose(solve_spd(f, np.array([6.0, 4.0])), [1.0, 1.0], atol=1e-14)


def test_solve_spd_identity():
    f = cholesky_factor(np.eye(4))
    rhs = np.arange(4.0)
    assert np.array_equal(solve_spd(f, rhs), rhs)


def test_solve_spd_residual_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 31))
        g = rng.standard_normal((n, n))
        m = g @ g.T + np.eye(n)
        m = 0.5 * (m + m.T)
        rhs = rng.standard_normal(n)
        y = solve_spd(cholesky_factor(m), rhs)
        assert np.linalg.norm(m @ y - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))


def test_solve_spd_dim_mismatch():
    f = cholesky_factor(np.eye(2))
    with pytest.raises(DimensionMismatch):
        solve_spd(f, np.ones(3))


def test_spectral_norm_diagonal():
    assert spectral_norm_sq(np.diag([3.0, 1.0])) == pytest.approx(9.0, rel=1e-8)


def test_spectral_norm_identity():
    assert spectral_norm_sq(np.eye(3)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_norm_wide_row():
    # A = [1 1]: A^T A has eigenvalues {0, 2}
    assert spectral_norm_sq(np.array([[1.0, 1.0]])) == pytest.approx(2.0, rel=1e-8)


def test_spectral_norm_rayleigh_certificate():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((12, 8))
    est = spectral_norm_sq(a)
    for _ in range(100):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(a @ v) ** 2 <= est * (1.0 + 1e-6)


def test_spectral_norm_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 5))
    assert spectral_norm_sq(a) == spectral_norm_sq(a)


def test_spectral_norm_rejects_zero():
    with pytest.raises(ValueError):
        spectral_norm_sq(np.zeros((3, 3)))


def test_spectral_norm_iteration_cap():
    with pytest.raises(NoConvergence):
        spectral_norm_sq(np.eye(2) + 0.1, max_iters=0)


def _svd_norm_sq(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0]) ** 2


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    n=st.integers(1, 12),
    rank=st.integers(1, 12),
    log_row_scale=st.floats(-3.0, 3.0),
)
@example(seed=0, m=1, n=1, rank=1, log_row_scale=0.0)
@example(seed=1, m=1, n=9, rank=1, log_row_scale=0.0)
@example(seed=2, m=9, n=1, rank=1, log_row_scale=0.0)
@example(seed=3, m=8, n=8, rank=2, log_row_scale=3.0)
@example(seed=4, m=10, n=4, rank=1, log_row_scale=-3.0)
def test_gram_norm_bound_against_svd_oracle(seed, m, n, rank, log_row_scale):
    """The bound sits at or above sigma_max^2 and no further above it
    than the margin it adds plus the eigensolve's own error, which the
    same margin covers: tall, wide, square, rank-deficient, with rows
    scaled over 10^+-3."""
    rng = np.random.default_rng(seed)
    rank = min(rank, m, n)
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    a *= 10.0 ** (log_row_scale * rng.uniform(-1.0, 1.0, size=(m, 1)))
    bound = gram_norm_bound(a)
    oracle = _svd_norm_sq(a)
    margin = GRAM_MARGIN * (m + n) * EPS * float(np.sum(a * a))
    assert oracle <= bound <= oracle + 2.0 * margin


def test_gram_norm_bound_exceeds_the_power_estimate_where_it_falls_short():
    # the power estimate on this instance is 6.9e-7 relative below sigma_max^2
    prob, _ = generate_instance("basis_pursuit", (60, 300), 1)
    oracle = _svd_norm_sq(prob.a)
    assert spectral_norm_sq(prob.a) < oracle <= gram_norm_bound(prob.a) <= oracle * (1.0 + 1e-10)


@pytest.mark.parametrize("scale", [1e200, 1e150, 1e-150, 1e-200])
def test_gram_norm_bound_extreme_scales(scale):
    """Rescaling by a power of two keeps the bound finite and above
    sigma_max^2 whenever that is representable, and never nan."""
    base = np.array([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]])
    bound = gram_norm_bound(base * scale)
    assert not math.isnan(bound) and bound > 0.0
    exact = _svd_norm_sq(base) * scale * scale  # inf or 0 when not representable
    if math.isinf(exact):
        assert bound == math.inf
    else:
        assert math.isfinite(bound) and bound >= exact
        if exact > 0.0:
            assert bound <= exact * (1.0 + 1e-13)


def test_gram_norm_bound_rejects_zero_and_non_finite():
    with pytest.raises(ValueError, match="matrix must be nonzero"):
        gram_norm_bound(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        gram_norm_bound(np.array([[1.0, np.nan]]))
    with pytest.raises(DimensionMismatch):
        gram_norm_bound(np.ones(3))


def test_h_quadratic_worked():
    h = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert h_quadratic(h, np.array([1.0, -1.0])) == pytest.approx(2.0, abs=1e-15)


def test_h_quadratic_identity_is_norm_sq():
    v = np.array([3.0, 4.0])
    assert h_quadratic(np.eye(2), v) == pytest.approx(25.0, abs=1e-12)


def test_h_quadratic_positive_on_spd():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((6, 6))
    h = g @ g.T + np.eye(6)
    h = 0.5 * (h + h.T)
    for _ in range(50):
        v = rng.standard_normal(6)
        assert h_quadratic(h, v) > 0.0


def test_h_quadratic_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        h_quadratic(np.eye(2), np.ones(3))


def test_h_quadratic_of_a_stack_checks_its_rows_length():
    assert h_quadratic(np.eye(2), np.ones((4, 2))).shape == (4,)
    with pytest.raises(DimensionMismatch):
        h_quadratic(np.eye(2), np.ones((4, 3)))
    with pytest.raises(DimensionMismatch):
        h_quadratic(np.eye(2), np.float64(1.0))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    m=st.integers(1, 200),
    n=st.integers(1, 200),
    k=st.integers(1, 40),
    order=st.sampled_from(["C", "F", "strided"]),
    transposed=st.booleans(),
    sliced=st.booleans(),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, n=1, k=4, order="C", transposed=False, sliced=False, zeros=True, seed=0)
@example(m=1, n=1, k=1, order="F", transposed=True, sliced=True, zeros=False, seed=0)
@example(m=200, n=200, k=33, order="F", transposed=True, sliced=True, zeros=False, seed=1)
@example(m=30, n=40, k=5, order="strided", transposed=True, sliced=False, zeros=False, seed=2)
def test_stacked_row_products_have_the_one_vector_bits(m, n, k, order, transposed, sliced, zeros, seed):
    """Each row of a stacked product equals the 1-d product of that row
    bit for bit: a @ row, and a.dot(row) + 0.0, which differs from
    a.dot(row) only where a length-1 product is -0.0.  C- and F-ordered
    matrices, column slices of a wider matrix as blas_matrix keeps them,
    and their a.T views; rows that are whole arrays or column slices of
    a wider stack (the gap check slices x and lambda out of its probe
    rows); with zeros, signed zeros in the matrix and the rows."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n + 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1))
    a = np.asfortranarray(a[:, :n]) if order == "F" else blas_matrix(a[:, 1 : n + 1] if order == "strided" else a[:, :n].copy())
    a = a.T if transposed else a
    d = a.shape[1]
    wide = rng.standard_normal((k, d + 3 if sliced else d))
    u = rng.standard_normal((k, d))
    if zeros:
        for arr in (a, wide, u):
            arr[rng.random(arr.shape) < 0.5] = rng.choice([0.0, -0.0])
    v = wide[:, 2 : 2 + d] if sliced else wide
    c = u[0].copy()
    products, dots, c_dots = matvec_rows(a, v), dot_rows(u, v), dot_rows(c, v)
    assert products.shape == (k, a.shape[0]) and dots.shape == c_dots.shape == (k,)
    for i in range(k):
        assert products[i].tobytes() == (a @ v[i]).tobytes() == (a.dot(v[i]) + 0.0).tobytes()
        assert products[i].tobytes() == matvec_rows(a, v[i]).tobytes()
        for got, left in ((dots[i], u[i]), (c_dots[i], c)):
            assert got.tobytes() == np.float64(left @ v[i]).tobytes() == np.float64(left.dot(v[i]) + 0.0).tobytes()
            assert got.tobytes() == np.float64(dot_rows(left, v[i])).tobytes()
    assert type(dot_rows(u[0], v[0])) is float
    assert type(dot_rows(u[0], v[0])) is float


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), order=st.sampled_from("CF"), log_scale=st.floats(-8.0, 8.0))
def test_solve_spd_matches_scipy_triangular_solves_bit_for_bit(n, seed, order, log_scale):
    rng = np.random.default_rng(seed)
    lower = cholesky_factor(support.random_spd(rng, n)).lower
    factor = SpdFactor(dim=n, lower=np.asarray(lower, order=order))
    rhs = rng.standard_normal(n) * 10.0**log_scale
    before = rhs.copy()
    out = solve_spd(factor, rhs)
    expected = support.solve_spd_scipy(factor, rhs)
    assert out.shape == expected.shape and out.tobytes() == expected.tobytes()
    assert np.array_equal(rhs, before)


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_spd_rejects_a_singular_factor(order):
    factor = SpdFactor(dim=2, lower=np.asarray([[1.0, 0.0], [2.0, 0.0]], order=order))
    with pytest.raises(np.linalg.LinAlgError):
        support.solve_spd_scipy(factor, np.ones(2))
    with pytest.raises(np.linalg.LinAlgError):
        solve_spd(factor, np.ones(2))


ROUTINES = ("dtrtrs", "dsyevd", "dpotrf", "dpotrs")

# Run in a fresh interpreter: whether scipy.linalg is loaded, then whether
# scipy.linalg.lapack reads balm's extension module and balm's LAPACK
# routines are its own objects.
_IMPORT_PROBE = """
import json, sys
{first}
import balm.linalg as ours
clean = "scipy.linalg" not in sys.modules
import scipy.linalg.lapack as lapack
same = [lapack._flapack is ours._flapack] + [getattr(ours, name) is getattr(lapack, name) for name in {routines!r}]
print(json.dumps([clean] + same))
"""


@pytest.mark.parametrize("first", ["balm", "scipy.linalg.lapack"])
def test_balm_binds_scipys_lapack_routines_without_importing_scipy_linalg(first):
    src = os.path.dirname(os.path.dirname(balm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = _IMPORT_PROBE.format(first=f"import {first}", routines=ROUTINES)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(out.stdout) == [first == "balm"] + [True] * (1 + len(ROUTINES))


def test_the_lapack_loader_falls_back_to_scipy_linalg_lapack(tmp_path, monkeypatch):
    from scipy.linalg import lapack

    monkeypatch.delitem(sys.modules, linalg._FLAPACK)
    module = linalg._load_flapack(str(tmp_path))
    assert module is lapack
    assert all(getattr(module, name) is getattr(linalg, name) for name in ROUTINES)


def test_the_lapack_loader_reuses_a_registered_extension_module():
    """With scipy's extension already registered under its own name, the
    loader returns that module; a process that imports scipy.linalg before
    balm binds the very routines scipy.linalg.lapack re-exports."""
    assert linalg._load_flapack() is sys.modules[linalg._FLAPACK] is linalg._flapack
    src = os.path.dirname(os.path.dirname(balm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, scipy.linalg, scipy.linalg.lapack as lapack, balm.linalg as ours\n"
        "print(ours._flapack is sys.modules['scipy.linalg._flapack'], ours.dpotrf is lapack.dpotrf)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["True", "True"]


def test_solve_spd_on_an_empty_factor_returns_an_empty_array():
    out = solve_spd(cholesky_factor(np.zeros((0, 0))), np.zeros(0))
    assert out.shape == (0,)


def test_h_quadratic_and_spectral_norm_refuse_a_matrix_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch, match="square"):
        h_quadratic(np.ones((2, 3)), np.ones(3))
    with pytest.raises(DimensionMismatch, match="expected a matrix"):
        spectral_norm_sq(np.ones(3))
