"""Kernel tests: SPD ops against independent linalg routes, radius formulas,
selection rule. Expected values are recomputed here with plain math, not
copied from the implementation."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fedlinucb.core as core
from fedlinucb import (
    DimensionMismatchError,
    HyperParams,
    NumericalDomainError,
    ProblemInstance,
    SpdMatrix,
    compute_beta,
    gen_instance,
    inv_norm,
    solve_estimate,
    theoretical_comm_bound,
    theoretical_regret_bound,
    ucb_select,
)
from fedlinucb.core import check_arm_norm


def make_instance(d=2, S=1.0, L=1.0, R=1.0):
    theta = np.zeros(d)
    return ProblemInstance(
        theta_star=theta, S=S, L=L, R=R,
        arm_spec=None, noise_spec="gaussian", master_seed=0,
    )


def random_psd(rng, d, rank=None, scale=1.0):
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) * scale
    return g @ g.T


def random_spd(rng, d, lam_min=0.1, scale=1.0):
    return random_psd(rng, d, scale=scale) + lam_min * np.eye(d)


# ---------------------------------------------------------------- SpdMatrix


def logdet(m):
    return SpdMatrix.from_dense(m).logdet


def det(m):
    return math.exp(logdet(m))


def test_spd_logdet_known_values():
    assert logdet(np.eye(2)) == 0.0
    assert logdet(np.diag([10.0, 1.0])) == pytest.approx(math.log(10.0), rel=1e-12)
    assert logdet(np.diag([19.0, 1.0])) == pytest.approx(math.log(19.0), rel=1e-12)
    # Far outside the float range of the determinant itself (1e-400, 1e320).
    assert logdet(0.01 * np.eye(200)) == pytest.approx(200 * math.log(0.01), rel=1e-12)
    assert logdet(100.0 * np.eye(160)) == pytest.approx(160 * math.log(100.0), rel=1e-12)


def test_spd_logdet_matches_lu_route():
    rng = np.random.default_rng(42)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        m = random_spd(rng, d)
        ours = logdet(m)
        sign, reference = np.linalg.slogdet(m)  # LU decomposition path
        assert ours == pytest.approx(reference, abs=1e-9)
        assert sign == 1.0 and math.isfinite(ours)


def test_spd_rejects_asymmetric():
    m = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(NumericalDomainError):
        SpdMatrix.from_dense(m)


def test_spd_rejects_non_psd():
    with pytest.raises(NumericalDomainError):
        SpdMatrix.from_dense(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spd_rejects_non_finite(bad):
    # NaN passes every comparison-based test and LAPACK's Cholesky does not
    # reject NaN pivots, so without this check the logdet would read nan.
    with pytest.raises(NumericalDomainError, match="non-finite"):
        SpdMatrix.from_dense(np.full((2, 2), bad))
    m = np.eye(3)
    m[1, 1] = bad
    with pytest.raises(NumericalDomainError, match="non-finite"):
        SpdMatrix.from_dense(m, min_eig=0.5)


def test_spd_rejects_below_stated_floor():
    with pytest.raises(NumericalDomainError):
        SpdMatrix.from_dense(np.diag([0.5, 2.0]), min_eig=1.0)
    SpdMatrix.from_dense(np.diag([1.0, 2.0]), min_eig=1.0)  # boundary passes


def test_spd_refuses_a_nan_floor():
    # A NaN floor fails "min_eig > 0.0", so it would skip this floor check and
    # that of every later _factor of a server built from it.
    for mat in (np.eye(2), np.diag([1e-3, 1.0])):
        with pytest.raises(NumericalDomainError, match="stated floor is NaN"):
            SpdMatrix.from_dense(mat, min_eig=float("nan"))


def test_spd_floor_edge_decided_by_eigvalsh():
    # The floor check admits a 1e-9 relative plus 1e-12 absolute shortfall.
    # At that edge the Cholesky screen cannot decide, so eigvalsh does: a
    # matrix whose smallest eigenvalue sits exactly on the edge is
    # accepted, and one a hair below is rejected with eigvalsh's value.
    edge = 1.0 * (1.0 - 1e-9) - 1e-12
    SpdMatrix.from_dense(np.diag([edge, 2.0]), min_eig=1.0)
    below = float(np.nextafter(edge, 0.0))
    with pytest.raises(NumericalDomainError) as exc:
        SpdMatrix.from_dense(np.diag([below, 2.0]), min_eig=1.0)
    assert str(exc.value) == f"smallest eigenvalue {below} below stated floor 1.0"
    with pytest.raises(NumericalDomainError) as exc:
        SpdMatrix.from_dense(np.diag([0.5, 2.0]), min_eig=1.0)
    assert str(exc.value) == "smallest eigenvalue 0.5 below stated floor 1.0"
    # Well above the floor the screen alone accepts.
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    m = SpdMatrix.from_dense(rot @ np.diag([3.0, 5.0]) @ rot.T, min_eig=1.0)
    assert m.min_eig == 1.0


def test_spd_floor_shortfall_within_rounding():
    # At trace 1e7 the rounding margin 8 d eps tr (3.6e-8 here) outgrows the
    # fixed 1e-9 tolerance: a 1e-8 shortfall is accepted, a 1e-7 one is not.
    SpdMatrix.from_dense(np.diag([1.0 - 1e-8, 1e7]), min_eig=1.0)
    with pytest.raises(NumericalDomainError, match="below stated floor"):
        SpdMatrix.from_dense(np.diag([1.0 - 1e-7, 1e7]), min_eig=1.0)
    # A floor no larger than the margin cannot be decided in double.
    with pytest.raises(NumericalDomainError, match="rounding"):
        SpdMatrix.from_dense(np.diag([1e20, 1e20]), min_eig=1e-6)


@st.composite
def ridge_covariances(draw):
    """lambda I + sum x x^T as the package builds it: random-sphere arms, or a
    few fixed arms (rank below d) pulled up to the ridge-domain edge."""
    d = draw(st.integers(1, 64))
    lam = draw(st.sampled_from([1e-3, 0.1, 1.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        arms = rng.standard_normal((draw(st.integers(0, 80)), d))
        arms *= draw(st.sampled_from([0.1, 1.0, 30.0])) / np.linalg.norm(arms, axis=1,
                                                                         keepdims=True)
    else:
        arms = rng.standard_normal((draw(st.integers(1, 3)), d))
        arms /= np.linalg.norm(arms, axis=1, keepdims=True)
        # check_ridge_domain admits a total of T L^2 up to lam / (8 d eps) - 2 d lam.
        edge = lam / (8.0 * d * np.finfo(np.float64).eps) - 2.0 * d * lam
        arms *= np.sqrt(edge * draw(st.floats(1e-9, 1.0)) / len(arms))
    mat = lam * np.eye(d)
    for x in arms:
        mat = mat + x[:, None] * x
    return mat, lam


def _factored(build, mat, lam):
    try:
        return build(mat, lam)
    except NumericalDomainError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ridge_covariances())
def test_internal_factor_equals_the_checked_one(case):
    mat, lam = case
    trusted = _factored(SpdMatrix._factor, mat, lam)
    checked = _factored(SpdMatrix.from_dense, mat, lam)
    if isinstance(checked, str):
        assert trusted == checked
        return
    assert not isinstance(trusted, str), trusted
    assert trusted.mat is mat  # no copy
    assert np.array_equal(trusted.chol, checked.chol)
    assert np.array_equal(trusted.mat, checked.mat)
    assert trusted.min_eig == checked.min_eig == lam


def test_internal_factor_keeps_the_floor_and_pivot_checks():
    with pytest.raises(NumericalDomainError, match="below stated floor"):
        SpdMatrix._factor(np.diag([0.5, 2.0]), min_eig=1.0)
    with pytest.raises(NumericalDomainError, match="rounding"):
        SpdMatrix._factor(np.diag([1e20, 1e20]), min_eig=1e-6)
    with pytest.raises(NumericalDomainError, match="not positive definite"):
        SpdMatrix._factor(np.diag([1.0, -0.5]))
    nan = np.eye(3)
    nan[2, 1] = nan[1, 2] = np.nan
    with pytest.raises(NumericalDomainError, match="not positive definite"):
        SpdMatrix._factor(nan)


def test_cholesky_is_numpys_bit_for_bit():
    # The kernel calls the gufunc np.linalg.cholesky wraps: the same factor,
    # byte for byte, at every dimension the runs use.
    rng = np.random.default_rng(64)
    for d in range(1, 65):
        g = rng.standard_normal((d, 2 * d))
        for mat in (g @ g.T + 1e-3 * np.eye(d), random_spd(rng, d, scale=1e6),
                    np.asfortranarray(random_spd(rng, d))):
            got = core._cholesky(mat)
            want = np.linalg.cholesky(mat)
            assert got.dtype == want.dtype and got.shape == want.shape, d
            assert got.tobytes() == want.tobytes(), d


@pytest.mark.parametrize("bad", ["indefinite", "nan", "inf"])
def test_cholesky_refuses_what_numpy_refuses(bad):
    mat = {"indefinite": np.diag([1.0, -0.5, 2.0]), "nan": np.eye(3), "inf": np.eye(3)}[bad]
    if bad != "indefinite":
        mat[2, 1] = mat[1, 2] = np.nan if bad == "nan" else np.inf
    # No floating-point warning escapes (the test config makes one an error).
    with pytest.raises(NumericalDomainError, match="matrix is not positive definite"):
        core._cholesky(mat)


# ---------------------------------------------------------------- stacked kernels
#
# A replay factors, screens and takes log-determinants of (n, d, d) stacks of
# running covariances, and solves two right-hand sides at once.  Each must
# give the bits of the per-matrix call it replaces.

KERNELS = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow])


@st.composite
def running_sums(draw):
    """A few arms and rewards, as a replay's stack of rows meets them."""
    d = draw(st.integers(1, 64))
    lam = draw(st.sampled_from([1e-3, 0.1, 1.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.standard_normal((draw(st.integers(1, 8)), d))
    xs *= draw(st.sampled_from([0.1, 1.0, 30.0])) / np.linalg.norm(xs, axis=1, keepdims=True)
    return lam, xs, rng.standard_normal(len(xs))


@KERNELS
@given(running_sums())
def test_stacked_kernels_equal_the_per_matrix_ones(case):
    lam, xs, rs = case
    n, d = xs.shape
    # The running sums: row by row into a stack, and by accumulate, against
    # the chains a = a + x x^T and b = b + r x.
    stack, prev = np.empty((n, d, d)), lam * np.eye(d)
    a, b, chain, b_chain = lam * np.eye(d), np.zeros(d), [], []
    for k, (x, r) in enumerate(zip(xs, rs.tolist())):
        prev = np.add(prev, x[:, None] * x, out=stack[k])
        a, b = a + x[:, None] * x, b + r * x
        chain.append(a)
        b_chain.append(b)
    assert stack.tobytes() == np.array(chain).tobytes()
    b_stack = np.add.accumulate(np.concatenate([np.zeros((1, d)), rs[:, None] * xs]))[1:]
    assert b_stack.tobytes() == np.array(b_chain).tobytes()
    chols = core._cholesky(stack)
    logdets = core._logdet(chols).tolist()
    for k, mat in enumerate(chain):
        one = SpdMatrix._factor(mat)
        assert chols[k].tobytes() == one.chol.tobytes()
        assert logdets[k] == one.logdet
        # One solve of two columns, each column its own solve.
        both = core._chol_solve(chols[k], np.stack([xs[k], b_chain[k]], axis=-1))
        assert both[:, 0].tobytes() == core._chol_solve(one.chol, xs[k]).tobytes()
        assert both[:, 1].tobytes() == core._chol_solve(one.chol, b_chain[k]).tobytes()


@KERNELS
@given(
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-1e-6, 1e-6), min_size=1, max_size=6),
    st.sampled_from([1e-3, 0.1, 1.0, 4.0]),
)
def test_a_passing_stacked_screen_proves_the_floor(d, seed, shifts, floor):
    # A stack of matrices whose smallest eigenvalues sit within a hair of the floor.
    rng = np.random.default_rng(seed)
    mats = []
    for shift in shifts:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = np.concatenate([[floor + shift], floor * (1.0 + rng.uniform(0.0, 10.0, d - 1))])
        mat = (q * eigs) @ q.T
        mats.append((mat + mat.T) / 2.0)
    surely = core.eigs_surely_above(np.array(mats), floor)
    assert surely.shape == (len(mats),)
    per_floor = core.eigs_surely_above(np.array(mats), np.full(len(mats), floor))
    assert np.array_equal(per_floor, surely)
    for mat, passed in zip(mats, surely.tolist()):
        assert passed == core.eigs_surely_above(mat, floor)
        if passed:
            assert float(np.linalg.eigvalsh(mat)[0]) >= floor


def test_cholesky_refuses_a_stack_with_one_failure():
    stack = np.array([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
    with pytest.raises(NumericalDomainError, match="matrix is not positive definite"):
        core._cholesky(stack)
    assert core._cholesky(stack[[0, 2]]).tobytes() == np.array([np.eye(2)] * 2).tobytes()
    assert core._cholesky(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_floor_stays_positive_below_1e_12():
    # The allowed shortfall of 1e-9 relative plus 1e-12 outgrew a floor below
    # about 1e-12, so a matrix ten times under its floor passed.  Below 1e-3
    # the shortfall is relative only, on one matrix and in a stack alike.
    bad, edge = np.diag([1e-14, 1.0]), np.diag([1e-13, 1.0])
    with pytest.raises(NumericalDomainError) as one:
        SpdMatrix._factor(bad, min_eig=1e-13)
    assert str(one.value) == "smallest eigenvalue 1e-14 below stated floor 1e-13"
    with pytest.raises(NumericalDomainError) as stacked:
        core._check_floor(np.array([edge, bad]), 1e-13)
    assert str(stacked.value) == str(one.value)
    SpdMatrix._factor(edge, min_eig=1e-13)
    core._check_floor(np.array([edge, edge]), 1e-13)


def test_a_stack_is_refused_as_its_first_failing_matrix():
    ok, below, huge = np.diag([1.0, 2.0]), np.diag([0.5, 2.0]), np.diag([1e20, 1e20])
    core._check_floor(np.array([ok, ok]), 1.0)
    for stack, single in (([ok, below, huge], below), ([ok, huge, below], huge)):
        with pytest.raises(NumericalDomainError) as one:
            core._check_floor(single, 1.0)
        with pytest.raises(NumericalDomainError) as stacked:
            core._check_floor(np.array(stack), 1.0)
        assert str(stacked.value) == str(one.value)


def test_spd_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        SpdMatrix.from_dense(np.ones((2, 3)))


def test_inv_norm_known_values():
    eye = SpdMatrix.from_dense(np.eye(2))
    assert inv_norm(eye, np.array([3.0, 0.0])) == pytest.approx(3.0, rel=1e-12)
    m = SpdMatrix.from_dense(np.diag([10.0, 1.0]))
    assert inv_norm(m, np.array([3.0, 0.0])) == pytest.approx(3.0 / math.sqrt(10.0), rel=1e-12)
    assert inv_norm(m, np.array([0.0, 1.0 / math.sqrt(10.0)])) == pytest.approx(
        1.0 / math.sqrt(10.0), rel=1e-12
    )


def test_inv_norm_matches_explicit_inverse():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 7))
        m = random_spd(rng, d)
        x = rng.standard_normal(d)
        ours = inv_norm(SpdMatrix.from_dense(m), x)
        reference = math.sqrt(float(x @ np.linalg.inv(m) @ x))
        assert ours == pytest.approx(reference, rel=1e-8, abs=1e-12)


def test_inv_norm_dimension_mismatch():
    m = SpdMatrix.from_dense(np.eye(3))
    with pytest.raises(DimensionMismatchError):
        inv_norm(m, np.ones(2))


def test_solve_estimate_known_and_residual():
    m = SpdMatrix.from_dense(np.diag([10.0, 1.0]))
    est = solve_estimate(m, np.array([3.0, 0.0]))
    assert est == pytest.approx([0.3, 0.0], rel=1e-12)
    assert np.allclose(solve_estimate(SpdMatrix.from_dense(2 * np.eye(3)), np.zeros(3)), 0.0)

    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        m = random_spd(rng, d)
        b = rng.standard_normal(d)
        est = solve_estimate(SpdMatrix.from_dense(m), b)
        residual = float(np.linalg.norm(m @ est - b))
        assert residual <= 1e-8 * (float(np.linalg.norm(b)) + 1.0)


def test_solve_estimate_ridge_shrinkage_limit():
    # Pooled two-pull aggregate from n uploading agents, all rewards +1:
    # first coordinate 3n/(1 + 18n) -> 1/6 as n grows.
    n = 10**6
    m = SpdMatrix.from_dense(np.diag([1.0 + 18.0 * n, 1.0]))
    est = solve_estimate(m, np.array([3.0 * n, 0.0]))
    assert est[0] == pytest.approx(1.0 / 6.0, abs=1e-7)


# The package binds scipy's own LAPACK extension without importing
# scipy.linalg; scipy.linalg is imported second here, so the two bindings are
# distinct objects over the same routine.
KERNEL_IDENTITY = """
import numpy as np
import fedlinucb.core as core
from scipy.linalg.lapack import dpotrs

assert core.dpotrs is not dpotrs
rng = np.random.default_rng(2022)
for d in (1, 2, 8, 32, 200):
    g = rng.standard_normal((d, d))
    chol = np.linalg.cholesky(g @ g.T + 0.1 * np.eye(d))
    for b in (rng.standard_normal(d), rng.standard_normal((d, 7))):
        want, info = dpotrs(chol, b, lower=1)
        got = core._chol_solve(chol, b)
        assert info == 0 and got.shape == want.shape, d
        assert got.tobytes() == want.tobytes(), (d, b.shape)
"""


def test_bound_dpotrs_is_bit_identical_to_scipy(child_env):
    proc = subprocess.run([sys.executable, "-c", KERNEL_IDENTITY], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr


def test_missing_lapack_extension_is_an_import_error(monkeypatch):
    monkeypatch.setattr(core.importlib.machinery, "EXTENSION_SUFFIXES", [".absent.so"])
    with pytest.raises(ImportError, match=r"_flapack\.absent\.so \(scipy \d"):
        core._load_flapack()


def test_chol_solve_raises_on_lapack_info(monkeypatch):
    monkeypatch.setattr(core, "dpotrs", lambda chol, b, lower: (b, -2))
    with pytest.raises(ValueError, match="2-th argument"):
        core._chol_solve(np.eye(2), np.ones(2))


def test_matrix_determinant_lemma():
    # det(A + x x^T) = det(A) * (1 + ||x||^2_{A^{-1}}), rank-one update identity.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        a = random_spd(rng, d)
        x = rng.standard_normal(d)
        sa = SpdMatrix.from_dense(a)
        lhs = logdet(a + np.outer(x, x))
        rhs = sa.logdet + math.log1p(inv_norm(sa, x) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_determinant_superadditivity_on_psd_directions():
    # det(A+B+C) + det(A) >= det(A+B) + det(A+C) for PSD B, C on a PD base A.
    rng = np.random.default_rng(13)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        a = random_spd(rng, d, lam_min=float(rng.uniform(0.05, 2.0)))
        b = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        c = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        lhs = det(a + b + c) + det(a)
        rhs = det(a + b) + det(a + c)
        assert lhs >= rhs - 1e-8 * max(1.0, abs(rhs))


def test_determinant_product_submultiplicativity():
    # det(A+B+C) * det(A) <= det(A+B) * det(A+C), same matrix families.
    rng = np.random.default_rng(17)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        a = random_spd(rng, d, lam_min=float(rng.uniform(0.05, 2.0)))
        b = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        c = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        lhs = det(a + b + c) * det(a)
        rhs = det(a + b) * det(a + c)
        assert lhs <= rhs + 1e-8 * max(1.0, abs(rhs))


def test_inv_norm_det_ratio_comparison():
    # For A >= B > 0: inv_norm(A, x) <= inv_norm(B, x) * sqrt(det(A)/det(B)).
    rng = np.random.default_rng(19)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        b = random_spd(rng, d)
        a = b + random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        x = rng.standard_normal(d)
        sa, sb = SpdMatrix.from_dense(a), SpdMatrix.from_dense(b)
        ratio = math.exp((sa.logdet - sb.logdet) / 2.0)
        assert inv_norm(sa, x) <= inv_norm(sb, x) * ratio + 1e-8


# ---------------------------------------------------------------- radius and bounds


def oracle_beta(d, T, M, alpha, lam, S, R, L, delta):
    return math.sqrt(lam) * S + (
        math.sqrt(1 + M * alpha) + M * math.sqrt(2 * alpha)
    ) * (R * math.sqrt(d * math.log((1 + T * L * L / (min(alpha, 1) * lam)) / delta))
         + math.sqrt(lam) * S)


def test_compute_beta_reference_point():
    inst = make_instance(d=2)
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1)
    got = compute_beta(inst, hp, M=4, T=100)
    want = oracle_beta(d=2, T=100, M=4, alpha=1.0 / 16.0, lam=1.0, S=1.0, R=1.0, L=1.0, delta=0.1)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(14.68, abs=0.01)


def test_compute_beta_zero_noise_zero_budget():
    inst = ProblemInstance(theta_star=np.zeros(3), S=1e-300, L=1.0, R=0.0,
                           arm_spec=None, noise_spec="gaussian", master_seed=0)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    # R = 0 and S -> 0 collapse the radius to ~0.
    assert compute_beta(inst, hp, M=2, T=10) == pytest.approx(0.0, abs=1e-290)


def test_compute_beta_fixed_passthrough():
    inst = make_instance()
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1, beta_value=2.5)
    assert compute_beta(inst, hp, M=3, T=50) == 2.5


def test_compute_beta_alpha_above_one_uses_min():
    inst = make_instance()
    hp_big = HyperParams(lam=1.0, alpha=4.0, delta=0.1)
    got = compute_beta(inst, hp_big, M=2, T=100)
    want = oracle_beta(d=2, T=100, M=2, alpha=4.0, lam=1.0, S=1.0, R=1.0, L=1.0, delta=0.1)
    assert got == pytest.approx(want, rel=1e-12)


def test_compute_beta_invalid_horizon():
    inst = make_instance()
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    with pytest.raises(ValueError):
        compute_beta(inst, hp, M=0, T=10)
    with pytest.raises(ValueError):
        compute_beta(inst, hp, M=2, T=0)


def test_regret_bound_reference_point():
    inst = make_instance(d=2)
    hp = HyperParams(lam=1.0, alpha=1.0 / 16.0, delta=0.1)
    beta = compute_beta(inst, hp, M=4, T=100)
    got = theoretical_regret_bound(inst, hp, M=4, T=100, beta=beta)
    log_term = math.log(1.0 + 100.0)
    want = 2 * 2 * 1 * 1 * 4 * log_term + 2 * math.sqrt(2 * (1 + 4 / 16)) * beta * math.sqrt(
        2 * 2 * 100 * log_term
    )
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(2069, abs=3.0)  # quoted working value


def test_regret_bound_monotone_in_horizon():
    inst = make_instance(d=3)
    hp = HyperParams(lam=1.0, alpha=0.25, delta=0.05)
    values = []
    for T in (10, 100, 1000, 10000):
        beta = compute_beta(inst, hp, M=2, T=T)
        values.append(theoretical_regret_bound(inst, hp, M=2, T=T, beta=beta))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_regret_bound_zero_when_nothing_to_learn():
    inst = ProblemInstance(theta_star=np.zeros(2), S=1e-300, L=1.0, R=0.0,
                           arm_spec=None, noise_spec="gaussian", master_seed=0)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    assert theoretical_regret_bound(inst, hp, M=2, T=100, beta=0.0) == pytest.approx(0.0, abs=1e-290)


def test_comm_bound_reference_point():
    got = theoretical_comm_bound(d=2, M=4, alpha=1.0 / 16.0, lam=1.0, L=1.0, T=100)
    want = 2 * 2 * (4 + 16) * math.log(1 + 100 / 2) / math.log(2.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(453.8, abs=0.1)


def test_comm_bound_loose_trigger_limit():
    # As alpha grows the 1/alpha share vanishes and the cap flattens at the
    # M-dependent term.
    limit = 2 * 3 * 5 * math.log2(1 + 1000 / (2.0 * 3))
    got = theoretical_comm_bound(d=3, M=5, alpha=1e12, lam=2.0, L=1.0, T=1000)
    assert got == pytest.approx(limit, rel=1e-9)


def test_comm_bound_vanishes_for_tiny_horizon_signal():
    got = theoretical_comm_bound(d=4, M=3, alpha=0.5, lam=1e9, L=1.0, T=10)
    assert got == pytest.approx(0.0, abs=1e-4)


def test_bound_formulas_refuse_non_finite_results():
    inst = make_instance(S=1e300)
    with pytest.raises(ValueError, match="beta"):
        compute_beta(inst, HyperParams(lam=1e300, alpha=0.5, delta=0.1), M=2, T=10)
    hp = HyperParams(lam=1.0, alpha=0.5, delta=0.1)
    with pytest.raises(ValueError, match="regret bound"):
        theoretical_regret_bound(make_instance(), hp, M=2, T=10, beta=1e308)
    with pytest.raises(ValueError, match="communication cap"):
        theoretical_comm_bound(d=3, M=2, alpha=1e-308, lam=1.0, L=1.0, T=10)


# ---------------------------------------------------------------- selection


def test_ucb_select_optimism_prefers_long_arm():
    arms = np.array([[3.0, 0.0], [0.0, 1.0 / math.sqrt(10.0)]])
    eye = SpdMatrix.from_dense(np.eye(2))
    # scores 1.5 vs 0.15811 at beta = 0.5
    assert ucb_select(np.zeros(2), eye, 0.5, arms) == 0


def test_ucb_select_singleton():
    arms = np.array([[0.2, 0.1, 0.0]])
    assert ucb_select(np.zeros(3), SpdMatrix.from_dense(np.eye(3)), 1.0, arms) == 0


def test_ucb_select_estimate_flips_choice():
    # After one observed -1 on the long arm (eager statistics), the short arm
    # wins: scores -0.42566 vs 0.15811.
    arms = np.array([[3.0, 0.0], [0.0, 1.0 / math.sqrt(10.0)]])
    m = SpdMatrix.from_dense(np.diag([10.0, 1.0]))
    theta = np.array([-0.3, 0.0])
    assert ucb_select(theta, m, 0.5, arms) == 1
    scores = arms @ theta + 0.5 * np.array(
        [inv_norm(m, a) for a in arms]
    )
    assert scores[0] == pytest.approx(-0.9 + 1.5 / math.sqrt(10.0), rel=1e-12)
    assert scores[1] == pytest.approx(0.5 / math.sqrt(10.0), rel=1e-12)


def test_ucb_select_tie_breaks_low_index():
    arms = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert ucb_select(np.zeros(2), SpdMatrix.from_dense(np.eye(2)), 1.0, arms) == 0


def test_ucb_select_invariant_to_appended_duplicates():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, 8))
        arms = rng.standard_normal((k, d))
        m = SpdMatrix.from_dense(random_spd(rng, d))
        theta = rng.standard_normal(d)
        beta = float(rng.uniform(0.0, 3.0))
        base = ucb_select(theta, m, beta, arms)
        extended = np.vstack([arms, arms[rng.integers(0, k, size=3)]])
        assert ucb_select(theta, m, beta, extended) == base


@pytest.mark.parametrize("d", [1, 8, 32, 200])
@pytest.mark.parametrize("K", [1, 10])
@pytest.mark.parametrize("r", [1, 64, 256])
def test_a_stack_of_decision_sets_selects_as_its_sets_one_by_one(d, K, r):
    # One solve for the arms of r sets must round as r solves of one set
    # each.  Every set's arms are one arm scaled within a few ulps, so its
    # choice is decided by the last bits of the scores.
    rng = np.random.default_rng(d * K + r)
    m = SpdMatrix.from_dense(random_spd(rng, d))
    theta = rng.standard_normal(d)
    scale = 1.0 + rng.integers(0, 8, size=(r, K, 1)) * np.finfo(np.float64).eps
    stack = rng.standard_normal((r, 1, d)) * scale
    got = core._ucb_index(theta, m.chol, 0.7, stack)
    assert got.shape == (r,)
    assert got.tolist() == [core._ucb_index(theta, m.chol, 0.7, arms) for arms in stack]


def test_ucb_select_rejects_mismatched_shapes():
    arms = np.ones((2, 3))
    with pytest.raises(DimensionMismatchError):
        ucb_select(np.zeros(2), SpdMatrix.from_dense(np.eye(2)), 1.0, arms)


def test_decision_set_validation():
    # ucb_select takes the (K, d) array itself: it needs 2-D and one arm.
    eye = SpdMatrix.from_dense(np.eye(2))
    with pytest.raises(ValueError, match="at least one arm"):
        ucb_select(np.zeros(2), eye, 1.0, np.zeros((0, 2)))
    with pytest.raises(DimensionMismatchError):
        ucb_select(np.zeros(2), eye, 1.0, np.zeros(2))
    # Every input is finite: a NaN would otherwise select row 0 silently.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be nonnegative and finite"):
            ucb_select(np.zeros(2), eye, bad, np.eye(2))
        with pytest.raises(ValueError, match="non-finite arm"):
            ucb_select(np.zeros(2), eye, 1.0, np.array([[1.0, 0.0], [bad, 0.0]]))
        with pytest.raises(ValueError, match="theta_hat must be finite"):
            ucb_select(np.array([bad, 0.0]), eye, 1.0, np.eye(2))
    # The arm rule, at its edge, and as a fixed-list instance applies it.
    with pytest.raises(ValueError, match="exceeds stated bound 1.0"):
        check_arm_norm(3.0, 1.0)
    with pytest.raises(ValueError):
        gen_instance("fixed-list", arms=np.array([[3.0, 0.0]]), L=1.0)
    check_arm_norm(1.0, 1.0)
    check_arm_norm(1.0 + 1e-9, 1.0)
    for bad in (1.0 + 2e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="exceeds stated bound"):
            check_arm_norm(bad, 1.0)
    gen_instance("fixed-list", arms=np.array([[1.0, 0.0]]), L=1.0)


# ---------------------------------------------------------------- instance / params


def test_problem_instance_owns_a_read_only_theta_star():
    # The caller's array is copied: changing it afterwards can neither move
    # theta_star past S nor change what the environment caches per instance.
    th = np.array([0.6, 0.8])
    inst = ProblemInstance(theta_star=th, S=1.0, L=1.0, R=1.0,
                           arm_spec=None, noise_spec="gaussian", master_seed=0)
    th *= 100
    assert inst.theta_star.tolist() == [0.6, 0.8]
    with pytest.raises(ValueError, match="read-only"):
        inst.theta_star[0] = 60.0
    ints = ProblemInstance(theta_star=np.array([1, 0]), S=1.0, L=1.0, R=1.0,
                           arm_spec=None, noise_spec="gaussian", master_seed=0)
    assert ints.theta_star.dtype == np.float64


def test_problem_instance_validation():
    for theta in ([2.0, 0.0], [math.nan, 0.0], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="theta_star"):
            ProblemInstance(theta_star=np.array(theta), S=1.0, L=1.0, R=1.0,
                            arm_spec=None, noise_spec="gaussian", master_seed=0)
    with pytest.raises(ValueError):
        ProblemInstance(theta_star=np.zeros(2), S=1.0, L=1.0, R=-0.5,
                        arm_spec=None, noise_spec="gaussian", master_seed=0)
    with pytest.raises(ValueError):
        ProblemInstance(theta_star=np.zeros(2), S=1.0, L=1.0, R=1.0,
                        arm_spec=None, noise_spec="laplace", master_seed=0)
    for theta in (np.zeros((2, 2)), np.zeros(0), 0.0):
        with pytest.raises(DimensionMismatchError):
            ProblemInstance(theta_star=theta, S=1.0, L=1.0, R=1.0,
                            arm_spec=None, noise_spec="gaussian", master_seed=0)
    inst = ProblemInstance(theta_star=[0.5, 0.0, 0.0], S=1.0, L=1.0, R=1.0,
                           arm_spec=None, noise_spec="gaussian", master_seed=0)
    assert inst.dim == len(inst.theta_star) == 3
    assert "dim" not in [f.name for f in dataclasses.fields(ProblemInstance)]
    for bad in (math.nan, math.inf, -math.inf):
        for key in ("S", "L", "R"):
            fields = {"S": 1.0, "L": 1.0, "R": 1.0, key: bad}
            with pytest.raises(ValueError):
                ProblemInstance(theta_star=np.zeros(2), arm_spec=None,
                                noise_spec="gaussian", master_seed=0, **fields)


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lam=0.0, alpha=0.5, delta=0.1)
    with pytest.raises(ValueError):
        HyperParams(lam=1.0, alpha=0.0, delta=0.1)
    with pytest.raises(ValueError):
        HyperParams(lam=1.0, alpha=0.5, delta=1.5)
    with pytest.raises(ValueError):
        HyperParams(lam=1.0, alpha=0.5, delta=0.1, beta_value=-0.5)
    with pytest.raises(ValueError):
        HyperParams(lam=1.0, alpha=0.5, delta=0.1, estimate_mode="sometimes")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            HyperParams(lam=bad, alpha=0.5, delta=0.1)
        with pytest.raises(ValueError):
            HyperParams(lam=1.0, alpha=bad, delta=0.1)
        with pytest.raises(ValueError):
            HyperParams(lam=1.0, alpha=0.5, delta=0.1, beta_value=bad)
    assert "beta_mode" not in [f.name for f in dataclasses.fields(HyperParams)]
