"""Numerical kernel for federated linear UCB.

Everything downstream (protocol state machine, simulator, analysis) goes
through the small set of primitives defined here: a validated SPD matrix
wrapper with a cached Cholesky handle, log-determinant / inverse-norm / ridge
solves on that wrapper (straight through LAPACK ``dpotrs``), the Cholesky
screen that spares ``eigvalsh``, the confidence-radius and bound formulas,
and the optimistic arm-selection rule.  The factor, the floor check and the
screen take one matrix or an ``(n, d, d)`` stack of them alike, so a replay
factors and screens many covariances in one LAPACK gufunc call.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy._core.umath import _extobj_contextvar
from numpy._core.multiarray import c_einsum
from numpy.linalg import _umath_linalg
from numpy.typing import NDArray


def _load_flapack() -> Any:
    """scipy's f2py LAPACK extension, loaded without running ``scipy.linalg``.

    ``import scipy.linalg`` pulls in ``scipy._lib._array_api``, ``numpy.testing``,
    ``numpy.ma`` and ``numpy.f2py``, which take longer to import and hold more
    memory than the rest of the package.  The extension itself needs only
    numpy, so it is loaded straight from scipy's install directory under the name ``fedlinucb._flapack`` (its
    ``PyInit__flapack`` is found from the last part of that name).  It is the
    same binary ``scipy.linalg.lapack`` wraps, so every solve is bit-identical.
    """
    spec = importlib.util.find_spec("scipy")  # locates scipy without importing it
    root = spec.submodule_search_locations[0] if spec else "<scipy not found>"
    path = os.path.join(root, "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        from importlib.metadata import PackageNotFoundError, version

        try:
            found = version("scipy")
        except PackageNotFoundError:
            found = "not installed"
        raise ImportError(f"scipy LAPACK extension not found at {path} (scipy {found})")
    loader = importlib.machinery.ExtensionFileLoader("fedlinucb._flapack", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrs, dpotrf = _flapack.dpotrs, _flapack.dpotrf

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Relative symmetry tolerance for SPD inputs and factorization fidelity.
SYMMETRY_RTOL = 1e-9
FACTOR_RTOL = 1e-8

_EPS = np.finfo(np.float64).eps

# The error state ``np.errstate(all="ignore")`` enters, built once for :func:`_cholesky`.
with np.errstate(all="ignore"):
    _QUIET = _extobj_contextvar.get()


class NumericalDomainError(ValueError):
    """A matrix operation left its numerical domain (e.g. non-PSD input)."""


class DimensionMismatchError(ValueError):
    """Vector/matrix shapes disagree."""


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive definite matrix with a cached factorization.

    Construct through :meth:`from_dense`, which rejects non-finite entries
    and a NaN floor, validates symmetry, runs a fresh Cholesky
    factorization, and (when a positive spectral floor is stated) verifies
    every eigenvalue sits above it.  The package's own covariances, ``lam I``
    plus sums of ``x x^T``, are factored by the internal :meth:`_factor`,
    which runs the same Cholesky and floor check and trusts the rest.
    Instances are treated as immutable; covariance updates build new objects.

    Attributes
    ----------
    mat:
        The dense matrix, read-only: an owned copy from :meth:`from_dense`,
        or the array given to :meth:`_factor`.
    chol:
        Lower-triangular Cholesky factor ``L`` with ``L @ L.T == mat``, read-only.
    min_eig:
        Spectral floor stated at construction (0.0 when none was claimed).
    logdet:
        ``2 * sum(log(diag(L)))``, the natural log of the determinant, computed
        on each read (the package reads each factor's at most once); finite
        for every SPD matrix, so every determinant comparison is made with it.
    """

    mat: Matrix
    chol: Matrix
    min_eig: float

    @classmethod
    def from_dense(cls, mat: Any, min_eig: float = 0.0) -> "SpdMatrix":
        m = np.array(mat, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        scale = float(np.abs(m).max(initial=0.0))
        if not math.isfinite(scale):
            raise NumericalDomainError("matrix has a non-finite entry")
        if float(np.abs(m - m.T).max(initial=0.0)) > SYMMETRY_RTOL * max(scale, 1.0):
            raise NumericalDomainError("matrix is not symmetric within tolerance")
        chol = _cholesky(m)
        recon_err = float(np.abs(chol @ chol.T - m).max(initial=0.0))
        if recon_err > FACTOR_RTOL * max(scale, 1.0):
            raise NumericalDomainError("factorization failed to reproduce the matrix")
        _check_floor(m, min_eig)
        return cls(mat=_read_only(m), chol=_read_only(chol), min_eig=float(min_eig))

    @classmethod
    def _factor(cls, mat: Matrix, min_eig: float = 0.0) -> "SpdMatrix":
        """:meth:`from_dense` for a float64 ``lam I + sum x x^T`` the package built: no
        copy (the array itself is kept, flagged read-only), and only the Cholesky,
        last-pivot and floor checks (the sum is exactly symmetric, and a
        backward-stable Cholesky reproduces it)."""
        chol = _cholesky(mat)
        _check_floor(mat, min_eig)
        mat.setflags(write=False)
        chol.setflags(write=False)
        return cls(mat, chol, float(min_eig))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def logdet(self) -> float:
        # _logdet of one factor, without np.diagonal's dispatch: the same sum.
        return 2.0 * float(np.add.reduce(np.log(self.chol.diagonal())))


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, flagged read-only: agents alias the server arrays they download."""
    a.setflags(write=False)
    return a


def _cholesky(m: Matrix) -> Matrix:
    """numpy's lower Cholesky factor of the square float64 ``m``, bit for bit;
    NumericalDomainError where it fails or meets a non-finite pivot.

    ``m`` may be an (n, d, d) stack: the result is then the stack of each
    matrix's factor, and one failure refuses the stack.  Calls the LAPACK
    gufunc that ``np.linalg.cholesky`` wraps, without the wrapper's checks
    and error callback: a failed factorization comes back filled with NaN,
    and the floating-point flags it raises are ignored (the call runs under
    ``np.errstate(all="ignore")``'s state), as ``np.linalg.cholesky``
    ignores them.
    """
    token = _extobj_contextvar.set(_QUIET)
    try:
        chol = _umath_linalg.cholesky_lo(m, signature="d->d")
    finally:
        _extobj_contextvar.reset(token)
    # LAPACK does not reject NaN pivots either; a NaN anywhere reaches the last
    # one.  Of a stack, the exact sum of the last pivots (each finite or NaN,
    # at most sqrt(max float)) is finite only where every one is.
    if chol.size and not math.isfinite(
            chol[-1, -1] if chol.ndim == 2 else math.fsum(chol[..., -1, -1].flat)):
        raise NumericalDomainError("matrix is not positive definite: non-finite pivot")
    return chol


def _logdet(chol: Matrix) -> Any:
    """``2 * sum(log(diag(L)))`` of a lower factor, or of each in an (n, d, d) stack."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(-1)


def _check_floor(m: Matrix, min_eig: float) -> None:
    """NumericalDomainError unless a positive ``min_eig`` is, within rounding, a
    floor under the eigenvalues of the factored matrix ``m``, or of every
    matrix of an (n, d, d) stack; the first one that fails is named.  A NaN
    ``min_eig`` is refused; one of at most 0 states no floor.

    A shortfall inside the matrix's own rounding is no violation: the floor
    checked is ``min_eig`` less the larger of a relative 1e-9 (plus 1e-12,
    or 1e-9 again where ``min_eig`` is below 1e-3, so that the floor stays
    positive) and the :func:`floor_margin`.  ``eigvalsh`` runs only on the
    matrices that the Cholesky screen cannot prove above that floor.  A
    stack is screened in one call; one matrix, as the run checks at every
    sync, in Python floats, which cost less per call than array arithmetic;
    its trace is ``ndarray.trace``'s sum, ``np.add.reduce`` of the diagonal.
    """
    if min_eig > 0.0:
        d = m.shape[-1]
        floor = min_eig * (1.0 - 1e-9) - min(1e-12, 1e-9 * min_eig)
        # A factored matrix has a positive diagonal: its trace is tr|m|.
        if m.ndim == 2:
            margin = floor_margin(d, float(np.add.reduce(m.diagonal())), min_eig)
            floor = min(floor, min_eig - margin)
            if margin < min_eig and eigs_surely_above(m, floor):
                return
            stack, margins, floors, unproven = m[None], [margin], [floor], [0]
        else:
            stack, margins = m, floor_margin(d, m.trace(axis1=1, axis2=2), min_eig)
            floors = np.minimum(floor, min_eig - margins)
            unproven = np.flatnonzero(~(eigs_surely_above(m, floors) & (margins < min_eig)))
        for i in unproven:
            if not margins[i] < min_eig:
                raise NumericalDomainError(f"stated floor {min_eig} is not above this "
                                           f"matrix's rounding {margins[i]:.6g}")
            smallest = float(np.linalg.eigvalsh(stack[i])[0])
            if smallest < floors[i]:
                raise NumericalDomainError(
                    f"smallest eigenvalue {smallest} below stated floor {min_eig}"
                )
    elif math.isnan(min_eig):  # "nan > 0.0" is False: it would pass every check
        raise NumericalDomainError("stated floor is NaN")


def floor_margin(d: int, trace: Any, floor: Any) -> Any:
    """``8 d eps (trace + d |floor|)``: above the rounding of a factorization of a
    d x d matrix of absolute trace ``trace`` shifted by ``floor``, and of its
    ``eigvalsh`` (each a small multiple of d eps ||mat||)."""
    return 8.0 * d * _EPS * (trace + d * abs(floor))


def logdet_rounding(d: int, lam: float, L: float, T: int) -> float:
    """Bound on the rounding of a difference of two log-determinants of T-round
    covariances: each is within ``d m / lam``, with ``m`` the :func:`floor_margin`
    at the worst-case trace ``d lam + T L^2``."""
    return 2.0 * d * floor_margin(d, d * lam + T * L * L, lam) / lam


def check_ridge_domain(d: int, lam: float, L: float, T: int) -> None:
    """NumericalDomainError once the :func:`floor_margin` of a T-round covariance,
    of trace at most ``d lam + T L^2``, reaches its ridge floor ``lam``."""
    margin = floor_margin(d, d * lam + T * L * L, lam)
    if not margin < lam:
        raise NumericalDomainError(f"lambda {lam} is not above the rounding {margin:.6g} "
                                   f"of a {T}-round covariance at d={d}, L={L}")


def eigs_surely_above(mat: Matrix, floor: Any) -> Any:
    """Whether a Cholesky factorization proves ``eigvalsh(mat)[0] >= floor``.

    Factors ``mat - (floor + margin) I`` with the :func:`floor_margin` of
    ``mat``, so True means ``eigvalsh`` could not come out below the floor
    and may be skipped; False decides nothing.  Any backward-stable Cholesky
    proves this, of the lower triangle, the one ``eigvalsh`` reads.  ``mat``
    may be an (n, d, d) stack, with one floor or one per matrix: the result
    is then the (n,) array of each matrix's answer, from one call of numpy's
    LAPACK gufunc.  One matrix is factored by the bound LAPACK ``dpotrf`` on
    a Fortran copy, which costs less for one than a gufunc call.
    """
    d = mat.shape[-1]
    if mat.ndim == 2:
        shifted = np.array(mat, dtype=np.float64, order="F")
        diag = shifted.ravel("K")[:: d + 1]  # a view: ravel("K") of a Fortran array copies nothing
        diag -= floor + floor_margin(d, float(np.add.reduce(np.abs(diag))), floor)
        factor, info = dpotrf(shifted, 1, 0, 1)  # lower, clean=0, overwrite_a
        # LAPACK does not reject NaN pivots; a NaN anywhere reaches the last one.
        return info == 0 and math.isfinite(factor[-1, -1])
    shifted = np.array(mat, dtype=np.float64)
    diag = shifted.reshape(len(shifted), d * d)[:, :: d + 1]  # a view of the fresh copy
    diag -= (floor + floor_margin(d, np.abs(diag).sum(-1), floor))[:, None]
    with np.errstate(all="ignore"):
        _umath_linalg.cholesky_lo(shifted, signature="d->d", out=shifted)
    return np.isfinite(shifted[:, -1, -1])


def _chol_solve(chol: Matrix, b: Any) -> NDArray[np.float64]:
    """``(L L^T)^{-1} b`` through LAPACK ``dpotrs`` on a lower factor, no input checks."""
    x, info = dpotrs(chol, b, 1)  # lower
    if info != 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal potrs")
    return x


def inv_norm(m: SpdMatrix, x: Any) -> float:
    """``sqrt(x^T m^{-1} x)`` via triangular solves on the cached factor.

    Never forms an explicit inverse.  The quadratic form is clamped at zero
    before the square root to absorb last-ulp rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (m.dim,):
        raise DimensionMismatchError(f"expected shape ({m.dim},), got {x.shape}")
    y = _chol_solve(m.chol, x)
    return math.sqrt(max(float(x @ y), 0.0))


def solve_estimate(m: SpdMatrix, b: Any) -> Vector:
    """Ridge estimate ``m^{-1} b`` via the cached factorization."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m.dim,):
        raise DimensionMismatchError(f"expected shape ({m.dim},), got {b.shape}")
    return _chol_solve(m.chol, b)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Ground-truth description of one bandit problem.

    ``theta_star`` is hidden from the learner; the simulator uses it for
    rewards and regret only.  ``arm_spec`` is the decision-set generator
    descriptor (see :mod:`fedlinucb.environment`), ``noise_spec`` one of
    ``"gaussian"`` or ``"rademacher-scaled"``, and ``master_seed`` keys every
    per-round environment draw.  The dimension ``dim`` is the length of
    ``theta_star``, which the instance holds as its own read-only float64
    copy.  A fixed arm set (``arm_spec.arms``) is checked here, once, against
    ``dim`` and the arm rule for ``L``.
    """

    theta_star: Vector
    S: float
    L: float
    R: float
    arm_spec: Any
    noise_spec: str
    master_seed: int

    def __post_init__(self) -> None:
        # An owned read-only copy: the caller's array can change neither the
        # instance nor the values the environment caches for it.
        theta = np.array(self.theta_star, dtype=np.float64)
        theta.flags.writeable = False
        object.__setattr__(self, "theta_star", theta)
        if theta.ndim != 1 or theta.size == 0:
            raise DimensionMismatchError(f"theta_star must be a nonempty vector, got {theta.shape}")
        if not (0.0 < self.S < math.inf and 0.0 < self.L < math.inf):
            raise ValueError("S and L must be positive and finite")
        if not 0.0 <= self.R < math.inf:
            raise ValueError("R must be nonnegative and finite")
        # No overflow at large S; "not <=" refuses a NaN theta_star.
        if not float(np.linalg.norm(theta / self.S)) <= 1.0 + 1e-9:
            raise ValueError("theta_star must be finite and within the stated norm budget S")
        fixed = getattr(self.arm_spec, "arms", None)
        if fixed is not None:
            if fixed.shape[1] != self.dim:
                raise DimensionMismatchError(f"arm width {fixed.shape[1]} is not dim {self.dim}")
            # einsum, unlike norm(axis=1), does not warn on overflow; a huge arm reads inf.
            worst = float(np.sqrt(np.einsum("kd,kd->k", fixed, fixed)).max())
            check_arm_norm(worst, self.L)
        if self.noise_spec not in ("gaussian", "rademacher-scaled"):
            raise ValueError(f"unknown noise_spec {self.noise_spec!r}")
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")

    @property
    def dim(self) -> int:
        return self.theta_star.shape[0]

    def __reduce__(self):
        # Through the constructor, so a pickled copy holds read-only arrays too.
        return ProblemInstance, (self.theta_star, self.S, self.L, self.R, self.arm_spec,
                                 self.noise_spec, self.master_seed)


def check_arm_norm(worst: float, L: float) -> None:
    """The arm rule: ValueError unless the largest arm norm ``worst`` is within L(1 + 1e-9)."""
    if not worst <= L * (1.0 + 1e-9):
        raise ValueError(f"arm norm {worst} exceeds stated bound {L}")


@dataclass(frozen=True)
class HyperParams:
    """Algorithm hyperparameters shared by all agents and the server.

    ``beta_value`` is None for the confidence radius of :func:`compute_beta`,
    or a nonnegative finite number that fixes the radius.  ``estimate_mode``
    selects lazy (estimate refreshed only on sync) or eager (selection
    statistics recombined from local buffers every round) behavior.
    """

    lam: float
    alpha: float
    delta: float
    beta_value: float | None = None
    estimate_mode: str = "lazy"

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.beta_value is not None and not 0.0 <= self.beta_value < math.inf:
            raise ValueError("a fixed beta_value must be nonnegative and finite")
        if self.estimate_mode not in ("lazy", "eager"):
            raise ValueError(f"unknown estimate_mode {self.estimate_mode!r}")


def _finite(name: str, value: float) -> float:
    """``value``, or ValueError when the formula left the float range."""
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value} at these parameters; it must be finite")
    return value


def compute_beta(inst: ProblemInstance, hp: HyperParams, M: int, T: int) -> float:
    """Confidence radius for the asynchronous federated run.

    Without a fixed ``beta_value`` evaluates, with natural logarithms,

        sqrt(lam)*S + (sqrt(1 + M*alpha) + M*sqrt(2*alpha))
                      * (R*sqrt(d*ln((1 + T*L^2/(min(alpha,1)*lam))/delta)) + sqrt(lam)*S)

    literally as written (including ``min(alpha, 1)`` for alpha > 1).  A
    fixed ``beta_value`` is returned unchanged.
    """
    if hp.beta_value is not None:
        return float(hp.beta_value)
    if M < 1 or T < 1:
        raise ValueError("auto beta requires M >= 1 and T >= 1")
    lam, alpha, delta = hp.lam, hp.alpha, hp.delta
    d, S, L, R = inst.dim, inst.S, inst.L, inst.R
    sqrt_lam_s = math.sqrt(lam) * S
    multiplier = math.sqrt(1.0 + M * alpha) + M * math.sqrt(2.0 * alpha)
    log_arg = (1.0 + T * L * L / (min(alpha, 1.0) * lam)) / delta
    beta = sqrt_lam_s + multiplier * (R * math.sqrt(d * math.log(log_arg)) + sqrt_lam_s)
    return _finite("beta", beta)


def theoretical_regret_bound(
    inst: ProblemInstance, hp: HyperParams, M: int, T: int, beta: float
) -> float:
    """High-probability cumulative regret bound for the federated run.

        2*d*S*L*M*ln(1 + T*L^2/lam)
        + 2*sqrt(2*(1 + M*alpha)) * beta * sqrt(2*d*T*ln(1 + T*L^2/lam))
    """
    if M < 1 or T < 0:
        raise ValueError("need M >= 1 and T >= 0")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    d, S, L = inst.dim, inst.S, inst.L
    lam, alpha = hp.lam, hp.alpha
    log_term = math.log(1.0 + T * L * L / lam)
    burn_in = 2.0 * d * S * L * M * log_term
    main = 2.0 * math.sqrt(2.0 * (1.0 + M * alpha)) * beta * math.sqrt(2.0 * d * T * log_term)
    return _finite("regret bound", burn_in + main)


def epoch_comm_cap(M: int, alpha: float) -> float:
    """Cap on the communications inside one epoch: ``2*(M + 1/alpha)``."""
    return 2.0 * (M + 1.0 / alpha)


def theoretical_comm_bound(
    d: int, M: int, alpha: float, lam: float, L: float, T: int
) -> float:
    """Deterministic cap on total communications (uploads + downloads).

        2*d*(M + 1/alpha)*log2(1 + T*L^2/(lam*d))

    Each doubling of the server determinant opens an epoch with at most
    :func:`epoch_comm_cap` communications, and the determinant doubles at
    most d*log2(1 + T*L^2/(lam*d)) times over the horizon.
    """
    if d < 1 or M < 1 or T < 0:
        raise ValueError("need d >= 1, M >= 1, T >= 0")
    if alpha <= 0.0 or lam <= 0.0 or L <= 0.0:
        raise ValueError("alpha, lam, L must be positive")
    # d * (2x) and (2d) * x are the same double: scaling by 2 is exact.
    cap = d * epoch_comm_cap(M, alpha) * math.log2(1.0 + T * L * L / (lam * d))
    return _finite("communication cap", cap)


def ucb_select(theta_hat: Any, m: SpdMatrix, beta: float, arms: Any) -> int:
    """Index of the row of the (K, d) decision set ``arms`` maximizing
    ``<theta_hat, x> + beta * inv_norm(m, x)``.

    Ties break toward the lowest index (argmax returns the first maximizer),
    so appending duplicate or dominated arms at higher indices never changes
    the selection.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    arms = np.asarray(arms, dtype=np.float64)
    if theta_hat.shape != (m.dim,):
        raise DimensionMismatchError("arm / estimate dimensions disagree with the matrix")
    if not np.isfinite(theta_hat).all():
        raise ValueError("theta_hat must be finite")
    check_selection(m.dim, beta, arms)
    return int(_ucb_index(theta_hat, m.chol, beta, arms))


def check_selection(d: int, beta: float, arms: np.ndarray) -> None:
    """The rule :func:`ucb_select` checks on the decision set and radius:
    ``arms`` is (K, d) with K >= 1 and finite entries, and ``beta`` is
    nonnegative and finite.  A run checks it once, on its first round's set."""
    if arms.ndim != 2 or arms.shape[1] != d:
        raise DimensionMismatchError("arm / estimate dimensions disagree with the matrix")
    if len(arms) == 0:
        raise ValueError("decision set must contain at least one arm")
    if not np.isfinite(arms).all():
        raise ValueError("decision set holds a non-finite arm")
    if not 0.0 <= beta < math.inf:
        raise ValueError("beta must be nonnegative and finite")


def _ucb_index(theta_hat: Vector, chol: Matrix, beta: float, arms: Any) -> Any:
    """:func:`ucb_select`'s index, as a numpy integer, on inputs that meet its
    checks; ``chol`` is the lower factor.

    ``arms`` may also be an (r, K, d) stack of decision sets scored with the
    same statistics: the result is then the (r,) array of their indices, each
    the index of its set alone, bit for bit.
    """
    # Batched quadratic forms through the cached factor; one LAPACK call for
    # every arm of every set instead of a python loop over arms or sets.
    # c_einsum is what np.einsum calls, without its Python wrapper.
    flat = arms.reshape(-1, arms.shape[-1])
    quad = c_einsum("kd,dk->k", flat, _chol_solve(chol, flat.T))
    np.maximum(quad, 0.0, out=quad)
    scores = arms @ theta_hat + beta * np.sqrt(quad, out=quad).reshape(arms.shape[:-1])
    return scores.argmax(axis=-1)
