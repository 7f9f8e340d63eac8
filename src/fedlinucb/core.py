"""Numerical kernel for federated linear UCB.

Everything downstream (protocol state machine, simulator, analysis) goes
through the small set of primitives defined here: a validated SPD matrix
wrapper with a cached Cholesky handle, log-determinant / inverse-norm / ridge
solves on that wrapper (straight through LAPACK ``dpotrs``), the
confidence-radius and bound formulas, and the optimistic arm-selection rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np
from numpy.typing import NDArray
from scipy.linalg.lapack import dpotrs

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

# Relative symmetry tolerance for SPD inputs and factorization fidelity.
SYMMETRY_RTOL = 1e-9
FACTOR_RTOL = 1e-8


class NumericalDomainError(ValueError):
    """A matrix operation left its numerical domain (e.g. non-PSD input)."""


class DimensionMismatchError(ValueError):
    """Vector/matrix shapes disagree."""


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive definite matrix with a cached factorization.

    Construct through :meth:`from_dense`, which validates symmetry, runs a
    fresh Cholesky factorization, and (when a positive spectral floor is
    stated) verifies every eigenvalue sits above it.  Instances are treated
    as immutable; covariance updates build new objects.

    Attributes
    ----------
    mat:
        The dense matrix, owned copy, never mutated.
    chol:
        Lower-triangular Cholesky factor ``L`` with ``L @ L.T == mat``.
    min_eig:
        Spectral floor stated at construction (0.0 when none was claimed).
    logdet:
        ``2 * sum(log(diag(L)))``, the natural log of the determinant; finite for
        every SPD matrix, so every determinant comparison is made with it.
    det:
        ``prod(diag(L))**2`` in linear space, kept only for display (the
        ``det_server`` trace column); it reads 0.0 or inf once the determinant
        leaves the float range.  Both are computed on first use.
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
        if float(np.abs(m - m.T).max(initial=0.0)) > SYMMETRY_RTOL * max(scale, 1.0):
            raise NumericalDomainError("matrix is not symmetric within tolerance")
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NumericalDomainError(f"matrix is not positive definite: {exc}") from exc
        recon_err = float(np.abs(chol @ chol.T - m).max(initial=0.0))
        if recon_err > FACTOR_RTOL * max(scale, 1.0):
            raise NumericalDomainError("factorization failed to reproduce the matrix")
        floor = min_eig * (1.0 - 1e-9) - 1e-12
        if min_eig > 0.0 and not eigs_surely_above(m, floor):
            smallest = float(np.linalg.eigvalsh(m)[0])
            if smallest < floor:
                raise NumericalDomainError(
                    f"smallest eigenvalue {smallest} below stated floor {min_eig}"
                )
        return cls(mat=m, chol=chol, min_eig=float(min_eig))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def logdet(self) -> float:
        return 2.0 * float(np.log(np.diagonal(self.chol)).sum())

    @cached_property
    def det(self) -> float:
        # Display only: the product leaves the float range at large d (0.0 at
        # d=200, lam=0.01; inf at d=160, lam=100), which is documented output.
        with np.errstate(over="ignore", under="ignore"):
            return float(np.prod(np.diag(self.chol)) ** 2)


def eigs_surely_above(mat: Matrix, floor: float) -> bool:
    """Whether a Cholesky factorization proves ``eigvalsh(mat)[0] >= floor``.

    Factors ``mat - (floor + margin) I``.  The margin, 8 d eps (tr|mat| + d|floor|),
    exceeds the rounding of this factorization and of ``eigvalsh`` alike (each a
    small multiple of d eps ||mat||), so True means ``eigvalsh`` could not come
    out below the floor and may be skipped; False decides nothing.
    """
    d = mat.shape[0]
    margin = 8.0 * d * np.finfo(np.float64).eps * (np.abs(np.diagonal(mat)).sum() + d * abs(floor))
    shifted = mat.copy()
    shifted.flat[:: d + 1] -= floor + margin
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    # LAPACK does not reject NaN pivots; a NaN anywhere reaches the last one.
    return math.isfinite(factor[-1, -1])


def _chol_solve(chol: Matrix, b: Any) -> NDArray[np.float64]:
    """``(L L^T)^{-1} b`` through LAPACK ``dpotrs`` on a lower factor, no input checks."""
    x, info = dpotrs(chol, b, lower=1)
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
    per-round environment draw.
    """

    dim: int
    theta_star: Vector
    S: float
    L: float
    R: float
    arm_spec: Any
    noise_spec: str
    master_seed: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        theta = np.asarray(self.theta_star, dtype=np.float64)
        object.__setattr__(self, "theta_star", theta)
        if theta.shape != (self.dim,):
            raise DimensionMismatchError(
                f"theta_star shape {theta.shape} does not match dim {self.dim}"
            )
        if not (self.S > 0.0 and self.L > 0.0):
            raise ValueError("S and L must be positive")
        if self.R < 0.0:
            raise ValueError("R must be nonnegative")
        if float(np.linalg.norm(theta)) > self.S * (1.0 + 1e-9):
            raise ValueError("theta_star exceeds the stated norm budget S")
        if self.noise_spec not in ("gaussian", "rademacher-scaled"):
            raise ValueError(f"unknown noise_spec {self.noise_spec!r}")
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class HyperParams:
    """Algorithm hyperparameters shared by all agents and the server.

    ``beta_mode`` is ``"auto"`` (confidence radius from :func:`compute_beta`)
    or ``"fixed"`` with ``beta_value`` supplied.  ``estimate_mode`` selects
    lazy (estimate refreshed only on sync) or eager (selection statistics
    recombined from local buffers every round) behavior.
    """

    lam: float
    alpha: float
    delta: float
    beta_mode: str = "auto"
    beta_value: float | None = None
    estimate_mode: str = "lazy"

    def __post_init__(self) -> None:
        if self.lam <= 0.0:
            raise ValueError("lam must be positive")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.beta_mode not in ("auto", "fixed"):
            raise ValueError(f"unknown beta_mode {self.beta_mode!r}")
        if self.beta_mode == "fixed":
            if self.beta_value is None or self.beta_value < 0.0:
                raise ValueError("fixed beta_mode requires a nonnegative beta_value")
        if self.estimate_mode not in ("lazy", "eager"):
            raise ValueError(f"unknown estimate_mode {self.estimate_mode!r}")


@dataclass(frozen=True, eq=False)
class DecisionSet:
    """One round's finite action set: arms as rows of a (K, d) array."""

    arms: Matrix
    norm_bound: float | None = None

    def __post_init__(self) -> None:
        arms = np.asarray(self.arms, dtype=np.float64)
        if arms.ndim != 2:
            raise DimensionMismatchError(f"arms must be a 2-D array, got ndim {arms.ndim}")
        if arms.shape[0] < 1:
            raise ValueError("decision set must contain at least one arm")
        object.__setattr__(self, "arms", arms)
        if self.norm_bound is not None:
            worst = float(np.linalg.norm(arms, axis=1).max())
            if worst > self.norm_bound * (1.0 + 1e-9):
                raise ValueError(
                    f"arm norm {worst} exceeds stated bound {self.norm_bound}"
                )

    @property
    def size(self) -> int:
        return self.arms.shape[0]


def compute_beta(inst: ProblemInstance, hp: HyperParams, M: int, T: int) -> float:
    """Confidence radius for the asynchronous federated run.

    In auto mode evaluates, with natural logarithms,

        sqrt(lam)*S + (sqrt(1 + M*alpha) + M*sqrt(2*alpha))
                      * (R*sqrt(d*ln((1 + T*L^2/(min(alpha,1)*lam))/delta)) + sqrt(lam)*S)

    literally as written (including ``min(alpha, 1)`` for alpha > 1).  In
    fixed mode returns the supplied value unchanged.
    """
    if hp.beta_mode == "fixed":
        assert hp.beta_value is not None
        return float(hp.beta_value)
    if M < 1 or T < 1:
        raise ValueError("auto beta requires M >= 1 and T >= 1")
    lam, alpha, delta = hp.lam, hp.alpha, hp.delta
    d, S, L, R = inst.dim, inst.S, inst.L, inst.R
    sqrt_lam_s = math.sqrt(lam) * S
    multiplier = math.sqrt(1.0 + M * alpha) + M * math.sqrt(2.0 * alpha)
    log_arg = (1.0 + T * L * L / (min(alpha, 1.0) * lam)) / delta
    return sqrt_lam_s + multiplier * (R * math.sqrt(d * math.log(log_arg)) + sqrt_lam_s)


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
    return burn_in + main


def theoretical_comm_bound(
    d: int, M: int, alpha: float, lam: float, L: float, T: int
) -> float:
    """Deterministic cap on total communications (uploads + downloads).

        2*d*(M + 1/alpha)*log2(1 + T*L^2/(lam*d))

    Each doubling of the server determinant opens an epoch with at most
    2*(M + 1/alpha) communications, and the determinant doubles at most
    d*log2(1 + T*L^2/(lam*d)) times over the horizon.
    """
    if d < 1 or M < 1 or T < 0:
        raise ValueError("need d >= 1, M >= 1, T >= 0")
    if alpha <= 0.0 or lam <= 0.0 or L <= 0.0:
        raise ValueError("alpha, lam, L must be positive")
    return 2.0 * d * (M + 1.0 / alpha) * math.log2(1.0 + T * L * L / (lam * d))


def ucb_select(theta_hat: Any, m: SpdMatrix, beta: float, d_set: DecisionSet) -> int:
    """Index of the arm maximizing ``<theta_hat, x> + beta * inv_norm(m, x)``.

    Ties break toward the lowest index (argmax returns the first maximizer),
    so appending duplicate or dominated arms at higher indices never changes
    the selection.
    """
    theta_hat = np.asarray(theta_hat, dtype=np.float64)
    arms = d_set.arms
    if arms.shape[1] != m.dim or theta_hat.shape != (m.dim,):
        raise DimensionMismatchError("arm / estimate dimensions disagree with the matrix")
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    # Batched quadratic forms through the cached factor; one LAPACK call for
    # the whole set instead of a python loop over arms.
    ys = _chol_solve(m.chol, arms.T)
    quad = np.maximum(np.einsum("kd,dk->k", arms, ys), 0.0)
    scores = arms @ theta_hat + beta * np.sqrt(quad)
    return int(np.argmax(scores))
