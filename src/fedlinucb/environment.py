"""Synthetic problem instances, per-round decision sets, rewards, schedules.

Every random draw comes from one keyed constructor, :func:`_block_rng`: a
Philox counter-based generator (Salmon et al. 2011, "Parallel Random
Numbers: As Easy as 1, 2, 3") keyed on ``(master_seed, stream)`` whose
counter starts at the round's block, ``(t - 1) // BLOCK``.  A block's
decision sets and its noise are drawn in one vectorized call each, so every
draw is a pure function of the seed and the global round index.  Re-running
with a different activation schedule (but the same round indices)
reproduces identical draws, which is what makes the sequential and episodic
runners comparable trace-for-trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ProblemInstance, check_arm_norm

# Version of the draw contract below; echoed in every summary.
RNG_VERSION = 2
# Rounds per keyed block; part of the contract, not an option.
BLOCK = 256
# Stream tags; fixed forever, part of the contract.
_STREAMS = {"theta": 0, "arms": 1, "noise": 2, "schedule": 3}

_BIAS_ARMS = np.array([[3.0, 0.0], [0.0, 1.0 / np.sqrt(10.0)]])


def _block_rng(seed: int, stream: str, block: int) -> np.random.Generator:
    """The generator of one (seed, stream, block) cell.

    Philox key words ``(seed, stream)``; counter words ``(0, 0, 0, block)``.
    A block's draws advance the low counter word only, so blocks never
    overlap.  The theta and schedule streams use block 0.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    bits = np.random.Philox(key=seed | _STREAMS[stream] << 64, counter=block << 192)
    return np.random.Generator(bits)


@dataclass(frozen=True, eq=False)
class ArmSpec:
    """Decision-set generator descriptor.

    variant:
        "random-sphere"     K arms i.i.d. uniform in the radius-L ball, fresh
                            per round.
        "hypercube-corners" K arms drawn from the corners {+-L/sqrt(d)}^d,
                            fresh per round.
        "fixed-list"        the same explicit arm list every round.

    A fixed list holds its K arms as one read-only float64 (K, d) array in
    ``arms``, and every round serves that array; the
    :class:`~fedlinucb.core.ProblemInstance` holding the spec checks its
    width and norms.
    """

    variant: str
    K: int
    arms: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("random-sphere", "hypercube-corners", "fixed-list"):
            raise ValueError(f"unknown arm variant {self.variant!r}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.variant != "fixed-list":
            if self.arms is not None:
                raise ValueError(f"{self.variant} draws its arms each round; got an arm array")
            return
        if self.arms is None:
            raise ValueError("fixed-list requires an explicit arm array")
        arms = np.array(self.arms, dtype=np.float64)
        if arms.ndim != 2 or arms.shape[0] != self.K:
            raise ValueError(f"fixed-list needs a (K={self.K}, d) arm array, got {arms.shape}")
        arms.flags.writeable = False
        object.__setattr__(self, "arms", arms)


def _check_count(name: str, value: int, least: int) -> None:
    # A float or bool would otherwise be truncated, or fail later in arithmetic on it.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass(frozen=True)
class Schedule:
    """Activation sequence: agents[t-1] acts in round t (1-based ids); T is its length."""

    M: int
    agents: np.ndarray

    def __post_init__(self) -> None:
        _check_count("M", self.M, 1)
        agents = np.asarray(self.agents)
        if agents.ndim != 1:
            raise ValueError(f"agent ids must form a 1-D sequence, got shape {agents.shape}")
        if agents.size:
            # A float or bool id would otherwise be truncated to an integer.
            if agents.dtype.kind not in "iu":
                raise ValueError(f"agent ids must be integers, got dtype {agents.dtype}")
            if agents.min() < 1 or agents.max() > self.M:
                raise ValueError("schedule references an agent id outside 1..M")
        object.__setattr__(self, "agents", agents.astype(np.int64, copy=False))

    @property
    def T(self) -> int:
        return len(self.agents)


def gen_instance(
    kind: str,
    d: int | None = None,
    K: int | None = None,
    S: float = 1.0,
    L: float = 1.0,
    R: float = 1.0,
    seed: int = 0,
    arms: np.ndarray | None = None,
    noise: str = "gaussian",
) -> ProblemInstance:
    """Build a problem instance of one of the supported kinds.

    kinds: "random-sphere", "hypercube-corners" (theta_star uniform on the
    radius-S sphere, arms per ArmSpec), "fixed-list" (explicit arms, theta_star
    on the sphere), "bias-demo" (d=2, theta_star = 0, the fixed two-arm set,
    scaled-coin noise).
    """
    if kind == "bias-demo":
        L = max(L, 3.0)
        return ProblemInstance(
            theta_star=np.zeros(2),
            S=S,
            L=L,
            R=R,
            arm_spec=ArmSpec("fixed-list", K=2, arms=_BIAS_ARMS),
            noise_spec="rademacher-scaled",
            master_seed=seed,
        )
    if kind == "fixed-list":
        if arms is None:
            raise ValueError("fixed-list instance requires an arm array")
        spec = ArmSpec("fixed-list", K=len(arms), arms=arms)
        d = spec.arms.shape[1]
    elif kind in ("random-sphere", "hypercube-corners"):
        if d is None or K is None:
            raise ValueError(f"{kind} requires d and K")
        spec = ArmSpec(kind, K=K)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")

    direction = _block_rng(seed, "theta", 0).standard_normal(d)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:  # astronomically unlikely; keep the draw total anyway
        direction = np.ones(d)
        norm = float(np.linalg.norm(direction))
    # S multiplies first, so a finite S that would overflow there is refused here.
    if math.isfinite(S) and not math.isfinite(S * float(np.abs(direction).max())):
        raise ValueError(f"S = {S!r} overflows theta_star = S * direction / norm")
    theta_star = S * direction / norm
    return ProblemInstance(
        theta_star=theta_star,
        S=S,
        L=L,
        R=R,
        arm_spec=spec,
        noise_spec=noise,
        master_seed=seed,
    )


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of a (BLOCK, K, d) array."""
    return np.sqrt(np.einsum("bkd,bkd->bk", a, a))


@lru_cache(maxsize=1)
def _arm_block(seed: int, variant: str, K: int, d: int, L: float, block: int) -> np.ndarray:
    """Decision sets of the block's BLOCK rounds: a read-only (BLOCK, K, d) array.

    Checked once here against the arm rule, so the rounds that serve its rows
    do not re-check them.
    """
    rng = _block_rng(seed, "arms", block)
    if variant == "random-sphere":
        g = rng.standard_normal((BLOCK, K, d))
        norms = _row_norms(g)
        norms[norms == 0.0] = 1.0
        radii = L * rng.random((BLOCK, K)) ** (1.0 / d)
        arms = g * (radii / norms)[..., None]
    else:  # hypercube-corners
        signs = rng.integers(0, 2, size=(BLOCK, K, d), dtype=np.int8) * 2 - 1
        arms = signs * (L / np.sqrt(d))
    check_arm_norm(float(_row_norms(arms).max()), L)
    arms.flags.writeable = False
    return arms


@lru_cache(maxsize=1)
def _noise_block(seed: int, noise: str, block: int) -> np.ndarray:
    """Unit noise of the block's BLOCK rounds, read-only: standard normal or fair +-1."""
    rng = _block_rng(seed, "noise", block)
    if noise == "gaussian":
        unit = rng.standard_normal(BLOCK)
    else:  # rademacher-scaled
        unit = np.where(rng.random(BLOCK) < 0.5, 1.0, -1.0)
    unit.flags.writeable = False
    return unit


def sample_decision_set(inst: ProblemInstance, t: int) -> np.ndarray:
    """Decision set of round t, a read-only float64 (K, d) array of arms.

    It depends only on (master_seed, t); a fixed list serves the same array
    every round.
    """
    if t < 1:
        raise ValueError("rounds are 1-based")
    spec: ArmSpec = inst.arm_spec
    if spec.arms is not None:
        return spec.arms
    block, row = divmod(t - 1, BLOCK)
    return _arm_block(inst.master_seed, spec.variant, spec.K, inst.dim, inst.L, block)[row]


def sample_reward(inst: ProblemInstance, t: int, x: np.ndarray) -> float:
    """Reward for playing arm x in round t: <x, theta_star> + noise(seed, t).

    The noise draw depends only on (master_seed, t), never on x or on which
    agent plays, so replaying a round reproduces the same disturbance.
    """
    if t < 1:
        raise ValueError("rounds are 1-based")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.dim,):
        raise ValueError(f"arm shape {x.shape} does not match dim {inst.dim}")
    check_arm_norm(float(np.linalg.norm(x)), inst.L)
    block, row = divmod(t - 1, BLOCK)
    eta = inst.R * _noise_block(inst.master_seed, inst.noise_spec, block)[row]
    return float(x @ inst.theta_star) + float(eta)


def gen_schedule(
    kind: str,
    M: int,
    T: int | None = None,
    seed: int = 0,
) -> Schedule:
    """Activation schedule of one of the supported kinds.

    "round-robin"   1, 2, ..., M, 1, 2, ...
    "iid-uniform"   independent uniform draws over 1..M (own seed stream)
    "block"         agent m owns rounds ((m-1)*T/M, m*T/M]; requires M | T

    An explicit sequence is ``Schedule(M, agents)`` itself.
    """
    if kind not in ("round-robin", "iid-uniform", "block"):
        raise ValueError(f"unknown schedule kind {kind!r}")
    if T is None:
        raise ValueError(f"{kind} schedule requires T")
    _check_count("M", M, 1)
    _check_count("T", T, 0)
    if kind == "round-robin":
        seq = (np.arange(T, dtype=np.int64) % M) + 1
    elif kind == "iid-uniform":
        rng = _block_rng(seed, "schedule", 0)
        seq = rng.integers(1, M + 1, size=T, dtype=np.int64)
    else:
        if T % M != 0:
            raise ValueError(f"block schedule needs M | T, got M={M}, T={T}")
        seq = np.repeat(np.arange(1, M + 1, dtype=np.int64), T // M)
    return Schedule(M=M, agents=seq)


def _read_data_lines(path: str) -> list[list[str]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            rows.append(line.split())
    return rows


def load_schedule_file(path: str, M: int) -> Schedule:
    """Explicit schedule from a plain-text file: one agent id per line.

    Line t (after dropping blanks and ``#`` comments) holds the 1-based id of
    the agent active in round t.
    """
    agents = []
    for lineno, tokens in enumerate(_read_data_lines(path), 1):
        if len(tokens) != 1:
            raise ValueError(f"{path}: schedule line {lineno} must hold a single agent id")
        agents.append(int(tokens[0]))
    return Schedule(M=M, agents=agents)


def load_arms_file(path: str) -> np.ndarray:
    """Fixed arm set from a plain-text file: one arm per line.

    Each line holds d whitespace-separated floats; the same set is served
    every round.  Blank lines and ``#`` comments are ignored.
    """
    rows = _read_data_lines(path)
    if not rows:
        raise ValueError(f"{path}: no arms found")
    width = len(rows[0])
    arms = np.empty((len(rows), width), dtype=np.float64)
    for i, tokens in enumerate(rows):
        if len(tokens) != width:
            raise ValueError(f"{path}: line {i + 1} has {len(tokens)} values, expected {width}")
        arms[i] = [float(tok) for tok in tokens]
    return arms
