"""Synthetic problem instances, per-round decision sets, rewards, schedules.

Every random draw comes from one keyed constructor, :func:`_block_rng`: a
Philox counter-based generator (Salmon et al. 2011, "Parallel Random
Numbers: As Easy as 1, 2, 3") keyed on ``(master_seed, stream)`` whose
counter starts at the round's block, ``(t - 1) // BLOCK``.  A block's
decision sets and its noise are drawn in one vectorized call each, so every
draw is a pure function of the seed and the global round index.  Re-running
with a different activation schedule (but the same round indices)
reproduces identical draws, which is what lets an episodic run be the run
of its flattened schedule (:meth:`Schedule.from_episodes`).  Everything a
round holds that no agent changes (its decision set, mean rewards, regret
values and scaled noise) lives in one read-only table per instance and block,
:func:`_block`, built when a run first reaches the block; only the latest
table is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
        _check_count("K", self.K, 1)
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

    def __reduce__(self):
        # Through the constructor, so a pickled copy holds a read-only array too.
        return ArmSpec, (self.variant, self.K, self.arms)


def _check_count(name: str, value: int, least: int) -> None:
    # A float or bool would otherwise be truncated, or fail later in arithmetic on it.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class Schedule:
    """Activation sequence: agents[t-1] acts in round t (1-based ids); T is its length.

    ``agents`` is an owned, read-only int64 array."""

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
        # An owned copy: a later write to the caller's array cannot change the schedule.
        agents = agents.astype(np.int64)
        agents.flags.writeable = False
        object.__setattr__(self, "agents", agents)

    def __reduce__(self):
        # Through the constructor, so a pickled copy holds a read-only array too.
        return Schedule, (self.M, self.agents)

    @property
    def T(self) -> int:
        return len(self.agents)

    @classmethod
    def from_episodes(cls, sets: list[list[int]], M: int | None = None) -> "Schedule":
        """Schedule of episodic participation sets: in episode k the agents of
        ``sets[k]`` act in set order, and the episodes follow each other.

        Within an episode each agent acts at most once, so a duplicated id
        inside one set is refused.  Without ``M`` the largest id gives it.
        Agents are independent between their own syncs, so the run of this
        flattening is the episodic run.
        """
        flat: list[int] = []
        for k, group in enumerate(sets, 1):
            if len(set(group)) != len(group):
                raise ValueError(f"episode {k} activates an agent more than once")
            flat.extend(group)
        ids = np.asarray(flat)
        if M is None:
            # The constructor refuses ids that are not integers; only integers give M.
            M = int(ids.max(initial=1)) if ids.dtype.kind in "iu" else 1
        return cls(M=M, agents=ids)


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
    _check_count("d", d, 1)

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


class _Block(NamedTuple):
    """What the rounds of one block hold that no agent changes, one row per round.

    ``arms`` (BLOCK, K, d) are the decision sets; ``means`` (BLOCK, K) the
    arms' mean rewards, each the 1-D dot ``x @ theta_star``; ``values``
    (BLOCK, K) the regret's values, each row the matrix-vector product
    ``d_set @ theta_star``; ``best`` (BLOCK,) the row maxima of ``values``;
    ``noise`` (BLOCK,) ``R`` times the unit noise.  The two products round
    differently, so both are kept: a reward is the dot of its arm, and a
    regret subtracts two entries of one product, which makes it exactly zero
    at the best arm.  All read-only.
    """

    arms: np.ndarray
    means: np.ndarray
    values: np.ndarray
    best: np.ndarray
    noise: np.ndarray

    def reward(self, row: int, idx: int) -> float:
        """Reward of arm ``idx`` in the block's round ``row``: its mean plus the noise."""
        return float(self.means[row, idx] + self.noise[row])


@lru_cache(maxsize=1)
def _block(inst: ProblemInstance, block: int) -> _Block:
    """The :class:`_Block` of one block, built when a run first reaches it.

    Keyed by the instance itself (it compares by identity and holds
    read-only arrays) and the block.  Drawn arms are checked against the arm
    rule once, here, so the rounds that serve them do not re-check them.  A
    fixed list holds its one set, and its values, in every row.
    """
    spec: ArmSpec = inst.arm_spec
    K, d, theta = spec.K, inst.dim, inst.theta_star
    if spec.arms is not None:
        arms = spec.arms[None]
    else:
        rng = _block_rng(inst.master_seed, "arms", block)
        if spec.variant == "random-sphere":
            g = rng.standard_normal((BLOCK, K, d))
            norms = _row_norms(g)
            norms[norms == 0.0] = 1.0
            radii = inst.L * rng.random((BLOCK, K)) ** (1.0 / d)
            arms = g * (radii / norms)[..., None]
        else:  # hypercube-corners
            signs = rng.integers(0, 2, size=(BLOCK, K, d), dtype=np.int8) * 2 - 1
            arms = signs * (inst.L / np.sqrt(d))
        check_arm_norm(float(_row_norms(arms).max()), inst.L)
    rng = _block_rng(inst.master_seed, "noise", block)
    if inst.noise_spec == "gaussian":
        unit = rng.standard_normal(BLOCK)
    else:  # rademacher-scaled: fair +-1
        unit = np.where(rng.random(BLOCK) < 0.5, 1.0, -1.0)
    noise = inst.R * unit
    noise.flags.writeable = False
    values = arms @ theta
    return _Block(
        arms=np.broadcast_to(arms, (BLOCK, K, d)),
        means=np.broadcast_to(np.vecdot(arms, theta), (BLOCK, K)),
        values=np.broadcast_to(values, (BLOCK, K)),
        best=np.broadcast_to(values.max(axis=1), (BLOCK,)),
        noise=noise,
    )


def sample_decision_set(inst: ProblemInstance, t: int) -> np.ndarray:
    """Decision set of round t, a read-only float64 (K, d) array of arms.

    It depends only on (master_seed, t); a fixed list serves the same array
    every round.
    """
    _check_count("round t", t, 1)
    spec: ArmSpec = inst.arm_spec
    if spec.arms is not None:
        return spec.arms
    block, row = divmod(t - 1, BLOCK)
    return _block(inst, block).arms[row]


def sample_reward(inst: ProblemInstance, t: int, idx: int) -> float:
    """Reward for playing row ``idx`` of round t's decision set: <x, theta_star> + noise(seed, t).

    The arm was checked where it was made; only ``t`` and ``idx`` are checked
    here, each an integer (a numpy one too) in its range.  The value is read
    from the table of the instance and the round's block, so it depends only
    on (master_seed, t) and the arm, and replaying a round reproduces it.
    """
    _check_count("round t", t, 1)
    K = inst.arm_spec.K
    if not 0 <= idx < K:
        raise ValueError(f"arm index {idx} outside 0..{K - 1}")
    _check_count("arm index", idx, 0)  # after the range, so -1 is named as outside it
    block, row = divmod(t - 1, BLOCK)
    return _block(inst, block).reward(row, idx)


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


def _read_data_lines(path: str) -> list[tuple[int, list[str]]]:
    """(line number in the file, tokens) of every line left after dropping blanks and comments."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((lineno, line.split()))
    return rows


def _parse(path: str, lineno: int, parse, token: str):
    """``parse(token)``, with a ValueError that names the file and line of the token."""
    try:
        return parse(token)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from exc


def load_schedule_file(path: str, M: int) -> Schedule:
    """Explicit schedule from a plain-text file: one agent id per line.

    Line t (after dropping blanks and ``#`` comments) holds the 1-based id of
    the agent active in round t.
    """
    agents = []
    for lineno, tokens in _read_data_lines(path):
        if len(tokens) != 1:
            raise ValueError(f"{path}: schedule line {lineno} must hold a single agent id")
        agents.append(_parse(path, lineno, int, tokens[0]))
    return Schedule(M=M, agents=agents)


def load_arms_file(path: str) -> np.ndarray:
    """Fixed arm set from a plain-text file: one arm per line.

    Each line holds d whitespace-separated floats; the same set is served
    every round.  Blank lines and ``#`` comments are ignored.
    """
    rows = _read_data_lines(path)
    if not rows:
        raise ValueError(f"{path}: no arms found")
    width = len(rows[0][1])
    arms = np.empty((len(rows), width), dtype=np.float64)
    for i, (lineno, tokens) in enumerate(rows):
        if len(tokens) != width:
            raise ValueError(f"{path}: line {lineno} has {len(tokens)} values, expected {width}")
        arms[i] = [_parse(path, lineno, float, tok) for tok in tokens]
    return arms
