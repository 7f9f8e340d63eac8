"""Instance generation, per-round draws, schedules, and file loaders.

The draw tests pin the counter-based keying: every random quantity must be a
pure function of (master_seed, round index), independent of call order.
"""

import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from fedlinucb import (
    ArmSpec,
    DimensionMismatchError,
    HyperParams,
    ProblemInstance,
    Schedule,
    gen_instance,
    gen_schedule,
    load_arms_file,
    load_schedule_file,
    run_fedlinucb,
    sample_decision_set,
    sample_reward,
)
from fedlinucb import environment
from fedlinucb.environment import BLOCK
from fedlinucb.simulator import index_regret


# ---------------------------------------------------------------- instances


def test_theta_star_on_radius_s_sphere():
    for seed in range(20):
        inst = gen_instance("random-sphere", d=5, K=3, S=2.5, seed=seed)
        assert np.linalg.norm(inst.theta_star) == pytest.approx(2.5, rel=1e-12)


def test_instance_regeneration_is_identical():
    a = gen_instance("random-sphere", d=4, K=6, seed=99)
    b = gen_instance("random-sphere", d=4, K=6, seed=99)
    assert np.array_equal(a.theta_star, b.theta_star)
    c = gen_instance("random-sphere", d=4, K=6, seed=100)
    assert not np.array_equal(a.theta_star, c.theta_star)


def test_bias_demo_instance_shape():
    inst = gen_instance("bias-demo", seed=0)
    assert inst.dim == 2
    assert np.array_equal(inst.theta_star, np.zeros(2))
    assert inst.noise_spec == "rademacher-scaled"
    assert inst.L == 3.0  # widened to admit the long arm
    arms = sample_decision_set(inst, 1)
    assert np.array_equal(arms[0], [3.0, 0.0])
    assert arms[1] == pytest.approx([0.0, 1.0 / math.sqrt(10.0)], rel=1e-15)


def test_fixed_list_instance():
    arms = np.array([[0.6, 0.0], [0.0, 0.8]])
    inst = gen_instance("fixed-list", arms=arms, seed=1)
    assert inst.dim == 2
    for t in (1, 2, 77):
        assert np.array_equal(sample_decision_set(inst, t), arms)
    with pytest.raises(ValueError):
        gen_instance("fixed-list", arms=np.array([[3.0, 0.0]]), L=1.0)
    with pytest.raises(ValueError):
        gen_instance("fixed-list", seed=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            gen_instance("fixed-list", arms=np.array([[0.5, bad], [0.1, 0.2]]))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        gen_instance("mystery", d=2, K=2)
    with pytest.raises(ValueError):
        gen_instance("random-sphere", d=2)  # K missing


# ---------------------------------------------------------------- decision sets


def test_sphere_arms_fill_the_ball():
    inst = gen_instance("random-sphere", d=3, K=50, L=2.0, seed=5)
    norms = np.concatenate(
        [np.linalg.norm(sample_decision_set(inst, t), axis=1) for t in range(1, 21)]
    )
    assert norms.max() <= 2.0 * (1 + 1e-12)
    # Uniform-in-ball, not on the shell: plenty of interior mass.
    assert (norms < 1.8).mean() > 0.3


def test_corner_arms_have_exact_coordinates():
    inst = gen_instance("hypercube-corners", d=4, K=8, L=1.0, seed=6)
    arms = sample_decision_set(inst, 3)
    assert np.allclose(np.abs(arms), 1.0 / math.sqrt(4.0))
    assert np.allclose(np.linalg.norm(arms, axis=1), 1.0)


def test_decision_set_keyed_by_round_only():
    inst = gen_instance("random-sphere", d=3, K=4, seed=12)
    direct = sample_decision_set(inst, 9)
    # Interleave other rounds; round 9 must not care.
    for t in (3, 1, 9, 2, 9):
        got = sample_decision_set(inst, t)
        if t == 9:
            assert np.array_equal(got, direct)
    assert not np.array_equal(sample_decision_set(inst, 10), direct)


def test_rounds_are_one_based():
    inst = gen_instance("random-sphere", d=2, K=2, seed=0)
    with pytest.raises(ValueError):
        sample_decision_set(inst, 0)
    with pytest.raises(ValueError):
        sample_reward(inst, 0, 0)


@pytest.mark.parametrize("inst", [
    gen_instance("fixed-list", arms=[[0.5, 0.1]], seed=1),
    gen_instance("hypercube-corners", d=3, K=4, R=0.5, seed=2, noise="rademacher-scaled"),
], ids=["fixed-list", "hypercube-corners"])
def test_a_pickled_instance_keeps_its_arrays_read_only(inst):
    # sweep --parallel sends built instances to its workers through pickle,
    # and the block tables trust an instance's arrays never to change.
    copy = pickle.loads(pickle.dumps(inst))
    arrays = [(inst.theta_star, copy.theta_star)]
    if inst.arm_spec.arms is not None:
        arrays.append((inst.arm_spec.arms, copy.arm_spec.arms))
    for before, after in arrays:
        assert np.array_equal(after, before) and not after.flags.writeable
        with pytest.raises(ValueError):
            after[0] = 0.0
    for name in ("S", "L", "R", "noise_spec", "master_seed"):
        assert getattr(copy, name) == getattr(inst, name), name
    assert (copy.arm_spec.variant, copy.arm_spec.K) == (inst.arm_spec.variant, inst.arm_spec.K)
    assert all(sample_reward(copy, t, 0) == sample_reward(inst, t, 0) for t in (1, BLOCK + 1))


# ---------------------------------------------------------------- block-keyed draws


def _fixed_beta(**kw):
    return HyperParams(lam=1.0, alpha=0.25, delta=0.1, beta_value=1.0, **kw)


@pytest.mark.parametrize("kind", ["random-sphere", "hypercube-corners"])
def test_block_edges_serve_the_run_trace_arms(kind):
    inst = gen_instance(kind, d=3, K=4, seed=41)
    T = 2 * BLOCK + 40
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=T, seed=2), _fixed_beta())
    for t in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, T):
        # Rebuild the block's table from its keys: the played row must give
        # the run's reward.
        environment._block.cache_clear()
        assert sample_reward(inst, t, trace.arm_index[t - 1]) == trace.reward[t - 1]
        assert not np.array_equal(sample_decision_set(inst, t), sample_decision_set(inst, t + 1))


def test_shorter_run_is_a_prefix_of_the_longer():
    inst = gen_instance("random-sphere", d=3, K=5, seed=8)
    short = run_fedlinucb(inst, gen_schedule("round-robin", M=3, T=300), _fixed_beta())
    long = run_fedlinucb(inst, gen_schedule("round-robin", M=3, T=600), _fixed_beta())
    for col in ("t", "agent", "arm_index", "reward", "inst_regret", "comm",
                "logdet_server", "cum_regret"):
        assert np.array_equal(getattr(short, col), getattr(long, col)[:300]), col


@pytest.mark.parametrize("kind", ["random-sphere", "hypercube-corners"])
@pytest.mark.parametrize("d, L", [(1, 1.0), (5, 2.5), (32, 1e-3)])
def test_generated_arms_within_L_across_blocks(kind, d, L):
    inst = gen_instance(kind, d=d, K=7, L=L, seed=3)
    norms = np.concatenate([np.linalg.norm(sample_decision_set(inst, t), axis=1)
                            for t in range(1, 3 * BLOCK + 2)])
    assert norms.size == 7 * (3 * BLOCK + 1)
    assert np.isfinite(norms).all()
    assert norms.max() <= L * (1.0 + 1e-9)


@pytest.mark.parametrize("inst", [
    gen_instance("random-sphere", d=3, K=4, seed=1),
    gen_instance("hypercube-corners", d=3, K=4, seed=1),
    gen_instance("fixed-list", arms=np.array([[0.6, 0.0], [0.0, 0.8], [0.1, 0.1]]), seed=1),
    gen_instance("bias-demo", seed=1),
], ids=["random-sphere", "hypercube-corners", "fixed-list", "bias-demo"])
def test_served_arms_are_read_only(inst):
    d_set = sample_decision_set(inst, 5)
    before = d_set.copy()
    with pytest.raises(ValueError):
        d_set[0, 0] = 0.0
    with pytest.raises(ValueError):
        d_set[1] *= 2.0
    assert np.array_equal(sample_decision_set(inst, 5), before)
    # A decision set is the plain read-only float64 (K, d) array, in every block.
    for t in (5, BLOCK + 3):
        arms = sample_decision_set(inst, t)
        assert type(arms) is np.ndarray and arms.dtype == np.float64
        assert arms.shape == (inst.arm_spec.K, inst.dim) and not arms.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_arms_are_refused(bad):
    arms = np.array([[bad, 0.0], [0.1, 0.2]])
    with pytest.raises(ValueError, match="exceeds stated bound"):
        gen_instance("fixed-list", arms=arms)
    spec = ArmSpec("fixed-list", K=2, arms=arms)
    with pytest.raises(ValueError, match="exceeds stated bound"):
        ProblemInstance(theta_star=np.zeros(2), S=1.0, L=1.0, R=1.0, arm_spec=spec,
                        noise_spec="gaussian", master_seed=0)


def test_fixed_arms_checked_against_instance_dim():
    spec = ArmSpec("fixed-list", K=2, arms=[[0.6, 0.0], [0.0, 0.8]])
    with pytest.raises(DimensionMismatchError):
        ProblemInstance(theta_star=np.zeros(3), S=1.0, L=1.0, R=1.0, arm_spec=spec,
                        noise_spec="gaussian", master_seed=0)


def test_arm_spec_k_must_match_its_arms():
    with pytest.raises(ValueError, match="K=5"):
        ArmSpec("fixed-list", K=5, arms=np.array([[0.6, 0.0], [0.0, 0.8]]))
    with pytest.raises(ValueError, match="draws its arms"):
        ArmSpec("random-sphere", K=2, arms=np.array([[0.6, 0.0], [0.0, 0.8]]))
    # The bias demo's pair is a fixed list; there is no variant of its own.
    with pytest.raises(ValueError, match="unknown arm variant"):
        ArmSpec("bias-demo-pair", K=2)
    assert gen_instance("bias-demo").arm_spec.variant == "fixed-list"


def test_fixed_sets_are_built_once():
    for inst in (gen_instance("fixed-list", arms=np.array([[0.6, 0.0], [0.0, 0.8]])),
                 gen_instance("bias-demo")):
        first = sample_decision_set(inst, 1)
        assert all(sample_decision_set(inst, t) is first for t in (2, BLOCK + 1, 10**6))


# One instance of each arm kind; the two fixed ones serve one set every round.
ARM_KINDS = {
    "random-sphere": lambda: gen_instance("random-sphere", d=3, K=4, seed=41),
    "hypercube-corners": lambda: gen_instance("hypercube-corners", d=3, K=4, R=0.5, seed=41,
                                              noise="rademacher-scaled"),
    "fixed-list": lambda: gen_instance(
        "fixed-list", arms=np.array([[0.6, 0.0, 0.3], [0.0, -0.8, 0.1], [0.2, 0.2, -0.9]]),
        R=2.0, seed=41),
    "bias-demo": lambda: gen_instance("bias-demo", seed=41),
}


def _unit_noise(inst, block):
    """The block's unit noise, drawn from its keyed generator as the README states."""
    rng = environment._block_rng(inst.master_seed, "noise", block)
    if inst.noise_spec == "gaussian":
        return rng.standard_normal(BLOCK)
    return np.where(rng.random(BLOCK) < 0.5, 1.0, -1.0)


@pytest.mark.parametrize("kind", sorted(ARM_KINDS))
def test_block_values_are_the_per_round_formulas_at_block_edges(kind):
    # Rewards are the arm's 1-D dot plus R times the unit noise; regrets are
    # index_regret's matrix-vector values.  Both must hold bit for bit on
    # every arm of the rounds around each block edge, and in the run.
    inst = ARM_KINDS[kind]()
    T = 2 * BLOCK + 40
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=T, seed=2), _fixed_beta())
    for t in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, T):
        d_set = sample_decision_set(inst, t)
        block, row = divmod(t - 1, BLOCK)
        eta = inst.R * _unit_noise(inst, block)[row]
        table = environment._block(inst, block)
        for idx in range(len(d_set)):
            assert sample_reward(inst, t, idx) == float(d_set[idx] @ inst.theta_star) + float(eta)
            regret = table.best[row] - table.values[row, idx]
            assert regret == index_regret(inst, d_set, idx)
        idx = int(trace.arm_index[t - 1])
        assert trace.reward[t - 1] == float(d_set[idx] @ inst.theta_star) + float(eta)
        assert trace.inst_regret[t - 1] == index_regret(inst, d_set, idx)


def test_block_values_are_read_only():
    inst = ARM_KINDS["random-sphere"]()
    for array in environment._block(inst, 0):
        assert not array.flags.writeable
        assert len(array) == BLOCK


@pytest.mark.parametrize("kind", sorted(ARM_KINDS))
@pytest.mark.parametrize("T", [1, BLOCK, BLOCK + 1, 3 * BLOCK - 7])
def test_one_value_table_per_block(kind, T):
    environment._block.cache_clear()
    run_fedlinucb(ARM_KINDS[kind](), gen_schedule("round-robin", M=2, T=T), _fixed_beta())
    assert environment._block.cache_info().misses == math.ceil(T / BLOCK)


@pytest.mark.parametrize("kind", sorted(ARM_KINDS))
@pytest.mark.parametrize("T", [1, BLOCK, BLOCK + 1, 3 * BLOCK - 7])
def test_one_generator_per_block_and_stream(monkeypatch, kind, T):
    # Each block's table draws each stream it needs (arms for the drawn
    # kinds, noise for all) from one generator.
    inst = ARM_KINDS[kind]()
    built = []
    keyed = environment._block_rng

    def counting(seed, stream, block):
        built.append((stream, block))
        return keyed(seed, stream, block)

    monkeypatch.setattr(environment, "_block_rng", counting)
    environment._block.cache_clear()
    run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=T), _fixed_beta())
    blocks = range(math.ceil(T / BLOCK))
    streams = ("noise",) if inst.arm_spec.arms is not None else ("arms", "noise")
    assert sorted(built) == sorted((stream, b) for stream in streams for b in blocks)


def test_keyed_generator_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            gen_instance("random-sphere", d=2, K=2, seed=seed)
        with pytest.raises(ValueError):
            gen_schedule("iid-uniform", M=2, T=4, seed=seed)


# ---------------------------------------------------------------- rewards


def test_reward_noiseless_is_inner_product():
    inst = gen_instance("random-sphere", d=3, K=2, R=0.0, seed=4)
    x = sample_decision_set(inst, 7)[1]
    assert sample_reward(inst, 7, 1) == float(x @ inst.theta_star)


def test_reward_noise_keyed_by_round_only():
    inst = gen_instance("fixed-list", arms=np.array([[0.5, 0.0], [0.0, 0.5]]), seed=21)
    x, y = sample_decision_set(inst, 13)
    first = sample_reward(inst, 13, 0)
    sample_reward(inst, 1, 0)
    sample_reward(inst, 99, 0)
    assert sample_reward(inst, 13, 0) == first
    # Same round, different arm: noise identical, mean shifts.
    eta = first - float(x @ inst.theta_star)
    assert sample_reward(inst, 13, 1) == pytest.approx(float(y @ inst.theta_star) + eta, rel=1e-12)


def _noise_only(**kw):
    """An instance whose one arm is the zero vector: every reward is the noise itself."""
    return gen_instance("fixed-list", arms=np.zeros((1, 2)), **kw)


def test_gaussian_noise_moments():
    inst = _noise_only(R=1.5, seed=33)
    etas = np.array([sample_reward(inst, t, 0) for t in range(1, 4001)])
    assert abs(etas.mean()) < 3 * 1.5 / math.sqrt(4000)
    assert etas.std() == pytest.approx(1.5, rel=0.05)


def test_scaled_coin_noise_frequency():
    inst = _noise_only(R=1.0, seed=8, noise="rademacher-scaled")
    etas = np.array([sample_reward(inst, t, 0) for t in range(1, 10001)])
    assert set(np.unique(etas)) == {-1.0, 1.0}
    assert abs((etas == 1.0).mean() - 0.5) < 0.02


@pytest.mark.parametrize("inst", [
    gen_instance("random-sphere", d=2, K=2, seed=0),
    gen_instance("fixed-list", arms=np.array([[0.6, 0.0], [0.0, 0.8], [0.1, 0.1]])),
], ids=["random-sphere", "fixed-list"])
def test_reward_rejects_an_index_outside_the_decision_set(inst):
    # A reward names the played row; -1 would otherwise wrap to the last arm.
    K = inst.arm_spec.K
    for idx in (-1, K):
        with pytest.raises(ValueError, match=f"arm index {idx} outside 0..{K - 1}"):
            sample_reward(inst, 1, idx)
    sample_reward(inst, 1, K - 1)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("inst", [
    gen_instance("random-sphere", d=2, K=4, seed=5),
    gen_instance("fixed-list", arms=np.array([[0.6, 0.0], [0.0, 0.8]]), seed=5),
], ids=["random-sphere", "fixed-list"])
def test_a_round_or_index_that_is_not_an_integer_is_refused(inst, warm):
    # Cold, 2.5 would fail in the generator's counter arithmetic; warm, 3.0
    # would fail as a table index and True would select through a mask.
    environment._block.cache_clear()
    if warm:
        sample_reward(inst, 3, 1)
    for t in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="round t must be an integer"):
            sample_decision_set(inst, t)
        with pytest.raises(ValueError, match="round t must be an integer"):
            sample_reward(inst, t, 0)
    for idx in (0.5, 1.0, True):
        with pytest.raises(ValueError, match="arm index must be an integer"):
            sample_reward(inst, 3, idx)
    # A numpy integer is an integer.
    assert sample_reward(inst, np.int64(3), np.int64(1)) == sample_reward(inst, 3, 1)
    assert np.array_equal(sample_decision_set(inst, np.int64(3)), sample_decision_set(inst, 3))


@pytest.mark.parametrize("kind", ["random-sphere", "hypercube-corners"])
@pytest.mark.parametrize("size, bad", [
    ("d", 0), ("d", -1), ("d", True), ("d", 2.0), ("K", 0), ("K", True), ("K", 3.0),
])
def test_instance_sizes_must_be_positive_integers(kind, size, bad):
    sizes = {"d": 2, "K": 3, size: bad}
    with pytest.raises(ValueError, match=f"{size} must be .*got {bad!r}"):
        gen_instance(kind, **sizes)
    if size == "K":
        with pytest.raises(ValueError, match=f"K must be .*got {bad!r}"):
            ArmSpec(kind, K=bad)
    # A numpy integer is an integer.
    inst = gen_instance(kind, d=np.int64(2), K=np.int64(3))
    assert sample_decision_set(inst, 1).shape == (3, 2)


# ---------------------------------------------------------------- schedules


def test_round_robin_pattern():
    sched = gen_schedule("round-robin", M=3, T=7)
    assert sched.agents.tolist() == [1, 2, 3, 1, 2, 3, 1]


def test_iid_uniform_covers_agents_and_reproduces():
    a = gen_schedule("iid-uniform", M=4, T=400, seed=9)
    b = gen_schedule("iid-uniform", M=4, T=400, seed=9)
    assert np.array_equal(a.agents, b.agents)
    assert set(a.agents.tolist()) == {1, 2, 3, 4}
    c = gen_schedule("iid-uniform", M=4, T=400, seed=10)
    assert not np.array_equal(a.agents, c.agents)


def test_block_schedule_contiguity():
    sched = gen_schedule("block", M=2, T=6)
    assert sched.agents.tolist() == [1, 1, 1, 2, 2, 2]
    with pytest.raises(ValueError):
        gen_schedule("block", M=4, T=6)


def test_explicit_schedule_and_validation():
    sched = Schedule(M=3, agents=[1, 3, 3, 2])
    assert sched.T == 4
    with pytest.raises(ValueError):
        Schedule(M=2, agents=[1, 3])
    with pytest.raises(ValueError):
        Schedule(M=2, agents=[0, 1])
    # An explicit sequence is a Schedule; gen_schedule only generates one.
    for kind in ("nope", "explicit-list"):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            gen_schedule(kind, M=2, T=4)
    # Sizes are checked before any arithmetic: M=0 must not reach "% M".
    for kind in ("round-robin", "iid-uniform", "block"):
        with pytest.raises(ValueError):
            gen_schedule(kind, M=0, T=4)
        with pytest.raises(ValueError):
            gen_schedule(kind, M=2, T=-1)
        with pytest.raises(ValueError):
            gen_schedule(kind, M=2)  # T missing
        with pytest.raises(ValueError, match="M must be an integer"):
            gen_schedule(kind, M=2.5, T=4)
        with pytest.raises(ValueError, match="T must be an integer"):
            gen_schedule(kind, M=2, T=2.5)


def test_schedule_dataclass_validation():
    with pytest.raises(ValueError, match="1-D"):
        Schedule(M=2, agents=np.array([[1, 2], [2, 1]]))
    with pytest.raises(ValueError):
        Schedule(M=0, agents=np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="outside 1..M"):
        Schedule(M=2, agents=[1, 3])
    # M is an integer too: 2.5 would fail later in arithmetic, True would pass as 1.
    for bad_M, agents in ((2.5, [1, 2]), (True, [1, 1]), ("2", [1, 2])):
        with pytest.raises(ValueError, match="M must be an integer"):
            Schedule(M=bad_M, agents=agents)
    empty = Schedule(M=2, agents=[])
    assert empty.T == 0 and empty.agents.dtype == np.int64
    sched = Schedule(M=3, agents=[2, 3, 1, 3])
    assert sched.T == len(sched.agents) == 4 and sched.agents.dtype == np.int64
    assert [f.name for f in dataclasses.fields(Schedule)] == ["M", "agents"]
    # The schedule owns a read-only copy: neither a later write to the
    # caller's array nor a pickled copy can change what runs.
    ids = np.array([1, 2, 1, 2])
    sched = Schedule(M=2, agents=ids)
    ids[0] = 7
    for copy in (sched, pickle.loads(pickle.dumps(sched))):
        assert copy.M == 2 and copy.agents.tolist() == [1, 2, 1, 2]
        assert copy.agents.dtype == np.int64 and not copy.agents.flags.writeable
        with pytest.raises(ValueError):
            copy.agents[0] = 2


@pytest.mark.parametrize("agents", [[1.5, 2.9, True], [1.0, 2.0], [True, False], ["1", "2"]])
def test_schedule_refuses_non_integer_ids(agents):
    # Truncating would run a schedule other than the one stated.
    with pytest.raises(ValueError, match="integers"):
        Schedule(M=3, agents=agents)


def test_episodic_groups_flatten_in_order():
    sched = Schedule.from_episodes([[1, 2], [3], [2, 1, 3]])
    assert sched.agents.tolist() == [1, 2, 3, 2, 1, 3]
    assert sched.M == 3  # inferred from the largest id


def test_episodic_rejects_duplicate_in_episode():
    with pytest.raises(ValueError, match="episode 1 activates an agent more than once"):
        Schedule.from_episodes([[1, 2, 1]])
    with pytest.raises(ValueError, match="outside 1..M"):
        Schedule.from_episodes([[1], [4]], M=3)


def test_episodic_refuses_non_integer_ids():
    for sets in ([[1.7, 2.2]], [["1"]], [[1, "2"]]):
        with pytest.raises(ValueError, match="integers"):
            Schedule.from_episodes(sets)


def test_episodic_empty_sets_are_idle_episodes():
    sched = Schedule.from_episodes([[], [1], [], [2]], M=2)
    assert sched.T == 2 and sched.agents.tolist() == [1, 2]
    empty = Schedule.from_episodes([], M=2)
    assert empty.T == 0 and empty.M == 2
    assert Schedule.from_episodes([]).M == 1


# ---------------------------------------------------------------- file loaders


def test_schedule_file_roundtrip(tmp_path):
    p = tmp_path / "sched.txt"
    p.write_text("# activation order\n1\n2\n\n 2  # repeat\n1\n", encoding="utf-8")
    sched = load_schedule_file(str(p), M=2)
    assert sched.agents.tolist() == [1, 2, 2, 1]
    assert sched.T == 4


def test_schedule_file_rejects_multi_token_line(tmp_path):
    p = tmp_path / "sched.txt"
    p.write_text("1 2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_schedule_file(str(p), M=2)


def test_schedule_file_rejects_out_of_range_id(tmp_path):
    p = tmp_path / "sched.txt"
    p.write_text("1\n5\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_schedule_file(str(p), M=2)


def test_arms_file_roundtrip(tmp_path):
    p = tmp_path / "arms.txt"
    p.write_text("# two arms\n3 0\n0 0.31622776601683794\n", encoding="utf-8")
    arms = load_arms_file(str(p))
    assert arms.shape == (2, 2)
    assert arms[0].tolist() == [3.0, 0.0]


def test_arms_file_rejects_ragged_and_empty(tmp_path):
    p = tmp_path / "arms.txt"
    p.write_text("1 0\n0 1 0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_arms_file(str(p))
    q = tmp_path / "empty.txt"
    q.write_text("# nothing here\n\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_arms_file(str(q))


def test_bad_tokens_name_their_file_and_line(tmp_path):
    # Line numbers count every line of the file, comments and blanks included.
    sched = tmp_path / "sched.txt"
    sched.write_text("# order\n1\n\n1.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(sched))}: line 4: .*'1\.5'"):
        load_schedule_file(str(sched), M=2)
    arms = tmp_path / "arms.txt"
    arms.write_text("0.1 0.2\n# comment\n0.3 abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(arms))}: line 3: .*'abc'"):
        load_arms_file(str(arms))
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("\n1 0\n0 1 0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(ragged))}: line 3 has 3 values"):
        load_arms_file(str(ragged))
