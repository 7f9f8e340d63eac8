"""Instance generation, per-round draws, schedules, and file loaders.

The draw tests pin the counter-based keying: every random quantity must be a
pure function of (master_seed, round index), independent of call order.
"""

import dataclasses
import math

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
        sample_reward(inst, 0, np.array([0.1, 0.0]))


# ---------------------------------------------------------------- block-keyed draws


def _fixed_beta(**kw):
    return HyperParams(lam=1.0, alpha=0.25, delta=0.1, beta_value=1.0, **kw)


@pytest.mark.parametrize("kind", ["random-sphere", "hypercube-corners"])
def test_block_edges_serve_the_run_trace_arms(kind):
    inst = gen_instance(kind, d=3, K=4, seed=41)
    T = 2 * BLOCK + 40
    trace = run_fedlinucb(inst, gen_schedule("iid-uniform", M=3, T=T, seed=2), _fixed_beta())
    for t in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, T):
        environment._arm_block.cache_clear()  # redraw the block from its key
        arms = sample_decision_set(inst, t)
        assert np.array_equal(arms[trace.arm_index[t - 1]], trace.arms[t - 1])
        assert not np.array_equal(arms, sample_decision_set(inst, t + 1))


def test_shorter_run_is_a_prefix_of_the_longer():
    inst = gen_instance("random-sphere", d=3, K=5, seed=8)
    short = run_fedlinucb(inst, gen_schedule("round-robin", M=3, T=300), _fixed_beta())
    long = run_fedlinucb(inst, gen_schedule("round-robin", M=3, T=600), _fixed_beta())
    for col in ("t", "agent", "arm_index", "arms", "reward", "inst_regret", "comm",
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
    inst = gen_instance("random-sphere", d=2, K=2, seed=0)
    with pytest.raises(ValueError, match="exceeds stated bound"):
        sample_reward(inst, 1, np.array([bad, 0.0]))


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


@pytest.mark.parametrize("kind", ["random-sphere", "hypercube-corners"])
@pytest.mark.parametrize("T", [1, BLOCK, BLOCK + 1, 3 * BLOCK - 7])
def test_one_generator_per_block_and_stream(monkeypatch, kind, T):
    built = []
    keyed = environment._block_rng

    def counting(seed, stream, block):
        built.append((stream, block))
        return keyed(seed, stream, block)

    monkeypatch.setattr(environment, "_block_rng", counting)
    environment._arm_block.cache_clear()
    environment._noise_block.cache_clear()
    inst = gen_instance(kind, d=3, K=4, seed=17)
    run_fedlinucb(inst, gen_schedule("round-robin", M=2, T=T), _fixed_beta())
    for stream in ("arms", "noise"):
        blocks = [b for s, b in built if s == stream]
        assert len(blocks) <= math.ceil(T / BLOCK), stream
        assert sorted(set(blocks)) == list(range(math.ceil(T / BLOCK)))


def test_keyed_generator_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            gen_instance("random-sphere", d=2, K=2, seed=seed)
        with pytest.raises(ValueError):
            gen_schedule("iid-uniform", M=2, T=4, seed=seed)


# ---------------------------------------------------------------- rewards


def test_reward_noiseless_is_inner_product():
    inst = gen_instance("random-sphere", d=3, K=2, R=0.0, seed=4)
    x = np.array([0.2, -0.1, 0.05])
    assert sample_reward(inst, 7, x) == float(x @ inst.theta_star)


def test_reward_noise_keyed_by_round_only():
    inst = gen_instance("random-sphere", d=2, K=2, seed=21)
    x = np.array([0.5, 0.0])
    first = sample_reward(inst, 13, x)
    sample_reward(inst, 1, x)
    sample_reward(inst, 99, x)
    assert sample_reward(inst, 13, x) == first
    # Same round, different arm: noise identical, mean shifts.
    y = np.array([0.0, 0.5])
    eta = first - float(x @ inst.theta_star)
    assert sample_reward(inst, 13, y) == pytest.approx(float(y @ inst.theta_star) + eta, rel=1e-12)


def test_gaussian_noise_moments():
    inst = gen_instance("random-sphere", d=2, K=2, R=1.5, seed=33)
    etas = np.array(
        [sample_reward(inst, t, np.zeros(2)) for t in range(1, 4001)]
    )
    assert abs(etas.mean()) < 3 * 1.5 / math.sqrt(4000)
    assert etas.std() == pytest.approx(1.5, rel=0.05)


def test_scaled_coin_noise_frequency():
    inst = gen_instance("bias-demo", R=1.0, seed=8)
    etas = np.array([sample_reward(inst, t, np.zeros(2)) for t in range(1, 10001)])
    assert set(np.unique(etas)) == {-1.0, 1.0}
    assert abs((etas == 1.0).mean() - 0.5) < 0.02


def test_reward_rejects_oversized_arm():
    inst = gen_instance("random-sphere", d=2, K=2, L=1.0, seed=0)
    with pytest.raises(ValueError):
        sample_reward(inst, 1, np.array([1.5, 0.0]))
    with pytest.raises(ValueError):
        sample_reward(inst, 1, np.array([0.5, 0.0, 0.0]))


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


@pytest.mark.parametrize("agents", [[1.5, 2.9, True], [1.0, 2.0], [True, False], ["1", "2"]])
def test_schedule_refuses_non_integer_ids(agents):
    # Truncating would run a schedule other than the one stated.
    with pytest.raises(ValueError, match="integers"):
        Schedule(M=3, agents=agents)


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
