import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import mbdp.policy
from mbdp import BoxPushConfig, CompiledPolicy, DecPomdp, JointPolicy, build_mabc, build_tiger

settings.register_profile(
    "mbdp",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("mbdp")


def traced_peak_mb(call):
    """Peak traced allocation, in MB, while ``call`` runs (exceptions propagate)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def assert_same_tables(model, policy, reference):
    """``policy``'s tables equal those of ``reference``, a ``JointPolicy`` or per-agent trees."""
    if not isinstance(reference, JointPolicy):
        reference = JointPolicy(reference)
    want = CompiledPolicy(model, reference)
    for name in ("actions", "children"):
        got, expected = getattr(policy, name), getattr(want, name)
        assert len(got) == len(expected) == model.num_agents
        for mine, theirs in zip(got, expected):
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert a.dtype == np.int64
                np.testing.assert_array_equal(a, b)


def random_model(
    seed,
    num_states=3,
    action_counts=(2, 2),
    obs_counts=(2, 2),
    horizon=3,
    reward_span=(-1.0, 1.0),
):
    """Dense random model with Dirichlet-sampled stochastic rows."""
    rng = np.random.default_rng(seed)
    num_ja = int(np.prod(action_counts))
    num_jo = int(np.prod(obs_counts))
    transition = rng.dirichlet(np.ones(num_states), size=(num_ja, num_states))
    observation = rng.dirichlet(np.ones(num_jo), size=(num_ja, num_states))
    lo, hi = reward_span
    reward = rng.uniform(lo, hi, size=(num_ja, num_states, num_states))
    states = tuple(f"s{i}" for i in range(num_states))
    actions = tuple(tuple(f"a{i}{j}" for j in range(n)) for i, n in enumerate(action_counts))
    observations = tuple(tuple(f"o{i}{j}" for j in range(n)) for i, n in enumerate(obs_counts))
    return DecPomdp(
        states=states,
        actions=actions,
        observations=observations,
        transition=transition,
        observation=observation,
        reward=reward,
        initial_belief=rng.dirichlet(np.ones(num_states)),
        horizon=horizon,
        name=f"random-{seed}",
    )


def three_agent_model(horizon):
    """A random model with three agents of unequal action and observation counts."""
    return random_model(
        23, num_states=4, action_counts=(2, 3, 2), obs_counts=(2, 2, 3), horizon=horizon
    )


def dusty_model(negative, horizon=6):
    """A random model whose transitions put ``negative`` on state 0.

    A transition entry just below zero (validate tolerates it) makes
    beliefs carry negative dust, which every step must clip first.
    """
    model = random_model(5, num_states=3, horizon=horizon)
    transition = model.transition.copy()
    transition[:, :, 1] += transition[:, :, 0] - negative
    transition[:, :, 0] = negative
    model = replace(model, transition=transition)
    assert model.validate() == []
    return model


# box-pushing layouts that tests/test_benchmarks.py checks and
# scripts/output_digest.py digests
BOXPUSH_LAYOUTS = {
    "pinned": BoxPushConfig(
        starts=(((0, 0), "E"), ((3, 0), "N")),
        small_boxes=((3, 1),),
        goal_cells=((1, 2), (2, 2), (3, 2)),
        success_prob=0.75,
        step_reward=-0.2,
        bump_penalty=-1.0,
        small_goal_reward=5.0,
        large_goal_reward=50.0,
    ),
    # the large box and the small box each move short of a goal, and the
    # small box, pushed on to the grid's edge, then blocks
    "stepped": BoxPushConfig(
        width=4,
        height=3,
        starts=(((0, 0), "N"), ((1, 0), "N")),
        small_boxes=((2, 1),),
        large_box=((0, 1), (1, 1)),
        goal_cells=((2, 0), (3, 0), (2, 2), (3, 2)),
        success_prob=0.8,
        bump_penalty=-2.5,
    ),
    # agent 0's first push aims the box at the cell agent 1 steps into
    "overlap": BoxPushConfig(
        width=3,
        height=2,
        starts=(((0, 0), "E"), ((2, 1), "S")),
        small_boxes=((1, 0),),
        large_box=((0, 1), (1, 1)),
        goal_cells=(),
    ),
}


def table_digest(model):
    """SHA-256 of T, O, R, b0 and the state names, byte for byte."""
    h = hashlib.sha256()
    for table in (model.transition, model.observation, model.reward, model.initial_belief.probs):
        h.update(repr((table.dtype.str, table.shape)).encode())
        h.update(table.tobytes())
    h.update("\n".join(model.states).encode())
    return h.hexdigest()


@pytest.fixture(scope="session")
def tiger():
    return build_tiger(horizon=2)


@pytest.fixture(scope="session")
def mabc():
    return build_mabc(horizon=3)


@pytest.fixture
def shared_form(monkeypatch):
    """Makes ``serialize_policy`` write the shared-node form, whatever the policy's size."""
    monkeypatch.setattr(mbdp.policy, "INLINE_NODE_LIMIT", 0)


@pytest.fixture
def tiny():
    return random_model(7, num_states=2, action_counts=(2, 2), obs_counts=(2, 2), horizon=2)
