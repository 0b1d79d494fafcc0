"""Row streams derived directly equal numpy's ``SeedSequence`` streams.

``SyntheticModel._rng`` builds no ``SeedSequence`` per row: it takes
numpy's pool once per key prefix and replays the mixing of the last key
word and ``generate_state``. The oracle here is the object it replaces,
``Generator(PCG64(SeedSequence(seed, spawn_key=key)))``, compared by bit
generator state and by draws.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kv.model import Archetype, ModelConfig, SyntheticModel
from adaptive_kv.tokens import TokenClass

SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32]),
    st.integers(0, 2**32).map(lambda k: 2**64 + k),
    st.integers(0, 2**32).map(lambda k: 2**160 + k),
)
ROLES = st.integers(0, 4)
IDS = st.integers(0, 2**31 - 1)
POSITIONS = st.integers(0, 4096)


def model_with_seed(seed: int, num_heads: int = 1) -> SyntheticModel:
    config = ModelConfig(num_layers=1, num_heads=num_heads, head_dim=16,
                         vocab_size=32, seed=seed)
    plan = {(0, h): list(Archetype)[h % 4] for h in range(num_heads)}
    return SyntheticModel(config, plan, dominance=0.97)


def oracle(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


class OracleModel(SyntheticModel):
    """The same model with every stream built through ``SeedSequence``."""

    def _rng(self, role: int, *key: int) -> np.random.Generator:
        return oracle(self.config.seed, (role, *key))


def assert_same_stream(got: np.random.Generator, want: np.random.Generator):
    assert got.bit_generator.state == want.bit_generator.state
    a, b = got.uniform(-1.0, 1.0, 32), want.uniform(-1.0, 1.0, 32)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(SEEDS, ROLES, IDS, IDS, POSITIONS)
def test_row_stream_matches_seed_sequence(seed, role, layer, head, pos):
    key = (role, layer, head, pos)
    assert_same_stream(model_with_seed(seed)._rng(*key), oracle(seed, key))


@settings(max_examples=50, deadline=None)
@given(SEEDS, ROLES)
def test_role_only_stream_matches_seed_sequence(seed, role):
    assert_same_stream(model_with_seed(seed)._rng(role), oracle(seed, (role,)))


@settings(max_examples=50, deadline=None)
@given(SEEDS, st.lists(st.tuples(ROLES, IDS, IDS, POSITIONS), min_size=2, max_size=6))
def test_memoised_pools_do_not_leak_between_streams(seed, keys):
    model = model_with_seed(seed)
    for key in keys + keys[::-1]:
        assert_same_stream(model._rng(*key), oracle(seed, key))


def test_multi_word_key_entries_match_seed_sequence():
    model = model_with_seed(2**64 + 9)
    for key in ((0, 2**32, 1, 7), (2, 3, 2**40 + 1, 0), (1, 0, 0, 2**33 + 5)):
        assert_same_stream(model._rng(*key), oracle(2**64 + 9, key))


@settings(max_examples=20, deadline=None)
@given(SEEDS, st.integers(1, 200))
def test_rows_and_prompt_match_seed_sequence_model(seed, prompt_len):
    model = model_with_seed(seed, num_heads=4)
    ref = OracleModel(model.config, model.plan, model.dominance)
    assert model.prompt_token_ids(prompt_len) == ref.prompt_token_ids(prompt_len)
    pos = prompt_len - 1
    for head in range(4):
        pair = [
            (m.k_row(0, head, pos, TokenClass.OTHER, prompt_len),
             m.q_row(0, head, pos, prompt_len),
             m.v_row(0, head, pos))
            for m in (model, ref)
        ]
        for got, want in zip(*pair):
            assert got.tobytes() == want.tobytes()


def test_negative_seed_raises_value_error_without_hanging():
    # A word split that shifts a negative seed never ends and grows a list,
    # so the child runs under a timeout and a 1 GiB address-space cap.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from adaptive_kv.model import Archetype, ModelConfig, SyntheticModel\n"
        "m = SyntheticModel(ModelConfig(1, 1, 16, 32, -3),"
        " {(0, 0): Archetype.DIFFUSE}, 0.97)\n"
        "try:\n"
        "    m.v_row(0, 0, 0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=30, env=env, check=True,
    )
    assert done.stdout.strip() == "expected non-negative integer"
