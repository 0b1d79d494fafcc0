"""Workload definitions and set-up for the decode benchmark.

Every workload shares one model shape: 4 layers x 8 heads, head_dim 32,
vocab 64, archetypes cycled over the heads, dominance 0.97. The model
seed, the continuation-token seed and the nucleus seed are derived from
the benchmark seed; the package only sees the generated inputs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from adaptive_kv import engine as akv_engine
from adaptive_kv import trace as akv_trace
from adaptive_kv.model import Archetype, ModelConfig, SyntheticModel, cycling_plan
from adaptive_kv.tokens import TokenAnnotation

NUM_LAYERS = 4
NUM_HEADS = 8
HEAD_DIM = 32
VOCAB_SIZE = 64
DOMINANCE = 0.97
# Ids below this are the default vocabulary's special and punctuation ids.
FIRST_WORD_ID = 5


@dataclass(frozen=True)
class Workload:
    name: str
    prompt_len: int
    steps: int
    replay: bool
    diagnostics: bool
    nucleus: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "synth-p256", 256, 128, replay=False, diagnostics=False, nucleus=False,
            why="cold SyntheticModel rows dominate a session; model-layer gains "
            "show here and replay workloads predict no change",
        ),
        Workload(
            "replay-p1024", 1024, 128, replay=True, diagnostics=False, nucleus=False,
            why="trace replay makes rows lookups, so prompt attention, policy "
            "re-application and cache compaction dominate",
        ),
        Workload(
            "diag-p512", 512, 128, replay=True, diagnostics=True, nucleus=True,
            why="diagnostics read a full shadow cache each step; the only workload "
            "with nucleus sampling and realized recovery",
        ),
    )
}


@dataclass(frozen=True)
class Seeds:
    model: int
    continuation: int
    nucleus: int

    @classmethod
    def from_bench_seed(cls, seed: int) -> "Seeds":
        model, continuation, nucleus = np.random.SeedSequence(seed).generate_state(3)
        return cls(int(model), int(continuation), int(nucleus))


def sampling_for(workload: Workload, seeds: Seeds):
    if workload.nucleus:
        return akv_engine.Nucleus(seed=seeds.nucleus)
    return akv_engine.GreedyArgmax()


def continuation_tokens(seed: int, count: int, vocab_size: int) -> list[int]:
    """Word ids only, so every recorded continuation row has class OTHER.

    Replay is teacher-forced: a recorded special or punctuation row would
    carry an indicator the engine's own annotations (from the tokens it
    samples) know nothing of, and policies would evict the mass it draws.
    """
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(FIRST_WORD_ID, vocab_size, size=count)]


def record_trace(model, prompt: list[int], continuation: list[int], tick=None):
    """Record every head's K/V/Q rows over prompt + continuation positions.

    ``tick`` is called once per head, for a timer that probes the host.
    """
    tokens = prompt + continuation
    prompt_len = len(prompt)
    annotations = [
        TokenAnnotation(pos, tid, model.vocab.classify_id(tid))
        for pos, tid in enumerate(tokens)
    ]
    blocks = {}
    for layer, head in model.config.head_grid():
        if tick is not None:
            tick()
        blocks[(layer, head)] = [
            akv_trace.TraceBlock(
                step=pos,
                k=model.k_row(layer, head, pos, annotations[pos].klass, prompt_len),
                v=model.v_row(layer, head, pos),
                q=model.q_row(layer, head, pos, prompt_len),
            )
            for pos in range(len(tokens))
        ]
    return akv_trace.AttentionTrace(model.config, annotations, blocks)


def synthetic_model(config: ModelConfig) -> SyntheticModel:
    return SyntheticModel(config, cycling_plan(config, list(Archetype)), DOMINANCE)


@dataclass
class Setup:
    model: object
    prompt: list[int]
    trace_bytes: int


def set_up(
    workload: Workload, seeds: Seeds, wrap_model=lambda m: m, tick=None
) -> Setup:
    """Build the workload's model and prompt; replay workloads round-trip a trace.

    ``wrap_model`` lets the traced run put its timing proxy around the
    synthetic model before any row is computed; ``tick`` goes to
    ``record_trace``.
    """
    config = ModelConfig(NUM_LAYERS, NUM_HEADS, HEAD_DIM, VOCAB_SIZE, seeds.model)
    model = wrap_model(synthetic_model(config))
    prompt = model.prompt_token_ids(workload.prompt_len)
    if not workload.replay:
        return Setup(model, prompt, 0)
    # A session of S steps appends rows for the first S - 1 sampled tokens.
    continuation = continuation_tokens(
        seeds.continuation, workload.steps - 1, VOCAB_SIZE
    )
    buf = io.BytesIO()
    akv_trace.write_trace(record_trace(model, prompt, continuation, tick), buf)
    data = buf.getvalue()
    replay = wrap_model(akv_trace.TraceModel(akv_trace.read_trace(io.BytesIO(data))))
    return Setup(replay, replay.prompt_token_ids(workload.prompt_len), len(data))
