"""Dual-phase generation over a compressed KV cache.

Phase one encodes the prompt, profiles every head once, and compresses
each head's cache under its chosen policy. Phase two generates token by
token: each step appends the incoming token's K/V row, attends over the
retained positions plus that row, folds the attention row into the
frequency bookkeeping, re-applies the head's frozen policy to the grown
cache, and finally samples the next token. Evicted rows are dropped for
good; re-application only ever selects among live positions.

Each head keeps preallocated float64 K/V row buffers and an int position
buffer; rows ``[:n]`` are the live entries in ascending position order.
A step writes the new row at ``n``, attends over ``[:n+1]``, and compacts
those rows in place by the policy's keep-mask, moving only rows after
the first evicted one. A full buffer grows by a fixed ``_GROW_ROWS``
chunk, never by doubling. Per-position token classes, frequent heads'
cumulative scores and the diagnostics key history grow the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .attention import causal_attention, softmax_vector
from .policies import (
    CompressionPolicy,
    PolicyAtom,
    PolicyContext,
    retained_indices,
    retained_mask,
    # Decode folds scores in place; the name stays bound here because
    # perfbench/tracer.py patches it by attribute.
    update_cumulative_scores,  # noqa: F401
)
from .profiler import HeadProfile, ProfilerConfig, evaluate_policy, profile_model
from .tokens import CLASS_CODE, TokenAnnotation, class_codes, classify_tokens

# Rows added to a full cache buffer at a time.
_GROW_ROWS = 64


class EngineError(ValueError):
    """Raised on invalid generation state or configuration."""


@dataclass(frozen=True)
class GreedyArgmax:
    pass


@dataclass(frozen=True)
class Nucleus:
    temperature: float = 0.6
    top_p: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise EngineError(f"temperature must be > 0, got {self.temperature}")
        if not 0.0 < self.top_p <= 1.0:
            raise EngineError(f"top_p must be in (0, 1], got {self.top_p}")


@dataclass(frozen=True)
class GenerationConfig:
    max_new_tokens: int
    sampling: GreedyArgmax | Nucleus = field(default_factory=GreedyArgmax)

    def __post_init__(self):
        if self.max_new_tokens < 0:
            raise EngineError("max_new_tokens must be >= 0")


class _Sampler:
    def __init__(self, sampling: GreedyArgmax | Nucleus):
        self.sampling = sampling
        self._rng = (
            np.random.Generator(np.random.PCG64(sampling.seed))
            if isinstance(sampling, Nucleus)
            else None
        )

    def __call__(self, logits: np.ndarray) -> int:
        if isinstance(self.sampling, GreedyArgmax):
            return int(np.argmax(logits))
        probs = softmax_vector(logits / self.sampling.temperature)
        order = np.argsort(-probs, kind="stable")
        cum = np.cumsum(probs[order])
        cut = int(np.searchsorted(cum, self.sampling.top_p, side="left"))
        cut = min(cut, probs.size - 1)
        kept = order[: cut + 1]
        weights = probs[kept] / probs[kept].sum()
        return int(self._rng.choice(kept, p=weights))


def _attend_row(q, K, V, d_k: int) -> tuple[np.ndarray, np.ndarray]:
    """One query against a stack of key/value rows; weights sum to 1."""
    logits = (K @ q) / np.sqrt(float(d_k))
    weights = softmax_vector(logits)
    return weights, weights @ V


def _room(buf: np.ndarray, used: int) -> np.ndarray:
    """``buf``, or its first ``used`` rows in a longer buffer if it is full."""
    if used < buf.shape[0]:
        return buf
    grown = np.empty((used + _GROW_ROWS, *buf.shape[1:]), dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass
class HeadCacheState:
    """One head's cache: rows ``[:n]`` of ``K``, ``V`` and ``pos`` are live.

    ``scores`` is indexed by position; only frequent policies have it.
    """

    policy: CompressionPolicy
    K: np.ndarray
    V: np.ndarray
    pos: np.ndarray
    n: int
    scores: np.ndarray | None
    pending_output: np.ndarray
    last_row_recovery: float

    @property
    def live(self) -> np.ndarray:
        """Live positions, ascending: a view of ``pos[:n]``."""
        return self.pos[: self.n]


@dataclass
class StepRecord:
    step: int
    token_id: int
    head_retained: dict[tuple[int, int], int]
    total_cache_tokens: int
    mean_recovery: float | None
    # Read-only copies of each head's live positions, with diagnostics.
    retained_positions: dict[tuple[int, int], np.ndarray] | None = None


@dataclass
class CompressedCache:
    """Per-head compressed KV state owned by one generation session.

    ``codes`` and, with diagnostics, ``shadow_keys`` (each head's key
    history) hold one row per position in their first ``seq_len`` rows.
    """

    prompt_len: int
    seq_len: int
    annotations: list[TokenAnnotation]
    codes: np.ndarray
    heads: dict[tuple[int, int], HeadCacheState]
    profile: HeadProfile
    diagnostics: bool = False
    shadow_keys: dict[tuple[int, int], np.ndarray] | None = None
    last_record: StepRecord | None = None

    def total_retained(self) -> int:
        return sum(state.n for state in self.heads.values())


def prompt_head_data(model, tokens: list[int], prompt_len: int | None = None):
    """Full-context pass: per-head (K, V, A) plus profiling inputs.

    ``prompt_len`` defaults to the full token list; diagnostic callers
    re-encoding a prompt plus generated tokens pass the true prompt length
    so model rows and policy budgets stay anchored to it.

    Returns (annotations, matrices, head_data) where matrices maps each
    (layer, head) to its (K, V, A-matrix) and head_data to the
    (AttentionMap, PolicyContext) pair the profiler consumes.
    """
    if not tokens:
        raise EngineError("empty prompt")
    cfg = model.config
    n = len(tokens)
    p = n if prompt_len is None else prompt_len
    if not 1 <= p <= n:
        raise EngineError(f"prompt_len {p} out of range for {n} tokens")
    annotations = classify_tokens(tokens, model.vocab)
    matrices: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    head_data = {}
    for layer, head in cfg.head_grid():
        K = np.array(
            [
                model.k_row(layer, head, pos, annotations[pos].klass, p)
                for pos in range(n)
            ]
        )
        V = np.array([model.v_row(layer, head, pos) for pos in range(n)])
        Q = np.array([model.q_row(layer, head, pos, p) for pos in range(n)])
        A = causal_attention(Q, K, cfg.head_dim)
        ctx = PolicyContext(
            annotations=tuple(annotations),
            prompt_len=p,
            current_len=n,
            cumulative_scores=A.matrix.sum(axis=0),
        )
        matrices[(layer, head)] = (K, V, A.matrix)
        head_data[(layer, head)] = (A, ctx)
    return annotations, matrices, head_data


def encode_prompt(
    model,
    prompt_tokens: list[int],
    profiler_cfg: ProfilerConfig | None,
    fixed_policy: CompressionPolicy | None = None,
    diagnostics: bool = True,
) -> tuple[HeadProfile, CompressedCache]:
    """Prompt encoding with one-shot profiling and cache compression.

    For every head: compute K, Q, V and the full attention map, select the
    head's policy (or impose ``fixed_policy``), and store the compressed
    rows. The profile is immutable afterwards.
    """
    if profiler_cfg is None and fixed_policy is None:
        raise EngineError("need a profiler config or a fixed policy")
    cfg = model.config
    n = len(prompt_tokens)
    annotations, full_rows, head_data = prompt_head_data(model, prompt_tokens)

    if fixed_policy is not None:
        decisions = {}
        for key, (A, ctx) in head_data.items():
            decisions[key] = evaluate_policy(A, ctx, fixed_policy)
        profile = HeadProfile(decisions)
    else:
        profile = profile_model(head_data, profiler_cfg, grid=cfg.head_grid())

    heads = {}
    shadow = {} if diagnostics else None
    for key, (K, V, A_matrix) in full_rows.items():
        _, ctx = head_data[key]
        policy = profile[key].policy
        idx = retained_indices(policy, ctx)
        scores = (
            ctx.cumulative_scores.copy()
            if PolicyAtom.FREQUENT in policy.atoms
            else None
        )
        last_row = A_matrix[n - 1]
        heads[key] = HeadCacheState(
            policy=policy,
            K=K[idx],
            V=V[idx],
            pos=idx,
            n=idx.size,
            scores=scores,
            pending_output=last_row @ V,
            last_row_recovery=float(last_row[idx].sum()) if idx.size else 0.0,
        )
        if diagnostics:
            shadow[key] = K

    cache = CompressedCache(
        prompt_len=n,
        seq_len=n,
        annotations=list(annotations),
        codes=class_codes(annotations, n),
        heads=heads,
        profile=profile,
        diagnostics=diagnostics,
        shadow_keys=shadow,
    )
    return profile, cache


def _check_cache(model, cache: CompressedCache):
    expected = set(model.config.head_grid())
    if set(cache.heads) != expected or set(cache.profile.decisions) != expected:
        raise EngineError(
            "cache/profile mismatch: head grid does not match the model"
        )


def generate_step(
    model,
    cache: CompressedCache,
    last_token: int | None = None,
    sampler: _Sampler | GreedyArgmax | Nucleus | None = None,
) -> tuple[int, CompressedCache]:
    """Advance one decoding step and sample the next token.

    When ``last_token`` is given, its K/V row joins every head's cache at
    the next position, attention runs over the retained positions plus
    that row, cumulative scores are updated, and the head's frozen policy
    is re-applied to the grown context before sampling. The first step of
    a session passes ``last_token=None``: the prompt's final query already
    produced the pending outputs, so it only samples.
    """
    _check_cache(model, cache)
    if sampler is None or not isinstance(sampler, _Sampler):
        sampler = _Sampler(sampler if sampler is not None else GreedyArgmax())

    recoveries: list[float] = []
    if last_token is not None:
        pos = cache.seq_len
        current_len = pos + 1
        klass = model.vocab.classify_id(last_token)
        cache.annotations.append(TokenAnnotation(pos, last_token, klass))
        cache.codes = _room(cache.codes, pos)
        cache.codes[pos] = CLASS_CODE[klass]
        prompt_len = cache.prompt_len
        d_k = model.config.head_dim
        for key, state in cache.heads.items():
            layer, head = key
            k_new = model.k_row(layer, head, pos, klass, prompt_len)
            v_new = model.v_row(layer, head, pos)
            q = model.q_row(layer, head, pos, prompt_len)
            n = state.n
            m = n + 1
            state.K = K = _room(state.K, n)
            state.V = V = _room(state.V, n)
            state.pos = rows_pos = _room(state.pos, n)
            K[n] = k_new
            V[n] = v_new
            rows_pos[n] = pos
            attended = rows_pos[:m]
            weights, state.pending_output = _attend_row(q, K[:m], V[:m], d_k)

            if state.scores is not None:
                state.scores = scores = _room(state.scores, pos)
                scores[attended[:-1]] += weights[:-1]
                scores[pos] = 0.0

            if cache.diagnostics:
                shadow = cache.shadow_keys[key] = _room(cache.shadow_keys[key], pos)
                shadow[pos] = k_new
                full_weights = softmax_vector(shadow[:current_len] @ q / np.sqrt(d_k))
                recovery = float(full_weights[attended].sum())
                state.last_row_recovery = recovery
                recoveries.append(recovery)

            keep = retained_mask(
                state.policy, attended, cache.codes, state.scores, prompt_len,
                current_len,
            )
            # Compact from the first evicted row on; rows before it stay put.
            first = m if keep.all() else int(keep.argmin())
            tail = keep[first:]
            state.n = first + int(np.count_nonzero(tail))
            if state.n > first:
                for buf in (K, V, rows_pos):
                    buf[first : state.n] = buf[first:m][tail]
        cache.seq_len = current_len
    elif cache.diagnostics:
        recoveries = [s.last_row_recovery for s in cache.heads.values()]

    concat = np.concatenate(
        [cache.heads[key].pending_output for key in sorted(cache.heads)]
    )
    next_token = sampler(model.head_logits(concat))

    cache.last_record = StepRecord(
        step=cache.seq_len - cache.prompt_len + 1,
        token_id=next_token,
        head_retained={k: s.n for k, s in cache.heads.items()},
        total_cache_tokens=cache.total_retained(),
        mean_recovery=float(np.mean(recoveries)) if recoveries else None,
        retained_positions=(
            {k: _frozen(s.live) for k, s in cache.heads.items()}
            if cache.diagnostics
            else None
        ),
    )
    return next_token, cache


@dataclass
class GenerationResult:
    tokens: list[int]
    profile: HeadProfile
    records: list[StepRecord]
    cache: CompressedCache


def generate(
    model,
    prompt_tokens: list[int],
    profiler_cfg: ProfilerConfig,
    gen_cfg: GenerationConfig,
    diagnostics: bool = True,
) -> GenerationResult:
    """Encode the prompt once, then run max_new_tokens decoding steps."""
    profile, cache = encode_prompt(
        model, prompt_tokens, profiler_cfg, diagnostics=diagnostics
    )
    return _run_decode(model, cache, profile, gen_cfg)


def generate_fixed_baseline(
    model,
    prompt_tokens: list[int],
    policy: CompressionPolicy,
    gen_cfg: GenerationConfig,
    diagnostics: bool = True,
) -> GenerationResult:
    """Impose one policy on every head, skipping profiling (H2O-style)."""
    profile, cache = encode_prompt(
        model, prompt_tokens, None, fixed_policy=policy, diagnostics=diagnostics
    )
    return _run_decode(model, cache, profile, gen_cfg)


def _run_decode(
    model, cache: CompressedCache, profile: HeadProfile, gen_cfg: GenerationConfig
) -> GenerationResult:
    sampler = _Sampler(gen_cfg.sampling)
    tokens: list[int] = []
    records: list[StepRecord] = []
    last: int | None = None
    for _ in range(gen_cfg.max_new_tokens):
        token, cache = generate_step(model, cache, last, sampler)
        tokens.append(token)
        records.append(cache.last_record)
        last = token
    return GenerationResult(tokens, profile, records, cache)


def reference_generate(
    model, prompt_tokens: list[int], gen_cfg: GenerationConfig
) -> GenerationResult:
    """Uncompressed baseline engine: every position stays cached forever.

    Kept free of any policy or eviction machinery so compressed runs can
    be checked against it.
    """
    cfg = model.config
    n = len(prompt_tokens)
    annotations, matrices, _ = prompt_head_data(model, prompt_tokens)
    # Per-head K/V rows ``[:seq_len]``, in buffers grown by ``_room``.
    keys = {key: K for key, (K, _, _) in matrices.items()}
    values = {key: V for key, (_, V, _) in matrices.items()}
    pending = {key: A[n - 1] @ V for key, (_, V, A) in matrices.items()}

    sampler = _Sampler(gen_cfg.sampling)
    tokens: list[int] = []
    records: list[StepRecord] = []
    vocab = model.vocab
    seq_len = n
    last: int | None = None
    for step in range(1, gen_cfg.max_new_tokens + 1):
        if last is not None:
            pos = seq_len
            klass = vocab.classify_id(last)
            annotations.append(TokenAnnotation(pos, last, klass))
            for key in keys:
                layer, head = key
                keys[key] = K = _room(keys[key], pos)
                values[key] = V = _room(values[key], pos)
                K[pos] = model.k_row(layer, head, pos, klass, n)
                V[pos] = model.v_row(layer, head, pos)
                q = model.q_row(layer, head, pos, n)
                m = pos + 1
                _, pending[key] = _attend_row(q, K[:m], V[:m], cfg.head_dim)
            seq_len += 1
        concat = np.concatenate([pending[key] for key in sorted(pending)])
        token = sampler(model.head_logits(concat))
        tokens.append(token)
        records.append(
            StepRecord(
                step=step,
                token_id=token,
                head_retained={k: seq_len for k in keys},
                total_cache_tokens=seq_len * len(keys),
                mean_recovery=1.0,
            )
        )
        last = token

    final_heads = {
        key: HeadCacheState(
            policy=CompressionPolicy(frozenset({PolicyAtom.FULL})),
            K=keys[key][:seq_len],
            V=values[key][:seq_len],
            pos=np.arange(seq_len),
            n=seq_len,
            scores=None,
            pending_output=pending[key],
            last_row_recovery=1.0,
        )
        for key in keys
    }
    cache = CompressedCache(
        prompt_len=n,
        seq_len=seq_len,
        annotations=annotations,
        codes=class_codes(annotations, seq_len),
        heads=final_heads,
        profile=HeadProfile({}),
        diagnostics=False,
    )
    return GenerationResult(tokens, HeadProfile({}), records, cache)


def records_to_ndjson(records: list[StepRecord], num_layers: int, num_heads: int) -> str:
    """One JSON object per step with retained counts in layer-major order."""
    lines = []
    for rec in records:
        grid = [
            [rec.head_retained[(layer, head)] for head in range(num_heads)]
            for layer in range(num_layers)
        ]
        lines.append(
            json.dumps(
                {
                    "step": rec.step,
                    "token_id": rec.token_id,
                    "head_retained": grid,
                    "total_cache_tokens": rec.total_cache_tokens,
                    "mean_recovery": rec.mean_recovery,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
