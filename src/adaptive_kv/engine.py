"""Dual-phase generation over a compressed KV cache.

Phase one streams the prompt pass head by head: it takes each head's
attention column sums and last row in ``BLOCK_ROWS``-row blocks, never
the P x P map, profiles the head once on them and compresses its cache
to the retained set the profiler chose. A fixed-policy baseline is the
same pass under a one-candidate family (``ProfilerConfig.fixed``). The
prompt is classified once; every head shares its class codes. Phase two
generates token by token: each step appends the incoming token's K/V
row, attends over the retained positions plus that row, folds the
attention row into the frequency bookkeeping, re-applies the frozen
policy to the grown cache, and finally samples the next token. Evicted
rows are dropped for good; re-application only ever selects among live
positions.

The unit of decode is a head group. Heads whose policy has no
``frequent`` atom and is the same policy share one group: their retained
set depends only on the token classes, ``prompt_len`` and
``current_len``, so it is the same set for every head in the group. A
``frequent`` head is a group of one, because its scores are its own.
A group holds its heads' K and V rows in ``(G, capacity, d)`` buffers
and one shared position buffer; rows ``[:, :n]`` are the live entries,
at positions ``pos[:n]`` in ascending order. A step writes the G new
rows at ``n``, attends all G queries over ``[:, :n+1]`` in one stacked
product, and compacts the whole group in place by one keep-mask, moving
only rows after the first evicted one. A ``full`` group only appends. A
full buffer grows by a fixed ``_GROW_ROWS`` chunk, never by doubling.
Per-position token classes and a frequent head's cumulative scores grow
the same way.

With diagnostics on, each step also measures every head's realised
recovery: the mass its full-history attention row puts on the retained
positions. A ``full`` head's compressed attend already is its
full-history attend, so its recovery is the sum of its own weights and
it keeps no extra keys. Other groups keep every key row so far in a
stacked shadow buffer and run the full-history softmax batched the same
way. ``reference_generate`` decodes all its heads as one ``full`` group,
through the same attend.
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
    full_policy,
    retained_mask,
)
from .profiler import HeadProfile, ProfilerConfig, select_policy
from .tokens import CLASS_CODE, TokenClass, classify_tokens

# The engine calls none of these; they stay bound here only because
# perfbench/tracer.py patches them by attribute.
from .policies import retained_indices, update_cumulative_scores  # noqa: F401
from .profiler import profile_model  # noqa: F401

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


def _weights(K: np.ndarray, Q: np.ndarray, m: int) -> np.ndarray:
    """Softmax of each query ``Q[g]`` against its key rows ``K[g, :m]``.

    One stacked product and a max-shifted softmax along each row; every
    row has the bits of ``softmax_vector((K[g, :m] @ Q[g]) / sqrt(d))``.
    """
    w = np.matmul(K[:, :m], Q[:, :, None])[..., 0]
    w /= np.sqrt(float(Q.shape[1]))
    w -= w.max(axis=1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=1, keepdims=True)
    return w


def _room(buf: np.ndarray, used: int, axis: int = 0) -> np.ndarray:
    """``buf``, or its first ``used`` entries along ``axis`` in a longer buffer."""
    if used < buf.shape[axis]:
        return buf
    shape = list(buf.shape)
    shape[axis] = used + _GROW_ROWS
    grown = np.empty(shape, dtype=buf.dtype)
    head = (slice(None),) * axis + (slice(used),)
    grown[head] = buf[head]
    return grown


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """``np.stack(rows)``, dropping each list entry once it is copied."""
    out = np.empty((len(rows), *rows[0].shape))
    for g in range(len(rows)):
        out[g] = rows[g]
        rows[g] = None
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass
class HeadGroup:
    """Heads decoded together over one retained position set.

    ``K`` and ``V`` are ``(G, capacity, d)``; ``[:, :n]`` are live, at the
    shared positions ``pos[:n]``. ``outputs`` holds each head's pending
    attention output and ``recovery`` its last realised recovery, both in
    ``keys`` order. ``scores`` is indexed by position; only a frequent
    group (always of one head) has it. With diagnostics, a group that is
    not ``full`` keeps every key row so far in ``shadow``, by position.
    """

    keys: tuple[tuple[int, int], ...]
    policy: CompressionPolicy
    K: np.ndarray
    V: np.ndarray
    pos: np.ndarray
    n: int
    outputs: np.ndarray
    recovery: np.ndarray
    scores: np.ndarray | None = None
    shadow: np.ndarray | None = None

    @property
    def live(self) -> np.ndarray:
        """Live positions, ascending: a view of ``pos[:n]``."""
        return self.pos[: self.n]

    def advance(
        self,
        model,
        pos: int,
        klass: TokenClass,
        prompt_len: int,
        codes: np.ndarray | None,
        diagnostics: bool,
    ):
        """Append position ``pos``, attend every head over it, re-apply the policy."""
        n = self.n
        m = n + 1
        self.K = K = _room(self.K, n, axis=1)
        self.V = V = _room(self.V, n, axis=1)
        self.pos = live = _room(self.pos, n)
        Q = np.empty((len(self.keys), K.shape[2]))
        for g, (layer, head) in enumerate(self.keys):
            K[g, n] = model.k_row(layer, head, pos, klass, prompt_len)
            V[g, n] = model.v_row(layer, head, pos)
            Q[g] = model.q_row(layer, head, pos, prompt_len)
        live[n] = pos
        attended = live[:m]
        w = _weights(K, Q, m)
        self.outputs = np.matmul(w[:, None, :], V[:, :m])[:, 0]

        if self.scores is not None:
            self.scores = scores = _room(self.scores, pos)
            scores[attended[:-1]] += w[0, :-1]
            scores[pos] = 0.0

        if diagnostics:
            if self.shadow is None:
                self.recovery = w.sum(axis=1)
            else:
                self.shadow = shadow = _room(self.shadow, pos, axis=1)
                shadow[:, pos] = K[:, n]
                full = _weights(shadow, Q, pos + 1)
                # ``take`` gives C order; ``full[:, attended]`` would be F
                # order, and its row sums would not be pairwise.
                self.recovery = np.take(full, attended, axis=1).sum(axis=1)

        if self.policy.is_full:
            self.n = m
            return
        keep = retained_mask(
            self.policy, attended, codes, self.scores, prompt_len, pos + 1
        )
        # Compact from the first evicted row on; rows before it stay put.
        first = m if keep.all() else int(keep.argmin())
        tail = keep[first:]
        self.n = first + int(np.count_nonzero(tail))
        if self.n > first:
            K[:, first : self.n] = K[:, first:m][:, tail]
            V[:, first : self.n] = V[:, first:m][:, tail]
            live[first : self.n] = live[first:m][tail]


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
    """Head-group compressed KV state owned by one generation session.

    ``codes`` holds the ``CLASS_CODE`` of each position in its first
    ``seq_len`` entries. ``grid`` is the ``(num_layers, num_heads)`` of the
    model the cache was encoded for; the groups hold every head of that
    grid once.
    """

    prompt_len: int
    seq_len: int
    codes: np.ndarray
    groups: list[HeadGroup]
    grid: tuple[int, int]
    profile: HeadProfile
    diagnostics: bool = False
    last_record: StepRecord | None = None
    # Each head with its group, in head_grid() order.
    members: list[tuple[tuple[int, int], HeadGroup]] = field(init=False, repr=False)
    # Per head_grid() slot, its row in the groups' outputs stacked in order.
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stacked = [(key, group) for group in self.groups for key in group.keys]
        self._order = np.array(
            sorted(range(len(stacked)), key=lambda i: stacked[i][0]), dtype=np.intp
        )
        self.members = [stacked[i] for i in self._order]

    def total_retained(self) -> int:
        return sum(group.n * len(group.keys) for group in self.groups)

    def outputs(self) -> np.ndarray:
        """Every head's pending output, concatenated in head_grid() order."""
        stacked = np.concatenate([group.outputs for group in self.groups])
        return stacked[self._order].reshape(-1)

    def recoveries(self) -> np.ndarray:
        """Every head's last realised recovery, in head_grid() order."""
        return np.concatenate([group.recovery for group in self.groups])[self._order]


def prompt_head_data(model, tokens: list[int], prompt_len: int | None = None):
    """Full-context pass, streamed one head at a time in ``head_grid()`` order.

    ``prompt_len`` defaults to the full token list; diagnostic callers
    re-encoding a prompt plus generated tokens pass the true prompt length
    so model rows and policy budgets stay anchored to it.

    Yields ``(key, K, V, stats, ctx)`` per head: its K/V rows, the
    ``PromptStats`` of its attention map (column sums and last row, from
    ``causal_attention``'s blocked pass) and the PolicyContext the
    profiler consumes, seeded with those column sums. Each head is
    computed when it is asked for. The tokens are classified once; every
    context shares one read-only ``codes`` array.
    """
    if not tokens:
        raise EngineError("empty prompt")
    cfg = model.config
    n = len(tokens)
    p = n if prompt_len is None else prompt_len
    if not 1 <= p <= n:
        raise EngineError(f"prompt_len {p} out of range for {n} tokens")
    klasses = [a.klass for a in classify_tokens(tokens, model.vocab)]
    codes = np.array([CLASS_CODE[k] for k in klasses], dtype=np.int8)
    codes.setflags(write=False)
    for layer, head in cfg.head_grid():
        K = np.array([model.k_row(layer, head, pos, klasses[pos], p) for pos in range(n)])
        V = np.array([model.v_row(layer, head, pos) for pos in range(n)])
        Q = np.array([model.q_row(layer, head, pos, p) for pos in range(n)])
        stats = causal_attention(Q, K, cfg.head_dim)
        ctx = PolicyContext(
            codes=codes, prompt_len=p, current_len=n, cumulative_scores=stats.colsum
        )
        yield (layer, head), K, V, stats, ctx


def _grid(model) -> tuple[int, int]:
    return model.config.num_layers, model.config.num_heads


def encode_prompt(
    model,
    prompt_tokens: list[int],
    profiler_cfg: ProfilerConfig,
    diagnostics: bool = True,
) -> tuple[HeadProfile, CompressedCache]:
    """Prompt encoding with one-shot profiling and cache compression.

    For every head, as the prompt pass streams it: select the head's
    policy on its attention statistics, keep the rows of the retained set
    the decision carries and the last query's output. Once
    the stream ends, the heads' rows are stacked into groups, each head's
    rows freed as they are copied in. The profile is immutable afterwards.
    """
    n = len(prompt_tokens)
    decisions = {}
    # Rows of each group's heads, by group: the policy, or a frequent head's key.
    pending: dict[object, dict] = {}
    for key, K, V, stats, ctx in prompt_head_data(model, prompt_tokens):
        decisions[key] = decision = select_policy(stats, ctx, profiler_cfg)
        policy, idx = decision.policy, decision.retained
        frequent = PolicyAtom.FREQUENT in policy.atoms
        rows = pending.setdefault(
            key if frequent else policy,
            {
                "policy": policy,
                # A copy: compaction moves positions within ``pos``.
                "pos": idx.copy(),
                "scores": ctx.cumulative_scores.copy() if frequent else None,
                "keys": [], "K": [], "V": [], "outputs": [], "recovery": [],
                "shadow": [] if diagnostics and not policy.is_full else None,
            },
        )
        rows["keys"].append(key)
        rows["K"].append(K[idx])
        rows["V"].append(V[idx])
        rows["outputs"].append(stats.last_row @ V)
        rows["recovery"].append(float(stats.last_row[idx].sum()) if idx.size else 0.0)
        if rows["shadow"] is not None:
            rows["shadow"].append(K)
        codes = ctx.codes  # one array, shared by every head's context

    groups = []
    for rows in pending.values():
        groups.append(
            HeadGroup(
                keys=tuple(rows["keys"]),
                policy=rows["policy"],
                K=_stack(rows["K"]),
                V=_stack(rows["V"]),
                pos=rows["pos"],
                n=rows["pos"].size,
                outputs=np.array(rows["outputs"]),
                recovery=np.array(rows["recovery"]),
                scores=rows["scores"],
                shadow=_stack(rows["shadow"]) if rows["shadow"] else None,
            )
        )

    profile = HeadProfile(decisions)
    cache = CompressedCache(
        prompt_len=n,
        seq_len=n,
        codes=codes,
        groups=groups,
        grid=_grid(model),
        profile=profile,
        diagnostics=diagnostics,
    )
    return profile, cache


def _check_cache(model, cache: CompressedCache):
    if _grid(model) != cache.grid:
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
    that row, cumulative scores are updated, and each group's frozen
    policy is re-applied to the grown context before sampling. The first
    step of a session passes ``last_token=None``: the prompt's final
    query already produced the pending outputs, so it only samples.
    """
    _check_cache(model, cache)
    if sampler is None or not isinstance(sampler, _Sampler):
        sampler = _Sampler(sampler if sampler is not None else GreedyArgmax())

    if last_token is not None:
        pos = cache.seq_len
        klass = model.vocab.classify_id(last_token)
        cache.codes = _room(cache.codes, pos)
        cache.codes[pos] = CLASS_CODE[klass]
        for group in cache.groups:
            group.advance(
                model, pos, klass, cache.prompt_len, cache.codes, cache.diagnostics
            )
        cache.seq_len = pos + 1

    next_token = sampler(model.head_logits(cache.outputs()))

    retained_positions = None
    if cache.diagnostics:
        frozen = {id(group): _frozen(group.live) for group in cache.groups}
        retained_positions = {key: frozen[id(group)] for key, group in cache.members}
    cache.last_record = StepRecord(
        step=cache.seq_len - cache.prompt_len + 1,
        token_id=next_token,
        head_retained={key: group.n for key, group in cache.members},
        total_cache_tokens=cache.total_retained(),
        mean_recovery=(
            float(np.mean(cache.recoveries())) if cache.diagnostics else None
        ),
        retained_positions=retained_positions,
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
    """Impose one policy on every head, H2O-style.

    This is ``generate`` with the one-candidate family
    ``ProfilerConfig.fixed(policy)``, so the profile still records each
    head's recovery and cost under that policy.
    """
    cfg = ProfilerConfig.fixed(policy)
    return generate(model, prompt_tokens, cfg, gen_cfg, diagnostics=diagnostics)


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

    All heads decode as one ``full`` group, which only appends, so no
    policy or eviction machinery runs and compressed runs can be checked
    against it.
    """
    n = len(prompt_tokens)
    keys = tuple(model.config.head_grid())
    # Sized for the whole run, so the buffers never grow; each head's rows
    # are copied in as the prompt pass streams them.
    shape = (len(keys), n + max(gen_cfg.max_new_tokens - 1, 0), model.config.head_dim)
    K_all, V_all = np.empty(shape), np.empty(shape)
    outputs = np.empty((len(keys), shape[2]))
    for g, (_, K, V, stats, ctx) in enumerate(prompt_head_data(model, prompt_tokens)):
        K_all[g, :n] = K
        V_all[g, :n] = V
        outputs[g] = stats.last_row @ V
        codes = ctx.codes
    group = HeadGroup(
        keys=keys,
        policy=full_policy(),
        K=K_all,
        V=V_all,
        pos=np.arange(shape[1]),
        n=n,
        outputs=outputs,
        recovery=np.ones(len(keys)),
    )
    cache = CompressedCache(
        prompt_len=n,
        seq_len=n,
        codes=codes,
        groups=[group],
        grid=_grid(model),
        profile=HeadProfile({}),
    )

    sampler = _Sampler(gen_cfg.sampling)
    tokens: list[int] = []
    records: list[StepRecord] = []
    vocab = model.vocab
    last: int | None = None
    for step in range(1, gen_cfg.max_new_tokens + 1):
        if last is not None:
            pos = cache.seq_len
            klass = vocab.classify_id(last)
            cache.codes = _room(cache.codes, pos)
            cache.codes[pos] = CLASS_CODE[klass]
            group.advance(model, pos, klass, n, None, diagnostics=False)
            cache.seq_len += 1
        token = sampler(model.head_logits(cache.outputs()))
        tokens.append(token)
        records.append(
            StepRecord(
                step=step,
                token_id=token,
                head_retained={k: cache.seq_len for k in keys},
                total_cache_tokens=cache.seq_len * len(keys),
                mean_recovery=1.0,
            )
        )
        last = token
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
