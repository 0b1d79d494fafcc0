"""Dual-phase generation over a compressed KV cache.

Rows are float32 and masses float64: ``_model_rows`` casts the model's K, V
and Q rows once as it reads them, logits and exponentials are float32, and
weights, column sums, scores, recoveries and outputs are float64.

Phase one streams the prompt pass head by head: it takes each head's
attention column sums and last row in ``BLOCK_ROWS``-row blocks, never
the P x P map, profiles the head once on them and compresses its cache
to the retained set the profiler chose. A fixed-policy baseline is the
same pass under a one-candidate family (``ProfilerConfig.fixed``). The
prompt is classified once; every head shares its class codes. Model rows
are read once per layer, one ``(P, H, d)`` block per role; each head gets
contiguous copies. Phase two generates token by token: each step reads
the incoming position's rows of every head with one ``(L, H, d)`` call per
role, appends each head's K/V row, attends over the retained positions
plus that row, folds the attention row into the frequency bookkeeping,
re-applies the frozen policy to the grown cache, and finally samples the
next token. Evicted rows are dropped for good; re-application only ever
selects among live positions.

The unit of decode is a head group: every head with one policy. A head
is addressed by one flat slot, ``layer * num_heads + head``, its index in
``head_grid()`` order, from the prompt stream through a step's model rows
to the step record. A group lists its heads' slots in ``slots`` and holds
their K and V rows in ``(G, capacity, d)`` buffers, and their positions
and a frequent group's cumulative scores in ``(G, capacity)`` ones, all in
that order; head g's ``n[g]`` live rows are ``[g, :n[g]]``, at ascending
positions ``pos[g, :n[g]]``. Heads without a ``frequent`` atom share one
retained set; a frequent head ranks by its own scores, so counts can
differ, and unequal counts attend head by head (see ``HeadGroup``). A
group of static atoms (``full``, ``special``, ``punct``) only appends, as
does a frequent group while its budget covers every old row; any other
step masks every head in one call and compacts by shifts: rows before a
head's first evicted row stay put, each later run of kept rows moves down
in one slice. ``generate`` sizes a group's buffers for the run; others
grow ``_GROW_ROWS`` rows at a time.

With diagnostics on, each step also measures every head's realised
recovery: the mass its full-history attention row puts on the retained
positions. A ``full`` head's compressed attend already is its
full-history attend, so its recovery is the sum of its own weights and
it keeps no extra keys. Other groups keep every key row so far in a
stacked shadow buffer and run the full-history softmax batched the same
way. ``reference_generate`` differs from ``generate`` only in its cache
build: one unprofiled ``full`` group, decoded through the same steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .attention import _exp_prefixes, _exp_rows, causal_attention, softmax_vector
from .policies import (
    CompressionPolicy,
    PolicyAtom,
    appended_counts,
    full_policy,
    newest_kept,
    retained_mask,
)
from .profiler import HeadDecision, ProfilerConfig, select_policy
from .tokens import classify_tokens

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
        if not self.temperature > 0.0:
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


class Sampler:
    """Next-token sampler; one serves every step of a session, RNG and all."""

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


# perfbench/run.py reads the sampler by this name.
_Sampler = Sampler


def _weights(
    K: np.ndarray, Q: np.ndarray, width: int, lengths: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of each query ``Q[g]`` against its key rows ``K[g, :width]``:
    float32 exponentials ``e`` and a column of float64 normalisers ``z``, the
    weights being ``e / z``. With ``lengths``, row g covers ``K[g,
    :lengths[g]]`` and is zero after; each head then takes its own product.
    Row g has the bits of ``e = np.exp(x - x.max())``, ``z =
    e.sum(dtype=np.float64)`` for ``x = (K[g, :m] @ Q[g]) / sqrt(d)``."""
    if lengths is not None:
        e = np.zeros((lengths.size, width), np.float32)
        for g, m in enumerate(lengths.tolist()):
            e[g, :m] = K[g, :m] @ Q[g]
        e /= float(np.sqrt(Q.shape[1]))
        return e, _exp_prefixes(e, lengths)
    e = np.matmul(K[:, :width], Q[:, :, None])[..., 0]
    e /= float(np.sqrt(Q.shape[1]))
    return e, _exp_rows(e, True)


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


def _stack(rows: list[np.ndarray], extra: int = 0) -> np.ndarray:
    """``rows`` stacked, ``extra`` longer than the longest, dropping each once copied."""
    out = np.empty(
        (len(rows), max(len(row) for row in rows) + extra, *rows[0].shape[1:]),
        dtype=rows[0].dtype,
    )
    for g in range(len(rows)):
        out[g, : len(rows[g])] = rows[g]
        rows[g] = None
    return out


@dataclass
class HeadGroup:
    """The heads of one policy, decoded together.

    Head g sits at grid slot ``slots[g]``. ``K`` and ``V`` are
    ``(G, capacity, d)`` and ``pos`` ``(G, capacity)``, C-contiguous; head
    g's live rows are ``[g, :n[g]]``, at positions ``pos[g, :n[g]]``.
    Unequal counts attend head by head: BLAS rounds a row differently with
    the product's length, so padding the stacked product would change bits.
    ``outputs`` holds each head's pending attention output and ``recovery``
    its last realised recovery. Only a frequent group has ``scores``,
    ``(G, capacity)`` beside the rows. With diagnostics, a group that is
    not ``full`` keeps every key row so far in ``shadow``, by position.
    """

    slots: np.ndarray
    policy: CompressionPolicy
    K: np.ndarray
    V: np.ndarray
    pos: np.ndarray
    n: np.ndarray
    outputs: np.ndarray
    recovery: np.ndarray
    scores: np.ndarray | None = None
    shadow: np.ndarray | None = None
    heads: np.ndarray = field(init=False, repr=False)  # arange(G)
    # Whether the policy keeps an incoming row of each class code whatever
    # the scores (``newest_kept``).
    newest: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.heads = np.arange(len(self.slots))
        self.newest = newest_kept(self.policy)

    def live(self, g: int) -> np.ndarray:
        """Head g's live positions, ascending: a view of ``pos[g, :n[g]]``."""
        return self.pos[g, : self.n[g]]

    def advance(
        self,
        new_rows: np.ndarray,
        pos: int,
        prompt_len: int,
        codes: np.ndarray,
        diagnostics: bool,
    ):
        """Append position ``pos``, attend every head over it, re-apply the policy.

        ``new_rows`` holds the model's K, V and Q rows at ``pos`` as
        ``(3, num_layers * num_heads, d)``; each head reads its own slot.
        ``codes`` holds the class codes of positions ``0..pos``.
        """
        n, heads = self.n, self.heads
        counts = n.tolist()
        width = max(counts) + 1
        # Per-head lengths when the counts differ, else None.
        ragged = None if min(counts) + 1 == width else n + 1
        if width > self.K.shape[1]:
            for name in ("K", "V", "pos", "scores"):
                if getattr(self, name) is not None:
                    setattr(self, name, _room(getattr(self, name), width - 1, axis=1))
        K, V, live, scores = self.K, self.V, self.pos, self.scores
        k, v, Q = new_rows[:, self.slots]
        K[heads, n] = k
        V[heads, n] = v
        live[heads, n] = pos
        attended = live[:, :width]
        if ragged is not None:
            # Padding past a head's rows reads the new position, so every
            # entry is a valid position below ``pos + 1``.
            visible = np.arange(width) < ragged[:, None]
            attended = np.where(visible, attended, pos)
        e, z = _weights(K, Q, width, ragged)
        if ragged is None:
            out = np.matmul(e[:, None, :], V[:, :width])[:, 0]
        else:
            out = np.array([e[g, :m] @ V[g, :m] for g, m in enumerate(ragged)])
        self.outputs = out / z

        if scores is not None:
            # Weights are zero on the padding; the incoming row starts at zero.
            scores[:, :width] += e / z
            scores[heads, n] = 0.0

        if diagnostics:
            if self.shadow is None:
                # A full group's heads hold every position, so counts are equal.
                self.recovery = (e / z).sum(axis=1)
            else:
                self.shadow = shadow = _room(self.shadow, pos, axis=1)
                shadow[:, pos] = K[heads, n]
                e, z = _weights(shadow, Q, pos + 1)
                # C order, so each row sums pairwise, as ``row[:m].sum()``.
                taken = e[heads[:, None], attended] / z
                self.recovery = (
                    taken.sum(axis=1) if ragged is None
                    else np.add.reduce(taken, axis=1, where=visible, initial=0.0)
                )

        grown = appended_counts(self.policy, self.newest, n, width - 1, codes[pos], pos + 1)
        if grown is not None:
            self.n = grown
            return
        live_scores = None if scores is None else scores[:, :width]
        keep = retained_mask(
            self.policy, attended, codes, live_scores, prompt_len, pos + 1, ragged
        )
        self.n = np.count_nonzero(keep, axis=1)
        if (self.n - keep[heads, n] == n).all():
            return  # no old row evicted; an evicted incoming row lies past the live ones
        # Each run of kept rows moves down past the rows evicted before it, in one
        # 1-D slice per flat buffer (an overlapping 2-D slice copies via a temporary).
        # Run edges come from one pass over the mask with a False column each side.
        padded = np.zeros((heads.size, width + 2), dtype=bool)
        padded[:, 1:-1] = keep
        flat = padded.ravel()
        rows, edges = np.divmod(np.flatnonzero(flat[1:] != flat[:-1]), width + 2)
        rows, at, size = rows[::2], edges[::2], edges[1::2] - edges[::2]
        dest = np.cumsum(size) - size
        dest -= dest[np.searchsorted(rows, rows)]
        bufs = [(b.reshape(heads.size, -1), b[0, 0].size) for b in (K, V, live, scores)
                if b is not None]
        for g, a, m, t in zip(*(x[dest < at].tolist() for x in (rows, at, size, dest))):
            for buf, k in bufs:
                buf[g, t * k : (t + m) * k] = buf[g, a * k : (a + m) * k]


@dataclass
class StepRecord:
    step: int
    token_id: int
    head_retained: dict[tuple[int, int], int]
    total_cache_tokens: int
    mean_recovery: float | None


@dataclass
class CompressedCache:
    """Head-group compressed KV state owned by one generation session.

    ``codes`` holds the ``TokenClass`` code of each position in its first
    ``seq_len`` entries. ``grid`` is the ``(num_layers, num_heads)`` of the
    model the cache was encoded for; the groups hold every slot of that
    grid once.
    """

    prompt_len: int
    seq_len: int
    codes: np.ndarray
    groups: list[HeadGroup]
    grid: tuple[int, int]
    profile: dict[tuple[int, int], HeadDecision]
    diagnostics: bool = False
    last_record: StepRecord | None = None

    def _by_slot(self, name: str) -> np.ndarray:
        """Each group's ``name`` rows scattered to their slots, in head_grid() order."""
        first = getattr(self.groups[0], name)
        out = np.empty((self.grid[0] * self.grid[1], *first.shape[1:]), first.dtype)
        for group in self.groups:
            out[group.slots] = getattr(group, name)
        return out

    def head_retained(self) -> dict[tuple[int, int], int]:
        counts = self._by_slot("n").tolist()
        return {divmod(slot, self.grid[1]): m for slot, m in enumerate(counts)}

    def outputs(self) -> np.ndarray:
        """Every head's pending output, concatenated in head_grid() order."""
        return self._by_slot("outputs").reshape(-1)

    def recoveries(self) -> np.ndarray:
        """Every head's last realised recovery, in head_grid() order."""
        return self._by_slot("recovery")


def prompt_head_data(model, tokens: list[int], prompt_len: int | None = None):
    """Full-context pass, streamed one head at a time in ``head_grid()`` order.

    Each layer's K, V and Q rows are read as one ``(n, H, d)`` block per
    role, held while that layer's heads stream.

    ``prompt_len`` defaults to the full token list; diagnostic callers
    re-encoding a prompt plus generated tokens pass the true prompt length
    so model rows and policy budgets stay anchored to it.

    Yields ``(key, K, V, stats, codes)`` per head: its K/V rows, the
    ``PromptStats`` of its attention map (column sums and last row, from
    ``causal_attention``'s blocked pass) and the tokens' class codes. Each
    head's attention is computed when it is asked for. The tokens are
    classified once; every head shares one read-only ``codes`` array.
    """
    if not tokens:
        raise EngineError("empty prompt")
    cfg = model.config
    n = len(tokens)
    p = n if prompt_len is None else prompt_len
    if not 1 <= p <= n:
        raise EngineError(f"prompt_len {p} out of range for {n} tokens")
    codes = np.array([a.klass for a in classify_tokens(tokens, model.vocab)], np.int8)
    codes.setflags(write=False)
    heads, at = np.arange(cfg.num_heads), np.arange(n)[:, None]
    for layer in range(cfg.num_layers):
        # One (n, H, d) block per role; each head gets contiguous copies.
        blocks = _model_rows(model, layer, heads, at, codes[:, None], p)
        for head in range(cfg.num_heads):
            K, V, Q = (np.ascontiguousarray(block[:, head]) for block in blocks)
            yield (layer, head), K, V, causal_attention(Q, K, cfg.head_dim), codes
        del blocks  # so that one layer's blocks are alive at a time


def _grid(model) -> tuple[int, int]:
    return model.config.num_layers, model.config.num_heads


def encode_prompt(
    model,
    prompt_tokens: list[int],
    profiler_cfg: ProfilerConfig,
    diagnostics: bool = True,
    reserve: int = 0,
) -> tuple[dict[tuple[int, int], HeadDecision], CompressedCache]:
    """Prompt encoding with one-shot profiling and cache compression.

    For every head, as the prompt pass streams it: select the head's
    policy on its attention statistics, keep the rows of the retained set
    the decision carries and the last query's output. Once
    the stream ends, the heads' rows are stacked into groups, each head's
    rows freed as they are copied in. The profile maps each head's
    ``(layer, head)`` to its decision, in ``head_grid()`` order.
    Each group holds ``reserve`` spare rows, for that many decode appends.
    """
    n = len(prompt_tokens)
    decisions = {}
    # Rows of each group's heads, by policy.
    pending: dict[CompressionPolicy, dict] = {}
    stream = prompt_head_data(model, prompt_tokens)
    for slot, (key, K, V, stats, codes) in enumerate(stream):
        decisions[key] = decision = select_policy(stats, codes, n, profiler_cfg)
        policy, idx = decision.policy, decision.retained
        rows = pending.setdefault(
            policy,
            {
                "slots": [], "K": [], "V": [], "pos": [], "outputs": [], "recovery": [],
                "scores": [] if PolicyAtom.FREQUENT in policy.atoms else None,
                "shadow": [] if diagnostics and not policy.is_full else None,
            },
        )
        rows["slots"].append(slot)
        rows["K"].append(K[idx])
        rows["V"].append(V[idx])
        rows["pos"].append(idx)
        rows["outputs"].append(stats.last_row @ V)
        rows["recovery"].append(float(stats.last_row[idx].sum()))
        if rows["scores"] is not None:
            rows["scores"].append(stats.colsum[idx])
        if rows["shadow"] is not None:
            rows["shadow"].append(K)

    groups = []
    for policy, rows in pending.items():
        groups.append(
            HeadGroup(
                slots=np.array(rows["slots"]),
                policy=policy,
                K=_stack(rows["K"], reserve),
                V=_stack(rows["V"], reserve),
                n=np.array([idx.size for idx in rows["pos"]]),
                # Stacking copies: compaction moves positions within ``pos``.
                pos=_stack(rows["pos"], reserve),
                outputs=np.array(rows["outputs"]),
                recovery=np.array(rows["recovery"]),
                scores=_stack(rows["scores"], reserve) if rows["scores"] else None,
                shadow=_stack(rows["shadow"], reserve) if rows["shadow"] else None,
            )
        )

    cache = CompressedCache(
        prompt_len=n,
        seq_len=n,
        codes=codes,
        groups=groups,
        grid=_grid(model),
        profile=decisions,
        diagnostics=diagnostics,
    )
    return decisions, cache


def _model_rows(model, layer, head, pos, code, prompt_len: int) -> np.ndarray:
    """The K, V and Q rows at broadcast ``layer``, ``head`` and ``pos``, one model
    call per role, as one float32 ``(3, *shape, d)`` array. A row not finite in
    float32 (an entry past its range) is an ``EngineError``, not NaN weights."""
    with np.errstate(over="ignore"):
        rows = np.array([model.k_row(layer, head, pos, code, prompt_len),
                         model.v_row(layer, head, pos),
                         model.q_row(layer, head, pos, prompt_len)], np.float32)
    if not np.isfinite(rows).all():
        role, *at = np.argwhere(~np.isfinite(rows))[0, :-1]
        layer, head, pos = (np.broadcast_to(x, rows.shape[1:-1])[tuple(at)]
                            for x in (layer, head, pos))
        raise EngineError(f"{'KVQ'[role]} row at layer {layer}, head {head}, "
                          f"position {pos} is not finite in float32")
    return rows


def generate_step(
    model,
    cache: CompressedCache,
    last_token: int | None = None,
    sampler: Sampler | None = None,
) -> tuple[int, CompressedCache]:
    """Advance one decoding step and sample the next token.

    When ``last_token`` is given, its K/V row joins every head's cache at
    the next position, attention runs over the retained positions plus
    that row, cumulative scores are updated, and each group's frozen
    policy is re-applied to the grown context before sampling. The first
    step of a session passes ``last_token=None``: the prompt's final
    query already produced the pending outputs, so it only samples.
    A session passes one ``sampler`` to every step; ``None`` is greedy.
    """
    if _grid(model) != cache.grid:
        raise EngineError("cache/profile mismatch: head grid does not match the model")
    if sampler is None:
        sampler = Sampler(GreedyArgmax())
    elif not isinstance(sampler, Sampler):
        raise EngineError(f"sampler must be a Sampler or None, got {sampler!r}")

    if last_token is not None:
        pos = cache.seq_len
        klass = model.vocab.classify_id(last_token)
        # Read before any group advances, so that a failed read changes nothing.
        layers, heads = (np.arange(m) for m in cache.grid)
        new_rows = _model_rows(model, layers[:, None], heads, pos, klass, cache.prompt_len)
        new_rows = new_rows.reshape(3, layers.size * heads.size, -1)
        cache.codes = _room(cache.codes, pos)
        cache.codes[pos] = klass
        for group in cache.groups:
            group.advance(new_rows, pos, cache.prompt_len, cache.codes, cache.diagnostics)
        cache.seq_len = pos + 1

    next_token = sampler(model.head_logits(cache.outputs()))

    retained = cache.head_retained()
    cache.last_record = StepRecord(
        step=cache.seq_len - cache.prompt_len + 1,
        token_id=next_token,
        head_retained=retained,
        total_cache_tokens=sum(retained.values()),
        mean_recovery=(
            float(np.mean(cache.recoveries())) if cache.diagnostics else None
        ),
    )
    return next_token, cache


@dataclass
class GenerationResult:
    tokens: list[int]
    profile: dict[tuple[int, int], HeadDecision]
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
    reserve = max(gen_cfg.max_new_tokens - 1, 0)  # the first step appends no row
    _, cache = encode_prompt(model, prompt_tokens, profiler_cfg, diagnostics, reserve)
    return _run_decode(model, cache, gen_cfg)


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
    model, cache: CompressedCache, gen_cfg: GenerationConfig
) -> GenerationResult:
    sampler = Sampler(gen_cfg.sampling)
    tokens: list[int] = []
    records: list[StepRecord] = []
    token = None
    for _ in range(gen_cfg.max_new_tokens):
        token, cache = generate_step(model, cache, token, sampler)
        tokens.append(token)
        records.append(cache.last_record)
    return GenerationResult(tokens, cache.profile, records, cache)


def reference_generate(
    model, prompt_tokens: list[int], gen_cfg: GenerationConfig
) -> GenerationResult:
    """Uncompressed baseline engine: every position stays cached forever.

    It differs from ``generate`` only in its cache build: one unprofiled
    ``full`` group sized for the whole run, decoded through the same steps.
    """
    n = len(prompt_tokens)
    slots = np.arange(model.config.num_layers * model.config.num_heads)
    # Sized for the whole run, so the buffers never grow; each head's rows
    # are copied in as the prompt pass streams them.
    shape = (slots.size, n + max(gen_cfg.max_new_tokens - 1, 0), model.config.head_dim)
    K_all, V_all = np.empty(shape, np.float32), np.empty(shape, np.float32)
    outputs = np.empty((slots.size, shape[2]))
    for g, (_, K, V, stats, codes) in enumerate(prompt_head_data(model, prompt_tokens)):
        K_all[g, :n] = K
        V_all[g, :n] = V
        outputs[g] = stats.last_row @ V
    group = HeadGroup(
        slots=slots,
        policy=full_policy(),
        K=K_all,
        V=V_all,
        pos=np.tile(np.arange(shape[1]), (slots.size, 1)),
        n=np.full(slots.size, n),
        outputs=outputs,
        recovery=np.ones(slots.size),
    )
    cache = CompressedCache(
        prompt_len=n,
        seq_len=n,
        codes=codes,
        groups=[group],
        grid=_grid(model),
        profile={},
    )
    return _run_decode(model, cache, gen_cfg)


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
