"""Adaptive KV-cache compression with per-head attention profiling."""

from .attention import AttentionError, AttentionMap, causal_attention, softmax_rows
from .engine import (
    CompressedCache,
    EngineError,
    GenerationConfig,
    GenerationResult,
    GreedyArgmax,
    Nucleus,
    encode_prompt,
    generate,
    generate_fixed_baseline,
    generate_step,
    reference_generate,
)
from .metrics import (
    MemoryModel,
    TradeoffPoint,
    compare_adaptive_vs_fixed,
    consistency_report,
    full_cache_bytes,
    layer_distribution_report,
    pruned_ratio,
    sidecar_overhead_fraction,
    tradeoff_curve,
)
from .model import (
    Archetype,
    HeadPlan,
    ModelConfig,
    ModelError,
    SyntheticModel,
    synth_model,
)
from .policies import (
    CompressionPolicy,
    PolicyAtom,
    PolicyContext,
    PolicyError,
    feasible_set,
    format_policy,
    full_policy,
    parse_policy,
    retained_indices,
    update_cumulative_scores,
)
from .profiler import (
    HeadProfile,
    ProfilerConfig,
    RowAveraging,
    SelectionCriterion,
    profile_model,
    recovery_ratio,
    select_policy,
)
from .tokens import TokenAnnotation, TokenClass, VocabMetadata, classify_tokens
from .trace import (
    AttentionTrace,
    TraceBlock,
    TraceDimensionError,
    TraceError,
    TraceHeaderError,
    TraceModel,
    TraceTruncatedError,
    read_trace,
    record_trace,
    write_trace,
    write_trace_ndjson,
)

__version__ = "0.1.0"
