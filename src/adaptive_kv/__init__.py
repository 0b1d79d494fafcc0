"""Adaptive KV-cache compression with per-head attention profiling."""

from .attention import AttentionError, causal_attention
from .engine import (
    CompressedCache,
    EngineError,
    GenerationConfig,
    GenerationResult,
    GreedyArgmax,
    Nucleus,
    Sampler,
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
)
from .policies import (
    CompressionPolicy,
    PolicyAtom,
    PolicyError,
    feasible_set,
    format_policy,
    full_policy,
    parse_policy,
)
from .profiler import (
    HeadProfile,
    ProfilerConfig,
    RowAveraging,
    select_policy,
)
from .tokens import TokenAnnotation, TokenClass, VocabMetadata, classify_tokens
from .trace import (
    AttentionTrace,
    TraceDimensionError,
    TraceError,
    TraceHeaderError,
    TraceModel,
    TraceTruncatedError,
    read_trace,
    record_trace,
    write_trace,
)

__version__ = "0.1.0"
