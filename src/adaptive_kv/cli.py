"""Command-line entry point.

Subcommands: synth, profile, generate, report, memory. Every option can
also live in a key=value config file (INI sections); explicit flags win.
Artifacts land in a fresh run directory unless --out forces a path, and
re-running a command with the same config and seed overwrites them with
byte-identical content.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .engine import (
    GenerationConfig,
    GreedyArgmax,
    Nucleus,
    generate,
    generate_fixed_baseline,
    records_to_ndjson,
    reference_generate,
)
from .metrics import (
    WELL_KNOWN_SHAPES,
    MemoryModel,
    comparison_rows,
    compare_adaptive_vs_fixed,
    consistency_report,
    consistency_rows,
    full_cache_bytes,
    layer_distribution_report,
    layer_distribution_rows,
    rows_to_csv,
    rows_to_json,
    sidecar_overhead_fraction,
    stability_fraction,
    tradeoff_curve,
    tradeoff_rows,
    run_mean_recovery,
    run_pruned_ratio,
)
from .model import (
    Archetype,
    HeadPlan,
    ModelConfig,
    ModelError,
    SyntheticModel,
)
from .policies import PolicyAtom, PolicyError, feasible_set, parse_policy
from .profiler import (
    ProfilerConfig,
    RowAveraging,
    SelectionCriterion,
)
from .trace import TraceError, TraceModel, read_trace, record_trace, write_trace

logger = logging.getLogger("adaptive_kv")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


class CliError(Exception):
    """Fatal CLI problem; rendered as one line on stderr."""


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("AKV_LOG", "error").lower())
    if level is None:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_config_file(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise CliError(f"config parse error: {exc}") from exc
    return parser


class _Settings:
    """Flag values with config-file fallback: flags > file > defaults."""

    def __init__(self, args: argparse.Namespace, section: str):
        self.args = args
        self.file = configparser.ConfigParser()
        if getattr(args, "config", None):
            self.file = _read_config_file(args.config)
        self.section = section

    def get(self, key: str, default=None, cast=str, sections=None):
        flag = key.replace(".", "_").replace("-", "_")
        value = getattr(self.args, flag, None)
        if value is not None:
            return value
        for section in sections or (self.section, "global"):
            if self.file.has_option(section, key):
                raw = self.file.get(section, key)
                try:
                    return cast(raw) if cast is not bool else _parse_bool(raw)
                except ValueError as exc:
                    raise CliError(f"bad value for {section}.{key}: {raw!r}") from exc
        return default


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_head_key(raw: str) -> tuple[int, int]:
    parts = raw.split(".")
    if len(parts) != 2:
        raise CliError(f"parse error: bad head key {raw!r}, expected layer.head")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"parse error: bad head key {raw!r}") from None


def _parse_archetype_token(raw: str, where: str) -> HeadPlan:
    text = raw.strip()
    switch_to = None
    switch_step = None
    if "->" in text:
        base, _, rest = text.partition("->")
        target, _, at = rest.partition("@")
        if not at:
            raise CliError(
                f"parse error: phase switch {raw!r} at {where} needs '@step'"
            )
        try:
            switch_step = int(at)
        except ValueError:
            raise CliError(f"parse error: bad switch step {at!r} at {where}") from None
        text, switch_text = base.strip(), target.strip()
    try:
        archetype = Archetype(text)
    except ValueError:
        raise CliError(f"parse error: unknown archetype {text!r} at {where}") from None
    if "->" in raw:
        try:
            switch_to = Archetype(switch_text)
        except ValueError:
            raise CliError(
                f"parse error: unknown archetype {switch_text!r} at {where}"
            ) from None
        return HeadPlan(archetype, switch_to=switch_to, switch_step=switch_step)
    return HeadPlan(archetype)


def load_plan(path: str):
    """Parse a synthetic-model plan file into a model and run lengths."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise CliError(f"cannot read plan {path}: {exc}") from exc
    except configparser.Error as exc:
        raise CliError(f"plan parse error: {exc}") from exc
    if not parser.has_section("model"):
        raise CliError("plan parse error: missing [model] section")

    def model_int(key, default=None):
        if parser.has_option("model", key):
            try:
                return parser.getint("model", key)
            except ValueError:
                raise CliError(
                    f"plan parse error: bad integer for model.{key}"
                ) from None
        if default is None:
            raise CliError(f"plan parse error: missing model.{key}")
        return default

    config = ModelConfig(
        num_layers=model_int("num_layers"),
        num_heads=model_int("num_heads"),
        head_dim=model_int("head_dim"),
        vocab_size=model_int("vocab_size"),
        seed=model_int("seed"),
    )
    dominance = (
        parser.getfloat("model", "dominance")
        if parser.has_option("model", "dominance")
        else 0.97
    )
    prompt_len = model_int("prompt_len", 48)
    steps = model_int("steps", 0)
    frac = (
        parser.getfloat("model", "local_window_frac")
        if parser.has_option("model", "local_window_frac")
        else 0.3
    )
    max_context = model_int("max_context", 4096)

    if not parser.has_section("heads") or not parser.options("heads"):
        raise CliError("no heads defined")
    plan: dict[tuple[int, int], HeadPlan] = {}
    default_plan: HeadPlan | None = None
    for key in parser.options("heads"):
        token = parser.get("heads", key)
        if key == "default":
            default_plan = _parse_archetype_token(token, "heads.default")
            continue
        plan[_parse_head_key(key)] = _parse_archetype_token(token, f"heads.{key}")
    if default_plan is not None:
        for grid_key in config.head_grid():
            plan.setdefault(grid_key, default_plan)
    try:
        model = SyntheticModel(
            config,
            plan,
            dominance,
            local_window_frac=frac,
            max_context=max_context,
        )
    except ModelError as exc:
        raise CliError(str(exc)) from exc
    return model, prompt_len, steps


def _load_model(settings: _Settings):
    plan_path = settings.get("plan", sections=("model", "global"))
    trace_path = settings.get("trace", sections=("model", "global"))
    if (plan_path is None) == (trace_path is None):
        raise CliError("exactly one model source required: --plan or --trace")
    if plan_path is not None:
        model, plan_prompt_len, _ = load_plan(plan_path)
        prompt_len = settings.get(
            "prompt_len", plan_prompt_len, int, sections=("model", "global")
        )
        return model, prompt_len
    try:
        trace = read_trace(trace_path)
    except (TraceError, OSError) as exc:
        raise CliError(f"cannot read trace {trace_path}: {exc}") from exc
    model = TraceModel(trace)
    max_new = settings.get("max_new_tokens", 32, int, sections=("generate", "global"))
    default_prompt = max(1, len(trace.tokens) - max(max_new - 1, 0))
    prompt_len = settings.get(
        "prompt_len", default_prompt, int, sections=("model", "global")
    )
    return model, prompt_len


def _parse_feasible(spec: str, r_l: float, r_f: float):
    text = spec.strip()
    if text in ("", "default"):
        return feasible_set(r_l=r_l, r_f=r_f)
    kind, _, rest = text.partition(":")
    names = [t.strip() for t in rest.split(",") if t.strip()]
    try:
        atoms = [PolicyAtom(name) for name in names]
        if kind == "drop":
            return feasible_set(r_l=r_l, r_f=r_f, drop=atoms)
        if kind == "order":
            return feasible_set(r_l=r_l, r_f=r_f, atom_order=atoms)
    except ValueError as exc:
        raise CliError(f"bad --feasible spec: {exc}") from exc
    raise CliError(f"bad --feasible spec {spec!r}; use default, drop:..., or order:...")


def _profiler_config(settings: _Settings) -> ProfilerConfig:
    threshold = settings.get("threshold", 0.95, float, sections=("profiler", "global"))
    r_l = settings.get("r_l", 0.3, float, sections=("profiler", "global"))
    r_f = settings.get("r_f", 0.3, float, sections=("profiler", "global"))
    criterion = settings.get(
        "criterion", "recovery", str, sections=("profiler", "global")
    )
    rows = settings.get("rows", "all", str, sections=("profiler", "global"))
    feasible_spec = settings.get(
        "feasible", "default", str, sections=("profiler", "global")
    )
    try:
        return ProfilerConfig(
            recovery_threshold=threshold,
            feasible=tuple(_parse_feasible(feasible_spec, r_l, r_f)),
            criterion=SelectionCriterion(criterion),
            rows=RowAveraging(rows),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _generation_config(settings: _Settings) -> GenerationConfig:
    max_new = settings.get("max_new_tokens", 32, int, sections=("generate", "global"))
    sampling_name = settings.get(
        "sampling", "greedy", str, sections=("generate", "global")
    )
    if sampling_name == "greedy":
        sampling = GreedyArgmax()
    elif sampling_name == "nucleus":
        sampling = Nucleus(
            temperature=settings.get(
                "temperature", 0.6, float, sections=("generate", "global")
            ),
            top_p=settings.get("top_p", 0.9, float, sections=("generate", "global")),
            seed=settings.get("seed", 0, int, sections=("generate", "global")),
        )
    else:
        raise CliError(f"unknown sampling {sampling_name!r}; use greedy or nucleus")
    return GenerationConfig(max_new_tokens=max_new, sampling=sampling)


def _out_dir(settings: _Settings) -> Path:
    out = settings.get("out", None, str)
    if out is None:
        import time

        out = f"akv-run-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _write(path: Path, content: str):
    path.write_text(content, encoding="utf-8")
    logger.info("wrote %s", path)


def _emit_report(out: Path, name: str, columns, rows, fmt: str):
    if fmt == "json":
        _write(out / f"{name}.json", rows_to_json(name, columns, rows))
    else:
        _write(out / f"{name}.csv", rows_to_csv(columns, rows))


def cmd_synth(settings: _Settings) -> int:
    plan_path = settings.get("plan", sections=("model", "global"))
    if plan_path is None:
        raise CliError("synth requires --plan")
    model, prompt_len, steps = load_plan(plan_path)
    prompt_len = settings.get(
        "prompt_len", prompt_len, int, sections=("model", "global")
    )
    steps = settings.get("steps", steps, int, sections=("model", "global"))
    out = _out_dir(settings)
    prompt = model.prompt_token_ids(prompt_len)
    result = reference_generate(
        model, prompt, GenerationConfig(max_new_tokens=steps)
    )
    all_tokens = prompt + result.tokens[: max(0, steps - 1)]
    trace = record_trace(model, all_tokens, prompt_len)
    trace_path = out / "trace.akvt"
    write_trace(trace, trace_path)
    print(f"trace written: {trace_path} ({len(all_tokens)} positions)")
    return 0


def cmd_profile(settings: _Settings) -> int:
    model, prompt_len = _load_model(settings)
    cfg = _profiler_config(settings)
    out = _out_dir(settings)
    prompt = model.prompt_token_ids(prompt_len)
    from .engine import encode_prompt

    profile, _ = encode_prompt(model, prompt, cfg, diagnostics=False)
    fmt = settings.get("format", "csv", str)
    _write(out / "head_profile.csv", profile.to_csv())
    dist = layer_distribution_report(profile)
    columns, rows = layer_distribution_rows(dist)
    _emit_report(out, "layer_distribution", columns, rows, fmt)
    print(f"profiled {len(profile)} heads at T={cfg.recovery_threshold:g}")
    return 0


def cmd_generate(settings: _Settings) -> int:
    model, prompt_len = _load_model(settings)
    gen_cfg = _generation_config(settings)
    out = _out_dir(settings)
    prompt = model.prompt_token_ids(prompt_len)
    policy_text = settings.get("policy", None, str, sections=("generate", "global"))
    if policy_text is not None:
        try:
            policy = parse_policy(policy_text)
        except PolicyError as exc:
            raise CliError(str(exc)) from exc
        result = generate_fixed_baseline(model, prompt, policy, gen_cfg)
    else:
        cfg = _profiler_config(settings)
        result = generate(model, prompt, cfg, gen_cfg)
    fmt = settings.get("format", "csv", str)
    _write(out / "head_profile.csv", result.profile.to_csv())
    _write(
        out / "diagnostics.ndjson",
        records_to_ndjson(
            result.records, model.config.num_layers, model.config.num_heads
        ),
    )
    _write(out / "tokens.txt", " ".join(str(t) for t in result.tokens) + "\n")
    summary_cols = ["pruned_ratio", "mean_recovery", "tokens_generated"]
    if result.records:
        summary = [
            [
                run_pruned_ratio(result, prompt_len),
                run_mean_recovery(result),
                len(result.tokens),
            ]
        ]
    else:
        summary = [[0.0, 1.0, 0]]
    _emit_report(out, "summary", summary_cols, summary, fmt)
    print(
        f"generated {len(result.tokens)} tokens; "
        f"pruned_ratio={summary[0][0]:.4f} mean_recovery={summary[0][1]:.4f}"
    )
    return 0


def cmd_report(settings: _Settings) -> int:
    model, prompt_len = _load_model(settings)
    out = _out_dir(settings)
    fmt = settings.get("format", "csv", str)
    prompt = model.prompt_token_ids(prompt_len)
    cfg = _profiler_config(settings)
    wrote_any = False

    tradeoff_spec = settings.get("tradeoff", None, str, sections=("report", "global"))
    if tradeoff_spec:
        try:
            T_values = [float(t) for t in tradeoff_spec.split(",") if t.strip()]
        except ValueError:
            raise CliError(f"bad --tradeoff list {tradeoff_spec!r}") from None
        points = tradeoff_curve(model, prompt, T_values, base_cfg=cfg)
        columns, rows = tradeoff_rows(points)
        _emit_report(out, "tradeoff", columns, rows, fmt)
        wrote_any = True

    consistency_spec = settings.get(
        "consistency", None, str, sections=("report", "global")
    )
    if consistency_spec:
        try:
            steps = [int(s) for s in consistency_spec.split(",") if s.strip()]
        except ValueError:
            raise CliError(f"bad --consistency list {consistency_spec!r}") from None
        entries = consistency_report(model, prompt, steps, cfg)
        columns, rows = consistency_rows(entries)
        _emit_report(out, "consistency", columns, rows, fmt)
        print(f"profile stability: {stability_fraction(entries):.4f}")
        wrote_any = True

    compare_spec = settings.get("compare", None, str, sections=("report", "global"))
    if compare_spec:
        try:
            fixed = [parse_policy(text) for text in compare_spec.split(",") if text.strip()]
        except PolicyError as exc:
            raise CliError(str(exc)) from exc
        gen_cfg = _generation_config(settings)
        extra = {}
        variant_spec = settings.get(
            "compare_feasible", None, str, sections=("report", "global")
        )
        if variant_spec:
            r_l = settings.get("r_l", 0.3, float, sections=("profiler", "global"))
            r_f = settings.get("r_f", 0.3, float, sections=("profiler", "global"))
            for part in variant_spec.split(";"):
                part = part.strip()
                if not part:
                    continue
                variant_cfg = replace(
                    cfg, feasible=tuple(_parse_feasible(part, r_l, r_f))
                )
                extra[f"adaptive[{part}]"] = variant_cfg
        rows_data = compare_adaptive_vs_fixed(
            model, prompt, cfg, fixed, gen_cfg, extra_adaptive=extra
        )
        columns, rows = comparison_rows(rows_data)
        _emit_report(out, "comparison", columns, rows, fmt)
        wrote_any = True

    if not wrote_any:
        raise CliError(
            "report needs at least one of --tradeoff, --consistency, --compare"
        )
    return 0


def cmd_memory(settings: _Settings) -> int:
    shape_name = settings.get("shape", None, str, sections=("memory", "global"))
    if shape_name is not None:
        key = shape_name.lower()
        if key not in WELL_KNOWN_SHAPES:
            raise CliError(
                f"unknown shape {shape_name!r}; known: {', '.join(sorted(WELL_KNOWN_SHAPES))}"
            )
        shape = WELL_KNOWN_SHAPES[key]
    else:
        shape = MemoryModel(
            num_layers=settings.get("layers", 32, int, sections=("memory", "global")),
            num_heads=settings.get("heads", 32, int, sections=("memory", "global")),
            head_dim=settings.get("head_dim", 128, int, sections=("memory", "global")),
            batch_size=settings.get("batch", 16, int, sections=("memory", "global")),
            seq_len=settings.get("seq_len", 512, int, sections=("memory", "global")),
            bytes_per_scalar=settings.get(
                "bytes", 2, int, sections=("memory", "global")
            ),
        )
    total = full_cache_bytes(shape)
    overhead = sidecar_overhead_fraction(shape)
    print(f"full_cache_bytes={total} ({total / 1e9:.2f}e9)")
    print(f"sidecar_overhead_fraction={overhead:.6f}")
    out_path = settings.get("out", None, str)
    if out_path is not None:
        out = _out_dir(settings)
        fmt = settings.get("format", "csv", str)
        _emit_report(
            out,
            "memory",
            ["full_cache_bytes", "sidecar_overhead_fraction"],
            [[total, overhead]],
            fmt,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akv",
        description="Adaptive KV-cache compression: profiling, generation, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file (INI sections)")
        p.add_argument("--seed", type=int, help="sampling seed")
        p.add_argument("--out", help="output directory (default: fresh run dir)")
        p.add_argument("--format", choices=["csv", "json"], help="report format")

    def add_model(p):
        p.add_argument("--plan", help="synthetic model plan file")
        p.add_argument("--trace", help="attention trace file")
        p.add_argument("--prompt-len", type=int, help="prompt length")

    def add_profiler(p):
        p.add_argument("--threshold", type=float, help="recovery threshold T")
        p.add_argument("--criterion", choices=["recovery", "cosine"])
        p.add_argument("--rows", choices=["all", "last"], help="row averaging")
        p.add_argument(
            "--feasible", help="feasible family: default | drop:atom,... | order:atom,..."
        )
        p.add_argument("--r-l", type=float, help="local window ratio")
        p.add_argument("--r-f", type=float, help="frequent budget ratio")

    def add_generation(p):
        p.add_argument("--max-new-tokens", type=int)
        p.add_argument("--sampling", choices=["greedy", "nucleus"])
        p.add_argument("--temperature", type=float)
        p.add_argument("--top-p", type=float)

    p_synth = sub.add_parser("synth", help="write a deterministic trace from a plan")
    add_common(p_synth)
    p_synth.add_argument("--plan", help="synthetic model plan file")
    p_synth.add_argument("--prompt-len", type=int)
    p_synth.add_argument("--steps", type=int, help="decoding steps to record")

    p_profile = sub.add_parser("profile", help="one-shot per-head profiling")
    add_common(p_profile)
    add_model(p_profile)
    add_profiler(p_profile)

    p_generate = sub.add_parser("generate", help="dual-phase generation")
    add_common(p_generate)
    add_model(p_generate)
    add_profiler(p_generate)
    add_generation(p_generate)
    p_generate.add_argument(
        "--policy", help="force one policy on every head, e.g. special+local(r_l=0.3)"
    )

    p_report = sub.add_parser("report", help="tradeoff / consistency / comparison")
    add_common(p_report)
    add_model(p_report)
    add_profiler(p_report)
    add_generation(p_report)
    p_report.add_argument("--tradeoff", help="comma list of T values")
    p_report.add_argument("--consistency", help="comma list of steps, e.g. 1,10,20,30")
    p_report.add_argument("--compare", help="comma list of fixed policies")
    p_report.add_argument(
        "--compare-feasible",
        help="semicolon list of feasible variants for ablation rows",
    )

    p_memory = sub.add_parser("memory", help="full-cache byte accounting")
    add_common(p_memory)
    p_memory.add_argument("--shape", help="well-known shape: 7b, 13b, 30b, 65b")
    p_memory.add_argument("--layers", type=int)
    p_memory.add_argument("--heads", type=int)
    p_memory.add_argument("--head-dim", type=int)
    p_memory.add_argument("--batch", type=int)
    p_memory.add_argument("--seq-len", type=int)
    p_memory.add_argument("--bytes", type=int)

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "profile": cmd_profile,
    "generate": cmd_generate,
    "report": cmd_report,
    "memory": cmd_memory,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_Settings(args, args.command))
    except CliError as exc:
        print(f"akv: error: {exc}", file=sys.stderr)
        return 1
    except (ModelError, PolicyError, TraceError, ValueError) as exc:
        print(f"akv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
