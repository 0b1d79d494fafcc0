"""Command-line entry point.

Subcommands: synth, profile, generate, report, memory. Every option can
also live in an INI config file (``--config``), under its flag's name
with underscores. An option's value is its flag if given, else the
option's section of the file, else the file's [global] section, else the
flag's default. Model options (plan, trace, prompt_len, steps) live in
[model], profiler options (threshold, rows, feasible, r_l, r_f) in
[profiler], generation options (max_new_tokens, sampling, temperature,
top_p, seed) in [generate], and every other option, out and format
included, in the command's own section, e.g. [report] tradeoff.
Artifacts land in a fresh run directory unless --out forces a path, and
re-running a command with the same config and seed overwrites them with
byte-identical content, provided BLAS runs with the same number of
threads: the bits of the attention logits (``q @ k.T``) can depend on
the thread count, so profiles and tokens can differ between thread
settings (``OPENBLAS_NUM_THREADS``) or hosts.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from dataclasses import fields, replace
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
    ComparisonRow,
    ConsistencyEntry,
    MemoryModel,
    TradeoffPoint,
    compare_adaptive_vs_fixed,
    consistency_report,
    dataclass_rows,
    full_cache_bytes,
    layer_distribution_rows,
    profile_rows,
    rows_to_csv,
    rows_to_json,
    sidecar_overhead_fraction,
    stability_fraction,
    tradeoff_curve,
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
from .profiler import ProfilerConfig, RowAveraging
from .trace import TraceError, TraceModel, read_trace, record_trace, write_trace

logger = logging.getLogger("adaptive_kv")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

# The config section of each option not read from its command's own section.
_SECTIONS = {
    **dict.fromkeys(("plan", "trace", "prompt_len", "steps"), "model"),
    **dict.fromkeys(("threshold", "rows", "feasible", "r_l", "r_f"), "profiler"),
    **dict.fromkeys(
        ("max_new_tokens", "sampling", "temperature", "top_p", "seed"), "generate"
    ),
}
# The --max-new-tokens default, which also sizes a trace's default prompt.
_MAX_NEW_TOKENS = 32
# Each [model] key of a plan file: its type, and its default (None: required).
_PLAN_KEYS = {
    **{f.name: (int, None) for f in fields(ModelConfig)},
    "dominance": (float, 0.97),
    "prompt_len": (int, 48),
    "steps": (int, 0),
    "local_window_frac": (float, 0.3),
    "max_context": (int, 4096),
}


class CliError(Exception):
    """Fatal CLI problem; rendered as one line on stderr."""


def _setup_logging():
    level = _LOG_LEVELS.get(os.environ.get("AKV_LOG", "error").lower())
    if level is None:
        level = logging.ERROR
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _read_ini(path: str, what: str) -> configparser.ConfigParser:
    """The INI file at ``path``; ``what`` names it in error lines."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc
    except configparser.Error as exc:
        raise CliError(f"{what} parse error: {exc}") from exc
    return parser


def _config_defaults(path: str, command: str, actions: dict) -> dict:
    """Each option the config file sets for ``command``, checked as its flag is."""
    file = _read_ini(path, "config")
    unknown = [f"{s}.{key}" for s, keys in file.items() for key in keys if key not in actions]
    if unknown:
        raise CliError(f"unknown option {unknown[0]} in config {path}")
    values = {}
    for dest, action in actions.items():
        for section in (_SECTIONS.get(dest, command), "global"):
            if file.has_option(section, dest):
                raw = file.get(section, dest)
                try:
                    value = raw if action.type is None else action.type(raw)
                    if action.choices is not None and value not in action.choices:
                        raise ValueError(raw)
                except ValueError as exc:
                    raise CliError(f"bad value for {section}.{dest}: {raw!r}") from exc
                values[dest] = value
                break
    return values


def _parse_head_key(raw: str) -> tuple[int, int]:
    layer, _, head = raw.partition(".")
    try:
        return int(layer), int(head)
    except ValueError:
        raise CliError(
            f"parse error: bad head key {raw!r}, expected layer.head"
        ) from None


def _parse_archetype_token(raw: str, where: str) -> HeadPlan:
    base, switch, rest = raw.strip().partition("->")

    def archetype(text: str) -> Archetype:
        try:
            return Archetype(text.strip())
        except ValueError:
            raise CliError(
                f"parse error: unknown archetype {text.strip()!r} at {where}"
            ) from None

    if not switch:
        return HeadPlan(archetype(base))
    target, _, at = rest.partition("@")
    if not at:
        raise CliError(f"parse error: phase switch {raw!r} at {where} needs '@step'")
    try:
        step = int(at)
    except ValueError:
        raise CliError(f"parse error: bad switch step {at!r} at {where}") from None
    return HeadPlan(archetype(base), switch_to=archetype(target), switch_step=step)


def load_plan(path: str):
    """Parse a synthetic-model plan file into a model and run lengths."""
    parser = _read_ini(path, "plan")
    if not parser.has_section("model"):
        raise CliError("plan parse error: missing [model] section")
    unknown = [key for key in parser.options("model") if key not in _PLAN_KEYS]
    if unknown:
        raise CliError(f"plan parse error: unknown key model.{unknown[0]}")
    values = {}
    for key, (kind, default) in _PLAN_KEYS.items():
        raw = parser.get("model", key, fallback=None)
        if raw is None and default is None:
            raise CliError(f"plan parse error: missing model.{key}")
        try:
            values[key] = default if raw is None else kind(raw)
        except ValueError:
            what = "integer" if kind is int else "number"
            raise CliError(f"plan parse error: bad {what} for model.{key}") from None
    config = ModelConfig(**{f.name: values[f.name] for f in fields(ModelConfig)})

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
            values["dominance"],
            local_window_frac=values["local_window_frac"],
            max_context=values["max_context"],
        )
    except ModelError as exc:
        raise CliError(str(exc)) from exc
    return model, values["prompt_len"], values["steps"]


def _load_model(args: argparse.Namespace):
    if (args.plan is None) == (args.trace is None):
        raise CliError("exactly one model source required: --plan or --trace")
    if args.plan is not None:
        model, prompt_len, _ = load_plan(args.plan)
    else:
        try:
            trace = read_trace(args.trace)
        except (TraceError, OSError) as exc:
            raise CliError(f"cannot read trace {args.trace}: {exc}") from exc
        model = TraceModel(trace)
        prompt_len = max(1, len(trace.tokens) - max(args.max_new_tokens - 1, 0))
    return model, prompt_len if args.prompt_len is None else args.prompt_len


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


def _profiler_config(args: argparse.Namespace) -> ProfilerConfig:
    try:
        return ProfilerConfig(
            recovery_threshold=args.threshold,
            feasible=tuple(_parse_feasible(args.feasible, args.r_l, args.r_f)),
            rows=RowAveraging(args.rows),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _generation_config(args: argparse.Namespace) -> GenerationConfig:
    if args.sampling == "nucleus":
        sampling = Nucleus(
            temperature=args.temperature, top_p=args.top_p, seed=args.seed
        )
    else:
        sampling = GreedyArgmax()
    return GenerationConfig(max_new_tokens=args.max_new_tokens, sampling=sampling)


def _out_dir(args: argparse.Namespace) -> Path:
    out = args.out
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


def cmd_synth(args: argparse.Namespace) -> int:
    if args.plan is None:
        raise CliError("synth requires --plan")
    model, prompt_len, steps = load_plan(args.plan)
    if args.prompt_len is not None:
        prompt_len = args.prompt_len
    if args.steps is not None:
        steps = args.steps
    out = _out_dir(args)
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


def cmd_profile(args: argparse.Namespace) -> int:
    model, prompt_len = _load_model(args)
    cfg = _profiler_config(args)
    out = _out_dir(args)
    prompt = model.prompt_token_ids(prompt_len)
    from .engine import encode_prompt

    profile, _ = encode_prompt(model, prompt, cfg, diagnostics=False)
    _write(out / "head_profile.csv", rows_to_csv(*profile_rows(profile)))
    columns, rows = layer_distribution_rows(profile)
    _emit_report(out, "layer_distribution", columns, rows, args.format)
    print(f"profiled {len(profile)} heads at T={cfg.recovery_threshold:g}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    model, prompt_len = _load_model(args)
    gen_cfg = _generation_config(args)
    out = _out_dir(args)
    prompt = model.prompt_token_ids(prompt_len)
    if args.policy is not None:
        try:
            policy = parse_policy(args.policy)
        except PolicyError as exc:
            raise CliError(str(exc)) from exc
        result = generate_fixed_baseline(model, prompt, policy, gen_cfg)
    else:
        cfg = _profiler_config(args)
        result = generate(model, prompt, cfg, gen_cfg)
    _write(out / "head_profile.csv", rows_to_csv(*profile_rows(result.profile)))
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
    _emit_report(out, "summary", summary_cols, summary, args.format)
    print(
        f"generated {len(result.tokens)} tokens; "
        f"pruned_ratio={summary[0][0]:.4f} mean_recovery={summary[0][1]:.4f}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    model, prompt_len = _load_model(args)
    out = _out_dir(args)
    fmt = args.format
    prompt = model.prompt_token_ids(prompt_len)
    cfg = _profiler_config(args)
    wrote_any = False

    if args.tradeoff:
        try:
            T_values = [float(t) for t in args.tradeoff.split(",") if t.strip()]
        except ValueError:
            raise CliError(f"bad --tradeoff list {args.tradeoff!r}") from None
        points = tradeoff_curve(model, prompt, T_values, base_cfg=cfg)
        columns, rows = dataclass_rows(TradeoffPoint, points)
        _emit_report(out, "tradeoff", columns, rows, fmt)
        wrote_any = True

    if args.consistency:
        try:
            steps = [int(s) for s in args.consistency.split(",") if s.strip()]
        except ValueError:
            raise CliError(f"bad --consistency list {args.consistency!r}") from None
        entries = consistency_report(model, prompt, steps, cfg)
        columns, rows = dataclass_rows(ConsistencyEntry, entries)
        _emit_report(out, "consistency", columns, rows, fmt)
        print(f"profile stability: {stability_fraction(entries):.4f}")
        wrote_any = True

    if args.compare:
        try:
            fixed = [parse_policy(text) for text in args.compare.split(",") if text.strip()]
        except PolicyError as exc:
            raise CliError(str(exc)) from exc
        gen_cfg = _generation_config(args)
        extra = {}
        if args.compare_feasible:
            for part in args.compare_feasible.split(";"):
                part = part.strip()
                if not part:
                    continue
                variant_cfg = replace(
                    cfg, feasible=tuple(_parse_feasible(part, args.r_l, args.r_f))
                )
                extra[f"adaptive[{part}]"] = variant_cfg
        rows_data = compare_adaptive_vs_fixed(
            model, prompt, cfg, fixed, gen_cfg, extra_adaptive=extra
        )
        columns, rows = dataclass_rows(ComparisonRow, rows_data)
        _emit_report(out, "comparison", columns, rows, fmt)
        wrote_any = True

    if not wrote_any:
        raise CliError(
            "report needs at least one of --tradeoff, --consistency, --compare"
        )
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    if args.shape is not None:
        key = args.shape.lower()
        if key not in WELL_KNOWN_SHAPES:
            raise CliError(
                f"unknown shape {args.shape!r}; known: {', '.join(sorted(WELL_KNOWN_SHAPES))}"
            )
        shape = WELL_KNOWN_SHAPES[key]
    else:
        shape = MemoryModel(
            num_layers=args.layers,
            num_heads=args.heads,
            head_dim=args.head_dim,
            batch_size=args.batch,
            seq_len=args.seq_len,
            bytes_per_scalar=args.bytes,
        )
    total = full_cache_bytes(shape)
    overhead = sidecar_overhead_fraction(shape)
    print(f"full_cache_bytes={total} ({total / 1e9:.2f}e9)")
    print(f"sidecar_overhead_fraction={overhead:.6f}")
    if args.out is not None:
        _emit_report(
            _out_dir(args),
            "memory",
            ["full_cache_bytes", "sidecar_overhead_fraction"],
            [[total, overhead]],
            args.format,
        )
    return 0


def build_parser():
    """The ``akv`` parser, and a dict of its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="akv",
        description="Adaptive KV-cache compression: profiling, generation, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, reports=True):
        p.add_argument("--config", help="INI config file; flags win over it")
        p.add_argument("--out", help="output directory (default: fresh run dir)")
        if reports:
            p.add_argument(
                "--format", choices=["csv", "json"], default="csv", help="report format"
            )

    def add_model(p):
        p.add_argument("--plan", help="synthetic model plan file")
        p.add_argument("--trace", help="attention trace file")
        p.add_argument("--prompt-len", type=int, help="prompt length")

    def add_profiler(p):
        p.add_argument(
            "--threshold", type=float, default=0.95, help="recovery threshold T"
        )
        p.add_argument(
            "--rows", choices=["all", "last"], default="all", help="row averaging"
        )
        p.add_argument(
            "--feasible",
            default="default",
            help="feasible family: default | drop:atom,... | order:atom,...",
        )
        p.add_argument("--r-l", type=float, default=0.3, help="local window ratio")
        p.add_argument("--r-f", type=float, default=0.3, help="frequent budget ratio")

    def add_generation(p):
        p.add_argument("--max-new-tokens", type=int, default=_MAX_NEW_TOKENS)
        p.add_argument("--sampling", choices=["greedy", "nucleus"], default="greedy")
        p.add_argument("--temperature", type=float, default=0.6)
        p.add_argument("--top-p", type=float, default=0.9)
        p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p_synth = sub.add_parser("synth", help="write a deterministic trace from a plan")
    add_common(p_synth, reports=False)
    p_synth.add_argument("--plan", help="synthetic model plan file")
    p_synth.add_argument("--prompt-len", type=int)
    p_synth.add_argument("--steps", type=int, help="decoding steps to record")

    p_profile = sub.add_parser("profile", help="one-shot per-head profiling")
    add_common(p_profile)
    add_model(p_profile)
    add_profiler(p_profile)
    # No flag: only a config file sets it, for a trace's default prompt.
    p_profile.set_defaults(max_new_tokens=_MAX_NEW_TOKENS)

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
    p_memory.add_argument("--layers", type=int, default=32)
    p_memory.add_argument("--heads", type=int, default=32)
    p_memory.add_argument("--head-dim", type=int, default=128)
    p_memory.add_argument("--batch", type=int, default=16)
    p_memory.add_argument("--seq-len", type=int, default=512)
    p_memory.add_argument("--bytes", type=int, default=2)

    return parser, sub.choices


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Flags, over the config file's values, over the flags' defaults."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # An option is checked by its flag in any subcommand, so a config
        # value reaches a command that reads it without having the flag.
        actions = {
            action.dest: action
            for command in commands.values()
            for action in command._actions
            if action.dest != "help"
        }
        values = _config_defaults(args.config, args.command, actions)
        commands[args.command].set_defaults(**values)
        args = parser.parse_args(argv)
    return args


_COMMANDS = {
    "synth": cmd_synth,
    "profile": cmd_profile,
    "generate": cmd_generate,
    "report": cmd_report,
    "memory": cmd_memory,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (
        CliError, ModelError, PolicyError, TraceError, ValueError, configparser.Error
    ) as exc:
        # configparser errors span several lines; the error stays one line.
        print(f"akv: error: {'; '.join(str(exc).splitlines())}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
