"""Golden runs of the ``akv`` command line.

Every case runs ``cli.main`` in a temporary directory and compares each
artifact it writes, and its stdout, with the files under
``tests/data/cli/golden/<case>/``. Binary traces are compared by SHA-256
digest (``<name>.sha256``); every other artifact byte for byte. The
goldens change only with an intended output change, re-recorded from
the same ``CASES``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from adaptive_kv import cli
from adaptive_kv.trace import record_trace, write_trace

DATA = Path(__file__).resolve().parent / "data" / "cli"
PLAN = str(DATA / "plan.ini")
GOLDEN = DATA / "golden"

# Run in order: "profile" reads the trace that "synth" writes.
CASES = (
    ("synth", ["synth", "--plan", PLAN, "--out", "synth"]),
    ("profile", ["profile", "--trace", "synth/trace.akvt", "--prompt-len", "32",
                 "--out", "profile"]),
    ("profile_json", ["profile", "--plan", PLAN, "--format", "json",
                      "--out", "profile_json"]),
    ("generate", ["generate", "--plan", PLAN, "--max-new-tokens", "6",
                  "--out", "generate"]),
    ("generate_policy", ["generate", "--plan", PLAN, "--max-new-tokens", "6",
                         "--policy", "special+local(r_l=0.2)", "--sampling", "nucleus",
                         "--seed", "3", "--out", "generate_policy"]),
    ("report", ["report", "--plan", PLAN, "--max-new-tokens", "6",
                "--tradeoff", "0.5,0.9,0.99", "--consistency", "1,3,6",
                "--compare", "special+punct,local(r_l=0.25),full",
                "--compare-feasible",
                "drop:frequent;order:special,local,frequent,punct",
                "--out", "report"]),
    ("memory", ["memory", "--shape", "7b", "--out", "memory"]),
)


def artifacts(out_dir: Path) -> dict[str, bytes]:
    """Each file an output directory holds, binary traces as digests."""
    found = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".akvt":
            digest = hashlib.sha256(data).hexdigest()
            found[path.name + ".sha256"] = f"{digest}\n".encode()
        else:
            found[path.name] = data
    return found


def test_cli_outputs_match_goldens(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, argv in CASES:
        assert cli.main(argv) == 0, name
        got = artifacts(tmp_path / name)
        got["stdout.txt"] = capsys.readouterr().out.encode()
        expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
        assert sorted(got) == sorted(expected), name
        for file_name, data in expected.items():
            assert got[file_name] == data, f"{name}/{file_name}"


def expect_one_error_line(argv, capsys, match: str):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("akv: error:"), err
    assert match in lines[0]


def test_missing_config_file_is_one_error_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.ini")
    expect_one_error_line(
        ["profile", "--plan", PLAN, "--config", missing], capsys, "cannot read config"
    )


@pytest.mark.parametrize(
    "flag, text, match",
    [
        ("--config", "no section header\n", "config parse error"),
        ("--config", "[profile]\nout = a%b\n", "'%' must be followed"),
        ("--plan", None, "cannot read plan"),
        ("--plan", "no section header\n", "plan parse error"),
    ],
    ids=["config-parse", "config-interpolation", "plan-missing", "plan-parse"],
)
def test_unreadable_ini_file_is_one_error_line(tmp_path, capsys, flag, text, match):
    path = tmp_path / "file.ini"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = ["profile", "--plan", PLAN, "--out", str(tmp_path / "out")]
    expect_one_error_line(argv + [flag, str(path)], capsys, match)


def test_out_naming_a_file_is_one_error_line(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    expect_one_error_line(
        ["profile", "--plan", PLAN, "--out", str(taken)], capsys, "output directory"
    )


@pytest.mark.parametrize("spec", ["drop:full", "order:special,full", "drop:average"])
def test_bad_feasible_atom_is_one_error_line(tmp_path, capsys, spec):
    expect_one_error_line(
        ["profile", "--plan", PLAN, "--feasible", spec, "--out", str(tmp_path)],
        capsys,
        "--feasible",
    )


def test_negative_model_seed_is_one_error_line(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    text = (DATA / "plan.ini").read_text(encoding="utf-8")
    plan.write_text(text.replace("seed = 2310", "seed = -3"), encoding="utf-8")
    expect_one_error_line(
        ["generate", "--plan", str(plan), "--out", str(tmp_path / "out")],
        capsys,
        "non-negative",
    )


def test_nonpositive_trace_prompt_len_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--plan", PLAN, "--out", "synth"]) == 0
    capsys.readouterr()
    expect_one_error_line(
        ["profile", "--trace", "synth/trace.akvt", "--prompt-len", "-5", "--out", "out"],
        capsys,
        "prompt_len must be >= 1",
    )


@pytest.mark.parametrize("command, pos", [("profile", 5), ("generate", 33)],
                         ids=["prompt-row", "decode-row"])
def test_trace_row_past_float32_range_is_one_error_line(tmp_path, capsys, command, pos):
    # 1e39 is a valid float64 entry of an AKVT trace, but not of a float32 row.
    model, prompt_len, _ = cli.load_plan(PLAN)
    trace = record_trace(model, model.prompt_token_ids(prompt_len + 3), prompt_len)
    block = trace.blocks[(1, 2)][pos]
    trace.blocks[(1, 2)][pos] = dataclasses.replace(block, v=np.full_like(block.v, 1e39))
    write_trace(trace, tmp_path / "huge.akvt")
    argv = [command, "--trace", str(tmp_path / "huge.akvt"), "--out", str(tmp_path / "out"),
            "--prompt-len", str(prompt_len)]
    if command == "generate":
        argv += ["--max-new-tokens", "4"]
    expect_one_error_line(
        argv, capsys, f"V row at layer 1, head 2, position {pos} is not finite in float32"
    )


@pytest.mark.parametrize("key", ["dominance", "local_window_frac"])
def test_bad_plan_number_is_one_error_line(tmp_path, capsys, key):
    plan = tmp_path / "plan.ini"
    text = (DATA / "plan.ini").read_text(encoding="utf-8")
    text = re.sub(rf"^{key} = .*\n", "", text, flags=re.M)
    text = text.replace("[model]\n", f"[model]\n{key} = abc\n")
    plan.write_text(text, encoding="utf-8")
    expect_one_error_line(
        ["generate", "--plan", str(plan), "--out", str(tmp_path / "out")],
        capsys,
        f"plan parse error: bad number for model.{key}",
    )


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("[model]", "[shape]", "plan parse error: missing [model] section"),
        ("seed = 2310\n", "", "plan parse error: missing model.seed"),
        ("num_heads = 4", "num_heads = four", "bad integer for model.num_heads"),
        ("dominance", "dominanse", "plan parse error: unknown key model.dominanse"),
        ("0.3 = diffuse", "0.3 = difuse", "unknown archetype 'difuse' at heads.0.3"),
        ("->diffuse@4", "->difuse@4", "unknown archetype 'difuse' at heads.0.2"),
        ("->diffuse@4", "->diffuse", "phase switch 'special->diffuse' at heads.0.2"),
        ("@4", "@four", "bad switch step 'four' at heads.0.2"),
        ("1.1 = special", "1.2.3 = special", "bad head key '1.2.3'"),
    ],
    ids=[
        "no-model-section", "missing-key", "bad-integer", "unknown-key",
        "unknown-archetype", "unknown-switch-target", "switch-without-step",
        "bad-switch-step", "bad-head-key",
    ],
)
def test_bad_plan_is_one_error_line(tmp_path, capsys, old, new, match):
    plan = tmp_path / "plan.ini"
    text = (DATA / "plan.ini").read_text(encoding="utf-8")
    assert text.count(old) == 1
    plan.write_text(text.replace(old, new), encoding="utf-8")
    expect_one_error_line(
        ["profile", "--plan", str(plan), "--out", str(tmp_path / "out")], capsys, match
    )


def run_with_config(tmp_path, capsys, argv, ini: str):
    """Run ``argv`` with ``--config`` naming a file holding ``ini``; return stdout."""
    config = tmp_path / "akv.ini"
    config.write_text(ini, encoding="utf-8")
    assert cli.main(argv + ["--config", str(config)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "ini, flags, expected",
    [
        ("[global]\nthreshold = 0.5\n", [], "0.5"),
        ("[global]\nthreshold = 0.5\n[profiler]\nthreshold = 0.7\n", [], "0.7"),
        (
            "[global]\nthreshold = 0.5\n[profiler]\nthreshold = 0.7\n",
            ["--threshold", "0.9"],
            "0.9",
        ),
        # Profiler options are read from [profiler], not the command's section.
        ("[profile]\nthreshold = 0.5\n", [], "0.95"),
    ],
    ids=["global", "section-over-global", "flag-over-section", "command-section"],
)
def test_config_precedence(tmp_path, capsys, ini, flags, expected):
    argv = ["profile", "--plan", PLAN, "--out", str(tmp_path / "out")] + flags
    stdout = run_with_config(tmp_path, capsys, argv, ini)
    assert stdout == f"profiled 8 heads at T={expected}\n"


def test_config_format_comes_from_the_command_section(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["profile", "--plan", PLAN, "--out", str(out)]
    run_with_config(tmp_path, capsys, argv, "[profile]\nformat = json\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "head_profile.csv",
        "layer_distribution.json",
    ]


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("profiler", "threshold", "abc"),
        ("global", "threshold", "abc"),
        # A config value is held to its flag's choices.
        ("profile", "format", "xml"),
    ],
)
def test_bad_config_value_is_one_error_line(tmp_path, capsys, section, key, raw):
    config = tmp_path / "akv.ini"
    config.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
    code = cli.main(["profile", "--plan", PLAN, "--config", str(config)])
    assert code == 1
    expected = f"akv: error: bad value for {section}.{key}: '{raw}'\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize(
    "ini, key",
    [
        ("[profiler]\nthreshhold = 0.5\n", "profiler.threshhold"),
        ("[global]\nseed = 5\n[report]\nsteps_per_token = 2\n", "report.steps_per_token"),
        ("[DEFAULT]\nverbose = 1\n", "DEFAULT.verbose"),
        ("[profiler]\nrows = last\n", "profiler.rows"),
    ],
    ids=["misspelled", "unknown-in-command-section", "default-section", "rows"],
)
def test_config_key_no_flag_names_is_one_error_line(tmp_path, capsys, ini, key):
    config = tmp_path / "typo.ini"
    config.write_text(ini, encoding="utf-8")
    argv = ["profile", "--plan", PLAN, "--out", str(tmp_path / "out")]
    expect_one_error_line(argv + ["--config", str(config)], capsys, f"unknown option {key}")
    assert not (tmp_path / "out").exists()


def test_trace_prompt_len_follows_generate_section(tmp_path, capsys, monkeypatch):
    # profile has no --max-new-tokens flag, yet [generate] max_new_tokens
    # still sets the prompt a trace leaves for decoding.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--plan", PLAN, "--out", "synth"]) == 0
    base = ["profile", "--trace", "synth/trace.akvt"]
    assert cli.main(base + ["--prompt-len", "37", "--out", "all"]) == 0
    assert cli.main(base + ["--out", "default"]) == 0
    capsys.readouterr()
    ini = "[generate]\nmax_new_tokens = 1\n"
    run_with_config(tmp_path, capsys, base + ["--out", "configured"], ini)
    configured = (tmp_path / "configured" / "head_profile.csv").read_text()
    assert configured == (tmp_path / "all" / "head_profile.csv").read_text()
    assert configured != (tmp_path / "default" / "head_profile.csv").read_text()
    assert ",37\n" in configured


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--plan", PLAN, "--seed", "3"],
        ["synth", "--plan", PLAN, "--format", "json"],
        ["profile", "--plan", PLAN, "--seed", "3"],
        ["memory", "--seed", "3"],
        ["profile", "--plan", PLAN, "--rows", "last"],
    ],
    ids=["synth-seed", "synth-format", "profile-seed", "memory-seed", "profile-rows"],
)
def test_flag_the_command_does_not_read_is_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "profile", "generate", "report", "memory"])
def test_global_seed_in_a_config_file_is_accepted_by_every_command(tmp_path, command):
    config = tmp_path / "akv.ini"
    config.write_text("[global]\nseed = 5\n", encoding="utf-8")
    assert cli.parse_args([command, "--config", str(config)]).seed == 5


def test_nan_temperature_is_one_error_line(tmp_path, capsys):
    argv = ["generate", "--plan", PLAN, "--sampling", "nucleus", "--temperature", "nan"]
    expect_one_error_line(
        argv + ["--out", str(tmp_path / "out")],
        capsys,
        "akv: error: temperature must be > 0, got nan",
    )


def test_repeated_compare_policy_gets_a_row_each(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["report", "--plan", PLAN, "--max-new-tokens", "4", "--compare", "full,full"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    methods = [line.split(",")[0] for line in lines]
    assert methods == ["method", "adaptive[T=0.95]", "fixed[full]", "fixed[full]"]
    assert lines[2] == lines[3]


def test_empty_tradeoff_list_writes_a_header_only_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["report", "--plan", PLAN, "--tradeoff", ",", "--out", str(out)]) == 0
    assert (out / "tradeoff.csv").read_text(encoding="utf-8") == (
        "T,pruned_ratio,mean_recovery\n"
    )


@pytest.mark.parametrize(
    "flag, raw, line",
    [
        ("--tradeoff", "0.5,x", "bad --tradeoff list '0.5,x'"),
        ("--consistency", "1,2.5", "bad --consistency list '1,2.5'"),
        ("--compare", "full,bogus", "unknown policy atom 'bogus'"),
        ("--compare", "local(r_l=x)", "bad ratio 'x' in token 'local(r_l=x)'"),
        ("--compare", "special,local(r_l=2)", "r_l must be in (0, 1], got 2.0"),
    ],
)
def test_bad_report_list_is_one_error_line(tmp_path, capsys, flag, raw, line):
    argv = ["report", "--plan", PLAN, flag, raw, "--out", str(tmp_path / "out")]
    code = cli.main(argv)
    assert code == 1
    assert capsys.readouterr().err == f"akv: error: {line}\n"
