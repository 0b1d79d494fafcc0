"""Golden runs of the ``akv`` command line.

Every case runs ``cli.main`` in a temporary directory and compares each
artifact it writes, and its stdout, with the files under
``tests/data/cli/golden/<case>/``. Binary traces are compared by SHA-256
digest (``<name>.sha256``); every other artifact byte for byte. The
goldens change only with an intended output change, re-recorded from
the same ``CASES``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from adaptive_kv import cli

DATA = Path(__file__).resolve().parent / "data" / "cli"
PLAN = str(DATA / "plan.ini")
GOLDEN = DATA / "golden"

# Run in order: "profile" reads the trace that "synth" writes.
CASES = (
    ("synth", ["synth", "--plan", PLAN, "--out", "synth"]),
    ("profile", ["profile", "--trace", "synth/trace.akvt", "--prompt-len", "32",
                 "--out", "profile"]),
    ("profile_cosine", ["profile", "--plan", PLAN, "--criterion", "cosine",
                        "--rows", "last", "--format", "json",
                        "--out", "profile_cosine"]),
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
