import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import fscfb.cli
from fscfb import (
    CounterMachineOracle,
    FixedHaltingOracle,
    NeverHaltingOracle,
    lambda_double_sequence,
)
from fscfb.cli import SUBCOMMANDS, build_parser, main
from conftest import CountingOracle

PARITY = "jz r0 6\ndec r0\njz r0 5\ndec r0\njmp 0\njmp 5\nhalt\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return [dict(zip(header, r)) for r in rows[1:]]


@pytest.fixture
def frozen_channel(tmp_path, capsys):
    path = tmp_path / "frozen.json"
    code, _, _ = run_cli(capsys, "gallery", "noiseless-z", "--eps", "1/4", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture
def mixing_channel(tmp_path, capsys):
    path = tmp_path / "mixing.json"
    code, _, _ = run_cli(
        capsys, "gallery", "mixing", "--eps", "1/4", "--mix", "1/4", "--out", str(path)
    )
    assert code == 0
    return path


GOLDEN_FROZEN_PAIR = """\
{
  "format": "fsc-channel",
  "version": 1,
  "label": "noiseless-z",
  "params": {
    "eps": "1/4"
  },
  "kind": "unifilar",
  "x_size": 2,
  "y_size": 2,
  "s_size": 2,
  "w": [
    [
      ["1", "0"],
      ["0", "1"]
    ],
    [
      ["3/4", "1/4"],
      ["0", "1"]
    ]
  ],
  "f": [
    [
      [0, 1],
      [1, 0]
    ],
    [
      [1, 1],
      [0, 1]
    ]
  ]
}
"""


def test_gallery_writes_byte_stable_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "gallery", "noiseless-z", "--eps", "1/4", "--out", str(a))
    run_cli(capsys, "gallery", "noiseless-z", "--eps", "1/4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == GOLDEN_FROZEN_PAIR
    data = json.loads(a.read_text())
    assert data["w"][1][0] == ["3/4", "1/4"]
    assert data["f"][1] == [[1, 1], [0, 1]]


@pytest.mark.parametrize(
    "argv",
    [
        ("gallery", "mixing", "--eps", "1/4", "--mix", "1/8", "--out", "{d}/m.json"),
        ("gallery", "inverse-k", "--eps", "1/4", "--k", "4", "--out", "{d}/k.json"),
        ("gallery", "extend-alphabets", "--eps", "1/4", "--mix", "1/4", "--x", "3", "--y", "3", "--out", "{d}/a.json"),
        ("gallery", "extend-states", "--eps", "1/4", "--mix", "1/4", "--s", "4", "--out", "{d}/s.json"),
    ],
)
def test_gallery_outputs_validate(tmp_path, capsys, argv):
    argv = [a.format(d=tmp_path) for a in argv]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", argv[-1], "--format", "csv")
    assert code == 0
    rows = {r["property"]: r["value"] for r in parse_csv(out)}
    assert rows["stochastic"] == "true"
    assert rows["unifilar"] == "true"


def test_gallery_missing_parameter_fails(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gallery", "inverse-k", "--eps", "1/4", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "needs --k" in err


def test_validate_frozen_channel(frozen_channel, capsys):
    code, out, _ = run_cli(capsys, "validate", str(frozen_channel), "--format", "csv")
    assert code == 0
    rows = {r["property"]: r["value"] for r in parse_csv(out)}
    assert rows["strongly_connected"] == "false"
    assert rows["witness"] == "1->0"
    assert rows["indecomposability_gap"] == "1"


def test_validate_mixing_channel(mixing_channel, capsys):
    code, out, _ = run_cli(capsys, "validate", str(mixing_channel), "--format", "csv")
    rows = {r["property"]: r["value"] for r in parse_csv(out)}
    assert rows["strongly_connected"] == "true"
    assert float(rows["indecomposability_gap"]) == pytest.approx(0.75**6, abs=1e-12)


def test_validate_malformed_row_names_coordinates(tmp_path, capsys):
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 2,
        "y_size": 2,
        "s_size": 1,
        "w": [[[0.5, 0.4], [0.5, 0.5]]],
        "f": [[[0, 0], [0, 0]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "s_prev=0, x=0" in err


def test_missing_file_fails(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/nope.json")
    assert code == 2
    assert "error:" in err


def test_capacity_fixed_state(frozen_channel, capsys):
    code, out, _ = run_cli(
        capsys, "capacity", str(frozen_channel), "--n", "2", "--s0", "0", "--format", "csv"
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["rate"]) == pytest.approx(1.0, abs=1e-6)
    assert rows[0]["converged"] == "true"


def test_capacity_all_states(frozen_channel, capsys):
    code, out, _ = run_cli(
        capsys, "capacity", str(frozen_channel), "--n", "1", "--all-states", "--format", "csv"
    )
    rows = {r["s0"]: float(r["rate"]) for r in parse_csv(out)}
    assert set(rows) == {"0", "1", "min", "max"}
    assert rows["max"] == pytest.approx(1.0, abs=1e-6)
    assert rows["min"] == pytest.approx(0.5582386267373455, abs=1e-6)


def test_capacity_sweep(frozen_channel, capsys):
    code, out, _ = run_cli(
        capsys,
        "capacity", str(frozen_channel), "--n", "3", "--s0", "0", "--sweep-n",
        "--restarts", "2", "--format", "csv",
    )
    rows = parse_csv(out)
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    for row in rows:
        assert float(row["rate"]) == pytest.approx(1.0, abs=1e-6)


def test_directed_info_uniform(frozen_channel, capsys):
    code, out, _ = run_cli(
        capsys, "directed-info", str(frozen_channel), "--n", "2", "--s0", "0", "--format", "csv"
    )
    row = parse_csv(out)[0]
    assert float(row["rate"]) == pytest.approx(1.0, abs=1e-12)
    assert float(row["directed_bits"]) == pytest.approx(2.0, abs=1e-12)


def test_directed_info_with_dist(frozen_channel, capsys):
    code, out, _ = run_cli(
        capsys,
        "directed-info", str(frozen_channel), "--n", "1", "--s0", "1",
        "--dist", "0.42782559679176746,0.5721744032082325", "--format", "csv",
    )
    row = parse_csv(out)[0]
    assert float(row["rate"]) == pytest.approx(0.5582386267373455, abs=1e-9)


def test_directed_info_past_the_path_tables(mixing_channel, capsys):
    # 4^12 paths were over the joint-table guard; the lattice needs 2 * 2 * 2^12 transitions
    code, out, _ = run_cli(
        capsys, "directed-info", str(mixing_channel), "--n", "12", "--s0", "0", "--format", "csv"
    )
    assert code == 0
    row = parse_csv(out)[0]
    assert 0.0 < float(row["rate"]) < 1.0
    code, out, err = run_cli(capsys, "directed-info", str(mixing_channel), "--n", "19")
    assert code == 2
    assert "lattice transitions" in err and out == ""


def one_error_line(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def write_with_block(path, block):
    """The noiseless-z file from s0 = 0 with ``optimizer`` set to ``block``,
    written as raw JSON: a record refuses a malformed block."""
    from fscfb import dumps_channel, noiseless_z_pair

    doc = json.loads(dumps_channel(replace(noiseless_z_pair("1/4"), s0=0)))
    doc["optimizer"] = block
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("dist", ["0.5,0.25,0.25", "1.5,-0.5", "0.5,0.4999999999"])
def test_directed_info_refuses_what_is_not_an_input_law(frozen_channel, capsys, dist):
    # a wrong length, a negative entry, a sum 1e-10 short of 1
    code, out, err = run_cli(
        capsys, "directed-info", str(frozen_channel), "--n", "2", "--dist", dist
    )
    assert one_error_line(code, out, err)
    assert "input law" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", "--n", "2", "--s0", "5"),
        ("directed-info", "--n", "2", "--s0", "-1"),
        ("dmc-capacity", "--s0", "5"),
    ],
    ids=["capacity", "directed-info", "dmc-capacity"],
)
def test_initial_state_outside_the_channel_fails_cleanly(mixing_channel, capsys, argv):
    code, out, err = run_cli(capsys, argv[0], str(mixing_channel), *argv[1:])
    assert one_error_line(code, out, err)


def test_dmc_capacity_command(frozen_channel, capsys):
    code, out, _ = run_cli(
        capsys, "dmc-capacity", str(frozen_channel), "--s0", "1", "--format", "csv"
    )
    row = parse_csv(out)[0]
    assert float(row["capacity"]) == pytest.approx(0.5582386267373455, abs=1e-9)
    assert float(row["p_x0"]) == pytest.approx(0.42782559679176746, abs=1e-6)


def test_discontinuity_demo(capsys):
    code, out, _ = run_cli(
        capsys,
        "discontinuity-demo", "--eps", "1/4", "--k-list", "2,4", "--n", "2",
        "--restarts", "2", "--format", "csv",
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["k"] == "inf"
    assert float(rows[0]["gap"]) == pytest.approx(0.4417613732626545, abs=1e-12)
    assert float(rows[1]["tv_distance"]) == 1.0  # k = 2
    assert float(rows[2]["tv_distance"]) == 0.5  # k = 4
    gaps = [abs(float(r["gap"])) for r in rows[1:]]
    assert all(g < 0.4417613732626545 for g in gaps)


def test_lambda_seq_mock(capsys):
    code, out, _ = run_cli(
        capsys,
        "lambda-seq", "--mock", "halt-at:3", "--input", "1", "--m-max", "5",
        "--format", "csv",
    )
    rows = parse_csv(out)
    assert [r["lambda"] for r in rows] == ["1/2", "1/4", "1/8", "1/8", "1/8"]
    assert all(r["certified"] == "true" for r in rows)


def test_lambda_seq_never(capsys):
    code, out, _ = run_cli(
        capsys, "lambda-seq", "--mock", "never", "--input", "2", "--m-max", "4",
        "--format", "csv",
    )
    rows = parse_csv(out)
    assert [r["lambda"] for r in rows] == ["1/2", "1/4", "1/8", "1/16"]


def test_report_that_cannot_be_written_fails_cleanly(tmp_path, capsys):
    """A report --out path in a missing directory exits 2 with an error, as
    gallery's does, and prints no report; a writable one gets the stdout text."""
    missing = tmp_path / "missing" / "r.txt"
    for argv in (("lambda-seq", "--mock", "never", "--input", "1"),
                 ("gallery", "noiseless-z", "--eps", "1/4")):
        code, out, err = run_cli(capsys, *argv, "--out", str(missing))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
    written = tmp_path / "r.txt"
    code, out, _ = run_cli(capsys, "lambda-seq", "--mock", "never", "--input", "1",
                           "--out", str(written))
    assert code == 0 and written.read_text() == out


def test_lambda_seq_program(tmp_path, capsys):
    prog = tmp_path / "parity.cm"
    prog.write_text(PARITY)
    code, out, _ = run_cli(
        capsys, "lambda-seq", "--program", str(prog), "--input", "4", "--m-max", "14",
        "--format", "csv",
    )
    rows = parse_csv(out)
    assert code == 0
    # input 4 halts at step 12, so the value freezes there
    assert rows[-1]["lambda"] == rows[-2]["lambda"] == "1/4096"


def test_lambda_seq_json_renders_fractions(capsys):
    code, out, _ = run_cli(
        capsys, "lambda-seq", "--mock", "halt-at:2", "--input", "1", "--m-max", "3",
        "--format", "json",
    )
    doc = json.loads(out)
    assert [r["lambda"] for r in doc["rows"]] == ["1/2", "1/4", "1/4"]


LAMBDA_M = 12
LAMBDA_CASES = (
    [(("--mock", f"halt-at:{k}"), 1, FixedHaltingOracle(k)) for k in range(1, LAMBDA_M + 2)]
    + [(("--mock", "never"), 3, NeverHaltingOracle())]
    + [(("--program", "{prog}"), n, CounterMachineOracle(PARITY)) for n in (2, 3)]
)


def counting_oracles(monkeypatch):
    """Make the CLI build CountingOracles that answer as its own oracles would."""
    made = []

    def counting(build):
        def make(*args):
            made.append(CountingOracle(build(*args)))
            return made[-1]
        return make

    monkeypatch.setattr(fscfb.cli, "FixedHaltingOracle", counting(FixedHaltingOracle))
    monkeypatch.setattr(fscfb.cli, "NeverHaltingOracle", counting(NeverHaltingOracle))
    monkeypatch.setattr(fscfb.cli, "CounterMachineOracle", counting(CounterMachineOracle))
    return made


@pytest.mark.parametrize("source, n, oracle", LAMBDA_CASES)
def test_lambda_seq_rows_come_from_one_halting_search(tmp_path, capsys, monkeypatch, source, n,
                                                      oracle):
    prog = tmp_path / "parity.cm"
    prog.write_text(PARITY)
    argv = ["lambda-seq", source[0], source[1].format(prog=prog), "--input", str(n),
            "--m-max", str(LAMBDA_M), "--format", "json"]
    expected = [str(lambda_double_sequence(oracle, n, m)) for m in range(1, LAMBDA_M + 1)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [r["lambda"] for r in json.loads(out)["rows"]] == expected
    made = counting_oracles(monkeypatch)
    code, counted, _ = run_cli(capsys, *argv)
    assert counted == out
    assert len(made) == 1
    assert made[0].queries <= 1 + (LAMBDA_M - 1).bit_length()  # 1 + ceil(log2 M)


@pytest.mark.parametrize("n, m_max", [(1, 0), (1, -3), (0, 0)])
def test_lambda_seq_rejects_empty_sequences(capsys, n, m_max):
    code, out, err = run_cli(
        capsys, "lambda-seq", "--mock", "never", "--input", str(n), "--m-max", str(m_max)
    )
    assert code == 2
    assert out == "" and "indices must be >= 1" in err


def exit_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_one_subcommand_parser_reads_like_the_full_parser(capsys, name):
    """``main`` ends a help or a bad call of one subcommand exactly as a
    freshly built parser does: help, a missing required argument, and a
    stray token the top level rejects. Its cached parser keeps no state from
    the calls before."""
    fresh = build_parser.__wrapped__()
    for argv in ([name, "--help"], [name], [name, "x", "--no-such-flag"]):
        full = exit_outcome(capsys, fresh.parse_args, argv)
        assert exit_outcome(capsys, main, argv) == full
    assert exit_outcome(capsys, main, [name, "--help"])[0] == 0
    code, _, err = exit_outcome(capsys, main, [name])
    assert code == 2 and "the following arguments are required" in err


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--", "validate"]])
def test_top_level_messages_come_from_the_full_parser(capsys, argv):
    full = exit_outcome(capsys, build_parser.__wrapped__().parse_args, argv)
    code, out, err = exit_outcome(capsys, main, argv)
    assert (code, out, err) == full
    assert code == (0 if argv == ["--help"] else 2)
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out + err
    if argv == []:
        assert err.endswith("error: the following arguments are required: subcommand\n")
    elif argv == ["bogus"]:
        assert "error: argument subcommand: invalid choice: 'bogus'" in err


def test_bad_mock_spec_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "lambda-seq", "--mock", "halt-at:soon", "--input", "1")
    assert code == 2 and "halt-at" in err


def test_non_integer_f_fails_cleanly(tmp_path, capsys):
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 2,
        "y_size": 2,
        "s_size": 1,
        "w": [[[0.5, 0.5], [0.5, 0.5]]],
        "f": [[["a", "b"], ["c", "d"]]],
    }
    path = tmp_path / "badf.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "integer state indices" in err


def test_lambda_seq_needs_exactly_one_oracle(capsys):
    code, _, err = run_cli(capsys, "lambda-seq", "--input", "1")
    assert code == 2
    code, _, err = run_cli(
        capsys, "lambda-seq", "--mock", "never", "--program", "x", "--input", "1"
    )
    assert code == 2


def test_indecomp_sweep(mixing_channel, capsys):
    code, out, _ = run_cli(
        capsys, "indecomp", str(mixing_channel), "--n", "6", "--sweep-n", "--format", "csv"
    )
    gaps = [float(r["gap"]) for r in parse_csv(out)]
    assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
    assert gaps[1] == pytest.approx(0.75**2, abs=1e-12)


def test_connectivity_command(frozen_channel, capsys):
    code, out, _ = run_cli(capsys, "connectivity", str(frozen_channel), "--format", "csv")
    row = parse_csv(out)[0]
    assert row["connected"] == "false"
    assert (row["witness_from"], row["witness_to"]) == ("1", "0")


def test_channel_file_optimizer_block_drives_the_run(tmp_path, capsys):
    from fscfb import dumps_channel, mixing_pair, noiseless_z_pair

    path = tmp_path / "tuned.json"
    path.write_text(dumps_channel(replace(noiseless_z_pair("1/4"), s0=0,
                                          optimizer={"restarts": 2, "seed": 9})))
    code, out, err = run_cli(capsys, "capacity", str(path), "--n", "1", "--format", "json")
    doc = json.loads(out)
    row = doc["rows"][0]
    # both old keys are read, ignored and named on stderr
    assert "seed" not in doc and "restarts" not in row
    assert err.count("restarts is ignored") == 1 and err.count("seed is ignored") == 1
    assert row["converged"] and 0.0 <= row["gap"] < 1e-10
    assert row["s0"] == "0"  # file s0 picked up
    # CLI flags still win over the file block; a cell that needs more than
    # three updates shows which max_iters was used
    path = tmp_path / "capped.json"
    path.write_text(dumps_channel(replace(mixing_pair("1/4", "1/8"), s0=0,
                                          optimizer={"max_iters": 2, "restarts": 2, "seed": 9})))
    cell = ("capacity", str(path), "--n", "2", "--format", "json")
    code, out, err = run_cli(capsys, *cell)
    assert code == 0 and json.loads(out)["rows"][0]["iterations"] == 2  # file block resolved
    code, out, err = run_cli(capsys, *cell, "--max-iters", "3", "--seed", "4", "--restarts", "3")
    assert code == 0 and json.loads(out)["rows"][0]["iterations"] == 3
    # the flags are accepted and ignored the same way: once for the file, once for the flag
    assert err.count("restarts is ignored") == 2 and err.count("seed is ignored") == 2


def test_whole_floats_in_the_optimizer_block_are_read_as_ints(tmp_path, capsys):
    from fscfb import dumps_channel, mixing_pair

    path = tmp_path / "whole.json"
    path.write_text(dumps_channel(replace(mixing_pair("1/4", "1/8"), s0=0,
                                          optimizer={"max_iters": 2.0, "seed": 7.0})))
    code, out, err = run_cli(capsys, "capacity", str(path), "--n", "2", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and "seed" not in doc and "seed is ignored" in err
    assert doc["rows"][0]["iterations"] == 2


@pytest.mark.parametrize("argv", [
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--max-iters", "-5"),
])
@pytest.mark.parametrize("command", ["capacity", "discontinuity-demo"])
def test_solver_flags_that_can_never_converge_fail_cleanly(frozen_channel, capsys, command, argv):
    cell = (str(frozen_channel), "--s0", "0") if command == "capacity" else ("--eps", "1/4")
    code, out, err = run_cli(capsys, command, *cell, "--n", "1", *argv)
    assert one_error_line(code, out, err)


@pytest.mark.parametrize("block", [{"tol": -1}, {"tol": 0}, {"max_iters": -5}, {"tol": None},
                                   {"tol": [1]}, {"max_iters": 2.5}, {"max_iters": True},
                                   {"max_iters": None}, {"tol": "1e-9"}, {"tol": True},
                                   {"max_iters": "5"}])
def test_malformed_optimizer_block_fails_cleanly(tmp_path, capsys, block):
    path = write_with_block(tmp_path / "bad.json", block)
    code, out, err = run_cli(capsys, "capacity", str(path), "--n", "1")
    assert one_error_line(code, out, err)


@pytest.mark.parametrize("seed", [[1], 2.5, True, None])
def test_seed_in_the_optimizer_block_is_ignored(tmp_path, capsys, seed):
    from fscfb import dumps_channel, noiseless_z_pair

    path = tmp_path / "seeded.json"
    path.write_text(dumps_channel(replace(noiseless_z_pair("1/4"), s0=0, optimizer={"seed": seed})))
    code, out, err = run_cli(capsys, "capacity", str(path), "--n", "1", "--format", "json")
    assert code == 0 and "seed" not in json.loads(out)
    assert err.count("optimizer.seed is ignored") == 1


@pytest.mark.parametrize("block", [{"tol": "abc"}, []], ids=["tol-string", "list"])
@pytest.mark.parametrize("argv", [
    ("validate",), ("capacity", "--n", "1"), ("directed-info", "--n", "1"), ("dmc-capacity",),
    ("indecomp",), ("connectivity",),
], ids=lambda argv: argv[0])
def test_every_subcommand_refuses_a_malformed_optimizer_block(tmp_path, capsys, argv, block):
    path = write_with_block(tmp_path / "bad.json", block)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert one_error_line(code, out, err)


@pytest.mark.parametrize("argv", [
    ("validate", "{ch}"), ("directed-info", "{ch}", "--n", "1"), ("dmc-capacity", "{ch}"),
    ("indecomp", "{ch}"), ("connectivity", "{ch}"), ("lambda-seq", "--mock", "never", "--input", "1"),
    ("gallery", "noiseless-z", "--eps", "1/4", "--out", "{ch}"),
], ids=lambda argv: argv[0])
def test_commands_without_an_optimizer_refuse_seed(frozen_channel, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.format(ch=frozen_channel) for a in argv] + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_single_state_capacity_prints_no_note(frozen_channel, capsys):
    cell = ("capacity", str(frozen_channel), "--n", "1")
    _, out, _ = run_cli(capsys, *cell, "--s0", "0", "--format", "json")
    assert "note" not in json.loads(out)["diagnostics"]
    _, out, _ = run_cli(capsys, *cell, "--s0", "0")
    assert "diag.note" not in out
    _, out, _ = run_cli(capsys, *cell, "--all-states", "--format", "json")
    assert json.loads(out)["diagnostics"]["note"]


def test_json_format_parses_and_ignores_seed(frozen_channel, capsys):
    code, out, err = run_cli(
        capsys, "capacity", str(frozen_channel), "--n", "1", "--s0", "0",
        "--seed", "3", "--format", "json",
    )
    doc = json.loads(out)
    assert "seed" not in doc and "--seed is ignored" in err
    assert doc["command"][0] == "fscfb"
    assert doc["rows"][0]["rate"] == pytest.approx(1.0, abs=1e-6)
    assert doc["input_digest"].startswith("sha256:")


def test_out_flag_writes_identical_bytes(frozen_channel, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "validate", str(frozen_channel), "--format", "csv", "--out", str(report)
    )
    assert report.read_text() == out


def test_table_format_contains_meta(frozen_channel, capsys):
    code, out, _ = run_cli(capsys, "validate", str(frozen_channel))
    assert out.startswith("command: fscfb validate")
    assert "input_digest: sha256:" in out
    assert "seed:" not in out


def test_repeated_calls_print_the_same_bytes(mixing_channel, capsys):
    argv = ("indecomp", str(mixing_channel), "--n", "3", "--sweep-n", "--format", "json")
    first = run_cli(capsys, *argv)
    assert first[0] == 0
    assert run_cli(capsys, *argv)[:2] == first[:2]


def test_a_rejected_call_leaves_the_next_call_unchanged(frozen_channel, capsys):
    argv = ("capacity", str(frozen_channel), "--n", "1", "--s0", "0", "--format", "json")
    code, alone, _ = run_cli(capsys, *argv)
    assert code == 0
    # argparse parses every known flag of this call, then rejects the stray one
    rejected = exit_outcome(capsys, main, [*argv[:2], "--n", "2", "--all-states", "--sweep-n",
                                           "--format", "csv", "--no-such-flag"])
    assert rejected[0] == 2
    assert run_cli(capsys, *argv)[:2] == (0, alone)


def test_a_gallery_default_does_not_leak_into_the_next_call(tmp_path, capsys):
    """``cmd_gallery`` writes ``args.mix``; a mixing call without --mix after
    one with it still writes the mix = 0 channel."""
    from fscfb import dumps_channel, mixing_pair

    run_cli(capsys, "gallery", "mixing", "--eps", "1/4", "--mix", "1/8",
            "--out", str(tmp_path / "mixed.json"))
    path = tmp_path / "plain.json"
    code, out, _ = run_cli(capsys, "gallery", "mixing", "--eps", "1/4", "--out", str(path),
                           "--format", "json")
    assert code == 0
    assert path.read_text() == dumps_channel(mixing_pair("1/4", "0"))
    params = "mixing eps=1/4 mix=0 k=None x=None y=None s=None"
    assert json.loads(out)["input_digest"] == "sha256:" + hashlib.sha256(params.encode()).hexdigest()


def test_calls_to_different_subcommands_build_the_parser_once(frozen_channel, tmp_path, capsys,
                                                              monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    build_parser.cache_clear()
    try:
        ch = str(frozen_channel)
        for argv in (("validate", ch), ("connectivity", ch), ("dmc-capacity", ch),
                     ("lambda-seq", "--mock", "never", "--input", "1"),
                     ("gallery", "noiseless-z", "--eps", "1/4", "--out", str(tmp_path / "z.json")),
                     ("validate", ch)):
            assert run_cli(capsys, *argv)[0] == 0
    finally:
        build_parser.cache_clear()
    # the top-level parser, then one subparser per subcommand, all in the first call
    assert built == ["fscfb"] + [f"fscfb {name}" for name in SUBCOMMANDS]


@pytest.mark.parametrize("argv", [
    ("validate",), ("capacity", "--n", "1", "--s0", "0"), ("directed-info", "--n", "2"),
    ("dmc-capacity",), ("indecomp", "--n", "2"), ("connectivity",),
], ids=lambda argv: argv[0])
def test_input_digest_is_the_sha256_of_the_file_read_once(mixing_channel, capsys, monkeypatch,
                                                         argv):
    data = mixing_channel.read_bytes()
    reads = []
    read_bytes = Path.read_bytes

    def spy(path):
        reads.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    monkeypatch.setattr(Path, "read_text", lambda *a, **k: pytest.fail("read as text"))
    code, out, _ = run_cli(capsys, argv[0], str(mixing_channel), *argv[1:], "--format", "json")
    assert code == 0
    assert json.loads(out)["input_digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
    assert reads == [mixing_channel]


def test_lambda_seq_program_digest_is_the_sha256_of_its_bytes(tmp_path, capsys):
    path = tmp_path / "parity.cm"
    path.write_bytes(("# halts iff r0 is even — a comment\n" + PARITY).encode())
    code, out, _ = run_cli(capsys, "lambda-seq", "--program", str(path), "--input", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["input_digest"] == (
        "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest())


def test_a_non_ascii_label_loads_under_an_ascii_locale(tmp_path):
    """Channel files are UTF-8 whatever the locale: with LC_ALL=C and UTF-8
    mode off, the preferred encoding is ASCII, and a text read with it
    would fail on the label."""
    from fscfb import dumps_channel, noiseless_z_pair

    doc = json.loads(dumps_channel(noiseless_z_pair("1/4")))
    doc["label"] = "Zürich switch ε"
    path = tmp_path / "label.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    script = (
        "import sys\n"
        "from fscfb.channel_io import dumps_channel, load_channel\n"
        "from fscfb.cli import main\n"
        "import locale\n"
        "assert locale.getpreferredencoding(False).lower() in ('ascii', 'ansi_x3.4-1968')\n"
        "sys.stdout.write(dumps_channel(load_channel(sys.argv[1])))\n"
        "sys.exit(main(['validate', sys.argv[1], '--format', 'json']))\n"
    )
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": str(Path(fscfb.cli.__file__).resolve().parent.parent)}
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr
    echoed = json.JSONDecoder().raw_decode(proc.stdout)[0]
    assert echoed["label"] == "Zürich switch ε"
