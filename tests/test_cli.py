import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fscfb.cli
from fscfb import (
    CounterMachineOracle,
    FixedHaltingOracle,
    dmc_capacity,
    lambda_double_sequence,
    load_channel,
)
from fscfb.cli import GALLERY, SUBCOMMANDS, build_parser, main, render_report
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
    path = tmp_path / "x.json"
    code, out, err = exit_outcome(capsys, main,
                                  ["gallery", "inverse-k", "--eps", "1/4", "--out", str(path)])
    assert (code, out) == (2, "")
    assert "the following arguments are required: --k" in err
    assert not path.exists()


@pytest.mark.parametrize("sizes", [("extend-states", "--s", "1000000000"),
                                   ("extend-alphabets", "--x", "100000", "--y", "100000")])
def test_gallery_refuses_an_extension_over_its_budget(tmp_path, capsys, sizes):
    path = tmp_path / "big.json"
    code, out, err = run_cli(capsys, "gallery", sizes[0], "--eps", "1/4", *sizes[1:],
                             "--out", str(path))
    assert code == 2
    assert out == "" and "over the limit of" in err
    assert not path.exists()


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
    # an empty program path is refused, not taken for a missing flag
    for argv in (("validate", "/nonexistent/nope.json"),
                 ("lambda-seq", "--program", "", "--input", "1")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "error:" in err
    # Path("") is the current directory: the refusal names the flag, not "."
    assert err == "error: --program is empty; give the path of a program file\n"


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


def write_with(path, member=None):
    """The noiseless-z file from s0 = 0 with the raw JSON ``member``, if
    given, as its last member: text, so that it may repeat a key."""
    from fscfb import dumps_channel, noiseless_z_pair

    text = dumps_channel(replace(noiseless_z_pair("1/4"), s0=0))
    if member is not None:
        text = text[:-len("\n}\n")] + f",\n  {member}\n}}\n"
    path.write_text(text)
    return path


@pytest.mark.parametrize("dist", ["0.5,0.25,0.25", "1.5,-0.5", "0.5,0.4999999999", ""])
def test_directed_info_refuses_what_is_not_an_input_law(frozen_channel, capsys, dist):
    # a wrong length, a negative entry, a sum 1e-10 short of 1, an empty law
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
    # JSON keeps every float's digits, so the row must equal the estimate's own numbers
    code, out, _ = run_cli(
        capsys, "dmc-capacity", str(frozen_channel), "--s0", "1", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    est = dmc_capacity(load_channel(frozen_channel).channel.w[1])
    assert row["capacity"] == (est.value + est.upper) / 2
    assert row["bracket"] == est.upper - est.value
    assert row["iterations"] == est.diagnostics["iterations"]
    assert row["p_x0"] == est.policy[0][0, 0][0]


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
    [(("--mock", f"halt-at:{k}"), 1, FixedHaltingOracle({1: k})) for k in range(1, LAMBDA_M + 2)]
    + [(("--mock", "never"), 3, FixedHaltingOracle({}))]
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
    assert made[0].queries == 1


@pytest.mark.parametrize("n, m_max", [(1, 0), (1, -3), (0, 0)])
def test_lambda_seq_rejects_empty_sequences(capsys, n, m_max):
    code, out, err = run_cli(
        capsys, "lambda-seq", "--mock", "never", "--input", str(n), "--m-max", str(m_max)
    )
    assert code == 2
    assert out == "" and "indices must be >= 1" in err


def test_lambda_seq_refuses_an_m_max_over_the_bit_budget(capsys, monkeypatch):
    queries = []
    monkeypatch.setattr(FixedHaltingOracle, "halting_step", lambda self, n, m: queries.append(m))
    code, out, err = run_cli(
        capsys, "lambda-seq", "--mock", "never", "--input", "1", "--m-max", "4472"
    )
    assert code == 2
    assert out == "" and err.startswith("error: m_max 4472 needs 10001628 denominator bits")
    assert queries == []


@pytest.mark.parametrize("argv", [
    ("capacity", "{ch}", "--n", "0", "--sweep-n"),
    ("capacity", "{ch}", "--n", "-2", "--sweep-n", "--all-states"),
    ("discontinuity-demo", "--eps", "1/4", "--k-list", "", "--n", "0"),
], ids=["capacity-sweep", "capacity-all-states", "discontinuity-demo"])
def test_horizon_below_one_is_refused_where_no_cell_runs(frozen_channel, capsys, argv):
    n = argv[argv.index("--n") + 1]
    code, out, err = run_cli(capsys, *[a.format(ch=frozen_channel) for a in argv])
    assert code == 2
    assert out == "" and err == f"error: horizon must be >= 1, got {n}\n"


def exit_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_one_subcommand_parser_reads_like_the_full_parser(capsys, name):
    """``main`` ends a help or a call missing a required argument of one
    subcommand exactly as a freshly built parser does, and a stray token
    with that subcommand's usage. Its cached parser keeps no state from the
    calls before."""
    fresh = build_parser.__wrapped__()
    for argv in ([name, "--help"], [name]):
        full = exit_outcome(capsys, fresh.parse_args, argv)
        assert exit_outcome(capsys, main, argv) == full
    stray = [name, "x", "--no-such-flag"]
    code, out, err = exit_outcome(capsys, main, stray)
    assert (code, out) == (2, "") and err.startswith(f"usage: fscfb {name} ")
    assert exit_outcome(capsys, main, stray) == (code, out, err)
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
    code, out, err = exit_outcome(capsys, main, ["lambda-seq", "--input", "1"])
    assert (code, out) == (2, "")
    assert "one of the arguments --program --mock is required" in err
    code, out, err = exit_outcome(
        capsys, main, ["lambda-seq", "--mock", "never", "--program", "x", "--input", "1"]
    )
    assert (code, out) == (2, "")
    assert "argument --program: not allowed with argument --mock" in err


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


def test_channel_file_s0_drives_the_run(tmp_path, capsys):
    from fscfb import dumps_channel, mixing_pair

    path = tmp_path / "from0.json"
    path.write_text(dumps_channel(replace(mixing_pair("1/4", "1/8"), s0=0)))
    cell = ("capacity", str(path), "--n", "2", "--format", "json")
    code, out, err = run_cli(capsys, *cell)
    doc = json.loads(out)
    assert code == 0 and "warning" not in err
    assert [row["s0"] for row in doc["rows"]] == ["0"]  # file s0 picked up
    assert doc["diagnostics"]["optimizer"] == "max_iters=20000 tol=1e-10"
    # a cell that needs more than three updates shows which max_iters was used
    code, out, err = run_cli(capsys, *cell, "--max-iters", "3", "--seed", "4", "--restarts", "3")
    assert code == 0 and json.loads(out)["rows"][0]["iterations"] == 3
    # the two old flags are accepted and ignored, each with one warning
    assert err.count("--restarts is ignored") == 1 and err.count("--seed is ignored") == 1


@pytest.mark.parametrize("argv", [
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--max-iters", "-5"),
])
@pytest.mark.parametrize("command", ["capacity", "discontinuity-demo"])
def test_solver_flags_that_can_never_converge_fail_cleanly(frozen_channel, capsys, command, argv):
    cell = (str(frozen_channel), "--s0", "0") if command == "capacity" else ("--eps", "1/4")
    code, out, err = run_cli(capsys, command, *cell, "--n", "1", *argv)
    assert one_error_line(code, out, err)


# a valid value for each flag a gallery construction may take
GALLERY_VALUES = {"mix": "1/8", "k": "4", "x": "3", "y": "3", "s": "3"}


def gallery_argv(name, flags):
    return ["gallery", name, "--eps", "1/4",
            *[token for flag in flags for token in (f"--{flag}", GALLERY_VALUES[flag])]]


INERT_INPUTS = (
    [pytest.param(gallery_argv(name, (*flags, extra)), None, id=f"gallery-{name}-{extra}")
     for name, (flags, _) in GALLERY.items() for extra in GALLERY_VALUES if extra not in flags]
    + [pytest.param(["capacity", "--n", "1", "--s0", "0", "--all-states"], None,
                    id="capacity-s0-all-states")]
    + [pytest.param(["capacity", "--n", "1"], f'"optimizer": {{"{key}": 1}}', id=f"optimizer-{key}")
       for key in ("restarts", "seed")]
)


@pytest.mark.parametrize("argv, member", INERT_INPUTS)
def test_an_input_the_program_would_not_read_is_refused(tmp_path, capsys, argv, member):
    """Each flag a gallery construction does not take, --s0 with
    --all-states, and a channel file's retired optimizer block exit 2 with
    nothing on stdout and no file written."""
    out_path = tmp_path / "out.json"
    if argv[0] == "gallery":
        argv = [*argv, "--out", str(out_path)]
    else:
        argv = [argv[0], str(write_with(tmp_path / "ch.json", member)), *argv[1:]]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's refusal
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "") and "error: " in err
    assert not out_path.exists()


# a member outside the format, and the key it names
FOREIGN_MEMBERS = {"optimizer": ('"optimizer": {"tol": 1e-9}', "optimizer"),
                   "S0": ('"S0": 1', "S0"), "lawx": ('"lawx": 3', "lawx"),
                   "s0-twice": ('"s0": 1', "s0")}


@pytest.mark.parametrize("member, key", FOREIGN_MEMBERS.values(), ids=FOREIGN_MEMBERS)
@pytest.mark.parametrize("argv", [
    ("validate",), ("capacity", "--n", "1"), ("directed-info", "--n", "1"), ("dmc-capacity",),
    ("indecomp",), ("connectivity",),
], ids=lambda argv: argv[0])
def test_every_subcommand_refuses_a_key_outside_the_format(tmp_path, capsys, argv, member, key):
    """A key the format does not name, or one given twice, is refused by
    every subcommand that loads a file, naming the key."""
    path = write_with(tmp_path / "bad.json", member)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert one_error_line(code, out, err)
    assert f"'{key}'" in err


@pytest.mark.parametrize("argv, usage, extras", [
    (["gallery", "noiseless-z", "--eps", "1/4", "--k", "3", "--out", "{out}"],
     "usage: fscfb gallery noiseless-z ", "--k 3"),
    (["capacity", "{ch}", "--n", "1", "--bogus"], "usage: fscfb capacity ", "--bogus"),
], ids=["gallery", "capacity"])
def test_an_unknown_flag_is_refused_with_its_subcommands_usage(frozen_channel, tmp_path, capsys,
                                                               argv, usage, extras):
    out_path = tmp_path / "out.json"
    code, out, err = exit_outcome(capsys, main,
                                  [a.format(ch=frozen_channel, out=out_path) for a in argv])
    assert (code, out) == (2, "") and err.startswith(usage)
    assert f"error: unrecognized arguments: {extras}\n" in err
    assert not out_path.exists()


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
    """A mixing call without --mix after one with it still writes the
    mix = 0 channel."""
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
    # the top-level parser, then one subparser per subcommand and one per
    # gallery construction, all in the first call
    constructions = [f"fscfb gallery {name}" for name in GALLERY]
    assert built == ["fscfb"] + [prog for name in SUBCOMMANDS for prog in
                                 [f"fscfb {name}"] + (constructions if name == "gallery" else [])]


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


# report leaves of every kind the JSON writer meets, and the corner floats
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(["\x00\x1f\n\t\"\\", "caf\u00e9 \u2028 \U0001f600"]),
    st.fractions(),
)
_REPORTS = st.dictionaries(st.text(), st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4),
), max_leaves=30), max_size=5)


def _stdlib_json(report):
    return json.dumps(report, sort_keys=True, indent=2, default=fscfb.cli._json_default) + "\n"


@settings(deadline=None)
@given(_REPORTS)
def test_json_report_is_the_stdlib_layout_byte_for_byte(report):
    assert render_report(report, "json") == _stdlib_json(report)


@pytest.mark.parametrize("leaf", [{1, 2}, np.bool_(True), np.int64(3)],
                         ids=["set", "np.bool_", "np.int64"])
def test_json_report_refuses_what_the_stdlib_refuses(leaf):
    report = {"rows": [{"value": leaf}], "diagnostics": {}}
    with pytest.raises(TypeError) as ours:
        render_report(report, "json")
    with pytest.raises(TypeError) as stdlib:
        _stdlib_json(report)
    assert str(ours.value) == str(stdlib.value)


def test_json_report_refuses_a_key_that_is_not_a_string():
    with pytest.raises(TypeError, match="^report keys must be str, not int$"):
        render_report({"rows": [{1: "one"}], "diagnostics": {}}, "json")
