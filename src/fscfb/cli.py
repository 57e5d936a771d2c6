"""Command-line surface.

Every subcommand builds a run report with the echoed command, an input
digest, a row table, and diagnostics, then renders it as an aligned table,
CSV, or JSON. Reports are byte-stable for identical inputs; wall-clock
timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import channel_io
from .capacity import (
    OptimizerSettings,
    dmc_capacity,
    finite_n_bracket,
    iid_rate,
    optimize_rate,
    z_channel_closed_form,
)
from .channels import (
    compose_unifilar,
    indecomposability_gap,
    indecomposability_gaps,
    strongly_connected,
    tv_distance,
)
from .errors import DomainError, FscError, ValidationError
from .gallery import (
    extend_alphabets,
    extend_states,
    inverse_k_pair,
    mixing_pair,
    noiseless_z_pair,
)
from .rational import as_fraction
from .reduction import (
    CounterMachineOracle,
    FixedHaltingOracle,
    NeverHaltingOracle,
    effective_certificate,
    lambda_sequence,
)

GALLERY_NAMES = ("noiseless-z", "mixing", "inverse-k", "extend-alphabets", "extend-states")


def _digest_params(text: str) -> str:
    return channel_io.content_digest(text.encode())


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, Fraction):
        return str(v)
    if v is None:
        return ""
    return str(v)


def _json_default(o):
    if isinstance(o, Fraction):
        return str(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o).__name__}")


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"
    rows = report["rows"]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row.get(k)) for k in header])
        return buf.getvalue()
    lines = [
        f"command: {' '.join(report['command'])}",
        f"input_digest: {report['input_digest']}",
    ]
    if rows:
        lines.append("")
        header = list(rows[0].keys())
        cells = [[_fmt(row.get(k)) for k in header] for row in rows]
        widths = [max(len(h), max(len(c[i]) for c in cells)) for i, h in enumerate(header)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for c in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)).rstrip())
    diags = report.get("diagnostics", {})
    if diags:
        lines.append("")
        for k in sorted(diags):
            lines.append(f"diag.{k}: {_fmt(diags[k])}")
    return "\n".join(lines) + "\n"


def _given(*values):
    """The first of ``values`` that is not None: a flag over the channel
    file over a default."""
    return next((value for value in values if value is not None), None)


def _resolve_settings(args, block: dict) -> OptimizerSettings:
    """Optimizer settings from the flags, the channel file's optimizer block
    and the defaults. ``restarts`` and ``seed`` from either source are
    ignored with a warning: the solver is deterministic and runs once."""
    for key in channel_io.IGNORED_KEYS:
        if key in block:
            print(f"warning: the channel file's optimizer.{key} is ignored", file=sys.stderr)
        if getattr(args, key) is not None:
            print(f"warning: --{key} is ignored", file=sys.stderr)
    return OptimizerSettings(**{
        key: _given(getattr(args, key), block.get(key), getattr(OptimizerSettings, key))
        for key in channel_io.SETTING_KEYS
    })


def _load_unifilar(path):
    loaded = channel_io.load_channel(path)
    if loaded.kind != "unifilar":
        raise ValidationError("this command needs a unifilar channel file (w and f)")
    return loaded


# --- subcommand handlers ---------------------------------------------------


def cmd_validate(args):
    loaded = channel_io.load_channel(args.channel)
    general = loaded.as_general()
    unifilar = bool((general.law > 0).sum(axis=3).max() <= 1)
    conn = strongly_connected(general)
    gap_n = args.n
    gap = indecomposability_gap(general, gap_n)
    rows = [
        {"property": "kind", "value": loaded.kind},
        {"property": "x_size", "value": general.x_size},
        {"property": "y_size", "value": general.y_size},
        {"property": "s_size", "value": general.s_size},
        {"property": "stochastic", "value": True},
        {"property": "unifilar", "value": unifilar},
        {"property": "strongly_connected", "value": conn.connected},
        {"property": "witness", "value": "" if conn.witness is None else f"{conn.witness[0]}->{conn.witness[1]}"},
        {"property": "indecomposability_gap_n", "value": gap_n},
        {"property": "indecomposability_gap", "value": gap},
    ]
    return rows, {}, loaded.digest


def _estimate_row(n, s0_label, est):
    d = est.diagnostics
    return {
        "n": n,
        "s0": s0_label,
        "rate": est.value,
        "converged": d["converged"],
        "iterations": d["iterations"],
        "gap": est.upper - est.value,
    }


def cmd_capacity(args):
    loaded = _load_unifilar(args.channel)
    cfg = _resolve_settings(args, loaded.optimizer)
    u = loaded.channel
    horizons = range(1, args.n + 1) if args.sweep_n else [args.n]
    s0 = _given(args.s0, loaded.s0)
    all_states = args.all_states or s0 is None
    rows = []
    diags = {}
    for n in horizons:
        if all_states:
            bracket = finite_n_bracket(u, n, cfg)
            for est in bracket.per_state:
                rows.append(_estimate_row(n, str(est.initial_state), est))
            rows.append(_estimate_row(n, "min", bracket.low))
            rows.append(_estimate_row(n, "max", bracket.high))
            diags["note"] = bracket.note
        else:
            est = optimize_rate(u, s0, n, cfg)
            rows.append(_estimate_row(n, str(s0), est))
    diags["optimizer"] = f"max_iters={cfg.max_iters} tol={cfg.tol:g}"
    return rows, diags, loaded.digest


def cmd_directed_info(args):
    loaded = _load_unifilar(args.channel)
    u = loaded.channel
    s0 = _given(args.s0, loaded.s0, 0)
    if args.dist:
        dist = np.array([float(as_fraction(tok)) for tok in args.dist.split(",")])
        policy_name = "iid"
    else:
        dist = np.full(u.x_size, 1.0 / u.x_size)
        policy_name = "uniform-iid"
    rate = iid_rate(u, s0, dist, args.n)
    rows = [
        {
            "n": args.n,
            "s0": s0,
            "policy": policy_name,
            "directed_bits": rate * args.n,
            "rate": rate,
        }
    ]
    return rows, {}, loaded.digest


def cmd_dmc_capacity(args):
    loaded = channel_io.load_channel(args.channel)
    s0 = _given(args.s0, loaded.s0, 0)
    ch = loaded.channel
    if not 0 <= s0 < ch.s_size:
        raise DomainError(f"s0 = {s0} outside 0..{ch.s_size - 1}")
    w = ch.w[s0] if loaded.kind == "unifilar" else ch.law[s0].sum(axis=2)
    result = dmc_capacity(w)
    row = {"s0": s0, "capacity": result.capacity, "iterations": result.iterations,
           "bracket": result.bracket}
    for x, p in enumerate(result.input_dist):
        row[f"p_x{x}"] = float(p)
    return [row], {}, loaded.digest


def _build_gallery(args):
    if args.name == "noiseless-z":
        return noiseless_z_pair(args.eps)
    if args.name == "mixing":
        return mixing_pair(args.eps, args.mix)
    if args.name == "inverse-k":
        return inverse_k_pair(args.eps, args.k)
    if args.name == "extend-alphabets":
        base = mixing_pair(args.eps, args.mix)
        return extend_alphabets(base, args.x, args.y)
    base = mixing_pair(args.eps, args.mix)
    return extend_states(base, args.s)


def cmd_gallery(args):
    if args.name in ("mixing", "extend-alphabets", "extend-states") and args.mix is None:
        args.mix = "0"
    if args.name == "inverse-k" and args.k is None:
        raise DomainError("inverse-k needs --k")
    if args.name == "extend-alphabets" and (args.x is None or args.y is None):
        raise DomainError("extend-alphabets needs --x and --y")
    if args.name == "extend-states" and args.s is None:
        raise DomainError("extend-states needs --s")
    g = _build_gallery(args)
    text = channel_io.dumps_channel(g)
    Path(args.out).write_text(text)
    param_str = f"{args.name} eps={args.eps} mix={args.mix} k={args.k} x={args.x} y={args.y} s={args.s}"
    rows = [
        {
            "label": g.label,
            "x_size": g.channel.x_size,
            "y_size": g.channel.y_size,
            "s_size": g.channel.s_size,
            "path": args.out,
            "file_digest": channel_io.content_digest(text.encode()),
        }
    ]
    return rows, {}, _digest_params(param_str)


def cmd_discontinuity_demo(args):
    eps = as_fraction(args.eps)
    ks = [int(tok) for tok in args.k_list.split(",") if tok]
    cfg = _resolve_settings(args, {})
    base = mixing_pair(eps, 0)
    base_law = compose_unifilar(base.channel)
    z_cap, _ = z_channel_closed_form(float(eps))
    rows = [
        {
            "k": "inf",
            "tv_distance": 0.0,
            "est_s0_0": 1.0,
            "est_s0_1": z_cap,
            "gap": 1.0 - z_cap,
        }
    ]
    for k in ks:
        g = inverse_k_pair(eps, k)
        tv = tv_distance(base_law, compose_unifilar(g.channel))
        est0 = optimize_rate(g.channel, 0, args.n, cfg).value
        est1 = optimize_rate(g.channel, 1, args.n, cfg).value
        rows.append(
            {"k": k, "tv_distance": tv, "est_s0_0": est0, "est_s0_1": est1, "gap": est0 - est1}
        )
    diags = {
        "note": "limit row uses closed forms; finite k rows use the horizon-n estimator",
        "n": args.n,
    }
    return rows, diags, _digest_params(f"eps={eps} k_list={args.k_list} n={args.n}")


def _parse_mock(spec: str):
    if spec == "never":
        return NeverHaltingOracle()
    if spec.startswith("halt-at:"):
        try:
            step = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad halt-at step in {spec!r}") from exc
        if step < 1:
            raise DomainError("halt-at step must be >= 1")
        return FixedHaltingOracle(step)
    raise DomainError(f"unknown mock oracle {spec!r}; use 'never' or 'halt-at:K'")


def cmd_lambda_seq(args):
    if (args.program is None) == (args.mock is None):
        raise DomainError("give exactly one of --program or --mock")
    if args.program:
        data = Path(args.program).read_bytes()
        oracle = CounterMachineOracle(data.decode("utf-8"))
        digest = channel_io.content_digest(data)
    else:
        oracle = _parse_mock(args.mock)
        digest = _digest_params(f"mock={args.mock}")
    values = lambda_sequence(oracle, args.input, args.m_max)
    certs = effective_certificate(values)
    rows = [
        {"m": m, "lambda": lam, "certified": ok}
        for m, (lam, ok) in enumerate(zip(values, certs), start=1)
    ]
    return rows, {"input": args.input}, digest


def cmd_indecomp(args):
    loaded = channel_io.load_channel(args.channel)
    general = loaded.as_general()
    gaps = indecomposability_gaps(general, args.n)
    horizons = range(1, args.n + 1) if args.sweep_n else [args.n]
    rows = [{"n": n, "gap": gaps[n - 1]} for n in horizons]
    return rows, {}, loaded.digest


def cmd_connectivity(args):
    loaded = channel_io.load_channel(args.channel)
    conn = strongly_connected(loaded.as_general())
    rows = [
        {
            "connected": conn.connected,
            "witness_from": "" if conn.witness is None else conn.witness[0],
            "witness_to": "" if conn.witness is None else conn.witness[1],
            "max_hops": conn.max_hops,
        }
    ]
    return rows, {}, loaded.digest


# --- parser ----------------------------------------------------------------


def _add_output_flags(sp):
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sp.add_argument("--out", default=None, help="also write the rendered report to this path")


def _add_optimizer_flags(sp):
    for key in channel_io.IGNORED_KEYS:
        sp.add_argument(f"--{key}", type=int, default=None, help="ignored; kept for old scripts")
    sp.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    sp.add_argument("--tol", type=float, default=None)


def _validate_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, default=6, help="horizon for the state-memory gap")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_validate, writes_report=True)


def _capacity_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s0", type=int, default=None)
    sp.add_argument("--all-states", action="store_true", dest="all_states")
    sp.add_argument("--sweep-n", action="store_true", dest="sweep_n")
    _add_optimizer_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_capacity, writes_report=True)


def _directed_info_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s0", type=int, default=None)
    sp.add_argument("--dist", default=None, help="comma-separated input distribution")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_directed_info, writes_report=True)


def _dmc_capacity_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--s0", type=int, default=None)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_dmc_capacity, writes_report=True)


def _gallery_args(sp):
    sp.add_argument("name", choices=GALLERY_NAMES)
    sp.add_argument("--eps", default=None, required=True, help="rational like 1/4")
    sp.add_argument("--mix", default=None, help="rational in [0, 1/2]")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--x", type=int, default=None)
    sp.add_argument("--y", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--out", required=True, help="channel file to write")
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sp.set_defaults(handler=cmd_gallery, writes_report=False)


def _discontinuity_demo_args(sp):
    sp.add_argument("--eps", required=True)
    sp.add_argument("--k-list", default="2,4,8,16,32,64", dest="k_list")
    sp.add_argument("--n", type=int, default=4)
    _add_optimizer_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_discontinuity_demo, writes_report=True)


def _lambda_seq_args(sp):
    sp.add_argument("--program", default=None, help="counter-machine program file")
    sp.add_argument("--mock", default=None, help="'never' or 'halt-at:K'")
    sp.add_argument("--input", type=int, required=True)
    sp.add_argument("--m-max", type=int, default=16, dest="m_max")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_lambda_seq, writes_report=True)


def _indecomp_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--sweep-n", action="store_true", dest="sweep_n")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_indecomp, writes_report=True)


def _connectivity_args(sp):
    sp.add_argument("channel")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_connectivity, writes_report=True)


# name -> (help line, function that adds the subcommand's arguments), in help order
SUBCOMMANDS = {
    "validate": ("check a channel file and report structure", _validate_args),
    "capacity": ("finite-horizon feedback-rate estimate", _capacity_args),
    "directed-info": ("directed information of an iid policy", _directed_info_args),
    "dmc-capacity": ("Blahut-Arimoto capacity of one state's channel", _dmc_capacity_args),
    "gallery": ("write a constructed channel to a file", _gallery_args),
    "discontinuity-demo": (
        "distance to the limit channel shrinks while its state gap persists",
        _discontinuity_demo_args,
    ),
    "lambda-seq": ("dyadic halting sequence of a step-bounded oracle", _lambda_seq_args),
    "indecomp": ("exhaustive initial-state memory gap", _indecomp_args),
    "connectivity": ("strong-connectivity verdict with witness", _connectivity_args),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each call of ``main``
    parses into a fresh namespace, so calls do not see each other's args."""
    parser = argparse.ArgumentParser(
        prog="fscfb",
        description="Unifilar finite-state channels with feedback: validation, "
        "directed information, and finite-horizon capacity estimates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_args) in SUBCOMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        rows, diagnostics, digest = args.handler(args)
        report = {
            "command": ["fscfb"] + argv,
            "input_digest": digest,
            "rows": rows,
            "diagnostics": diagnostics,
        }
        text = render_report(report, args.format)
        # before stdout, so a report that cannot be written prints nothing
        if args.writes_report and args.out:
            Path(args.out).write_text(text)
    except (FscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    print(f"wall_clock_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
