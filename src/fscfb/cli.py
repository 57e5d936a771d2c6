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
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import channel_io
from .capacity import (
    OptimizerSettings,
    dmc_capacity,
    iid_rate,
    optimize_rate,
    z_channel_closed_form,
)
from .channels import (
    compose_unifilar,
    indecomposability_gaps,
    strongly_connected,
    tv_distance,
)
from .errors import DomainError, FscError, ValidationError, check_at_least
from .gallery import (
    extend_alphabets,
    extend_states,
    inverse_k_pair,
    mixing_pair,
    noiseless_z_pair,
)
from .reduction import (
    CounterMachineOracle,
    FixedHaltingOracle,
    effective_certificate,
    lambda_sequence,
)

# old flags, ignored with a warning: the solver is deterministic and runs once
_IGNORED_FLAGS = ("restarts", "seed")
# capacity --all-states: the min (max) row brackets the min (max) over initial
# states of the horizon-N optima; the min of those upper-bounds the joint max-min
_ALL_STATES_NOTE = "min over initial states of per-state maxima; not the joint max-min"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    if v is None:
        return ""
    return str(v)


def _json_default(o):
    if isinstance(o, Fraction):
        return str(o)
    raise TypeError(f"not serializable: {type(o).__name__}")


_encode_str = json.encoder.encode_basestring_ascii  # the stdlib's C string encoder


def _float_json(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _key_json(key) -> str:
    """A dict key, which in every report is a string."""
    if not isinstance(key, str):
        raise TypeError(f"report keys must be str, not {type(key).__name__}")
    return _encode_str(key)


def _json(value, pad: str) -> str:
    """``value``, whose dict keys are strings, as ``json.dumps`` writes it
    with sorted keys, a two-space indent and ``default=_json_default``,
    byte for byte, starting at indent ``pad``. With an indent, ``json.dumps`` falls back to the stdlib's
    pure-Python encoder; this writer hands each string leaf to the C string
    encoder, tests leaves in the stdlib's order (``bool`` before ``int``)
    and writes int and float subclasses with ``int.__repr__`` and
    ``float.__repr__`` as the stdlib does."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_json(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        body = (",\n" + inner).join([_json(v, inner) for v in value])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = (",\n" + inner).join(
            [f"{_key_json(k)}: {_json(v, inner)}" for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    return _json(_json_default(value), pad)


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report, "") + "\n"
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


def _resolve_settings(args) -> OptimizerSettings:
    """Optimizer settings from the flags, after a warning for each ignored
    flag given."""
    for key in _IGNORED_FLAGS:
        if getattr(args, key) is not None:
            print(f"warning: --{key} is ignored", file=sys.stderr)
    return OptimizerSettings(args.max_iters, args.tol)


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
    gap = indecomposability_gaps(general, gap_n)[-1]
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


def _estimate_row(n, s0_label, est, upper, tol):
    """A capacity row: the rate of ``est`` and its gap to ``upper``."""
    gap = upper - est.value
    return {
        "n": n,
        "s0": s0_label,
        "rate": est.value,
        "converged": gap < tol,
        "iterations": est.diagnostics["iterations"],
        "gap": gap,
    }


def cmd_capacity(args):
    loaded = _load_unifilar(args.channel)
    cfg = _resolve_settings(args)
    check_at_least("horizon", args.n, 1)  # also where no cell runs to refuse it
    u = loaded.channel
    horizons = range(1, args.n + 1) if args.sweep_n else [args.n]
    s0 = _given(args.s0, loaded.s0)
    all_states = args.all_states or s0 is None
    states = range(u.s_size) if all_states else [s0]
    rows = []
    for n in horizons:
        ests = [optimize_rate(u, s, n, cfg) for s in states]
        rows += [_estimate_row(n, str(s), est, est.upper, cfg.tol) for s, est in zip(states, ests)]
        if all_states:
            uppers = [est.upper for est in ests]
            for pick, label in ((min, "min"), (max, "max")):  # ties go to the lowest state
                est = pick(ests, key=lambda e: e.value)
                rows.append(_estimate_row(n, label, est, pick(uppers), cfg.tol))
    diags = {"note": _ALL_STATES_NOTE} if all_states else {}
    diags["optimizer"] = f"max_iters={cfg.max_iters} tol={cfg.tol:g}"
    return rows, diags, loaded.digest


def cmd_directed_info(args):
    loaded = _load_unifilar(args.channel)
    u = loaded.channel
    s0 = _given(args.s0, loaded.s0, 0)
    if args.dist is not None:  # an empty --dist is a malformed law, not a missing one
        try:
            dist = np.array([float(channel_io.as_fraction(tok)) for tok in args.dist.split(",")])
        except DomainError as exc:
            raise DomainError(f"input law {args.dist!r}: {exc}") from None
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
    est = dmc_capacity(w)
    row = {"s0": s0, "capacity": (est.value + est.upper) / 2.0,
           "iterations": est.diagnostics["iterations"], "bracket": est.upper - est.value}
    for x, p in enumerate(est.policy[0][0, 0]):
        row[f"p_x{x}"] = float(p)
    return [row], {}, loaded.digest


def cmd_gallery(args):
    g = GALLERY[args.name][1](args)
    text = channel_io.dumps_channel(g)
    Path(args.channel_out).write_text(text)
    # None for a flag the construction does not take
    param_str = " ".join([args.name] + [f"{key}={getattr(args, key, None)}"
                                        for key in ("eps", *_GALLERY_FLAGS)])
    rows = [{"label": g.label, "x_size": g.channel.x_size, "y_size": g.channel.y_size,
             "s_size": g.channel.s_size, "path": args.channel_out,
             "file_digest": channel_io.content_digest(text.encode())}]
    return rows, {}, channel_io.content_digest(param_str.encode())


def cmd_discontinuity_demo(args):
    eps = channel_io.as_fraction(args.eps)
    ks = [int(tok) for tok in args.k_list.split(",") if tok]
    cfg = _resolve_settings(args)
    base = mixing_pair(eps, 0)
    base_law = compose_unifilar(base.channel)
    z_cap, _ = z_channel_closed_form(float(eps))
    check_at_least("horizon", args.n, 1)
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
    params = f"eps={eps} k_list={args.k_list} n={args.n}"
    return rows, diags, channel_io.content_digest(params.encode())


def _parse_mock(spec: str, n: int):
    if spec == "never":
        return FixedHaltingOracle({})
    if spec.startswith("halt-at:"):
        try:
            step = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad halt-at step in {spec!r}") from exc
        if step < 1:
            raise DomainError("halt-at step must be >= 1")
        return FixedHaltingOracle({n: step})
    raise DomainError(f"unknown mock oracle {spec!r}; use 'never' or 'halt-at:K'")


def cmd_lambda_seq(args):
    if args.program == "":  # Path("") is the current directory
        raise DomainError("--program is empty; give the path of a program file")
    if args.program is not None:
        data = Path(args.program).read_bytes()
        oracle = CounterMachineOracle(data.decode("utf-8"))
        digest = channel_io.content_digest(data)
    else:
        oracle = _parse_mock(args.mock, args.input)
        digest = channel_io.content_digest(f"mock={args.mock}".encode())
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
    for key in _IGNORED_FLAGS:
        sp.add_argument(f"--{key}", type=int, default=None, help="ignored; kept for old scripts")
    sp.add_argument("--max-iters", type=int, default=OptimizerSettings.max_iters, dest="max_iters")
    sp.add_argument("--tol", type=float, default=OptimizerSettings.tol)


def _validate_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, default=6, help="horizon for the state-memory gap")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_validate)


def _capacity_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, required=True)
    start = sp.add_mutually_exclusive_group()
    start.add_argument("--s0", type=int, default=None)
    start.add_argument("--all-states", action="store_true", dest="all_states")
    sp.add_argument("--sweep-n", action="store_true", dest="sweep_n")
    _add_optimizer_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_capacity)


def _directed_info_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s0", type=int, default=None)
    sp.add_argument("--dist", default=None, help="comma-separated input distribution")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_directed_info)


def _dmc_capacity_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--s0", type=int, default=None)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_dmc_capacity)


# the flags a gallery construction may take besides --eps
_GALLERY_FLAGS = {"mix": {"default": "0", "help": "rational in [0, 1/2]"},
                  **{flag: {"type": int, "required": True} for flag in "kxys"}}
# construction -> (its flags besides --eps, builder), in help order
GALLERY = {
    "noiseless-z": ((), lambda a: noiseless_z_pair(a.eps)),
    "mixing": (("mix",), lambda a: mixing_pair(a.eps, a.mix)),
    "inverse-k": (("k",), lambda a: inverse_k_pair(a.eps, a.k)),
    "extend-alphabets": (("mix", "x", "y"),
                         lambda a: extend_alphabets(mixing_pair(a.eps, a.mix), a.x, a.y)),
    "extend-states": (("mix", "s"), lambda a: extend_states(mixing_pair(a.eps, a.mix), a.s)),
}


def _gallery_args(sp):
    constructions = sp.add_subparsers(dest="name", required=True)
    for name, (flags, _) in GALLERY.items():
        cp = constructions.add_parser(name)
        cp.add_argument("--eps", required=True, help="rational like 1/4")
        for flag in flags:
            cp.add_argument(f"--{flag}", **_GALLERY_FLAGS[flag])
        cp.add_argument("--out", required=True, dest="channel_out", metavar="OUT",
                        help="channel file to write")
        cp.add_argument("--format", choices=("table", "csv", "json"), default="table")
        cp.set_defaults(handler=cmd_gallery, parser=cp)


def _discontinuity_demo_args(sp):
    sp.add_argument("--eps", required=True)
    sp.add_argument("--k-list", default="2,4,8,16,32,64", dest="k_list")
    sp.add_argument("--n", type=int, default=4)
    _add_optimizer_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_discontinuity_demo)


def _lambda_seq_args(sp):
    oracle = sp.add_mutually_exclusive_group(required=True)
    oracle.add_argument("--program", default=None, help="counter-machine program file")
    oracle.add_argument("--mock", default=None, help="'never' or 'halt-at:K'")
    sp.add_argument("--input", type=int, required=True)
    sp.add_argument("--m-max", type=int, default=16, dest="m_max")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_lambda_seq)


def _indecomp_args(sp):
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--sweep-n", action="store_true", dest="sweep_n")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_indecomp)


def _connectivity_args(sp):
    sp.add_argument("channel")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_connectivity)


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
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(parser=sp)  # a gallery construction sets its own
        add_args(sp)
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args, extras = build_parser().parse_known_args(argv)
    if extras:  # refused with the usage of the subcommand they follow
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
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
        if getattr(args, "out", None):  # gallery's --out is its channel_out
            Path(args.out).write_text(text)
    except (FscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    print(f"wall_clock_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
