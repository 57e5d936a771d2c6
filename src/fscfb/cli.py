"""Command-line surface.

Every subcommand builds a run report with the echoed command, an input
digest, the effective seed, a row table, and diagnostics, then renders it
as an aligned table, CSV, or JSON. Reports are byte-stable for identical
inputs and seeds; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import channel_io
from .capacity import (
    CausalPolicy,
    OptimizerSettings,
    dmc_capacity,
    evaluate_rate,
    finite_n_bracket,
    optimize_rate,
    z_channel_closed_form,
)
from .channels import (
    compose_unifilar,
    indecomposability_gap,
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
    lambda_double_sequence,
)

GALLERY_NAMES = ("noiseless-z", "mixing", "inverse-k", "extend-alphabets", "extend-states")


def _digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _digest_file(path) -> str:
    return _digest_bytes(Path(path).read_bytes())


def _digest_params(text: str) -> str:
    return _digest_bytes(text.encode())


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
        f"seed: {report['seed']}",
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


def _resolve_settings(args, file_block: dict | None = None):
    base = OptimizerSettings()
    merged = {
        "restarts": base.restarts,
        "max_iters": base.max_iters,
        "tol": base.tol,
        "seed": base.seed,
    }
    merged.update(file_block or {})
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    cfg = OptimizerSettings(
        restarts=int(merged["restarts"]),
        max_iters=int(merged["max_iters"]),
        tol=float(merged["tol"]),
        seed=int(merged["seed"]),
    )
    return cfg


def _load_unifilar(path):
    loaded = channel_io.load_channel(path)
    if loaded.kind != "unifilar":
        raise ValidationError("this command needs a unifilar channel file (w and f)")
    return loaded


# --- subcommand handlers ---------------------------------------------------


def cmd_validate(args):
    loaded = channel_io.load_channel(args.channel)
    general = loaded.as_general()
    if loaded.kind == "unifilar":
        unifilar = True
    else:
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
    return rows, {}, _digest_file(args.channel)


def _estimate_row(n, s0_label, est):
    d = est.diagnostics
    return {
        "n": n,
        "s0": s0_label,
        "rate": est.value,
        "converged": d.get("converged", True),
        "restarts": d.get("restarts", 0),
        "iterations": d.get("iterations", 0),
        "grad_norm": d.get("final_grad_norm", 0.0),
    }


def cmd_capacity(args):
    loaded = _load_unifilar(args.channel)
    cfg = _resolve_settings(args, loaded.optimizer)
    u = loaded.channel
    horizons = range(1, args.n + 1) if args.sweep_n else [args.n]
    all_states = args.all_states or (args.s0 is None and loaded.s0 is None)
    rows = []
    diags = {"note": ""}
    for n in horizons:
        if all_states:
            bracket = finite_n_bracket(u, n, cfg)
            for est in bracket.per_state:
                rows.append(_estimate_row(n, str(est.initial_state), est))
            rows.append(_estimate_row(n, "min", bracket.low))
            rows.append(_estimate_row(n, "max", bracket.high))
            diags["note"] = bracket.note
        else:
            s0 = args.s0 if args.s0 is not None else loaded.s0
            est = optimize_rate(u, s0, n, cfg)
            rows.append(_estimate_row(n, str(s0), est))
    diags["optimizer"] = (
        f"restarts={cfg.restarts} max_iters={cfg.max_iters} tol={cfg.tol:g} seed={cfg.seed}"
    )
    return rows, diags, _digest_file(args.channel), cfg.seed


def cmd_directed_info(args):
    loaded = _load_unifilar(args.channel)
    u = loaded.channel
    s0 = args.s0 if args.s0 is not None else (loaded.s0 or 0)
    if args.dist:
        dist = np.array([float(as_fraction(tok)) for tok in args.dist.split(",")])
        if dist.size != u.x_size or abs(dist.sum() - 1.0) > 1e-9 or np.any(dist < 0):
            raise DomainError(f"--dist must be a distribution over {u.x_size} inputs")
        policy = CausalPolicy.iid(dist, u.y_size, args.n)
        policy_name = "iid"
    else:
        policy = CausalPolicy.uniform(u.x_size, u.y_size, args.n)
        policy_name = "uniform-iid"
    rate = evaluate_rate(u, s0, policy)
    rows = [
        {
            "n": args.n,
            "s0": s0,
            "policy": policy_name,
            "directed_bits": rate * args.n,
            "rate": rate,
        }
    ]
    return rows, {}, _digest_file(args.channel)


def cmd_dmc_capacity(args):
    loaded = channel_io.load_channel(args.channel)
    s0 = args.s0 if args.s0 is not None else (loaded.s0 or 0)
    general = loaded.as_general()
    if not 0 <= s0 < general.s_size:
        raise DomainError(f"s0 = {s0} outside 0..{general.s_size - 1}")
    w = general.law[s0].sum(axis=2)
    result = dmc_capacity(w)
    row = {"s0": s0, "capacity": result.capacity, "iterations": result.iterations,
           "bracket": result.bracket}
    for x, p in enumerate(result.input_dist):
        row[f"p_x{x}"] = float(p)
    return [row], {}, _digest_file(args.channel)


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
            "x_size": g.x_size,
            "y_size": g.y_size,
            "s_size": g.s_size,
            "path": args.out,
            "file_digest": _digest_bytes(text.encode()),
        }
    ]
    return rows, {}, _digest_params(param_str)


def cmd_discontinuity_demo(args):
    eps = as_fraction(args.eps)
    ks = [int(tok) for tok in args.k_list.split(",") if tok]
    cfg = _resolve_settings(args)
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
    return rows, diags, _digest_params(f"eps={eps} k_list={args.k_list} n={args.n}"), cfg.seed


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
        oracle = CounterMachineOracle(Path(args.program).read_text())
        digest = _digest_file(args.program)
    else:
        oracle = _parse_mock(args.mock)
        digest = _digest_params(f"mock={args.mock}")
    values = [lambda_double_sequence(oracle, args.input, m) for m in range(1, args.m_max + 1)]
    certs = effective_certificate(values)
    rows = [
        {"m": m, "lambda": lam, "certified": ok}
        for m, (lam, ok) in enumerate(zip(values, certs), start=1)
    ]
    return rows, {"input": args.input}, digest


def cmd_indecomp(args):
    loaded = channel_io.load_channel(args.channel)
    general = loaded.as_general()
    horizons = range(1, args.n + 1) if args.sweep_n else [args.n]
    rows = [{"n": n, "gap": indecomposability_gap(general, n)} for n in horizons]
    return rows, {}, _digest_file(args.channel)


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
    return rows, {}, _digest_file(args.channel)


# --- parser ----------------------------------------------------------------


def _add_output_flags(sp):
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sp.add_argument("--out", default=None, help="also write the rendered report to this path")
    sp.add_argument("--seed", type=int, default=None)


def _add_optimizer_flags(sp):
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--max-iters", type=int, default=None, dest="max_iters")
    sp.add_argument("--tol", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fscfb",
        description="Unifilar finite-state channels with feedback: validation, "
        "directed information, and finite-horizon capacity estimates.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("validate", help="check a channel file and report structure")
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, default=6, help="horizon for the state-memory gap")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_validate, writes_report=True)

    sp = sub.add_parser("capacity", help="finite-horizon feedback-rate estimate")
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s0", type=int, default=None)
    sp.add_argument("--all-states", action="store_true", dest="all_states")
    sp.add_argument("--sweep-n", action="store_true", dest="sweep_n")
    _add_optimizer_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_capacity, writes_report=True)

    sp = sub.add_parser("directed-info", help="directed information of an iid policy")
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s0", type=int, default=None)
    sp.add_argument("--dist", default=None, help="comma-separated input distribution")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_directed_info, writes_report=True)

    sp = sub.add_parser("dmc-capacity", help="alternating-maximization capacity of one state")
    sp.add_argument("channel")
    sp.add_argument("--s0", type=int, default=None)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_dmc_capacity, writes_report=True)

    sp = sub.add_parser("gallery", help="write a constructed channel to a file")
    sp.add_argument("name", choices=GALLERY_NAMES)
    sp.add_argument("--eps", default=None, required=True, help="rational like 1/4")
    sp.add_argument("--mix", default=None, help="rational in [0, 1/2]")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--x", type=int, default=None)
    sp.add_argument("--y", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--out", required=True, help="channel file to write")
    sp.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(handler=cmd_gallery, writes_report=False)

    sp = sub.add_parser(
        "discontinuity-demo",
        help="distance to the limit channel shrinks while its state gap persists",
    )
    sp.add_argument("--eps", required=True)
    sp.add_argument("--k-list", default="2,4,8,16,32,64", dest="k_list")
    sp.add_argument("--n", type=int, default=4)
    _add_optimizer_flags(sp)
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_discontinuity_demo, writes_report=True)

    sp = sub.add_parser("lambda-seq", help="dyadic halting sequence of a step-bounded oracle")
    sp.add_argument("--program", default=None, help="counter-machine program file")
    sp.add_argument("--mock", default=None, help="'never' or 'halt-at:K'")
    sp.add_argument("--input", type=int, required=True)
    sp.add_argument("--m-max", type=int, default=16, dest="m_max")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_lambda_seq, writes_report=True)

    sp = sub.add_parser("indecomp", help="exhaustive initial-state memory gap")
    sp.add_argument("channel")
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--sweep-n", action="store_true", dest="sweep_n")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_indecomp, writes_report=True)

    sp = sub.add_parser("connectivity", help="strong-connectivity verdict with witness")
    sp.add_argument("channel")
    _add_output_flags(sp)
    sp.set_defaults(handler=cmd_connectivity, writes_report=True)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        # handlers that resolve optimizer settings also return the seed they used
        rows, diagnostics, digest, *resolved = args.handler(args)
    except (FscError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if resolved:
        seed = resolved[0]
    else:
        seed = args.seed if args.seed is not None else OptimizerSettings().seed
    report = {
        "command": ["fscfb"] + argv,
        "input_digest": digest,
        "seed": seed,
        "rows": rows,
        "diagnostics": diagnostics,
    }
    text = render_report(report, args.format)
    sys.stdout.write(text)
    if args.writes_report and args.out:
        Path(args.out).write_text(text)
    print(f"wall_clock_s={time.monotonic() - started:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
