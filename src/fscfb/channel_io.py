"""Versioned channel file format.

JSON with fields ``x_size``, ``y_size``, ``s_size``, then either ``w`` +
``f`` (unifilar, both nested [s'][x][y]) or ``law`` (general,
[s'][x][y][s]). Probabilities may be JSON numbers or exact fraction
strings like "1/4"; a unifilar ``w`` is kept and echoed entry by entry as
given. An optional ``s0``, a free-form ``label``/``params`` pair, and an
``optimizer`` settings block are carried through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channels import FiniteStateChannel, UnifilarChannel, compose_unifilar
from .errors import ValidationError
from .rational import as_fraction

FORMAT_NAME = "fsc-channel"
FORMAT_VERSION = 1

# read, for files written for the old multi-start optimizer, and ignored
# with a warning: the solver is deterministic and runs once
IGNORED_KEYS = ("restarts", "seed")
OPTIMIZER_KEYS = ("max_iters", "tol") + IGNORED_KEYS


@dataclass
class LoadedChannel:
    """A channel with its file header: a loaded file, or a gallery channel
    with the exact tables and parameters behind it."""

    kind: str                       # "unifilar" | "general"
    channel: object                 # UnifilarChannel or FiniteStateChannel
    s0: int | None = None
    label: str | None = None
    params: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)
    exact_w: tuple | None = None    # a unifilar w as given: Fractions, and floats for decimals

    def __post_init__(self):
        if self.kind == "unifilar":
            given = self.channel.w.tolist() if self.exact_w is None else self.exact_w
            self.exact_w = _tupled(given)

    def as_general(self) -> FiniteStateChannel:
        if self.kind == "general":
            return self.channel
        return compose_unifilar(self.channel)


def _parse_prob_table(node, path: str):
    """A nested probability table as given, in tuples: a Fraction for a
    "p/q" string or an integer, the float itself for a decimal."""
    if isinstance(node, list):
        return tuple(_parse_prob_table(sub, f"{path}[{i}]") for i, sub in enumerate(node))
    if isinstance(node, str):
        return as_fraction(node)
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"probability at {path} must be a number or 'p/q' string")
    return Fraction(node) if isinstance(node, int) else node


def load_channel(path) -> LoadedChannel:
    text = Path(path).read_text()
    return loads_channel(text)


def loads_channel(text: str) -> LoadedChannel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"channel file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("channel file must hold a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise ValidationError(f"unknown file format {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {data.get('version')!r}")
    sizes = {}
    for key in ("x_size", "y_size", "s_size"):
        if not _is_int(data.get(key)) or data[key] < 1:
            raise ValidationError(f"{key} must be a positive integer")
        sizes[key] = data[key]

    s0 = data.get("s0")
    if s0 is not None:
        if not _is_int(s0) or not 0 <= s0 < sizes["s_size"]:
            raise ValidationError(f"s0 = {s0!r} outside 0..{sizes['s_size'] - 1}")

    optimizer = {}
    block = data.get("optimizer", {})
    if block:
        if not isinstance(block, dict):
            raise ValidationError("optimizer block must be an object")
        unknown = set(block) - set(OPTIMIZER_KEYS)
        if unknown:
            raise ValidationError(f"unknown optimizer settings: {sorted(unknown)}")
        optimizer = dict(block)

    label = data.get("label")
    params = data.get("params", {}) or {}

    if "law" in data:
        law = np.array(_parse_prob_table(data["law"], "law"), dtype=float)
        want = (sizes["s_size"], sizes["x_size"], sizes["y_size"], sizes["s_size"])
        if law.shape != want:
            raise ValidationError(f"law has shape {law.shape}, expected {want}")
        channel = FiniteStateChannel(law)
        return LoadedChannel("general", channel, s0, label, params, optimizer)

    if "w" not in data or "f" not in data:
        raise ValidationError("channel file needs either 'law' or both 'w' and 'f'")
    exact_w = _parse_prob_table(data["w"], "w")
    w = np.array(exact_w, dtype=float)
    want = (sizes["s_size"], sizes["x_size"], sizes["y_size"])
    if w.shape != want:
        raise ValidationError(f"w has shape {w.shape}, expected {want}")
    f = np.array(data["f"])
    if f.dtype.kind not in "iuf":
        raise ValidationError("f must contain integer state indices")
    if f.shape != want:
        raise ValidationError(f"f has shape {f.shape}, expected {want}")
    channel = UnifilarChannel(w, f)
    return LoadedChannel("unifilar", channel, s0, label, params, optimizer, exact_w)


def _is_int(value) -> bool:
    """Whether a JSON value is an integer: ``true`` is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _tupled(nested):
    if isinstance(nested, (list, tuple)):
        return tuple(_tupled(v) for v in nested)
    return nested


def _prob_out(value):
    if isinstance(value, Fraction):
        return str(value)
    return float(f"{float(value):.12g}")


def _table_out(node):
    if isinstance(node, (list, tuple)):
        return [_table_out(v) for v in node]
    return _prob_out(node)


def _params_out(params: dict):
    out = {}
    for key, value in params.items():
        out[key] = str(value) if isinstance(value, Fraction) else value
    return out


def dumps_channel(
    loaded: LoadedChannel, s0: int | None = None, optimizer: dict | None = None
) -> str:
    """Serialize a channel deterministically. A unifilar ``w`` echoes its
    table as given: fractions as "p/q", decimals to 12 significant digits."""
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
    if loaded.label is not None:
        doc["label"] = loaded.label
    if loaded.params:
        doc["params"] = _params_out(loaded.params)
    doc["kind"] = loaded.kind
    ch = loaded.channel
    doc["x_size"], doc["y_size"], doc["s_size"] = ch.x_size, ch.y_size, ch.s_size
    if s0 is None:
        s0 = loaded.s0
    if s0 is not None:
        doc["s0"] = int(s0)
    if loaded.kind == "unifilar":
        doc["w"] = _table_out(loaded.exact_w)
        doc["f"] = np.asarray(ch.f).tolist()
    else:
        doc["law"] = _table_out(ch.law.tolist())
    if optimizer:
        unknown = set(optimizer) - set(OPTIMIZER_KEYS)
        if unknown:
            raise ValidationError(f"unknown optimizer settings: {sorted(unknown)}")
        doc["optimizer"] = optimizer
    return _pretty(doc) + "\n"


def _pretty(value, pad: str = "") -> str:
    """JSON with leaf rows kept on one line; key order is insertion order."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_pretty(v, inner)}" for k, v in value.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, list):
        if not any(isinstance(v, (dict, list)) for v in value):
            return json.dumps(value)
        inner = pad + "  "
        body = ",\n".join(f"{inner}{_pretty(v, inner)}" for v in value)
        return "[\n" + body + "\n" + pad + "]"
    return json.dumps(value)
