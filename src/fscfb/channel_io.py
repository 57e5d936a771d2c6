"""Versioned channel file format.

JSON with fields ``x_size``, ``y_size``, ``s_size``, then either ``w`` +
``f`` (unifilar, both nested [s'][x][y]) or ``law`` (general,
[s'][x][y][s]), which an optional ``kind`` must name. Probabilities may be
JSON numbers or exact fraction strings like "1/4"; a unifilar ``w`` is kept
and echoed entry by entry as given. An optional ``s0``, a free-form
``label``/``params`` pair are carried through, checked once, when the
``LoadedChannel`` record is built. A file holding any other key, or a key
given twice, is refused. Files are UTF-8.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .channels import FiniteStateChannel, UnifilarChannel, compose_unifilar
from .errors import DomainError, ValidationError, describe_int

FORMAT_NAME = "fsc-channel"
FORMAT_VERSION = 1

_KEYS = frozenset(("format", "version", "kind", "label", "params", "x_size", "y_size", "s_size",
                   "s0", "w", "f", "law"))  # every key a file may hold
_KINDS = {"unifilar": UnifilarChannel, "general": FiniteStateChannel}


@dataclass
class LoadedChannel:
    """A channel with its file header: a loaded file, or a gallery channel
    with the exact tables and parameters behind it. The header is checked
    when the record is built: ``kind`` names the channel's class, ``s0`` is
    None or a state of the channel and ``params`` an object; the label and
    every value of ``params`` must be writable as JSON (a Fraction is
    written as "p/q"), with a str for every key at any depth."""

    kind: str                       # "unifilar" | "general"
    channel: object                 # UnifilarChannel or FiniteStateChannel
    s0: int | None = None
    label: str | None = None
    params: dict = field(default_factory=dict)
    exact_w: tuple | None = None    # a unifilar w as given: Fractions, and floats for decimals
    digest: str | None = None       # content_digest of the file it was loaded from

    def __post_init__(self):
        if not isinstance(self.channel, _KINDS.get(self.kind, ())):
            raise ValidationError(
                f"kind {self.kind!r} does not match a {type(self.channel).__name__}")
        if self.s0 is not None and not (_is_int(self.s0) and 0 <= self.s0 < self.channel.s_size):
            raise ValidationError(f"{_named('s0', self.s0)} outside 0..{self.channel.s_size - 1}")
        if not isinstance(self.params, dict):
            raise ValidationError(f"params must be an object, got {self.params!r}")
        for where, value in (("label", self.label), ("params", self.params)):
            _check_keys(value, where)  # before a params key is printed below
        _check_json(self.label, "label")
        for key, value in self.params.items():
            _check_json(value, f"params[{key!r}]")
        # a table given as tuples, as loads_channel builds it, is kept as is
        if self.kind == "unifilar" and not isinstance(self.exact_w, tuple):
            given = self.channel.w.tolist() if self.exact_w is None else self.exact_w
            self.exact_w = _tupled(given)

    def exact_table(self) -> tuple:
        """``exact_w``, refused at its first entry whose float is not the
        channel's: a stale table, as when the record's channel was swapped."""
        w = self.channel.w
        floats = [[[float(v) for v in row] for row in state] for state in self.exact_w]
        if floats != w.tolist():
            floats = np.array(floats)
            if floats.shape != w.shape:
                raise ValidationError(f"exact w has shape {floats.shape}, the channel's {w.shape}")
            at = tuple(np.argwhere(floats != w)[0])
            raise ValidationError(f"exact {_path(('w', *at))} is stale: the channel has {w[at]}")
        return self.exact_w

    def as_general(self) -> FiniteStateChannel:
        if self.kind == "general":
            return self.channel
        return compose_unifilar(self.channel)


def content_digest(data: bytes) -> str:
    """The digest a report gives for an input's bytes."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _path(at: tuple) -> str:
    """A table position as a message names it: ("w", 0, 1) is "w[0][1]"."""
    return at[0] + "".join(f"[{i}]" for i in at[1:])


def _table(node, shape, at: tuple, row):
    """The nested list ``node`` as nested tuples of ``shape``, each innermost
    list mapped by ``row(values, at)``. ``at`` is the table's name followed
    by the indices of ``node``; its path string is built only to refuse. A
    list of the wrong length, or an entry where a list belongs, is refused
    with its path."""
    if not isinstance(node, list):
        raise ValidationError(f"{_path(at)} must be a list of {shape[0]} entries")
    if len(node) != shape[0]:
        raise ValidationError(f"{_path(at)} has {len(node)} entries, expected {shape[0]}")
    if len(shape) == 1:
        return row(node, at)
    return tuple(_table(sub, shape[1:], at + (i,), row) for i, sub in enumerate(node))


def _prob_table(node, shape, name: str):
    """A probability table as given, in nested tuples: a Fraction for a
    "p/q" string or an integer, the float itself for a decimal; and its
    float array. Each distinct string is converted once."""
    parsed = {}  # "p/q" -> (Fraction, float)
    floats = []

    def row(values, at):
        out = []
        for i, value in enumerate(values):
            kind = type(value)  # a JSON value: exactly str, float, int, bool, ...
            if kind is str:
                pair = parsed.get(value)
                if pair is None:
                    exact = as_fraction(value)
                    pair = parsed[value] = exact, float(exact)
                exact, approx = pair
            elif kind is float:
                exact = approx = value
            elif kind is int:
                exact, approx = Fraction(value), float(value)
            else:
                raise ValidationError(
                    f"probability at {_path(at + (i,))} must be a number or 'p/q' string")
            out.append(exact)
            floats.append(approx)
        return tuple(out)

    table = _table(node, shape, (name,), row)
    return table, np.array(floats).reshape(shape)


def _state_row(values, at):
    if not {type(v) for v in values} <= {int, float}:
        raise ValidationError(f"{_path(at)} must contain integer state indices")
    return tuple(values)


def load_channel(path) -> LoadedChannel:
    """Load a channel file, read once: its UTF-8 text is parsed and its
    bytes give ``digest``."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"channel file is not UTF-8: {exc}") from exc
    loaded = loads_channel(text)
    loaded.digest = content_digest(data)
    return loaded


def _unique_keys(pairs):
    """A JSON object as a dict, refused if it gives a key twice: json.loads keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for key in keys if keys.count(key) > 1)
        raise ValidationError(f"channel file gives key {twice!r} twice")
    return obj


def loads_channel(text: str) -> LoadedChannel:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValidationError:  # a key given twice, named as such
        raise
    except ValueError as exc:  # a syntax error, or an int of more than 4,300 digits
        raise ValidationError(f"channel file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("channel file must hold a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise ValidationError(f"unknown file format {data.get('format')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {data.get('version')!r}")
    unknown = data.keys() - _KEYS
    if unknown:
        raise ValidationError(f"unknown channel file keys: {sorted(unknown)}")
    sizes = {}
    for key in ("x_size", "y_size", "s_size"):
        if not _is_int(data.get(key)) or data[key] < 1:
            raise ValidationError(f"{key} must be a positive integer")
        sizes[key] = data[key]

    header = data.get("s0"), data.get("label"), data.get("params", {})
    shape = (sizes["s_size"], sizes["x_size"], sizes["y_size"])
    kind = "general" if "law" in data else "unifilar"
    if kind == "general" and ("w" in data or "f" in data):
        raise ValidationError("channel file holds both 'law' and 'w'/'f'")
    if data.get("kind", kind) != kind:
        raise ValidationError(f"kind {data['kind']!r} does not name the file's tables")
    if kind == "general":
        _, law = _prob_table(data["law"], shape + shape[:1], "law")
        channel = FiniteStateChannel(law)
        return LoadedChannel("general", channel, *header)

    if "w" not in data or "f" not in data:
        raise ValidationError("channel file needs either 'law' or both 'w' and 'f'")
    exact_w, w = _prob_table(data["w"], shape, "w")
    f = np.array(_table(data["f"], shape, ("f",), _state_row))
    channel = UnifilarChannel(w, f)
    return LoadedChannel("unifilar", channel, *header, exact_w)


def as_fraction(value) -> Fraction:
    """Coerce a parameter into an exact Fraction.

    Strings accept both "p/q" and decimal forms; floats convert exactly
    (binary expansion), so prefer strings or Fractions for dyadic inputs.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not probabilities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse {value!r} as a rational number") from exc
    if isinstance(value, float):
        return Fraction(value)
    raise DomainError(f"cannot interpret {type(value).__name__} as a rational number")


def _is_int(value) -> bool:
    """Whether a JSON value is an integer: ``true`` is not 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _named(where: str, value) -> str:
    """``where`` and a header value as a refusal names them, "s0 = 7"."""
    if isinstance(value, (int, Fraction)):
        return describe_int(where, value, " = ")
    return f"{where} = {value!r}"


def _check_json(value, where: str):
    """Refuse a header value ``dumps_channel`` could not write, naming where
    it sits. A Fraction is written as "p/q"."""
    try:
        json.dumps(str(value) if isinstance(value, Fraction) else value)
    except (TypeError, ValueError) as exc:
        try:
            named = _named(where, value)
        except ValueError:  # it holds an int too long to print
            named = where
        raise ValidationError(f"{named} is not a JSON value: {exc}") from exc


def _check_keys(value, where: str, at: tuple = ()):
    """Refuse an object, at any depth of a header value, with a key that is
    not a str: json.dumps would write 1 as "1", so {1: 0, "1": 1} would give
    "1" twice. The object is named by its path from ``where``, built only to
    refuse."""
    if isinstance(value, dict):
        for key, sub in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"{where}{''.join(f'[{k!r}]' for k in at)} is not a JSON "
                                      f"value: {describe_int('key', key)} is not a string")
            _check_keys(sub, where, at + (key,))
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            _check_keys(sub, where, at + (i,))


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


def _too_long_entry(w, shape) -> str:
    """The first entry of ``w`` that str() refuses, named by its path."""
    for s, x, y in np.ndindex(shape):
        try:
            str(w[s][x][y])
        except ValueError:
            return describe_int(_path(("w", s, x, y)), w[s][x][y])


def _params_out(params: dict):
    out = {}
    for key, value in params.items():
        out[key] = str(value) if isinstance(value, Fraction) else value
    return out


def dumps_channel(loaded: LoadedChannel) -> str:
    """Serialize a record deterministically, with its ``s0``. A unifilar
    ``w`` echoes its table as given: fractions as "p/q", decimals to 12
    significant digits."""
    doc = {"format": FORMAT_NAME, "version": FORMAT_VERSION}
    if loaded.label is not None:
        doc["label"] = loaded.label
    if loaded.params:
        doc["params"] = _params_out(loaded.params)
    doc["kind"] = loaded.kind
    ch = loaded.channel
    doc["x_size"], doc["y_size"], doc["s_size"] = ch.x_size, ch.y_size, ch.s_size
    if loaded.s0 is not None:
        doc["s0"] = loaded.s0
    if loaded.kind == "unifilar":
        exact_w = loaded.exact_table()
        try:
            doc["w"] = _table_out(exact_w)
        except ValueError:  # an exact entry with more than 4,300 digits
            raise ValidationError(
                f"{_too_long_entry(exact_w, ch.w.shape)} has too many digits to write"
            ) from None
        doc["f"] = np.asarray(ch.f).tolist()
    else:
        doc["law"] = _table_out(ch.law.tolist())
    return _pretty(doc) + "\n"


def _pretty(value, pad: str = "") -> str:
    """JSON with leaf rows kept on one line; key order is insertion order."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        key = json.encoder.encode_basestring_ascii  # as json.dumps writes a str
        body = ",\n".join(f"{inner}{key(str(k))}: {_pretty(v, inner)}" for k, v in value.items())
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(value, list):
        if not any(isinstance(v, (dict, list)) for v in value):
            return json.dumps(value)
        inner = pad + "  "
        body = ",\n".join(f"{inner}{_pretty(v, inner)}" for v in value)
        return "[\n" + body + "\n" + pad + "]"
    return json.dumps(value)
