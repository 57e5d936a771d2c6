import json
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscfb import (
    DomainError,
    FiniteStateChannel,
    FscError,
    LoadedChannel,
    OptimizerSettings,
    UnifilarChannel,
    ValidationError,
    compose_unifilar,
    dumps_channel,
    extend_alphabets,
    extend_states,
    inverse_k_pair,
    load_channel,
    loads_channel,
    mixing_pair,
    noiseless_z_pair,
)


def test_gallery_round_trip_keeps_fractions(tmp_path):
    g = noiseless_z_pair("1/4")
    path = tmp_path / "ch.json"
    path.write_text(dumps_channel(g))
    text = path.read_text()
    assert '"3/4"' in text  # fractions echoed verbatim
    loaded = load_channel(path)
    assert loaded.kind == "unifilar"
    assert loaded.exact_w == g.exact_w
    assert np.array_equal(loaded.channel.w, g.channel.w)
    assert np.array_equal(loaded.channel.f, g.channel.f)
    assert loaded.params == {"eps": "1/4"}


def test_serialization_is_deterministic():
    g = mixing_pair("1/4", "1/8")
    assert dumps_channel(g) == dumps_channel(g)


def test_decimal_channels_round_to_12_significant_digits(tmp_path):
    w = np.array([[[0.123456789012345, 0.876543210987655]], [[0.5, 0.5]]])
    u = UnifilarChannel(w, np.zeros((2, 1, 2), dtype=int))
    record = LoadedChannel("unifilar", u)
    assert record.exact_w == tuple(tuple(map(tuple, state)) for state in w.tolist())
    text = dumps_channel(record)
    data = json.loads(text)
    assert data["w"][0][0][0] == float(f"{w[0, 0, 0]:.12g}")
    loaded = loads_channel(text)
    assert loaded.exact_w[0][0][0] == float(f"{w[0, 0, 0]:.12g}")  # the table as written
    assert np.allclose(loaded.channel.w, w, atol=1e-12)


@pytest.mark.parametrize("kind, general", [
    ("general", False), ("unifilar", True), ("foo", False), ("foo", True),
])
def test_a_kind_that_does_not_match_the_channel_is_refused(kind, general):
    u = mixing_pair("1/4", "1/4").channel
    channel = compose_unifilar(u) if general else u
    with pytest.raises(ValidationError, match=f"kind {kind!r} does not match"):
        LoadedChannel(kind, channel)


def test_general_law_round_trip(tmp_path):
    law = np.zeros((2, 2, 2, 2))
    law[:, :, 0, 0] = 0.5
    law[:, :, 1, 1] = 0.5
    c = FiniteStateChannel(law)
    path = tmp_path / "gen.json"
    path.write_text(dumps_channel(LoadedChannel("general", c, s0=1)))
    loaded = load_channel(path)
    assert loaded.kind == "general"
    assert loaded.s0 == 1
    assert np.allclose(loaded.channel.law, law, atol=1e-15)
    assert np.allclose(loaded.as_general().law, law, atol=1e-15)


def test_loaded_unifilar_composes():
    g = mixing_pair("1/4", "1/4")
    loaded = loads_channel(dumps_channel(g))
    assert np.allclose(
        loaded.as_general().law, compose_unifilar(g.channel).law, atol=1e-15
    )


def test_mixed_fraction_and_decimal_entries():
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 2,
        "y_size": 2,
        "s_size": 1,
        "w": [[["1/3", 0.6666666666666666], [1, 0]]],
        "f": [[[0, 0], [0, 0]]],
    }
    loaded = loads_channel(json.dumps(doc))
    assert loaded.channel.w[0, 0, 0] == pytest.approx(1 / 3, abs=1e-15)
    # the table as given: fractions and integers exact, the decimal a float
    assert loaded.exact_w == (((Fraction(1, 3), 0.6666666666666666), (Fraction(1), Fraction(0))),)
    assert isinstance(loaded.exact_w[0][0][1], float)


def test_mixed_table_round_trips_its_fractions_verbatim():
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 2,
        "y_size": 2,
        "s_size": 1,
        "w": [[["1/3", 0.6666666666666666], [0.25, "3/4"]]],
        "f": [[[0, 0], [0, 0]]],
    }
    text = dumps_channel(loads_channel(json.dumps(doc)))
    assert json.loads(text)["w"] == [[["1/3", 0.666666666667], [0.25, "3/4"]]]
    assert '"1/3"' in text
    # a second round trip is a fixed point
    assert dumps_channel(loads_channel(text)) == text


def test_load_errors_name_coordinates():
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 2,
        "y_size": 2,
        "s_size": 1,
        "w": [[[0.5, 0.4], [0.5, 0.5]]],
        "f": [[[0, 0], [0, 0]]],
    }
    with pytest.raises(ValidationError, match=r"s_prev=0, x=0"):
        loads_channel(json.dumps(doc))


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"format": "something"}, "unknown file format"),
        ({"version": 99}, "unsupported format version"),
        ({"s0": 5}, "s0"),
        ({"w": None, "f": None}, "either 'law'"),
        ({"x_size": 0}, "positive integer"),
        # a key outside the format, the retired optimizer block included
        ({"optimizer": {"max_iters": 4}}, r"unknown channel file keys: \['optimizer'\]"),
        ({"optimizer": {}}, r"unknown channel file keys: \['optimizer'\]"),
        ({"S0": 1}, r"unknown channel file keys: \['S0'\]"),
        ({"lawx": 3}, r"unknown channel file keys: \['lawx'\]"),
        ({"params": "abc"}, "params must be an object"),
        ({"params": [1]}, "params must be an object"),
        ({"optimiser": {}, "Label": "z"}, r"unknown channel file keys: \['Label', 'optimiser'\]"),
    ],
)
def test_load_rejects_malformed_documents(patch, message):
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 2,
        "y_size": 2,
        "s_size": 2,
        "w": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
        "f": [[[0, 0], [0, 0]], [[1, 1], [1, 1]]],
    }
    doc.update(patch)
    doc = {k: v for k, v in doc.items() if v is not None}
    with pytest.raises(ValidationError, match=message):
        loads_channel(json.dumps(doc))


def _documents():
    """The noiseless-z file as a unifilar document and as a general one."""
    g = noiseless_z_pair("1/4")
    unifilar = json.loads(dumps_channel(g))
    general = {k: v for k, v in unifilar.items() if k not in ("w", "f")}
    general.update(kind="general", law=compose_unifilar(g.channel).law.tolist())
    return unifilar, general


@pytest.mark.parametrize("source, patch, message", [
    (0, {"kind": "nonsense"}, "kind 'nonsense' does not name the file's tables"),
    (0, {"kind": "general"}, "kind 'general' does not name the file's tables"),
    (0, {"kind": None}, "kind None does not name the file's tables"),
    (1, {"kind": "unifilar"}, "kind 'unifilar' does not name the file's tables"),
    (0, {"law": 1}, "channel file holds both 'law' and 'w'/'f'"),
    (1, {"f": 0}, "channel file holds both 'law' and 'w'/'f'"),
], ids=["nonsense", "general-with-w", "null", "unifilar-with-law", "law-and-w", "law-and-f"])
def test_a_file_kind_must_name_the_tables_it_holds(source, patch, message):
    """``patch`` sets a header value, or copies a table from the other
    document (0: unifilar, 1: general)."""
    docs = _documents()
    doc = docs[source]
    for key, value in patch.items():
        doc[key] = docs[value][key] if key in ("law", "f") else value
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        loads_channel(json.dumps(doc))


def test_a_file_kind_may_be_left_out():
    for doc in _documents():
        kind = doc.pop("kind")
        assert loads_channel(json.dumps(doc)).kind == kind


@pytest.mark.parametrize("read", [
    dumps_channel, lambda g: extend_alphabets(g, 3, 3), lambda g: extend_states(g, 3),
], ids=["dumps_channel", "extend_alphabets", "extend_states"])
@pytest.mark.parametrize("wider, named", [
    (False, r"^exact w\[1\]\[0\]\[0\] is stale"),
    (True, r"^exact w has shape \(2, 2, 2\), the channel's \(2, 3, 3\)$"),
], ids=["entry", "shape"])
def test_a_record_refuses_to_read_an_exact_table_its_channel_no_longer_holds(read, wider, named):
    g = mixing_pair("1/4", "1/8")
    if wider:
        channel = extend_alphabets(g, 3, 3).channel
    else:
        w = g.channel.w.copy()
        w[1, 0] = 0.5  # was (1 - eps, eps) = (3/4, 1/4)
        channel = UnifilarChannel(w, g.channel.f)
    with pytest.raises(ValidationError, match=named):
        read(replace(g, channel=channel))


@pytest.mark.parametrize("key", ["x_size", "y_size", "s_size", "s0"])
def test_load_refuses_booleans_in_the_header(key):
    """JSON ``true`` is not the integer 1: the document loads with 1 in
    the key's place and is refused with ``true`` there."""
    s_size = 2 if key == "s0" else 1
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 1,
        "y_size": 1,
        "s_size": s_size,
        "w": [[[1]]] * s_size,
        "f": [[[s]] for s in range(s_size)],
    }
    doc[key] = 1
    assert loads_channel(json.dumps(doc)).channel.w.shape == (s_size, 1, 1)
    doc[key] = True
    with pytest.raises(ValidationError, match=key):
        loads_channel(json.dumps(doc))


def test_load_rejects_bad_json():
    with pytest.raises(ValidationError, match="not valid JSON"):
        loads_channel("{oops")


@pytest.mark.parametrize("members, key", [
    ('"s0": 0, "s0": 1', "s0"), ('"params": {"k": 1, "k": 2}', "k"),
], ids=["s0", "params-k"])
def test_load_refuses_a_key_given_twice(members, key):
    # JSON itself would keep the last; the refusal is not reworded as bad JSON
    text = dumps_channel(replace(noiseless_z_pair("1/4"), params={}))
    with pytest.raises(ValidationError, match=rf"^channel file gives key '{key}' twice$"):
        loads_channel(text[:-len("\n}\n")] + f",\n  {members}\n}}\n")


def test_load_refuses_an_int_too_long_to_read():
    # Python reads no int of more than 4,300 digits
    with pytest.raises(ValidationError, match="^channel file is not valid JSON: "):
        loads_channel('{"x_size": ' + "1" * 5000 + "}")


# 10^5000 has 16,610 bits and over 4,300 digits, too many to print
HUGE = 10**5000


@pytest.mark.parametrize("build, error, named", [
    (lambda: OptimizerSettings(max_iters=-HUGE), ValidationError,
     r"^max_iters must be >= 0, got a value of 16,610 bits$"),
    (lambda: replace(noiseless_z_pair("1/4"), s0=HUGE), ValidationError,
     r"^s0 of 16,610 bits outside 0\.\.1$"),
    (lambda: noiseless_z_pair(Fraction(1, HUGE)), ValidationError,
     r"^params\['eps'\] of 16,610 bits is not"),
    (lambda: mixing_pair("1/4", Fraction(1, HUGE)), ValidationError,
     r"^params\['mix'\] of 16,610 bits is not"),
    # eps has 1,001 digits, so state s holds (1/2 - eps)^(s - 1) with over
    # 1,000 (s - 1) digits: state 6's has over 5,000
    (lambda: dumps_channel(extend_states(noiseless_z_pair(Fraction(1, 4 * 10**1000)), 7)),
     ValidationError, r"^w\[6\]\[0\]\[0\] of [\d,]+ bits has too many digits to write$"),
    (lambda: noiseless_z_pair(Fraction(HUGE)), DomainError,
     r"^eps of 16,610 bits outside \(0, 1/2\)$"),
    (lambda: inverse_k_pair("1/4", -HUGE), DomainError,
     r"^k must be >= 1, got a value of 16,610 bits$"),
    (lambda: extend_states(noiseless_z_pair("1/4"), -HUGE), DomainError,
     r"^state count must be >= 2, got a value of 16,610 bits$"),
    (lambda: extend_alphabets(mixing_pair("1/4", "1/4"), -HUGE, 2), DomainError,
     r"^x_size must be >= 2, got a value of 16,610 bits$"),
    (lambda: OptimizerSettings(tol=-HUGE), ValidationError,
     r"^tol of 16,610 bits is not positive and finite$"),
], ids=["max_iters", "s0", "eps", "mix", "w-entry", "eps-range", "k-range", "state-count",
        "x-size", "tol"])
def test_values_too_long_to_print_are_refused_by_their_bit_length(build, error, named):
    with pytest.raises(error, match=named):
        build()


def test_fraction_probability_strings_validate():
    doc = {
        "format": "fsc-channel",
        "version": 1,
        "x_size": 2,
        "y_size": 2,
        "s_size": 1,
        "w": [[["2/3", "1/3"], ["1/6", "5/6"]]],
        "f": [[[0, 0], [0, 0]]],
    }
    loaded = loads_channel(json.dumps(doc))
    assert loaded.exact_w == (
        ((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 6), Fraction(5, 6))),
    )
    # exact thirds survive the echo even though floats cannot represent them
    assert '"2/3"' in dumps_channel(loaded)


def test_refusals_name_the_entry_by_its_path():
    doc = {"format": "fsc-channel", "version": 1, "x_size": 2, "y_size": 2, "s_size": 1,
           "w": [[["1/2", "1/2"], [1, None]]], "f": [[[0, 0], [0, 0]]]}
    with pytest.raises(ValidationError, match=r"^probability at w\[0\]\[1\]\[1\] must be"):
        loads_channel(json.dumps(doc))
    doc["w"][0][1][1] = 0
    doc["f"][0][1][0] = "0"
    with pytest.raises(ValidationError, match=r"^f\[0\]\[1\] must contain integer state"):
        loads_channel(json.dumps(doc))


@pytest.mark.parametrize("table, value, where", [
    ("w", [[["1/2", "1/2"], [1]]], r"^w\[0\]\[1\] has 1 entries, expected 2"),
    ("law", [[[[1]], [[1, 0]]]], r"^law\[0\]\[1\]\[0\] has 2 entries, expected 1"),
    ("f", [[[0, 0], [0]]], r"^f\[0\]\[1\] has 1 entries, expected 2"),
    ("w", [[["1/2", "1/2"], "1"]], r"^w\[0\]\[1\] must be a list of 2 entries"),
    ("w", [[[["1/2"], "1/2"], [1, 0]]], r"^probability at w\[0\]\[0\]\[0\]"),
    ("f", [[[[0], 0], [0, 0]]], "integer state indices"),
])
def test_ragged_tables_raise_a_validation_error_naming_the_table(table, value, where):
    """A row of the wrong length used to reach np.array, which raised its
    own untyped ValueError."""
    doc = {"format": "fsc-channel", "version": 1, "x_size": 2, "y_size": 2, "s_size": 1,
           "w": [[["1/2", "1/2"], [1, 0]]], "f": [[[0, 0], [0, 0]]]}
    if table == "law":
        doc["y_size"] = 1
        del doc["w"], doc["f"]
    doc[table] = value
    with pytest.raises(ValidationError, match=where) as exc:
        loads_channel(json.dumps(doc))
    assert isinstance(exc.value, FscError)


def test_repeated_fraction_strings_share_one_parse():
    doc = {"format": "fsc-channel", "version": 1, "x_size": 2, "y_size": 2, "s_size": 2,
           "w": [[["1/3", "2/3"], ["2/3", "1/3"]], [["1/3", "2/3"], [1, 0]]],
           "f": [[[0, 1], [1, 0]], [[1, 1], [0, 1]]]}
    loaded = loads_channel(json.dumps(doc))
    assert loaded.exact_w[0][0][0] is loaded.exact_w[1][0][0]
    assert loaded.exact_w[1][1] == (Fraction(1), Fraction(0))
    np.testing.assert_array_equal(loaded.channel.w, [[[1 / 3, 2 / 3], [2 / 3, 1 / 3]],
                                                     [[1 / 3, 2 / 3], [1.0, 0.0]]])
    assert dumps_channel(loaded) == dumps_channel(loads_channel(dumps_channel(loaded)))


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(dumps_channel(noiseless_z_pair("1/4")).replace(
        '"noiseless-z"', '"caf\xe9"').encode("latin-1"))
    with pytest.raises(ValidationError, match="not UTF-8"):
        load_channel(path)


def test_load_channel_records_the_digest_of_the_bytes_it_parsed(tmp_path):
    import hashlib

    path = tmp_path / "z.json"
    path.write_text(dumps_channel(noiseless_z_pair("1/4")))
    loaded = load_channel(path)
    assert loaded.digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    assert loads_channel(path.read_text()).digest is None


GALLERY = (noiseless_z_pair("1/4"), mixing_pair("1/4", "1/8"), inverse_k_pair("1/3", 4),
           extend_alphabets(mixing_pair("1/5", "1/16"), 3, 3),
           extend_states(mixing_pair("1/4", "1/8"), 4))
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=6)
               | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_written_record_reads_back_to_the_same_text(data):
    """The file's s0 and params survive a load: the text ``dumps_channel``
    writes is a fixed point of load-then-write."""
    g = data.draw(st.sampled_from(GALLERY))
    s0 = data.draw(st.none() | st.integers(0, g.channel.s_size - 1))
    params = data.draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4))
    text = dumps_channel(replace(g, s0=s0, params=params))
    loaded = loads_channel(text)
    assert (loaded.s0, loaded.params) == (s0, params)
    assert dumps_channel(loaded) == text


@pytest.mark.parametrize("header", [{"s0": 2}, {"s0": 1.0}, {"params": None}])
def test_a_record_checks_its_header_when_built(header):
    with pytest.raises(ValidationError):
        replace(noiseless_z_pair("1/4"), **header)


@pytest.mark.parametrize("header, where", [
    ({"label": {1}}, "label"),
    ({"params": {"k": np.int64(3)}}, "params['k']"),
    ({"params": {"k": [1, {"nested": {2}}]}}, "params['k']"),
    # ints too long to print: named by their bit length, or by their key alone
    ({"params": {"k": 10**5000}}, "params['k'] of 16,610 bits is"),
    ({"params": {"k": [1, 10**5000]}}, "params['k'] is"),
])
def test_a_record_refuses_a_header_value_it_could_not_write(header, where):
    with pytest.raises(ValidationError, match=r"not a JSON value") as err:
        replace(noiseless_z_pair("1/4"), **header)
    assert str(err.value).startswith(where)


def test_a_record_writes_a_fraction_param_as_a_string():
    g = replace(noiseless_z_pair("1/4"), params={"k": Fraction(1, 3)})
    assert loads_channel(dumps_channel(g)).params == {"k": "1/3"}
