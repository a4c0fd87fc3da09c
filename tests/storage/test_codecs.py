"""The key and value codecs of :mod:`repro.storage.kvstore`.

A B+-tree compares keys as byte strings, so a store's key codec must map
its keys to bytes whose ``memcmp`` order is the keys' own order, a tuple
prefix to a byte prefix, and back.  The density test pins what the byte
layout costs per entry on the benchmark corpora.
"""

from __future__ import annotations

import math
import os
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import KeyEncodingError
from repro.storage.kvstore import VALUE_CODECS, key_codec

_FIELD_VALUES = {
    "s": st.text(),
    "i": st.integers(min_value=-(2 ** 64), max_value=2 ** 64 - 1),
    "f": st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]),
}
#: The generic codec's number fields mix ints and floats, as Python does.
_NUMBERS = (st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
            | st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 4, 4.0]))
_GENERIC_VALUES = {"s": st.text(), "i": _NUMBERS, "f": _NUMBERS}


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _compare(a, b) -> int:
    return _sign((a > b) - (a < b))


@st.composite
def _schema_and_keys(draw, values):
    """A field schema and tuples that follow it (some cut to prefixes)."""
    fields = draw(st.text(alphabet="sif", min_size=1, max_size=4))
    tuples = draw(st.lists(st.tuples(*(values[kind] for kind in fields)),
                           min_size=2, max_size=12))
    cuts = draw(st.lists(st.integers(1, len(fields)), min_size=len(tuples),
                         max_size=len(tuples)))
    return fields, tuples, [key[:cut] for key, cut in zip(tuples, cuts)]


@settings(max_examples=150, deadline=None)
@given(case=_schema_and_keys(_FIELD_VALUES))
@example(case=("s", [("a\x00b",), ("a",), ("a\x01",), ("ä",), ("",)], [("a",)] * 5))
@example(case=("fi", [(-0.0, 2 ** 64 - 1), (0.0, -(2 ** 64))], [(0.0,), (-0.0,)]))
def test_typed_key_order_is_tuple_order(case):
    fields, keys, prefixes = case
    codec = key_codec(fields)
    single = len(fields) == 1
    encoded = [codec.encode(key[0] if single else key) for key in keys]
    for key, data in zip(keys, encoded):
        decoded = codec.decode(data)
        assert (decoded,) == key if single else decoded == key
    for a, da in zip(keys, encoded):
        for b, db in zip(keys, encoded):
            assert _compare(da, db) == _compare(a, b)
    if single:
        return
    for prefix in prefixes:
        data = codec.encode_prefix(prefix)
        for key, encoded_key in zip(keys, encoded):
            assert encoded_key.startswith(data) == (key[:len(prefix)] == prefix)
            if not encoded_key.startswith(data):
                assert _compare(encoded_key, data) == _compare(key, prefix)


@settings(max_examples=150, deadline=None)
@given(case=_schema_and_keys(_GENERIC_VALUES))
@example(case=("fs", [(4, "a"), (4.0, "a"), (-0.0, ""), (0, "\x00")], [(4.0,), (0,)]))
def test_generic_key_order_is_tuple_order_over_prefixes(case):
    """The tagged codec orders tuples and their prefixes as Python does
    (a prefix sorts first; ``4`` and ``4.0`` are one key) and round-trips
    them."""
    _fields, keys, prefixes = case
    codec = key_codec("*")
    everything = keys + prefixes
    encoded = [codec.encode(key) for key in everything]
    for key, data in zip(everything, encoded):
        assert codec.decode(data) == key
    for a, da in zip(everything, encoded):
        for b, db in zip(everything, encoded):
            assert _compare(da, db) == _compare(a, b)


def test_signed_zero_is_one_key_and_nan_is_rejected():
    floats = key_codec("f")
    assert floats.encode(-0.0) == floats.encode(0.0)
    assert math.copysign(1.0, floats.decode(floats.encode(-0.0))) == 1.0
    for codec, key in ((floats, math.nan), (key_codec("sfu"), ("t", math.nan, 1)),
                       (key_codec("*"), (1, math.nan))):
        with pytest.raises(KeyEncodingError):
            codec.encode(key)


@pytest.mark.parametrize("fields, key", [
    ("i", 2 ** 64), ("i", -(2 ** 64) - 1), ("u", -1), ("u", 2 ** 32),
    ("j", 2 ** 31), ("i", 1.5), ("s", 3), ("su", ("t",)), ("su", ("t", 1, 2)),
])
def test_out_of_range_and_misshapen_keys_are_rejected(fields, key):
    with pytest.raises(KeyEncodingError):
        key_codec(fields).encode(key)


def test_fixed_width_suffixes_decode_without_the_prefix():
    for fields, key in (("sju", ("term", -7, 42)), ("sfu", ("term", -2.5, 9)),
                        ("su", ("term", 3))):
        codec = key_codec(fields)
        data = codec.encode(key)
        offset = len(codec.encode_prefix(key[:1]))
        assert codec.suffix_decoder(1, offset)(data) == key[1:]


@pytest.mark.parametrize("name, value", [
    ("pickle", {"a": [1, None]}), ("f64", 2.5), ("none", None), ("true", True),
    ("state_i", (17, True)), ("state_i", (-3, False)), ("state_f", (2.5, True)),
    ("op_f64", ("ADD", 0.25)), ("op_f64", ("REM", 0.0)),
])
def test_value_codecs_round_trip_at_their_width(name, value):
    codec = VALUE_CODECS[name]
    data = codec.encode(value)
    assert codec.decode(data) == value
    assert codec.width is None or len(data) == codec.width
    assert list(codec.decode_many([data, data])) == [value, value]


# ---------------------------------------------------------------------------
# Density on the benchmark corpora
# ---------------------------------------------------------------------------

#: Bytes per entry (``size_bytes() / len``) the pickled-node tree reached on
#: the same corpora; the byte layout must stay at or below each.
_PICKLED_BYTES_PER_ENTRY = {"score": 14.1, "listchunk": 9.6, "short": 48.2,
                            "scorelists": 33.6, "fancy": 32.5}


def _e2e_workloads():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, "..", "..", "benchmarks", "e2e"))
    try:
        import e2e_workloads
    finally:
        sys.path.pop(0)
    return e2e_workloads


def _bytes_per_entry(index, suffix: str) -> float:
    store = index.env.kvstore(f"svr.{suffix}")
    return store.size_bytes() / len(store)


def test_bytes_per_entry_at_or_below_the_pickled_tree():
    workloads = _e2e_workloads()
    svr_cold = workloads.SvrCold(7, workloads.SvrCold.full, out_dir="")
    svr_cold.generate()
    index = svr_cold.build(0)
    for window in svr_cold.windows:
        index.apply_score_updates(window)
    measured = {suffix: _bytes_per_entry(index, suffix)
                for suffix in ("score", "listchunk", "short")}
    sweep = workloads.MethodsSweep(7, workloads.MethodsSweep.full, out_dir="")
    sweep.generate()
    for method, suffix in (("score", "scorelists"), ("chunk_termscore", "fancy")):
        built = workloads._build(sweep.corpus, method, cache_pages=4096, shards=1,
                                 threads=1, list_cache_pages=0,
                                 **workloads.METHOD_OPTIONS[method])
        measured[suffix] = _bytes_per_entry(built, suffix)
    for suffix, ceiling in _PICKLED_BYTES_PER_ENTRY.items():
        assert measured[suffix] <= ceiling, (suffix, measured[suffix])
