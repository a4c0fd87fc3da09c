"""BerkeleyDB-flavoured key-value facade over a byte-keyed B+-tree.

The relational layer and the index implementations mostly need an ordered
key-value store with cursors (the BerkeleyDB API the paper's implementation
used).  :class:`KVStore` wraps a :class:`~repro.storage.btree.BPlusTree`,
whose keys and values are byte strings compared with ``memcmp`` order, and
translates at its boundary: callers pass tuples and Python values, and every
store declares the codecs that turn them into bytes.

* A :class:`KeyCodec` maps keys to bytes whose byte order is the key order.
  A typed codec names one field kind per tuple component (see
  :data:`_FIELDS`); the generic codec ``"*"`` tags every component and
  accepts scalars or flat tuples of ``None``/numbers/strings.
* A :class:`ValueCodec` maps values to bytes: struct-packed fixed-width
  fields where a store's values are fixed (a Score row is one float64), and
  pickle only for the generic stores (relational rows and views).

Duplicate keys are expressed as composite keys, which is how the short
inverted lists (term -> postings) are laid out; a prefix scan is a bounded
byte range.
"""

from __future__ import annotations

import functools
import operator
import pickle
import struct
from bisect import bisect_left
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator

from repro.errors import KeyEncodingError, KeyNotFoundError, StoreClosedError
from repro.storage.btree import BPlusTree
from repro.storage.buffer_pool import BufferPool

# ---------------------------------------------------------------------------
# Key fields: order-preserving encodings
# ---------------------------------------------------------------------------

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64_BE = struct.Struct(">d")
_SIGN = 1 << 63
_MASK64 = (1 << 64) - 1
_I32_BIAS = 1 << 31

#: Compact ints: one header byte (0x80 + n bytes for n >= 0, 0x7F - n bytes
#: for negatives, whose payload is the inverted bytes of ``~value``) and the
#: minimal big-endian payload.  A doc id below 256 takes two bytes.
_SMALL_INTS = [bytes((0x80,))] + [bytes((0x81, n)) for n in range(1, 256)]
_PACK_TWO_BYTE = struct.Struct(">BH").pack
_first = operator.itemgetter(0)


def _enc_int(value: int) -> bytes:
    if value.__class__ is not int:
        if not isinstance(value, int):
            raise KeyEncodingError(f"expected an int key field, got {value!r}")
        value = int(value)
    if 0 <= value < 0x10000:
        return _SMALL_INTS[value] if value < 256 else _PACK_TWO_BYTE(0x82, value)
    if value > 0:
        length = (value.bit_length() + 7) >> 3
        if length > 8:
            raise KeyEncodingError(f"int key field {value} is out of the 64-bit range")
        return bytes((0x80 + length,)) + value.to_bytes(length, "big")
    inverted = ~value
    length = (inverted.bit_length() + 7) >> 3
    if length > 8:
        raise KeyEncodingError(f"int key field {value} is out of the 64-bit range")
    payload = ((1 << (8 * length)) - 1 - inverted).to_bytes(length, "big")
    return bytes((0x7F - length,)) + payload


def _enc_sorted_ints(keys: list) -> list[bytes]:
    """``[_enc_int(key) for key in keys]`` for ascending ``keys``: when they
    are all below 2^16 (the doc ids of a corpus that size) each band encodes
    in C, a table lookup below 256 and one ``struct`` call above."""
    if keys and keys[0].__class__ is int and keys[-1].__class__ is int \
            and 0 <= keys[0] and keys[-1] < 0x10000:
        cut = bisect_left(keys, 256)
        try:
            return (list(map(_SMALL_INTS.__getitem__, keys[:cut]))
                    + list(map(_PACK_TWO_BYTE, repeat(0x82), keys[cut:])))
        except (TypeError, struct.error):
            pass  # a stray non-int: the per-key path names it
    return list(map(_enc_int, keys))


def _dec_int(data: bytes, pos: int) -> tuple[int, int]:
    head = data[pos]
    pos += 1
    if head >= 0x80:
        end = pos + head - 0x80
        return int.from_bytes(data[pos:end], "big"), end
    length = 0x7F - head
    end = pos + length
    inverted = (1 << (8 * length)) - 1 - int.from_bytes(data[pos:end], "big")
    return ~inverted, end


def _enc_float(value: float) -> bytes:
    """Order-preserving float64: flip the sign bit of non-negatives, every
    bit of negatives.  ``-0.0`` is the same key as ``0.0``; NaN has no place
    in an order and is rejected."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise KeyEncodingError(f"expected a float key field, got {value!r}") from None
    if value != value:
        raise KeyEncodingError("NaN cannot be a key field")
    if value == 0.0:
        value = 0.0
    bits = _U64.unpack(_F64_BE.pack(value))[0]
    return _U64.pack(bits ^ _MASK64 if bits & _SIGN else bits | _SIGN)


def _float_of(bits: int) -> float:
    return _F64_BE.unpack(_U64.pack(bits ^ _SIGN if bits & _SIGN else bits ^ _MASK64))[0]


def _dec_float(data: bytes, pos: int) -> tuple[float, int]:
    return _float_of(_U64.unpack_from(data, pos)[0]), pos + 8


def _enc_u32(value: int) -> bytes:
    if not isinstance(value, int) or not 0 <= value <= 0xFFFFFFFF:
        raise KeyEncodingError(f"expected a 32-bit unsigned key field, got {value!r}")
    return _U32.pack(value)


def _dec_u32(data: bytes, pos: int) -> tuple[int, int]:
    return _U32.unpack_from(data, pos)[0], pos + 4


def _enc_i32(value: int) -> bytes:
    if not isinstance(value, int) or not -_I32_BIAS <= value < _I32_BIAS:
        raise KeyEncodingError(f"expected a 32-bit signed key field, got {value!r}")
    return _U32.pack(int(value) + _I32_BIAS)


def _dec_i32(data: bytes, pos: int) -> tuple[int, int]:
    return _U32.unpack_from(data, pos)[0] - _I32_BIAS, pos + 4


def _enc_str(value: str) -> bytes:
    """Escaped UTF-8 with a ``0x00`` terminator: ``0x00 -> 01 01`` and
    ``0x01 -> 01 02``, so the terminator sorts below every content byte and a
    string sorts before its extensions."""
    if not isinstance(value, str):
        raise KeyEncodingError(f"expected a str key field, got {value!r}")
    data = value.encode("utf-8", "surrogatepass")
    if b"\x00" in data or b"\x01" in data:
        data = data.replace(b"\x01", b"\x01\x02").replace(b"\x00", b"\x01\x01")
    return data + b"\x00"


def _dec_str(data: bytes, pos: int) -> tuple[str, int]:
    end = data.index(b"\x00", pos)
    raw = data[pos:end]
    if b"\x01" in raw:
        raw = raw.replace(b"\x01\x01", b"\x00").replace(b"\x01\x02", b"\x01")
    return raw.decode("utf-8", "surrogatepass"), end + 1


#: Field kinds of a typed key codec: encoder, decoder and, for fixed-width
#: fields, the struct code of the stored word.
_FIELDS: dict[str, tuple[Callable, Callable, "str | None"]] = {
    "s": (_enc_str, _dec_str, None),
    "i": (_enc_int, _dec_int, None),
    "f": (_enc_float, _dec_float, "Q"),
    "u": (_enc_u32, _dec_u32, "I"),
    "j": (_enc_i32, _dec_i32, "I"),
}

# -- the generic (tagged) codec ----------------------------------------------

_TAG_NONE, _TAG_NUMBER, _TAG_STR, _TAG_TUPLE = b"\x05", b"\x10", b"\x20", b"\x30"
_INT_RANGE = 1 << 64


def _enc_any(value: Any) -> bytes:
    """One tagged component.  Numbers share a tag and order by value: the
    float64 first, then an int's exact value (large ints stay distinct and
    ordered).  An integral float within the int range is encoded as that
    int, so keys Python finds equal (``4`` and ``4.0``) are one key."""
    if isinstance(value, str):
        return _TAG_STR + _enc_str(value)
    if isinstance(value, float) and value.is_integer() and -_INT_RANGE < value < _INT_RANGE:
        value = int(value)
    if isinstance(value, int):
        try:
            approx = float(value)
        except OverflowError:
            raise KeyEncodingError(f"int key {value} is out of range") from None
        return _TAG_NUMBER + _enc_float(approx) + b"\x00" + _enc_int(value)
    if isinstance(value, float):
        return _TAG_NUMBER + _enc_float(value) + b"\x01"
    if value is None:
        return _TAG_NONE
    raise KeyEncodingError(f"unsupported key component {value!r}")


def _dec_any(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos:pos + 1]
    pos += 1
    if tag == _TAG_STR:
        return _dec_str(data, pos)
    if tag == _TAG_NUMBER:
        number, pos = _dec_float(data, pos)
        if data[pos] == 1:
            return number, pos + 1
        return _dec_int(data, pos + 1)
    if tag == _TAG_NONE:
        return None, pos
    raise KeyEncodingError(f"corrupt generic key {data!r}")


def _tuple_encoder(fields: str, encoders: list) -> Callable[[tuple], bytes]:
    """Concatenate the fields' encodings; the unpacking checks the arity."""
    def shape_error(key: Any) -> KeyEncodingError:
        return KeyEncodingError(f"key {key!r} does not have the fields {fields!r}")

    if len(encoders) == 2:
        first, second = encoders

        def encode(key: tuple) -> bytes:
            try:
                a, b = key
            except (TypeError, ValueError):
                raise shape_error(key) from None
            return first(a) + second(b)
    elif len(encoders) == 3:
        first, second, third = encoders

        def encode(key: tuple) -> bytes:
            try:
                a, b, c = key
            except (TypeError, ValueError):
                raise shape_error(key) from None
            return first(a) + second(b) + third(c)
    else:
        def encode(key: tuple) -> bytes:
            if len(key) != len(encoders):
                raise shape_error(key)
            return b"".join([field(part) for field, part in zip(encoders, key)])
    return encode


class KeyCodec:
    """Order-preserving ``key <-> bytes`` for one store.

    ``fields`` names one kind per tuple component (``"sju"`` is
    ``(str, int32, uint32)``); a one-field codec keys by the bare scalar.
    ``"*"`` is the generic codec for stores whose keys are not declared.
    Byte order equals key order, so a tuple prefix encodes to a byte prefix
    of every key that extends it.
    """

    def __init__(self, fields: str) -> None:
        self.name = fields
        #: Encoders of a typed tuple key's first field and of the rest.
        self._head = self._tail = None
        if fields == "*":
            self.encode = self._encode_any
            self.decode = self._decode_any
            return
        encoders = [_FIELDS[kind][0] for kind in fields]
        decoders = [_FIELDS[kind][1] for kind in fields]
        if len(fields) == 1:
            self.encode = encoders[0]
            decode_one = decoders[0]
            self.decode = lambda data: decode_one(data, 0)[0]
        else:
            self.encode = _tuple_encoder(fields, encoders)
            self.decode = lambda data: self._decode_from(data, 0, decoders)
            self._head, self._tail = encoders[0], _tuple_encoder(fields[1:], encoders[1:])
        if fields == "i":
            self.encode_sorted = _enc_sorted_ints

    def encode_sorted(self, keys: list) -> list[bytes]:
        """``[encode(key) for key in keys]`` for ascending ``keys``."""
        return list(map(self.encode, keys))

    def rekey_pairs(self, heads: "Iterable[Any]", old_suffix: tuple, new_suffix: tuple,
                    cache: "dict | None" = None) -> list[tuple[bytes, bytes]]:
        """``(encode((head, *old_suffix)), encode((head, *new_suffix)))`` for
        each first field in ``heads``.  A typed codec encodes each suffix once
        and each head once per call, or once per ``cache`` (a ``head ->
        bytes`` dict shared across calls); the generic codec encodes whole
        keys."""
        if self._tail is None:
            encode = self.encode
            return [(encode((head, *old_suffix)), encode((head, *new_suffix)))
                    for head in heads]
        old, new = self._tail(old_suffix), self._tail(new_suffix)
        if cache is None:
            return [(prefix + old, prefix + new) for prefix in map(self._head, heads)]
        pairs = []
        for head in heads:
            prefix = cache.get(head)
            if prefix is None:
                prefix = cache[head] = self._head(head)
            pairs.append((prefix + old, prefix + new))
        return pairs

    @staticmethod
    def _decode_from(data: bytes, pos: int, decoders) -> tuple:
        parts = []
        for decode in decoders:
            part, pos = decode(data, pos)
            parts.append(part)
        return tuple(parts)

    @staticmethod
    def _encode_any(key: Any) -> bytes:
        if key.__class__ is tuple:
            return _TAG_TUPLE + b"".join([_enc_any(part) for part in key])
        return _enc_any(key)

    @staticmethod
    def _decode_any(data: bytes) -> Any:
        if data[:1] != _TAG_TUPLE:
            return _dec_any(data, 0)[0]
        parts, pos = [], 1
        while pos < len(data):
            part, pos = _dec_any(data, pos)
            parts.append(part)
        return tuple(parts)

    def encode_prefix(self, prefix: tuple) -> bytes:
        """The byte prefix shared by every key that starts with ``prefix``."""
        if self.name == "*":
            return _TAG_TUPLE + b"".join([_enc_any(part) for part in prefix])
        if len(prefix) > len(self.name) or len(self.name) == 1:
            raise KeyEncodingError(f"{prefix!r} is not a prefix of {self.name!r} keys")
        return b"".join([_FIELDS[kind][0](part) for kind, part in zip(self.name, prefix)])

    def fixed_suffix(self, skip: int) -> bool:
        """Whether every field after the first ``skip`` is fixed-width."""
        kinds = self.name[skip:]
        return self.name != "*" and bool(kinds) and all(_FIELDS[kind][2] for kind in kinds)

    def suffix_decoder(self, skip: int, offset: int) -> Callable[[bytes], tuple]:
        """``decode(key)`` of the fields after the first ``skip``, which
        start at byte ``offset`` of every key that has the same prefix.

        A fixed-width suffix (a short list's ``(state, doc_id)``) is read
        from the end of the key with one ``struct`` call; others field by
        field.
        """
        kinds = self.name[skip:]
        decoders = [_FIELDS[kind][1] for kind in kinds]
        if not self.fixed_suffix(skip):
            return lambda data: self._decode_from(data, offset, decoders)
        layout = struct.Struct(">" + "".join(_FIELDS[kind][2] for kind in kinds))
        unpack, start = layout.unpack_from, -layout.size
        if kinds == "ju":
            def decode_ju(data: bytes) -> tuple[int, int]:
                state, doc_id = unpack(data, start)
                return state - _I32_BIAS, doc_id
            return decode_ju
        if kinds == "fu":
            def decode_fu(data: bytes) -> tuple[float, int]:
                bits, doc_id = unpack(data, start)
                return _F64_BE.unpack(_U64.pack(
                    bits ^ _SIGN if bits & _SIGN else bits ^ _MASK64))[0], doc_id
            return decode_fu
        if "f" not in kinds and "j" not in kinds:
            return lambda data: unpack(data, start)
        return lambda data: self._decode_from(data, len(data) + start, decoders)


class ValueCodec:
    """``value <-> bytes`` for one store; ``width`` is the fixed encoded
    size, or ``None`` when values vary (the node then length-prefixes them)."""

    def __init__(self, name: str, width: "int | None",
                 encode: Callable[[Any], bytes], decode: Callable[[bytes], Any],
                 decode_many: "Callable[[list[bytes]], Any] | None" = None) -> None:
        self.name = name
        self.width = width
        self.encode = encode
        self.decode = decode
        #: ``values -> decoded sequence`` (one ``struct`` call where it can).
        self.decode_many = decode_many or (lambda values: list(map(decode, values)))


def _struct_codec(name: str, fmt: str, single: bool = False) -> ValueCodec:
    packer = struct.Struct(fmt)
    if single:
        runs: dict[int, Callable] = {}

        def decode_many(values: list) -> tuple:
            count = len(values)
            unpack = runs.get(count)
            if unpack is None:
                unpack = struct.Struct(f"<{count}{fmt[1:]}").unpack
                if count <= 256:
                    runs[count] = unpack
            return unpack(b"".join(values))

        return ValueCodec(name, packer.size, packer.pack, lambda data: packer.unpack(data)[0],
                          decode_many)
    return ValueCodec(name, packer.size, lambda value: packer.pack(*value), packer.unpack)


def _state_word_codec() -> ValueCodec:
    """``(int state, bool flag)`` as one int32 word ``state << 1 | flag``
    (ListChunk rows: four bytes instead of five)."""
    packer = struct.Struct("<i")

    def decode(data: bytes) -> tuple[int, bool]:
        word = packer.unpack(data)[0]
        return word >> 1, bool(word & 1)

    return ValueCodec("state_i", packer.size,
                      lambda value: packer.pack(value[0] << 1 | bool(value[1])), decode)


def _op_codec(operations: tuple[str, ...]) -> ValueCodec:
    """``(operation, float)`` as one op byte plus a float64 (short lists)."""
    packer = struct.Struct("<Bd")
    codes = {operation: code for code, operation in enumerate(operations)}

    def decode(data: bytes) -> tuple[str, float]:
        code, score = packer.unpack(data)
        return operations[code], score

    return ValueCodec("op_f64", packer.size,
                      lambda value: packer.pack(codes[value[0]], value[1]), decode)


def _constant_codec(name: str, constant: Any) -> ValueCodec:
    return ValueCodec(name, 0, lambda value: b"", lambda data: constant,
                      lambda values: [constant] * len(values))


VALUE_CODECS: dict[str, ValueCodec] = {codec.name: codec for codec in (
    ValueCodec("pickle", None,
               lambda value: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
               pickle.loads),
    _struct_codec("f64", "<d", single=True),
    _constant_codec("none", None),
    _constant_codec("true", True),
    _state_word_codec(),
    _struct_codec("state_f", "<d?"),
    _op_codec(("ADD", "REM")),
)}

_KEY_CODECS: dict[str, KeyCodec] = {}


def key_codec(fields: str) -> KeyCodec:
    """The (shared) key codec for a field string such as ``"i"`` or ``"sju"``."""
    codec = _KEY_CODECS.get(fields)
    if codec is None:
        if fields != "*" and (not fields or any(kind not in _FIELDS for kind in fields)):
            raise KeyEncodingError(f"unknown key codec {fields!r}")
        codec = _KEY_CODECS[fields] = KeyCodec(fields)
    return codec


def prefix_end(prefix: bytes) -> "bytes | None":
    """The smallest byte string above every extension of ``prefix``
    (``None``: no bound, the prefix is all ``0xFF``)."""
    stripped = prefix.rstrip(b"\xff")
    if not stripped:
        return None
    return stripped[:-1] + bytes((stripped[-1] + 1,))


class Cursor:
    """Forward iterator over a key range of a :class:`KVStore`.

    ``iterator`` may be supplied instead of a store to wrap an arbitrary
    pre-built ``(key, value)`` stream in the cursor protocol — the sharded
    facade uses this to expose a key-ordered merge of several stores.
    """

    def __init__(
        self,
        store: "KVStore | None" = None,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
        iterator: "Iterator[tuple[Any, Any]] | None" = None,
    ) -> None:
        if iterator is None:
            if store is None:
                raise TypeError("Cursor needs a store or an iterator")
            iterator = store.items(low=low, high=high, inclusive=inclusive)
        self._iterator = iterator
        self._current: tuple[Any, Any] | None = None
        self._exhausted = False

    def next(self) -> tuple[Any, Any] | None:
        """Advance and return the next ``(key, value)`` pair, or ``None``."""
        if self._exhausted:
            return None
        try:
            self._current = next(self._iterator)
        except StopIteration:
            self._current = None
            self._exhausted = True
        return self._current

    @property
    def current(self) -> tuple[Any, Any] | None:
        """The pair returned by the last successful :meth:`next` call."""
        return self._current

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        while True:
            pair = self.next()
            if pair is None:
                return
            yield pair


class KVStore:
    """An ordered key-value store with BerkeleyDB-style semantics.

    Parameters
    ----------
    buffer_pool:
        Buffer pool shared with the rest of the storage environment.
    name:
        Store name (used in error messages and the environment catalogue).
    order:
        B+-tree fan-out; derived from the page size when omitted.
    key_codec, value_codec:
        Codec names (see :func:`key_codec` and :data:`VALUE_CODECS`); the
        defaults take any scalar or flat tuple key and any picklable value.
    """

    def __init__(self, buffer_pool: BufferPool, name: str, order: int | None = None,
                 key_codec: str = "*", value_codec: str = "pickle") -> None:
        self._bind(name, key_codec, value_codec)
        self.tree = BPlusTree(buffer_pool, order=order, name=name,
                              value_width=self.value_codec.width)

    def _bind(self, name: str, key_fields: str, value_name: str) -> None:
        self.name = name
        self.key_codec = key_codec(key_fields)
        self.value_codec = VALUE_CODECS[value_name]
        self._generic = key_fields == "*"
        self._encode_key = self.key_codec.encode
        self._encode_sorted = self.key_codec.encode_sorted
        self._encode_value = self.value_codec.encode
        self._decode_value = self.value_codec.decode
        self._decode_many = self.value_codec.decode_many
        self._pairs: dict[int, Callable] = {}
        #: Encoder of a one-field prefix (the term of a term-keyed store).
        self._first_field = self.key_codec._head
        self._closed = False

    # -- persistence ---------------------------------------------------------

    def state(self) -> dict:
        """The store's non-page state for a durability catalog."""
        return dict(self.tree.state(), key_codec=self.key_codec.name,
                    value_codec=self.value_codec.name)

    @classmethod
    def attach(cls, buffer_pool: BufferPool, name: str, state: dict) -> "KVStore":
        """Rebuild a store around an existing tree (checkpoint/WAL recovery)."""
        store = cls.__new__(cls)
        store._bind(name, state["key_codec"], state["value_codec"])
        store.tree = BPlusTree.attach(buffer_pool, state, name=name,
                                      value_width=store.value_codec.width)
        return store

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Mark the store closed; further operations raise ``StoreClosedError``."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError(f"store {self.name!r} is closed")

    # -- point operations ------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        if self._closed:
            self._check_open()
        self.tree.insert(self._encode_key(key), self._encode_value(value))

    def get(self, key: Any, default: Any = ...) -> Any:
        """Return the value under ``key`` (or ``default`` if supplied)."""
        if self._closed:
            self._check_open()
        data = self.tree.get(self._encode_key(key), None)
        if data is not None:
            return self._decode_value(data)
        if default is not ...:
            return default
        raise KeyNotFoundError(f"{self.name}: key {key!r} not found")

    def get_many(self, keys: "Iterable[Any]") -> dict:
        """``{key: value}`` for the present ``keys`` in one sorted pass that
        keeps its descent path (see :meth:`~repro.storage.btree.BPlusTree.get_many`)."""
        if self._closed:
            self._check_open()
        tree = self.tree
        if not len(tree):
            return {}
        if self._generic:
            encode = self._encode_key
            wanted = {encode(key): key for key in keys}
            ordered = sorted(wanted)
            keys = [wanted[data] for data in ordered]
        else:
            try:  # a typed codec's byte order is its keys' own order
                keys = sorted(keys)
            except TypeError:
                raise KeyEncodingError(f"{self.name}: keys of mixed types") from None
            ordered = self._encode_sorted(keys)
        values = tree.get_sorted(ordered)
        if None in values:
            keys = [key for key, value in zip(keys, values) if value is not None]
            values = [value for value in values if value is not None]
        return dict(zip(keys, self._decode_many(values)))

    def delete(self, key: Any) -> Any:
        """Delete ``key`` and return its old value."""
        self._check_open()
        try:
            data = self.tree.delete(self._encode_key(key))
        except KeyNotFoundError:
            raise KeyNotFoundError(f"{self.name}: key {key!r} not found") from None
        return self._decode_value(data)

    def delete_if_present(self, key: Any) -> bool:
        """Delete ``key`` if it exists; return whether a deletion happened."""
        self._check_open()
        return self.tree.delete_many((self._encode_key(key),), ignore_missing=True) == 1

    def rekey(self, heads: "Iterable[Any]", old_suffix: tuple, new_suffix: tuple) -> int:
        """Move the entry ``(head, *old_suffix)`` of each of the ascending
        ``heads`` to ``(head, *new_suffix)``, as :meth:`delete_if_present`
        and then :meth:`put` per head would, in one tree call (see
        :meth:`~repro.storage.btree.BPlusTree.rekey_each`); a moved entry
        keeps its value, an absent one is put with ``None``.  Returns the
        number of entries found under the old keys."""
        if self._closed:
            self._check_open()
        return self.tree.rekey_each(
            self.key_codec.rekey_pairs(heads, old_suffix, new_suffix),
            self._encode_value(None))

    # -- bulk operations -------------------------------------------------------

    def rekey_batch(self, moves: "Iterable[tuple[Iterable[Any], tuple, tuple]]") -> None:
        """Apply ``(heads, old_suffix, new_suffix)`` moves of distinct keys as
        two sorted bulk passes: every old key is deleted (absent ones are
        skipped), then every new key is put with ``None``.  The keys come
        from the same builder as :meth:`rekey`'s, each head encoded once."""
        self._check_open()
        cache: dict = {}
        rekey_pairs = self.key_codec.rekey_pairs
        deletes: list[bytes] = []
        inserts: list[bytes] = []
        for heads, old_suffix, new_suffix in moves:
            for old, new in rekey_pairs(heads, old_suffix, new_suffix, cache):
                deletes.append(old)
                inserts.append(new)
        deletes.sort()
        inserts.sort()
        self.tree.delete_many(deletes, ignore_missing=True)
        self.tree.insert_many(zip(inserts, repeat(self._encode_value(None))))

    def put_many(self, items: "Iterable[tuple[Any, Any]]") -> int:
        """Insert or overwrite a batch of entries through one sorted bulk pass.

        Consecutive keys that land in the same B+-tree leaf share a single
        leaf write (see :meth:`~repro.storage.btree.BPlusTree.insert_many`).
        Returns the number of keys that were newly inserted.
        """
        self._check_open()
        items = list(items)
        if not self._generic:
            # Sorted here, the tree's own (stable) sort finds a sorted run.
            self._sort(items, key=_first)
        encode_value = self._encode_value
        return self.tree.insert_many(list(zip(
            self._encode_sorted([key for key, _value in items]),
            [encode_value(value) for _key, value in items])))

    def delete_many(self, keys: "Iterable[Any]",
                    ignore_missing: bool = False) -> int:
        """Delete a batch of keys through one sorted bulk pass.

        With ``ignore_missing=True`` absent keys are skipped (the bulk
        equivalent of :meth:`delete_if_present`); otherwise the first missing
        key raises after the deletions before it have been applied.  Returns
        the number of entries removed.
        """
        self._check_open()
        keys = list(keys)
        if not self._generic:
            self._sort(keys)
        return self.tree.delete_many(self._encode_sorted(keys),
                                     ignore_missing=ignore_missing)

    def contains(self, key: Any) -> bool:
        """Whether ``key`` is present."""
        if self._closed:
            self._check_open()
        return bool(len(self.tree)) and self.tree.get(self._encode_key(key), None) is not None

    def __contains__(self, key: Any) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self.tree)

    # -- range operations --------------------------------------------------------

    def cursor(
        self,
        low: Any = None,
        high: Any = None,
        inclusive: tuple[bool, bool] = (True, True),
    ) -> Cursor:
        """Open a forward cursor over ``[low, high]``."""
        self._check_open()
        return Cursor(self, low=low, high=high, inclusive=inclusive)

    def items(self, low: Any = None, high: Any = None,
              inclusive: tuple[bool, bool] = (True, True)) -> Iterator[tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs over ``[low, high]`` in key order."""
        self._check_open()
        encode = self._encode_key
        return self.tree.items(low=None if low is None else encode(low),
                               high=None if high is None else encode(high),
                               inclusive=inclusive, decode=self._decode_pair)

    def _decode_pair(self, key: bytes, value: bytes) -> tuple[Any, Any]:
        return self.key_codec.decode(key), self._decode_value(value)

    def _prefix_range(self, prefix: tuple, decode) -> Iterator:
        low = self.key_codec.encode_prefix(prefix)
        return self.tree.items(low=low, high=prefix_end(low), inclusive=(True, False),
                               decode=decode)

    def prefix_items(self, prefix: Any) -> Iterator[tuple[Any, Any]]:
        """Iterate pairs whose (tuple) key starts with ``prefix``.

        Keys must be tuples; ``prefix`` is matched against the first
        ``len(prefix)`` components.  This is the duplicate-key idiom used for
        short inverted lists, whose keys are ``(term, doc_id)``.  The scan is
        the byte range ``[prefix, prefix_end(prefix))``, so the tree stops
        reading leaves at the end of the prefix range.
        """
        self._check_open()
        return self._prefix_range(tuple(prefix), self._decode_pair)

    def suffix_items(self, prefix: Any) -> Iterator[tuple[tuple, Any]]:
        """:meth:`prefix_items` yielding only the key fields after
        ``prefix`` — the prefix itself is never decoded."""
        if self._closed:
            self._check_open()
        prefix = tuple(prefix)
        codec = self.key_codec
        if codec.name == "*":
            width = len(prefix)
            return ((key[width:], value) for key, value in self.prefix_items(prefix))
        skip = len(prefix)
        if skip == 1 and self._first_field is not None:
            low = self._first_field(prefix[0])
        else:
            low = codec.encode_prefix(prefix)
        decoder = self._pairs.get(skip)
        if decoder is None:
            decoder = self._pair_decoder(codec.suffix_decoder(skip, len(low)))
            if codec.fixed_suffix(skip):  # independent of the prefix: cache it
                self._pairs[skip] = decoder
        return self.tree.items(low=low, high=prefix_end(low), inclusive=(True, False),
                               decode=decoder)

    def _sort(self, keys: list, key: "Callable | None" = None) -> None:
        """Sort a typed store's keys in place: their order is their
        encodings' byte order."""
        try:
            keys.sort(key=key)
        except TypeError:
            raise KeyEncodingError(f"{self.name}: keys of mixed types") from None

    def _pair_decoder(self, suffix: Callable[[bytes], tuple]) -> Callable:
        decode_value = self._decode_value
        if self.value_codec.width == 0:
            constant = decode_value(b"")
            return lambda key, _value: (suffix(key), constant)
        return lambda key, value: (suffix(key), decode_value(value))

    # -- statistics ----------------------------------------------------------------

    def size_bytes(self) -> int:
        """Serialized size of the underlying tree."""
        self._check_open()
        return self.tree.size_bytes()

    def page_ids(self, accounted: bool = False) -> set[int]:
        """Page ids owned by the underlying tree.

        ``accounted=True`` charges the traversal like a normal read sequence
        (see :meth:`~repro.storage.btree.BPlusTree.page_ids`).
        """
        self._check_open()
        return self.tree.page_ids(accounted=accounted)
