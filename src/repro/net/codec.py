"""Wire codec: length-prefixed framing with a binary fast path.

The simulator passes message *objects* between processes; the net
backend must serialize them. Frames on a connection are::

    [4-byte big-endian length][body]

The body comes in two self-describing formats, distinguished by its
first byte:

* **canonical JSON** — the body starts with ``{`` (canonical dicts:
  sorted keys, no whitespace). This is the debugging/golden format: a
  message's encoding is a deterministic function of its content, so the
  round-trip tests compare canonical bytes instead of needing
  ``__eq__`` on the slotted wire classes.
* **binary** — the body starts with :data:`FRAME_BINARY` (``0x00``,
  which canonical JSON can never produce), followed by a version byte
  and a struct-packed payload. Same information, ~2-4x fewer bytes and
  no JSON string building on the hot path.

Both are derived from the one :data:`SCHEMA` table, so a stream may mix
them freely (the :class:`FrameDecoder` dispatches per frame, and hands
back the decoded message whichever format carried it) and ``encode →
decode → encode`` is bit-stable in either format.

Layers:

* **values** — :func:`encode_value` / :func:`decode_value` (and their
  ``_binary`` twins) losslessly round-trip the open payload vocabulary:
  JSON scalars, lists, and tagged forms for tuples, sets, frozensets,
  dicts (any encodable keys), :class:`~repro.core.epoch.Epoch`,
  :class:`~repro.core.messages.Multicast` and nested registered
  messages. Tagged forms are dicts with a ``"__"`` discriminator, so a
  *plain* dict is always encoded in tagged form too — nothing an
  application payload contains can collide with the tag namespace.
* **messages** — :data:`SCHEMA` declares each wire-message class once;
  its codec functions, both tag lookups and the "no codec registered"
  error are derived from it. Every class in :mod:`repro.core.messages`
  (class-level ``kind``) plus the rmcast frames (``Envelope`` /
  ``Batch``) must have a row; ``tests/net/test_codec.py`` fails when a
  new message type is added without one.

The codec is intentionally JSON, not pickle: frames are inspectable on
the wire, and decoding never executes arbitrary constructors — only the
fixed schema (a frame from an untrusted peer can at worst build protocol
messages; bytes that are no frame raise :class:`CodecError`, nothing else).
"""

from __future__ import annotations

import json
import struct
from collections import namedtuple
from typing import Any, Callable, Dict, List, Tuple, Type

from ..core.epoch import Epoch
from ..core.messages import (
    Ack,
    AcceptEpoch,
    Bump,
    EpochPromise,
    Multicast,
    NewEpoch,
    NewState,
    Start,
)
from ..rmcast.fifo import Batch, Envelope

#: Length-prefix format: unsigned 32-bit big-endian frame length.
LEN_STRUCT = struct.Struct("!I")

#: Hard ceiling on a single frame (a corrupt length prefix must not ask
#: the reader to buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(ValueError):
    """A value or frame that cannot be encoded/decoded losslessly."""


# ----------------------------------------------------------------------
# value layer
# ----------------------------------------------------------------------


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def encode_value(value: Any) -> Any:
    """Encode an arbitrary payload value into JSON-safe form."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    cls = value.__class__
    # Class-specific forms come before the generic tuple branch: Epoch
    # is a NamedTuple and must not fall through to plain-tuple encoding.
    if cls is Epoch:
        return {"__": "ep", "n": value.number, "l": value.leader}
    if cls is Multicast:
        return {
            "__": "mc",
            "mid": encode_value(value.mid),
            "dest": sorted(value.dest),
            "p": encode_value(value.payload),
        }
    if isinstance(value, tuple):
        return {"__": "t", "v": [encode_value(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        items = sorted((encode_value(v) for v in value), key=_canonical)
        return {"__": "fs" if isinstance(value, frozenset) else "s", "v": items}
    if isinstance(value, dict):
        pairs = sorted(
            ([encode_value(k), encode_value(v)] for k, v in value.items()),
            key=lambda kv: _canonical(kv[0]),
        )
        return {"__": "d", "v": pairs}
    if cls in _CODECS:
        return {"__": "pm", "v": encode_message(value)}
    raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if isinstance(data, dict):
        tag = data.get("__")
        if tag == "t":
            return tuple(decode_value(v) for v in data["v"])
        if tag == "ep":
            return Epoch(data["n"], data["l"])
        if tag == "mc":
            mid = decode_value(data["mid"])
            return Multicast(
                (mid[0], mid[1]), frozenset(data["dest"]), decode_value(data["p"])
            )
        if tag == "fs":
            return frozenset(decode_value(v) for v in data["v"])
        if tag == "s":
            return {decode_value(v) for v in data["v"]}
        if tag == "d":
            return {decode_value(k): decode_value(v) for k, v in data["v"]}
        if tag == "pm":
            return decode_message(data["v"])
        raise CodecError(f"unknown value tag {tag!r}")
    raise CodecError(f"cannot decode {type(data).__name__}: {data!r}")


# ----------------------------------------------------------------------
# binary value layer
# ----------------------------------------------------------------------

#: First body byte of a binary frame. Canonical JSON bodies always start
#: with ``{`` (0x7B), so 0x00 is unambiguous.
FRAME_BINARY = 0x00

#: Binary wire-format version, bumped on any layout change. A decoder
#: seeing an unknown version raises instead of guessing.
BINARY_VERSION = 1

_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")

# Value tags (one byte each).
_V_NONE = 0
_V_TRUE = 1
_V_FALSE = 2
_V_INT = 3  # compact int (see _put_cint)
_V_FLOAT = 5  # !d
_V_STR = 6  # compact length + UTF-8
_V_LIST = 7  # compact count + values
_V_TUPLE = 8
_V_SET = 9
_V_FSET = 10
_V_DICT = 11  # compact count + key/value pairs (canonically sorted)
_V_EPOCH = 12  # compact number + compact leader
_V_MC = 13  # mid (2 compact ints) + compact ndest + compact dests (sorted) + payload
_V_MSG = 14  # nested registered message (tag byte + body)

_CONTAINERS = {_V_LIST: list, _V_TUPLE: tuple, _V_SET: set, _V_FSET: frozenset}


def _put_cint(out: bytearray, n: int) -> None:
    """Compact signed int: a width byte (1/2/4/8) then that many
    big-endian two's-complement bytes; width 0 escapes to a compact
    length + arbitrary-size bytes. Protocol ints (pids, epochs, clock
    ticks) almost always fit one or two bytes, which is where the wire
    savings over JSON come from."""
    if 0 <= n <= 127:
        # The overwhelmingly common case (pids, small counts, group
        # ids): append the byte directly, skipping to_bytes entirely.
        out.append(1)
        out.append(n)
    elif -128 <= n < 0:
        out.append(1)
        out.append(n + 256)
    elif -32768 <= n <= 32767:
        out.append(2)
        out += n.to_bytes(2, "big", signed=True)
    elif -(2**31) <= n < 2**31:
        out.append(4)
        out += n.to_bytes(4, "big", signed=True)
    elif -(2**63) <= n < 2**63:
        out.append(8)
        out += n.to_bytes(8, "big", signed=True)
    else:
        raw = n.to_bytes((n.bit_length() + 8) // 8, "big", signed=True)
        out.append(0)
        _put_cint(out, len(raw))
        out += raw


def _get_cint(buf: bytes, off: int) -> Tuple[int, int]:
    width = buf[off]
    if width == 1:
        # Mirror of the one-byte fast path in _put_cint.
        b = buf[off + 1]
        return (b - 256 if b >= 128 else b), off + 2
    off += 1
    if width == 0:
        width, off = _get_cint(buf, off)
        if width < 0:
            # It would move ``off`` backwards: hostile bytes could make
            # a decode loop re-read itself for ever.
            raise CodecError(f"negative bigint width {width}")
    return int.from_bytes(buf[off : off + width], "big", signed=True), off + width


def _put_seq(out: bytearray, items: Any, put: Callable[..., None]) -> None:
    """A compact count, then each item as written by ``put(out, item)``."""
    _put_cint(out, len(items))
    for item in items:
        put(out, item)


def _get_seq(buf: bytes, off: int, get: Callable[..., Any]) -> Tuple[List[Any], int]:
    """Inverse of :func:`_put_seq`, items read by ``get(buf, off)``."""
    n, off = _get_cint(buf, off)
    items = []
    for _ in range(n):
        item, off = get(buf, off)
        items.append(item)
    return items, off


#: Memoized canonical sort keys for container elements. Protocol
#: payloads reuse a handful of short string keys ("c", "i", ...) and
#: small ints, so the canonical-JSON key computation — a json.dumps
#: per element, hot on the ack path — is short-circuited for ints
#: (json.dumps(int) is str(int)) and cached for strs. Only strs enter
#: the cache: a value-keyed dict would alias True/1/1.0 (equal, same
#: hash, different canonical forms). Bounded so adversarial payloads
#: cannot grow it without limit.
_SORT_KEY_CACHE: Dict[str, str] = {}
_SORT_KEY_CACHE_MAX = 4096


def _container_sort_key(v: Any) -> str:
    if type(v) is int:
        return str(v)
    if type(v) is str:
        cached = _SORT_KEY_CACHE.get(v)
        if cached is None:
            cached = _canonical(encode_value(v))
            if len(_SORT_KEY_CACHE) < _SORT_KEY_CACHE_MAX:
                _SORT_KEY_CACHE[v] = cached
        return cached
    return _canonical(encode_value(v))


def _pair_sort_key(kv: Tuple[Any, Any]) -> str:
    return _container_sort_key(kv[0])


def encode_value_binary(value: Any, out: bytearray) -> None:
    """Append the binary encoding of ``value`` to ``out``.

    Covers exactly the vocabulary of :func:`encode_value`; unordered
    containers are sorted by the canonical JSON of their (encoded)
    elements, so the binary encoding is the same deterministic function
    of content as the JSON one (encode → decode → encode is
    bit-stable).
    """
    if value is None:
        out.append(_V_NONE)
        return
    cls = value.__class__
    if cls is bool:
        out.append(_V_TRUE if value else _V_FALSE)
        return
    if cls is int:
        out.append(_V_INT)
        _put_cint(out, value)
        return
    if cls is str:
        raw = value.encode("utf-8")
        out.append(_V_STR)
        _put_cint(out, len(raw))
        out += raw
        return
    if cls is float:
        out.append(_V_FLOAT)
        out += _F64.pack(value)
        return
    if cls is list:
        out.append(_V_LIST)
        _put_cint(out, len(value))
        for v in value:
            encode_value_binary(v, out)
        return
    if cls is Epoch:
        out.append(_V_EPOCH)
        _put_epoch(out, value)
        return
    if cls is Multicast:
        out.append(_V_MC)
        _put_cint(out, value.mid[0])
        _put_cint(out, value.mid[1])
        # Inline rather than _put_seq / _get_seq: every start and ack
        # carries a multicast, and the call shows in the encode time.
        dest = sorted(value.dest)
        _put_cint(out, len(dest))
        for gid in dest:
            _put_cint(out, gid)
        encode_value_binary(value.payload, out)
        return
    if isinstance(value, tuple):
        out.append(_V_TUPLE)
        _put_cint(out, len(value))
        for v in value:
            encode_value_binary(v, out)
        return
    if isinstance(value, (set, frozenset)):
        out.append(_V_FSET if isinstance(value, frozenset) else _V_SET)
        items = sorted(value, key=_container_sort_key)
        _put_cint(out, len(items))
        for v in items:
            encode_value_binary(v, out)
        return
    if isinstance(value, dict):
        out.append(_V_DICT)
        pairs = sorted(value.items(), key=_pair_sort_key)
        _put_cint(out, len(pairs))
        for k, v in pairs:
            encode_value_binary(k, out)
            encode_value_binary(v, out)
        return
    if cls in _CODECS:
        out.append(_V_MSG)
        _encode_message_binary_into(value, out)
        return
    raise CodecError(f"cannot binary-encode {type(value).__name__}: {value!r}")


def decode_value_binary(buf: bytes, off: int) -> Tuple[Any, int]:
    """Inverse of :func:`encode_value_binary`; returns (value, new off)."""
    tag = buf[off]
    off += 1
    if tag == _V_NONE:
        return None, off
    if tag == _V_TRUE:
        return True, off
    if tag == _V_FALSE:
        return False, off
    if tag == _V_INT:
        return _get_cint(buf, off)
    if tag == _V_FLOAT:
        return _F64.unpack_from(buf, off)[0], off + 8
    if tag == _V_STR:
        n, off = _get_cint(buf, off)
        if n < 0:  # see _get_cint
            raise CodecError(f"negative string length {n}")
        return bytes(buf[off : off + n]).decode("utf-8"), off + n
    if tag in _CONTAINERS:
        items, off = _get_seq(buf, off, decode_value_binary)
        return _CONTAINERS[tag](items), off
    if tag == _V_DICT:
        n, off = _get_cint(buf, off)
        d = {}
        for _ in range(n):
            k, off = decode_value_binary(buf, off)
            v, off = decode_value_binary(buf, off)
            d[k] = v
        return d, off
    if tag == _V_EPOCH:
        return _get_epoch(buf, off)
    if tag == _V_MC:
        origin, off = _get_cint(buf, off)
        seq, off = _get_cint(buf, off)
        n, off = _get_cint(buf, off)
        dest = []
        for _ in range(n):
            gid, off = _get_cint(buf, off)
            dest.append(gid)
        payload, off = decode_value_binary(buf, off)
        return Multicast((origin, seq), frozenset(dest), payload), off
    if tag == _V_MSG:
        return _decode_message_binary_from(buf, off)
    raise CodecError(f"unknown binary value tag {tag}")


def _put_epoch(out: bytearray, epoch: Epoch) -> None:
    _put_cint(out, epoch.number)
    _put_cint(out, epoch.leader)


def _get_epoch(buf: bytes, off: int) -> Tuple[Epoch, int]:
    number, off = _get_cint(buf, off)
    leader, off = _get_cint(buf, off)
    return Epoch(number, leader), off


def _put_dp(out: bytearray, dp: Any) -> None:
    if dp is None:
        out.append(0)
    else:
        out.append(1)
        _put_epoch(out, dp[0])
        _put_cint(out, dp[1])


def _get_dp(buf: bytes, off: int) -> Tuple[Any, int]:
    if buf[off] == 0:
        return None, off + 1
    epoch, off = _get_epoch(buf, off + 1)
    n, off = _get_cint(buf, off)
    return (epoch, n), off


def _put_t_row(out: bytearray, row: Any) -> None:
    _put_epoch(out, row[0])
    encode_value_binary(row[1], out)
    _put_cint(out, row[2])


def _get_t_row(buf: bytes, off: int) -> Tuple[Any, int]:
    epoch, off = _get_epoch(buf, off)
    multicast, off = decode_value_binary(buf, off)
    ts, off = _get_cint(buf, off)
    return (epoch, multicast, ts), off


# ----------------------------------------------------------------------
# message layer
# ----------------------------------------------------------------------


# A wire type says how one kind of field travels, as four code
# templates: (JSON encode expression, JSON decode expression, binary
# encode statement, binary decode statement). ``{a}`` is the message
# attribute — and the binary decoder's local that receives it — ``{k}``
# the field's JSON key. In scope: ``m`` the message, ``d`` its JSON
# dict, ``out`` the output bytearray, ``buf`` / ``off`` the input bytes
# and read offset.
_AS_IS = ("m.{a}", "d[{k!r}]")
_AS_VALUE = ("encode_value(m.{a})", "decode_value(d[{k!r}])")

INT = _AS_IS + ("_put_cint(out, m.{a})", "{a}, off = _get_cint(buf, off)")
BOOL = _AS_IS + ("out.append(1 if m.{a} else 0)", "{a} = buf[off] != 0; off += 1")
#: Anything :func:`encode_value` accepts, self-describing on the wire.
VALUE = _AS_VALUE + (
    "encode_value_binary(m.{a}, out)", "{a}, off = decode_value_binary(buf, off)"
)
# The next three are plain values in JSON; in binary their fixed shape
# drops the per-element value tags.
EPOCH = _AS_VALUE + ("_put_epoch(out, m.{a})", "{a}, off = _get_epoch(buf, off)")
#: Optional ``(Epoch, int)`` delivered-prefix report (acks and bumps).
DP = _AS_VALUE + ("_put_dp(out, m.{a})", "{a}, off = _get_dp(buf, off)")
#: List of ``(Epoch, Multicast, ts)`` rows (promise / new-state).
T_SEQ = _AS_VALUE + (
    "_put_seq(out, m.{a}, _put_t_row)", "{a}, off = _get_seq(buf, off, _get_t_row)"
)
#: Tuple of ints (an envelope's destination pids).
INTS = (
    "list(m.{a})",
    "tuple(d[{k!r}])",
    "_put_seq(out, m.{a}, _put_cint)",
    "{a}, off = _get_seq(buf, off, _get_cint); {a} = tuple({a})",
)
#: Tuple of envelopes (a batch's body); they carry no tag of their own.
ENVELOPES = (
    "list(map(_CODECS[Envelope].to_json, m.{a}))",
    "tuple(map(_CODECS[Envelope].from_json, d[{k!r}]))",
    "_put_seq(out, m.{a}, _CODECS[Envelope].put)",
    "{a}, off = _get_seq(buf, off, _CODECS[Envelope].get); {a} = tuple({a})",
)

#: The wire schema: class -> (binary tag, JSON tag, fields[, constructor
#: order]). A field is ``(attribute, JSON key, wire type)``; fields are
#: listed in binary wire order. The constructor is called positionally,
#: in that same order or in the one the optional fourth element names
#: (Ack and Envelope: their version-1 layout predates this table) —
#: never through ``__init__`` introspection, which is native code under
#: the mypyc build; ``tests/net/test_codec.py`` pins every row to its
#: constructor's signature instead. The tags are the codec's own
#: namespace (``Envelope.kind`` is the *payload's* kind by design, so
#: the class-level ``kind`` strings cannot serve as tags here). A new
#: field is one more tuple in one row; reordering or retyping existing
#: ones changes the binary layout and must bump :data:`BINARY_VERSION`.
SCHEMA: Dict[Type[Any], Tuple[Any, ...]] = {
    Start: (1, "start", (("multicast", "mc", VALUE),)),
    Ack: (2, "ack", (
        ("multicast", "mc", VALUE), ("epoch", "e", EPOCH), ("group", "g", INT),
        ("ts", "ts", INT), ("sender", "s", INT), ("dp", "dp", DP),
    ), ("multicast", "group", "epoch", "ts", "sender", "dp")),
    Bump: (3, "bump", (
        ("epoch", "e", EPOCH), ("ts", "ts", INT), ("sender", "s", INT), ("dp", "dp", DP),
    )),
    NewEpoch: (4, "new-epoch", (("epoch", "e", EPOCH),)),
    EpochPromise: (5, "promise", (
        ("epoch", "e", EPOCH), ("sender", "s", INT), ("clock", "c", INT),
        ("e_cur", "ec", EPOCH), ("t_seq", "t", T_SEQ), ("t_base", "tb", INT),
    )),
    NewState: (6, "new-state", (
        ("epoch", "e", EPOCH), ("t_seq", "t", T_SEQ), ("ts", "ts", INT), ("t_base", "tb", INT),
    )),
    AcceptEpoch: (7, "accept-epoch", (("epoch", "e", EPOCH), ("sender", "s", INT))),
    Envelope: (8, "envelope", (
        ("origin", "o", INT), ("seq", "q", INT), ("dests", "d", INTS),
        ("relayed", "r", BOOL), ("payload", "p", VALUE),
    ), ("origin", "seq", "payload", "dests", "relayed")),
    Batch: (9, "batch", (("envelopes", "envs", ENVELOPES),)),
}


#: One schema row's tags and derived functions: ``to_json(msg)`` is the
#: untagged dict and ``from_json(d)`` its inverse; ``put(out, msg)``
#: appends the untagged body, ``get(buf, off)`` returns (msg, new off).
_Codec = namedtuple("_Codec", "binary_tag json_tag to_json from_json put get")

_CODEC_SOURCE = """\
def make(cls):
    def to_json(m):
        return {{{to_json}}}
    def from_json(d):
        return cls({from_json})
    def put(out, m):
        {put}
    def get(buf, off):
        {get}
        return cls({args}), off
    return to_json, from_json, put, get
"""


def derive_codec(cls: Type[Any], row: Tuple[Any, ...], memo: str = "") -> _Codec:
    """Compile one schema row, once at import, into the straight-line
    functions one would otherwise write by hand (the ``namedtuple``
    technique): walking the fields on every call instead measured
    +30 % on ack encode and +20 % on decode.

    ``memo`` names an attribute of the class, ``None`` on a fresh
    instance, in which ``put`` keeps the untagged binary body it wrote
    and from which it splices every later time. Only for a class whose
    instances do not change once encoded (``Envelope``)."""
    binary_tag, json_tag, fields, *ctor = row
    from_json = {a: t[1].format(k=k) for a, k, t in fields}
    order = ctor[0] if ctor else tuple(from_json)
    put = [t[2].format(a=a) for a, _, t in fields]
    if memo:
        put = [f"if m.{memo} is not None: out += m.{memo}; return", "start = len(out)",
               *put, f"m.{memo} = bytes(out[start:])"]
    source = _CODEC_SOURCE.format(
        to_json=", ".join(f"{k!r}: {t[0].format(a=a)}" for a, k, t in fields),
        from_json=", ".join(from_json[a] for a in order),
        put="\n        ".join(put),
        get="\n        ".join(t[3].format(a=a) for a, _, t in fields),
        args=", ".join(order),
    )
    namespace: Dict[str, Any] = {}
    # Module globals, so the helpers the templates name resolve exactly
    # as they would in hand-written functions of this module.
    exec(compile(source, f"<wire schema: {cls.__name__}>", "exec"), globals(), namespace)
    return _Codec(binary_tag, json_tag, *namespace["make"](cls))


#: Encode once per envelope: rmcast fans one ``Envelope`` out to every
#: destination — alone in a frame, or inside per-peer ``Batch``es flushed
#: up to ``batching_ms`` apart — so its binary body is kept in its
#: ``wire`` slot: the memo lives exactly as long as the envelope, and
#: ``repro.core`` / ``repro.rmcast`` stay wire-agnostic. JSON, the debug
#: and differential rendering, is never memoised.
_MEMO = {Envelope: "wire"}

# A plain dict on purpose: a dict subclass raising the error below from
# ``__missing__`` measured +16 % ``cpu_ms_per_msg`` on ``net_global_open``.
_CODECS = {cls: derive_codec(cls, row, _MEMO.get(cls, "")) for cls, row in SCHEMA.items()}
_JSON_DECODERS = {c.json_tag: c.from_json for c in _CODECS.values()}
_BINARY_DECODERS = {c.binary_tag: c.get for c in _CODECS.values()}


def _no_codec(msg: Any) -> CodecError:
    cls = msg.__class__
    return CodecError(
        f"no codec registered for message class {cls.__module__}.{cls.__name__}"
    )


def encode_message(msg: Any) -> Dict[str, Any]:
    """Encode a registered wire message into a tagged JSON-safe dict."""
    codec = _CODECS.get(msg.__class__)
    if codec is None:
        raise _no_codec(msg)
    body = codec.to_json(msg)
    body["k"] = codec.json_tag
    return body


def decode_message(data: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_message`."""
    tag = data.get("k")
    dec = _JSON_DECODERS.get(tag) if isinstance(tag, str) else None
    if dec is None:
        raise CodecError(f"no codec registered for wire tag {tag!r}")
    return dec(data)


def canonical_message_bytes(msg: Any) -> bytes:
    """Canonical encoding of one message — equal bytes iff equal content
    (the round-trip tests' equality witness for slotted classes)."""
    return _canonical(encode_message(msg)).encode("utf-8")


def _encode_message_binary_into(msg: Any, out: bytearray) -> None:
    codec = _CODECS.get(msg.__class__)
    if codec is None:
        raise _no_codec(msg)
    out.append(codec.binary_tag)
    codec.put(out, msg)


def _decode_message_binary_from(buf: bytes, off: int) -> Tuple[Any, int]:
    dec = _BINARY_DECODERS.get(buf[off])
    if dec is None:
        raise CodecError(f"no codec registered for wire tag {buf[off]}")
    return dec(buf, off + 1)


def encode_message_binary(msg: Any) -> bytes:
    """Binary encoding of one registered wire message (tag + body)."""
    out = bytearray()
    _encode_message_binary_into(msg, out)
    return bytes(out)


def decode_message_binary(data: bytes) -> Any:
    """Inverse of :func:`encode_message_binary`."""
    msg, off = _decode_message_binary_from(data, 0)
    if off != len(data):
        raise CodecError(
            f"trailing garbage after binary message ({len(data) - off} bytes)"
        )
    return msg


# ----------------------------------------------------------------------
# frame layer
# ----------------------------------------------------------------------


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One frame: canonical JSON body behind a 4-byte length prefix."""
    body = _canonical(obj).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
    return LEN_STRUCT.pack(len(body)) + body


# Binary frame kinds (byte after the version byte). Hello frames are
# always JSON — peer identification must work before the receiver knows
# anything about the dialer's codec setting.
_BF_HB = 2
_BF_MSG = 3  # u32 src pid + binary message

_BINARY_HEADER = bytes((FRAME_BINARY, BINARY_VERSION))


def encode_msg_frame(src: int, msg: Any, binary: bool = False) -> bytes:
    """One protocol-message frame in the requested body format.

    The JSON form is exactly the PR-9 frame ``{"t": "m", "src": ...,
    "m": encode_message(msg)}``; the binary form packs the same
    information as ``0x00 | version | MSG | u32 src | message``.
    """
    if not binary:
        return encode_frame({"t": "m", "src": src, "m": encode_message(msg)})
    out = bytearray(LEN_STRUCT.size)
    out += _BINARY_HEADER
    out.append(_BF_MSG)
    out += _U32.pack(src)
    _encode_message_binary_into(msg, out)
    length = len(out) - LEN_STRUCT.size
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    LEN_STRUCT.pack_into(out, 0, length)
    return bytes(out)


def encode_hb_frame(pid: int, binary: bool = False) -> bytes:
    """One heartbeat frame (``{"t": "hb", "pid": ...}`` equivalent)."""
    if not binary:
        return encode_frame({"t": "hb", "pid": pid})
    body = _BINARY_HEADER + bytes((_BF_HB,)) + _U32.pack(pid)
    return LEN_STRUCT.pack(len(body)) + body


def _decode_body(body: bytes) -> Dict[str, Any]:
    """One frame body of either format as a frame dict. A protocol
    message arrives decoded under ``"msg"`` — ``{"t": "m", "src": ...,
    "msg": ...}`` — whichever format carried it."""
    if not body or body[0] != FRAME_BINARY:
        obj = json.loads(body.decode("utf-8"))
        if not isinstance(obj, dict):
            raise CodecError(f"frame body is not an object: {obj!r}")
        if obj.get("t") == "m":
            obj["msg"] = decode_message(obj.pop("m"))
        return obj
    if len(body) < 3:
        raise CodecError(f"binary frame body too short ({len(body)} bytes)")
    if body[1] != BINARY_VERSION:
        raise CodecError(f"unsupported binary frame version {body[1]}")
    kind = body[2]
    if kind == _BF_MSG:
        (src,) = _U32.unpack_from(body, 3)
        msg, off = _decode_message_binary_from(body, 7)
        if off != len(body):
            raise CodecError(
                f"trailing garbage after binary frame ({len(body) - off} bytes)"
            )
        return {"t": "m", "src": src, "msg": msg}
    if kind == _BF_HB:
        (pid,) = _U32.unpack_from(body, 3)
        return {"t": "hb", "pid": pid}
    raise CodecError(f"unknown binary frame kind {kind}")


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    ``feed`` accepts any chunking (TCP does not respect frame
    boundaries) and returns the complete frames it finished. Each frame
    body is dispatched on its first byte — :data:`FRAME_BINARY` or
    canonical JSON — so a single connection may mix formats freely.
    Bytes that are not a well-formed frame raise :class:`CodecError`.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buf.extend(data)
        frames: List[Dict[str, Any]] = []
        buf = self._buf
        while len(buf) >= LEN_STRUCT.size:
            (length,) = LEN_STRUCT.unpack_from(buf)
            if length > MAX_FRAME_BYTES:
                raise CodecError(f"frame length {length} exceeds MAX_FRAME_BYTES")
            end = LEN_STRUCT.size + length
            if len(buf) < end:
                break
            body = bytes(buf[LEN_STRUCT.size:end])
            del buf[:end]
            try:
                frames.append(_decode_body(body))
            except CodecError:
                raise
            # What the decoders raise on a body that is no frame: a short
            # read, bad UTF-8 / JSON or an empty ``dest``, JSON of the
            # wrong shape, an unhashable set member, bottomless nesting.
            except (IndexError, struct.error, ValueError, KeyError, TypeError,
                    AttributeError, RecursionError) as exc:
                raise CodecError(f"malformed frame body: {exc!r}") from exc
        return frames
