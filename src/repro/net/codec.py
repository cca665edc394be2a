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
  and the message in fixed-width fields: each class is one precompiled
  ``struct`` plus a variable tail (DESIGN §13). Same information; an
  envelope to six pids carrying a 64-byte text takes 153 bytes as an
  ack (JSON: 354), 120 as a start (252), and a bump to three pids 63
  (211) — and decoding the ack is one ``unpack_from``, not a field walk.

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
* **frames** — :func:`encode_msg_frame` / :class:`FrameDecoder`. What
  repeats is paid once: an ``Envelope``'s binary body is encoded once
  (its ``wire`` slot) and its origin's frame of it is built once (its
  ``frame`` slot), one ``bytes`` object for every destination; the
  decoder cuts whole frames straight out of each read, one body copy
  apiece.
* **multicasts** — a multicast's dest list and payload are encoded once
  (its ``wire`` slot, spliced by every later encode), and a decoder
  given a node's lookup of the multicasts it holds (:data:`Held`)
  decodes a later copy of those same bytes — the next ack carrying the
  multicast — to the held object, at the price of one byte compare
  (DESIGN §13 "Once per multicast per node").

Decoding never executes arbitrary constructors (this is not pickle) —
only the fixed schema: a frame from an untrusted peer can at worst build
protocol messages; bytes that are no frame raise :class:`CodecError`.
"""

from __future__ import annotations

import inspect
import json
import struct
from collections import namedtuple
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..core.epoch import Epoch
from ..core.messages import (
    Ack, AcceptEpoch, Bump, EpochPromise, MessageId, Multicast, NewEpoch, NewState, Start,
)
from ..rmcast.fifo import Batch, Envelope

#: Length-prefix format: unsigned 32-bit big-endian frame length.
LEN_STRUCT = struct.Struct("!I")
_PREFIX = LEN_STRUCT.size

#: Hard ceiling on a single frame (a corrupt length prefix must not ask
#: the reader to buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(ValueError):
    """A value or frame that cannot be encoded/decoded losslessly."""

    #: Set on what :meth:`FrameDecoder.feed` raises: the well-formed
    #: frames that came before the bad bytes in the same read, in order.
    frames: Sequence[Dict[str, Any]] = ()


#: A decoder's lookup of the multicasts its node holds: mid -> the held
#: :class:`Multicast`, or ``None``. A node passes its process's
#: ``started.get``; what the lookup returns is never written to.
Held = Callable[[MessageId], Optional[Multicast]]


def nothing_held(mid: MessageId) -> Optional[Multicast]:
    """The lookup of a decoder that holds nothing: every multicast is
    decoded in full."""
    return None


#: Builds an instance without running its ``__init__`` (the generated
#: decoders store every slot themselves, see :func:`derive_codec`).
_new = object.__new__

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
#: seeing another version raises instead of guessing; nothing reads v1.
BINARY_VERSION = 3

_U32 = struct.Struct("!I")
_F64 = struct.Struct("!d")
# Protocol fields are fixed-width (DESIGN §13): ids u16 (``H``), epoch
# numbers u32 (``I``), counters and clocks i64 (``q``: hybrid-clock µs fit).
_EPOCH = struct.Struct("!IH")  # Epoch: number, leader pid
_MID = struct.Struct("!Hq")  # Multicast.mid: origin pid, sequence number
_T_ROW = struct.Struct("!IHq")  # head of a T row: Epoch, ts

# Value tags (one byte each).
_V_NONE, _V_TRUE, _V_FALSE = 0, 1, 2
_V_INT = 3  # compact int (see _put_cint)
_V_FLOAT = 5  # !d
_V_STR = 6  # compact length + UTF-8
_V_LIST = 7  # compact count + values
_V_TUPLE, _V_SET, _V_FSET = 8, 9, 10
_V_DICT = 11  # compact count + key/value pairs (canonically sorted)
_V_EPOCH = 12  # _EPOCH
_V_MC = 13  # _MID + int list of dest gids (sorted) + payload value
_V_MSG = 14  # nested registered message (tag byte + body)

_CONSTANTS = {_V_NONE: None, _V_TRUE: True, _V_FALSE: False}
_CONTAINERS = {_V_LIST: list, _V_TUPLE: tuple, _V_SET: set, _V_FSET: frozenset}


def _put_cint(out: bytearray, n: int) -> None:
    """Compact signed int, for the open value vocabulary only (no
    protocol field): a width byte (1/2/4/8) then that many big-endian
    two's-complement bytes; width 0 escapes to a compact length + bytes."""
    if 0 <= n <= 127:  # the usual length of a string or container
        out.append(1)
        out.append(n)
        return
    for width in (1, 2, 4, 8):
        if -(1 << 8 * width - 1) <= n < 1 << 8 * width - 1:
            out.append(width)
            out += n.to_bytes(width, "big", signed=True)
            return
    raw = n.to_bytes((n.bit_length() + 8) // 8, "big", signed=True)
    out.append(0)
    _put_cint(out, len(raw))
    out += raw


def _get_cint(buf: bytes, off: int) -> Tuple[int, int]:
    width = buf[off]
    if width == 1:  # a string's or container's length, usually
        b = buf[off + 1]
        return (b - 256 if b >= 128 else b), off + 2
    off += 1
    if width == 0:
        width, off = _get_cint(buf, off)
        if not 0 <= width <= len(buf) - off:
            # Negative, it would move ``off`` backwards: hostile bytes
            # could make a decode loop re-read itself for ever.
            raise CodecError(f"bigint width {width} outside the body")
    return int.from_bytes(buf[off : off + width], "big", signed=True), off + width


def _pack(layout: struct.Struct, owner: str, *values: Any) -> bytes:
    """``layout.pack(*values)``. A value outside its field's width raises
    (it is never truncated and never sent in another form)."""
    try:
        return layout.pack(*values)
    except struct.error as exc:
        raise CodecError(f"{owner}: {values!r} does not fit wire layout {layout.format!r}: {exc}") from None


#: The two int lists every frame repeats — an envelope's destination
#: pids, a multicast's destination gids — travel as a count byte + u16
#: array and are interned: on decode by those raw bytes (one table per
#: type they decode to), on encode by the object. A process sees a
#: handful of distinct lists, so each costs a lookup, not a loop. A table
#: of :data:`_INTERN_MAX` entries stops growing (a miss is then decoded
#: uncached): a hostile peer cannot grow it.
_INTERN_MAX = 1024
_PIDS: Dict[bytes, Tuple[int, ...]] = {}
_GIDS: Dict[bytes, Any] = {}
_LIST_RAW: Dict[Any, bytes] = {}
#: Decoded epochs, interned the same way by ``(number, leader)``: every
#: ack carries two and a run sees a handful, so the fixed ``EPOCH`` and
#: ``DP`` fields pay a lookup, not a namedtuple construction.
_EPOCHS: Dict[Tuple[int, int], Epoch] = {}


def _intern(table: Dict[bytes, Any], raw: bytes, make: Callable[..., Any]) -> Any:
    """A decode miss: ``make`` of the ints in ``raw``."""
    if len(raw) != 1 + 2 * raw[0]:
        raise CodecError(f"int list of {raw[0]} cut short at {len(raw)} bytes")
    ints = make(struct.unpack_from(f"!{raw[0]}H", raw, 1))
    if len(table) < _INTERN_MAX:
        table[raw] = ints
    return ints


def _epoch(number: int, leader: int) -> Epoch:
    """A decode miss in :data:`_EPOCHS`."""
    epoch = Epoch(number, leader)
    if len(_EPOCHS) < _INTERN_MAX:
        _EPOCHS[epoch] = epoch
    return epoch


def _list_raw(ints: Any) -> bytes:
    """An encode miss: a tuple of ints in its order, a frozenset sorted."""
    items = sorted(ints) if isinstance(ints, frozenset) else ints
    raw = _pack(struct.Struct(f"!B{len(items)}H"), "int list", len(items), *items)
    if len(_LIST_RAW) < _INTERN_MAX:
        _LIST_RAW[ints] = raw
    return raw


def _get_seq(buf: bytes, off: int, n: int, get: Callable[..., Any], held: Held) -> Tuple[List[Any], int]:
    """``n`` items, each read by ``get(buf, off, held)``."""
    items = []
    for _ in range(n):
        item, off = get(buf, off, held)
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


def encode_value_binary(value: Any, out: bytearray) -> None:
    """Append the binary encoding of ``value`` to ``out``: exactly the
    vocabulary of :func:`encode_value`. Unordered containers are sorted
    by the canonical JSON of their (encoded) elements, so this is the
    same deterministic function of content as the JSON form (encode →
    decode → encode is bit-stable)."""
    if value is None:
        out.append(_V_NONE)
        return
    cls = value.__class__
    if cls in _CODECS:  # first: an envelope's payload is a registered message
        out.append(_V_MSG)
        _encode_message_binary_into(value, out)
        return
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
    if cls is Epoch:
        out.append(_V_EPOCH)
        out += _pack(_EPOCH, "Epoch", *value)
        return
    if cls is Multicast:
        out.append(_V_MC)
        _put_multicast(out, value)
        return
    if cls is list or isinstance(value, tuple):
        out.append(_V_LIST if cls is list else _V_TUPLE)
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
        pairs = sorted(value.items(), key=lambda kv: _container_sort_key(kv[0]))
        _put_cint(out, len(pairs))
        for k, v in pairs:
            encode_value_binary(k, out)
            encode_value_binary(v, out)
        return
    raise CodecError(f"cannot binary-encode {type(value).__name__}: {value!r}")


def decode_value_binary(buf: bytes, off: int, held: Held = nothing_held) -> Tuple[Any, int]:
    """Inverse of :func:`encode_value_binary`; returns (value, new off).
    A multicast ``held`` returns for its mid, and whose ``wire`` the
    bytes at its offset start with, is that object."""
    tag = buf[off]
    off += 1
    if tag == _V_MSG:
        return _decode_message_binary_from(buf, off, held)
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], off
    if tag == _V_INT:
        return _get_cint(buf, off)
    if tag == _V_FLOAT:
        return _F64.unpack_from(buf, off)[0], off + 8
    if tag == _V_STR:
        n, off = _get_cint(buf, off)
        if not 0 <= n <= len(buf) - off:  # see _get_cint
            raise CodecError(f"string length {n} outside the body")
        return buf[off : off + n].decode("utf-8"), off + n
    if tag in _CONTAINERS:
        n, off = _get_cint(buf, off)
        items, off = _get_seq(buf, off, n, decode_value_binary, held)
        return _CONTAINERS[tag](items), off
    if tag == _V_DICT:
        n, off = _get_cint(buf, off)
        d = {}
        for _ in range(n):
            k, off = decode_value_binary(buf, off, held)
            v, off = decode_value_binary(buf, off, held)
            d[k] = v
        return d, off
    if tag == _V_EPOCH:
        return Epoch(*_EPOCH.unpack_from(buf, off)), off + _EPOCH.size
    if tag == _V_MC:
        return _get_multicast(buf, off, held)
    raise CodecError(f"unknown binary value tag {tag}")


def _put_multicast(out: bytearray, multicast: Multicast) -> None:
    """The one Multicast layout: ``_MID``, then :func:`_multicast_wire`.
    The ``MULTICAST`` wire type below writes the same bytes with
    ``_MID`` fused into its message's struct."""
    out += _pack(_MID, "Multicast.mid", *multicast.mid)
    out += multicast.wire or _multicast_wire(multicast)


def _multicast_wire(multicast: Multicast) -> bytes:
    """An encode miss: the dest list and payload of ``multicast``, kept
    in its ``wire`` slot, which every later encode splices (never
    empty, so never falsy: the dest list has its count byte)."""
    out = bytearray(_LIST_RAW.get(multicast.dest) or _list_raw(multicast.dest))
    encode_value_binary(multicast.payload, out)
    wire = multicast.wire = bytes(out)
    return wire


def _get_multicast(buf: bytes, off: int, held: Held) -> Tuple[Multicast, int]:
    return _multicast_at(buf, off + _MID.size, _MID.unpack_from(buf, off), held)


def _multicast_at(buf: bytes, off: int, mid: MessageId, held: Held) -> Tuple[Multicast, int]:
    """The multicast ``mid`` whose dest list and payload start at
    ``off``: every multicast field, value and T row decodes here. If the
    node holds ``mid`` and the bytes start with the held object's
    ``wire``, it is that object — the layout is self-delimiting, so
    those bytes decode to its very content — and the payload is not
    decoded again. Otherwise a new multicast, which keeps its bytes in
    ``wire`` for the encodes to come."""
    multicast = held(mid)
    if multicast is not None:
        wire = multicast.wire
        if wire is not None and buf.startswith(wire, off):
            return multicast, off + len(wire)
    end = off + 1 + 2 * buf[off]
    dest = _GIDS.get(buf[off:end]) or _intern(_GIDS, buf[off:end], frozenset)
    if not dest:
        raise CodecError("a multicast needs at least one destination group")
    payload, end = decode_value_binary(buf, end, held)
    multicast = _new(Multicast)
    multicast.mid = mid
    multicast.dest = dest
    multicast.payload = payload
    multicast.wire = buf[off:end]
    return multicast, end


def _put_t_row(out: bytearray, row: Any) -> None:
    out += _pack(_T_ROW, "T row", *row[0], row[2])
    _put_multicast(out, row[1])


def _get_t_row(buf: bytes, off: int, held: Held) -> Tuple[Any, int]:
    number, leader, ts = _T_ROW.unpack_from(buf, off)
    multicast, off = _get_multicast(buf, off + _T_ROW.size, held)
    return (Epoch(number, leader), multicast, ts), off


# ----------------------------------------------------------------------
# message layer
# ----------------------------------------------------------------------

#: How one kind of field travels, as code templates. ``{a}`` is the
#: message attribute — and the binary decoder's local that receives it —
#: ``{k}`` the field's JSON key. In scope: ``m`` the message, ``d`` its
#: JSON dict, ``out`` the output bytearray, ``buf`` / ``off`` / ``held``
#: the input bytes, read offset and the node's :data:`Held` lookup.
#: ``to_json`` / ``from_json`` are expressions.
#: In binary a wire type is fixed ``slots`` — (struct character,
#: expression packed, local unpacked into) — then, if it has one, a
#: variable tail: the ``put`` / ``get`` statements. :func:`derive_codec`
#: fuses each maximal run of slots, across fields, into one ``Struct``;
#: a tail closes the run. ``pre`` statements run before the pack,
#: ``post`` statements rebuild the field after the unpack.
_Wire = namedtuple("_Wire", "to_json from_json slots pre post put get", defaults=((),) * 5)

_AS_IS = ("m.{a}", "d[{k!r}]")
_AS_VALUE = ("encode_value(m.{a})", "decode_value(d[{k!r}])")
_INT_LIST = "end = off + 1 + 2 * buf[off]"  # see _PIDS / _GIDS
_AN_EPOCH = "_EPOCHS.get(({a}_n, {a}_l)) or _epoch({a}_n, {a}_l)"  # see _EPOCHS

#: A process or group id (u16).
ID = _Wire(*_AS_IS, (("H", "m.{a}", "{a}"),))
#: A sequence number, timestamp, clock or count (i64).
INT = _Wire(*_AS_IS, (("q", "m.{a}", "{a}"),))
#: Anything :func:`encode_value` accepts, self-describing on the wire.
VALUE = _Wire(*_AS_VALUE, put=("encode_value_binary(m.{a}, out)",),
              get=("{a}, off = decode_value_binary(buf, off, held)",))
#: An envelope's payload: a ``VALUE`` byte for byte, whose usual case —
#: a registered message — goes straight to (and comes straight from)
#: that message's codec.
PAYLOAD = _Wire(
    *_AS_VALUE,
    put=("{a} = m.{a}", "{a}_c = _CODECS.get({a}.__class__)",
         "if {a}_c is None: encode_value_binary({a}, out)",
         "else: out.append(_V_MSG); out.append({a}_c.binary_tag); {a}_c.put(out, {a})"),
    get=("{a}_d = _BINARY_DECODERS.get(buf[off + 1]) if buf[off] == _V_MSG else None",
         "if {a}_d is None: {a}, off = decode_value_binary(buf, off, held)",
         "else: {a}, off = {a}_d(buf, off + 2, held)"),
)
# The next four are tagged values in JSON; their binary shape is fixed.
EPOCH = _Wire(*_AS_VALUE, (("I", "{a}_n", "{a}_n"), ("H", "{a}_l", "{a}_l")),
              pre=("{a}_n, {a}_l = m.{a}",),
              post=("{a} = " + _AN_EPOCH,))
#: Optional ``(Epoch, int)`` delivered-prefix report (acks and bumps):
#: a presence flag, then the report (zeros when absent).
DP = _Wire(
    *_AS_VALUE, (("?", "{a} is not None", "{a}_on"), ("I", "{a}_n", "{a}_n"),
                 ("H", "{a}_l", "{a}_l"), ("q", "{a}_c", "{a}_c")),
    pre=("{a} = m.{a}", "({a}_n, {a}_l), {a}_c = {a} or ((0, 0), 0)"),
    post=("{a} = (" + _AN_EPOCH + ", {a}_c) if {a}_on else None",),
)
#: A :class:`Multicast`: its mid in the run, then its ``wire`` — dest
#: gids and payload (byte for byte the layout of :func:`_put_multicast`).
MULTICAST = _Wire(
    *_AS_VALUE, (("H", "{a}_o", "{a}_o"), ("q", "{a}_q", "{a}_q")),
    pre=("{a} = m.{a}", "{a}_o, {a}_q = {a}.mid"),
    put=("out += {a}.wire or _multicast_wire({a})",),
    get=("{a}, off = _multicast_at(buf, off, ({a}_o, {a}_q), held)",),
)
#: ``(Epoch, Multicast, ts)`` rows (promise / new-state): u32 count, rows.
T_SEQ = _Wire(*_AS_VALUE, (("I", "len(m.{a})", "{a}_n"),),
              put=("for row in m.{a}: _put_t_row(out, row)",),
              get=("{a}, off = _get_seq(buf, off, {a}_n, _get_t_row, held)",))
#: Tuple of ints (an envelope's destination pids), interned.
INTS = _Wire(
    "list(m.{a})", "tuple(d[{k!r}])",
    put=("out += _LIST_RAW.get(m.{a}) or _list_raw(m.{a})",),
    get=(_INT_LIST, "{a} = _PIDS.get(buf[off:end]) or _intern(_PIDS, buf[off:end], tuple)",
         "off = end"),
)
#: Tuple of envelopes (a batch's body): u32 count, then untagged envelopes.
ENVELOPES = _Wire(
    "list(map(_CODECS[Envelope].to_json, m.{a}))",
    "tuple(map(_CODECS[Envelope].from_json, d[{k!r}]))",
    (("I", "len(m.{a})", "{a}_n"),),
    put=("put = _CODECS[Envelope].put", "for env in m.{a}: put(out, env)"),
    get=("{a}, off = _get_seq(buf, off, {a}_n, _CODECS[Envelope].get, held)", "{a} = tuple({a})"),
)

#: The wire schema: class -> (binary tag, JSON tag, fields). A field is
#: ``(attribute, JSON key, wire type)``; fields are in binary wire order,
#: fixed-width ones first so that each class is one struct plus its
#: variable tail. The constructor is called positionally, in the order
#: :func:`derive_codec` reads from its signature; a row whose attributes
#: are not exactly the constructor's parameters fails at import. The
#: tags are the codec's own namespace (``Envelope.kind`` is the
#: *payload's* kind by design, so the class-level ``kind`` strings cannot
#: serve). A new field is one more tuple in one row; adding, reordering
#: or retyping fields changes the layout and must bump
#: :data:`BINARY_VERSION`.
SCHEMA: Dict[Type[Any], Tuple[Any, ...]] = {
    Start: (1, "start", (("multicast", "mc", MULTICAST),)),
    Ack: (2, "ack", (
        ("epoch", "e", EPOCH), ("group", "g", ID), ("ts", "ts", INT), ("sender", "s", ID),
        ("dp", "dp", DP), ("multicast", "mc", MULTICAST),
    )),
    Bump: (3, "bump", (
        ("epoch", "e", EPOCH), ("ts", "ts", INT), ("sender", "s", ID), ("dp", "dp", DP),
    )),
    NewEpoch: (4, "new-epoch", (("epoch", "e", EPOCH),)),
    EpochPromise: (5, "promise", (
        ("epoch", "e", EPOCH), ("sender", "s", ID), ("clock", "c", INT),
        ("e_cur", "ec", EPOCH), ("t_base", "tb", INT), ("t_seq", "t", T_SEQ),
    )),
    NewState: (6, "new-state", (
        ("epoch", "e", EPOCH), ("ts", "ts", INT), ("t_base", "tb", INT), ("t_seq", "t", T_SEQ),
    )),
    AcceptEpoch: (7, "accept-epoch", (("epoch", "e", EPOCH), ("sender", "s", ID))),
    Envelope: (8, "envelope", (
        ("origin", "o", ID), ("seq", "q", INT), ("dests", "d", INTS),
        ("payload", "p", PAYLOAD),
    )),
    Batch: (9, "batch", (("envelopes", "envs", ENVELOPES),)),
}


#: One schema row's tags and derived functions: ``to_json(msg)`` is the
#: untagged dict, ``from_json(d)`` its inverse; ``put(out, msg)`` appends
#: the untagged body, ``get(buf, off)`` returns (msg, new off); ``source``.
_Codec = namedtuple("_Codec", "binary_tag json_tag to_json from_json put get source")

_CODEC_SOURCE = """\
def make(cls, {structs}):
    def to_json(m):
        return {{{to_json}}}
    def from_json(d):
        return cls({from_json})
    def put(out, m):
        {put}
    def get(buf, off, held=nothing_held):
        {get}
        {build}
        return m, off
    return to_json, from_json, put, get
"""

#: Slots a binary decoder stores beside a class's constructor
#: parameters, as expressions of the decoded fields: exactly what its
#: ``__init__`` computes for them. (``getattr`` with a default is the
#: ``try: payload.kind except AttributeError`` of ``Envelope.__init__``:
#: an envelope carrying an envelope takes the inner one's own ``kind``.)
_DERIVED_SLOTS: Dict[Type[Any], Dict[str, str]] = {
    Envelope: {"kind": "getattr(payload, 'kind', 'rm')", "wire": "None", "frame": "None"},
}


def derive_codec(cls: Type[Any], row: Tuple[Any, ...], memo: str = "") -> _Codec:
    """Compile one schema row, once at import, into the straight-line
    functions one would otherwise write by hand (the ``namedtuple``
    technique): walking the fields on every call instead measured
    +30 % on ack encode and +20 % on decode.

    The binary decoder of a slotted class builds the instance by slot
    stores — its parameters, then :data:`_DERIVED_SLOTS` — without a
    call to ``__init__`` (one Python frame per message, ~40 % of a
    message's construction); a slot that neither would set fails at
    import. Every other class is built by its constructor.

    ``memo`` names an attribute of the class, ``None`` on a fresh
    instance, in which ``put`` keeps the untagged binary body it wrote
    and from which it splices every later time. Only for a class whose
    instances do not change once encoded (``Envelope``)."""
    binary_tag, json_tag, fields = row
    from_json = {a: t.from_json.format(k=k) for a, k, t in fields}
    order = list(inspect.signature(cls.__init__).parameters)[1:]
    if set(order) != set(from_json):
        raise TypeError(
            f"schema row for {cls.__name__} has fields {sorted(from_json)}, "
            f"its constructor takes {sorted(order)}"
        )
    slots = getattr(cls, "__slots__", None)
    if slots is None:
        build = f"m = cls({', '.join(order)})"
    else:
        derived = _DERIVED_SLOTS.get(cls, {})
        if set(slots) != set(order) | set(derived):
            raise TypeError(
                f"{cls.__name__} has slots {sorted(slots)}, its decoder would store "
                f"{sorted(set(order) | set(derived))}"
            )
        stores = [f"m.{a} = {a}" for a in order] + [f"m.{a} = {e}" for a, e in derived.items()]
        build = "; ".join(["m = _new(cls)", *stores])
    structs: Dict[str, struct.Struct] = {}
    put: List[str] = []
    get: List[str] = []
    run: List[Tuple[str, ...]] = []  # the open run of slots
    post: List[str] = []  # rebuilds waiting for that run's unpack

    def close_run() -> None:
        if run:
            chars, packed, unpacked = zip(*run)
            name = f"_s{len(structs)}"
            layout = structs[name] = struct.Struct("!" + "".join(chars))
            values = ", ".join(packed)
            put.append(f"try: out += {name}.pack({values})")
            put.append(f"except struct.error: _pack({name}, {cls.__name__!r}, {values})  # raises")
            get.append(f"{', '.join(unpacked)}, = {name}.unpack_from(buf, off); off += {layout.size}")
            run.clear()
        get.extend(post)
        post.clear()

    for a, _, t in fields:
        put += [line.format(a=a) for line in t.pre]
        run += [tuple(part.format(a=a) for part in slot) for slot in t.slots]
        post += [line.format(a=a) for line in t.post]
        if t.put:  # a variable tail: ``out`` and ``off`` must be current
            close_run()
            put += [line.format(a=a) for line in t.put]
            get += [line.format(a=a) for line in t.get]
    close_run()
    if memo:
        put = [f"if m.{memo} is not None: out += m.{memo}; return", "start = len(out)",
               *put, f"m.{memo} = bytes(out[start:])"]
    source = _CODEC_SOURCE.format(
        structs=", ".join(structs),
        to_json=", ".join(f"{k!r}: {t.to_json.format(a=a)}" for a, k, t in fields),
        from_json=", ".join(from_json[a] for a in order),
        put="\n        ".join(put),
        get="\n        ".join(get),
        build=build,
    )
    namespace: Dict[str, Any] = {}
    # Module globals, so the helpers the templates name resolve exactly
    # as they would in hand-written functions of this module.
    exec(compile(source, f"<wire schema: {cls.__name__}>", "exec"), globals(), namespace)
    return _Codec(binary_tag, json_tag, *namespace["make"](cls, *structs.values()), source)


#: Encode once per envelope: rmcast fans one ``Envelope`` out to every
#: destination — alone in a frame, or inside per-peer ``Batch``es flushed
#: up to ``batching_ms`` apart — so its binary body is kept in its
#: ``wire`` slot (and, by :func:`encode_msg_frame`, its frame in its
#: ``frame`` slot): the memo lives exactly as long as the envelope, and
#: ``repro.core`` / ``repro.rmcast`` stay wire-agnostic. JSON, the debug
#: and differential rendering, is never memoised.
#: (A plain dict on purpose: a dict subclass raising the error below from
#: ``__missing__`` measured +16 % ``cpu_ms_per_msg`` on ``net_global_open``.)
_CODECS = {
    cls: derive_codec(cls, row, "wire" if cls is Envelope else "") for cls, row in SCHEMA.items()
}
_JSON_DECODERS = {c.json_tag: c.from_json for c in _CODECS.values()}
_BINARY_DECODERS = {c.binary_tag: c.get for c in _CODECS.values()}


def _no_codec(msg: Any) -> CodecError:
    cls = msg.__class__
    return CodecError(f"no codec registered for message class {cls.__module__}.{cls.__name__}")


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


def _decode_message_binary_from(buf: bytes, off: int, held: Held) -> Tuple[Any, int]:
    dec = _BINARY_DECODERS.get(buf[off])
    if dec is None:
        raise CodecError(f"no codec registered for wire tag {buf[off]}")
    return dec(buf, off + 1, held)


def encode_message_binary(msg: Any) -> bytes:
    """Binary encoding of one registered wire message (tag + body)."""
    out = bytearray()
    _encode_message_binary_into(msg, out)
    return bytes(out)


def decode_message_binary(data: bytes, held: Held = nothing_held) -> Any:
    """Inverse of :func:`encode_message_binary` (``held``: see
    :func:`decode_value_binary`)."""
    msg, off = _decode_message_binary_from(data, 0, held)
    if off != len(data):
        raise CodecError(f"trailing garbage after binary message ({len(data) - off} bytes)")
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

    The binary frame of an :class:`Envelope` sent by its origin is built
    once and kept in the envelope's ``frame`` slot: every later call,
    one per destination, returns that same ``bytes`` object. (Called
    once per staged frame all the same; JSON is never memoised.)
    """
    if not binary:
        return encode_frame({"t": "m", "src": src, "m": encode_message(msg)})
    if msg.__class__ is Envelope and src == msg.origin:
        frame = msg.frame
        if frame is None:
            frame = msg.frame = _binary_msg_frame(src, msg)
        return frame
    return _binary_msg_frame(src, msg)


def _binary_msg_frame(src: int, msg: Any) -> bytes:
    """The binary form of :func:`encode_msg_frame`, built afresh."""
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


def _decode_body(body: bytes, held: Held) -> Dict[str, Any]:
    """One frame body of either format as a frame dict. A protocol
    message arrives decoded under ``"msg"`` — ``{"t": "m", "src": ...,
    "msg": ...}`` — whichever format carried it (JSON never consults
    ``held``)."""
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
        msg, off = _decode_message_binary_from(body, 7, held)
        if off != len(body):
            raise CodecError(f"trailing garbage after binary frame ({len(body) - off} bytes)")
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
    Bytes that are not a well-formed frame raise :class:`CodecError`,
    whose ``frames`` are the well-formed frames before them in the same
    ``feed``.

    Whole frames are decoded in place, straight from ``data``, at one
    copy per body; only a frame that ``data`` ends in the middle of is
    copied into the decoder's own buffer, and the next ``feed``
    completes it from its head. So ``feed`` holds on to no part of
    ``data`` once it returns: the caller may hand it a view of a buffer
    it reuses.

    ``held`` is the node's lookup of the multicasts it holds: a
    multicast in a frame that the node holds, in the same bytes, is
    decoded to the held object (:func:`decode_value_binary`). One
    decoder's lookup is never another node's.
    """

    def __init__(self, held: Held = nothing_held) -> None:
        #: The head of a frame the last ``feed`` ended inside, else empty.
        self._buf = bytearray()
        self._held = held

    def feed(self, data: Union[bytes, memoryview]) -> List[Dict[str, Any]]:
        frames: List[Dict[str, Any]] = []
        held = self._held
        try:
            if self._buf:
                data = self._complete(data, frames)
            size = len(data)
            off = 0
            while size - off >= _PREFIX:
                (length,) = LEN_STRUCT.unpack_from(data, off)
                if length > MAX_FRAME_BYTES:
                    raise CodecError(f"frame length {length} exceeds MAX_FRAME_BYTES")
                end = off + _PREFIX + length
                if end > size:
                    break
                frames.append(_decode_body(bytes(data[off + _PREFIX : end]), held))
                off = end
        except CodecError as exc:
            exc.frames = frames
            raise
        # What the decoders raise on a body that is no frame: a short
        # read, bad UTF-8 / JSON or an empty ``dest``, JSON of the wrong
        # shape, an unhashable set member, bottomless nesting.
        except (IndexError, struct.error, ValueError, KeyError, TypeError,
                AttributeError, RecursionError) as exc:
            error = CodecError(f"malformed frame body: {exc!r}")
            error.frames = frames
            raise error from exc
        if off < size:
            self._buf += data[off:]
        return frames

    def _complete(
        self, data: Union[bytes, memoryview], frames: List[Dict[str, Any]]
    ) -> Union[bytes, memoryview]:
        """Complete the buffered frame from the head of ``data`` (decoded
        into ``frames``) and return the rest; all of ``data`` is consumed
        if the frame is still short."""
        buf = self._buf
        need = _PREFIX - len(buf)
        if need > 0:  # the length prefix itself was cut
            buf += data[:need]
            data = data[need:]
            if len(buf) < _PREFIX:
                return data
        (length,) = LEN_STRUCT.unpack_from(buf)
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame length {length} exceeds MAX_FRAME_BYTES")
        need = _PREFIX + length - len(buf)
        buf += data[:need]
        if len(buf) == _PREFIX + length:
            body = bytes(memoryview(buf)[_PREFIX:])
            buf.clear()
            frames.append(_decode_body(body, self._held))
        return data[need:]
