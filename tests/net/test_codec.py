"""Wire codec tests: lossless round trips, schema exhaustiveness, the
pinned wire format and hostile bytes.

Messages are generated by walking :data:`repro.net.codec.SCHEMA` with
one seeded generator per *wire type*, so a new message class (or a new
field on an old one) is covered without touching this file. The
round-trip property compares :func:`canonical_message_bytes` before and
after a decode — equal canonical bytes is content equality for the
slotted wire classes. The exhaustiveness test fails the moment someone
adds a wire-message class without a schema row.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import random
import sys

import pytest

import repro.core.messages as messages_mod
import repro.net.codec as codec_mod
from repro.core.epoch import Epoch
from repro.core.messages import (
    Ack,
    AcceptEpoch,
    Bump,
    EpochPromise,
    Multicast,
    NewEpoch,
    NewState,
    Start,
)
from repro.net.codec import (
    BINARY_VERSION,
    DP,
    ENVELOPES,
    EPOCH,
    ID,
    INT,
    INTS,
    LEN_STRUCT,
    MULTICAST,
    PAYLOAD,
    SCHEMA,
    T_SEQ,
    VALUE,
    CodecError,
    FrameDecoder,
    canonical_message_bytes,
    decode_message,
    decode_message_binary,
    decode_value,
    decode_value_binary,
    derive_codec,
    encode_frame,
    encode_hb_frame,
    encode_message,
    encode_message_binary,
    encode_msg_frame,
    encode_value,
    encode_value_binary,
)
from repro.rmcast.fifo import Batch, Envelope

# ----------------------------------------------------------------------
# generators (seeded, minimal shrink-friendly shapes)
# ----------------------------------------------------------------------

#: Nesting budget shared by the recursive generators.
MAX_DEPTH = 2

#: The declared ranges of the fixed-width protocol fields (DESIGN §13).
U16, U32, I64 = (0, 2**16 - 1), (0, 2**32 - 1), (-(2**63), 2**63 - 1)


def rand_in(rng: random.Random, bounds) -> int:
    """Mostly a small value, sometimes anywhere in the field's declared
    range, its two ends included."""
    return rng.choice([rng.randrange(0, 100), rng.randrange(0, 100), rng.randint(*bounds), *bounds])


def rand_epoch(rng: random.Random, depth: int = 0) -> Epoch:
    return Epoch(rand_in(rng, U32), rand_in(rng, U16))


def rand_payload(rng: random.Random, depth: int = 0):
    """An application payload: the ``==``-comparable part of the value
    vocabulary (registered messages have no ``__eq__``)."""
    choices = ["int", "str", "none", "bool", "float"]
    if depth < MAX_DEPTH:
        choices += ["list", "tuple", "dict", "fset", "set"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.choice([rng.randrange(-1000, 1000), rng.randrange(-(2**70), 2**70)])
    if kind == "str":
        return "".join(rng.choice("abcxyz{}\"'\\é") for _ in range(rng.randrange(0, 6)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "float":
        return rng.choice([0.0, -1.5, 3.25, 1e9])
    if kind == "list":
        return [rand_payload(rng, depth + 1) for _ in range(rng.randrange(0, 3))]
    if kind == "tuple":
        return tuple(rand_payload(rng, depth + 1) for _ in range(rng.randrange(0, 3)))
    if kind == "dict":
        return {
            f"k{i}": rand_payload(rng, depth + 1) for i in range(rng.randrange(0, 3))
        }
    members = rng.sample(range(10), rng.randrange(0, 3))
    return frozenset(members) if kind == "fset" else set(members)


def rand_ids(rng: random.Random):
    """One to three process or group ids."""
    return [rand_in(rng, U16) for _ in range(rng.randrange(1, 4))]


def rand_value(rng: random.Random, depth: int = 0):
    """What a VALUE field (an envelope's payload) holds: the whole value
    vocabulary, nested registered messages included."""
    if depth < MAX_DEPTH and rng.random() < 0.3:
        return gen_message(rng.choice(WIRE_CLASSES), rng, depth + 1)
    return rand_payload(rng, depth)


def rand_envelope_payload(rng: random.Random, depth: int = 0):
    """What a PAYLOAD field holds: mostly a registered message (the
    decoder's straight path), else anything a VALUE holds."""
    if depth < MAX_DEPTH and rng.random() < 0.7:
        return gen_message(rng.choice(WIRE_CLASSES), rng, depth + 1)
    return rand_value(rng, depth)


def rand_multicast(rng: random.Random, depth: int = 0) -> Multicast:
    return Multicast((rand_in(rng, U16), rand_in(rng, I64)), frozenset(rand_ids(rng)), rand_value(rng, depth))


def rand_dp(rng: random.Random, depth: int = 0):
    if rng.random() < 0.5:
        return None
    return (rand_epoch(rng), rand_in(rng, I64))


def rand_t_seq(rng: random.Random, depth: int = 0):
    return [
        (rand_epoch(rng), rand_multicast(rng, depth + 1), rand_in(rng, I64))
        for _ in range(rng.randrange(0, 3))
    ]


#: wire type -> ``generator(rng, depth)`` of a value that field can hold:
#: ints stay inside the field's declared width.
WIRE_GENERATORS = {
    ID: lambda rng, depth: rand_in(rng, U16),
    INT: lambda rng, depth: rand_in(rng, I64),
    VALUE: rand_value,
    PAYLOAD: rand_envelope_payload,
    MULTICAST: rand_multicast,
    EPOCH: rand_epoch,
    DP: rand_dp,
    T_SEQ: rand_t_seq,
    INTS: lambda rng, depth: tuple(rand_ids(rng)),
    ENVELOPES: lambda rng, depth: tuple(
        gen_message(Envelope, rng, depth + 1) for _ in range(rng.randrange(1, 4))
    ),
}

WIRE_CLASSES = sorted(SCHEMA, key=lambda c: c.__name__)


def gen_message(cls, rng: random.Random, depth: int = 0):
    """A random instance of any schema class, built field by field."""
    return cls(**{attr: WIRE_GENERATORS[wt](rng, depth) for attr, _key, wt in SCHEMA[cls][2]})


# ----------------------------------------------------------------------
# schema exhaustiveness
# ----------------------------------------------------------------------


def wire_message_classes():
    """Every class that can appear as a frame payload: the protocol
    messages of repro.core.messages (class-level ``kind``) plus the
    rmcast wire wrappers."""
    found = []
    for _name, obj in inspect.getmembers(messages_mod, inspect.isclass):
        if obj.__module__ == messages_mod.__name__ and "kind" in vars(obj):
            found.append(obj)
    return found + [Envelope, Batch]


def test_every_wire_message_has_a_codec():
    missing = [cls for cls in wire_message_classes() if cls not in SCHEMA]
    assert not missing, (
        f"wire message classes without a schema row: "
        f"{[c.__name__ for c in missing]} — add them to repro.net.codec.SCHEMA"
    )


def test_every_wire_message_has_a_generator():
    used = {wt for row in SCHEMA.values() for _, _, wt in row[2]}
    missing = used - set(WIRE_GENERATORS)
    assert not missing, f"wire types without a generator: {missing}"
    rng = random.Random("codec-generators")
    for cls in wire_message_classes():
        assert type(gen_message(cls, rng)) is cls


def test_codec_tags_are_unique():
    tags = [row[1] for row in SCHEMA.values()]
    assert len(tags) == len(set(tags))


def test_binary_codec_tags_are_unique():
    tags = [row[0] for row in SCHEMA.values()]
    assert len(tags) == len(set(tags))
    assert all(0 < tag < 256 for tag in tags)


def test_schema_rows_match_their_constructors():
    # derive_codec itself holds a row's attributes to the constructor's
    # parameters (below); what is left to pin is the JSON key namespace.
    for cls, (_, _, fields) in SCHEMA.items():
        keys = [key for _, key, _ in fields]
        assert len(keys) == len(set(keys)) and "k" not in keys, cls.__name__


class _Probe:
    """A message class that grew a field (``count``)."""

    def __init__(self, epoch, sender, count=0):
        self.epoch, self.sender, self.count = epoch, sender, count


def _roundtrips(codec, msg):
    out = bytearray()
    codec.put(out, msg)
    via_binary, off = codec.get(bytes(out), 0)
    assert off == len(out)
    via_json = codec.from_json(json.loads(json.dumps(codec.to_json(msg))))
    return [vars(m) for m in (via_binary, via_json)]


def test_a_new_field_is_one_row_edit_and_a_wrong_row_fails_loudly():
    msg = _Probe(Epoch(1, 2), 3, 7)
    row = (("epoch", "e", EPOCH), ("sender", "s", INT), ("count", "c", INT))
    assert _roundtrips(derive_codec(_Probe, (99, "probe", row)), msg) == [vars(msg)] * 2
    # Another wire order is the same row shuffled: the constructor's
    # order comes from its signature, not from the row.
    assert _roundtrips(derive_codec(_Probe, (99, "probe", row[::-1])), msg) == [vars(msg)] * 2
    # A row whose attributes are not exactly the constructor's parameters
    # — the new tuple forgotten (the field would travel as its default),
    # a misspelt attribute, one too many — is refused when the table is
    # built, which for SCHEMA is at import.
    for bad in (row[:2], row[:2] + (("counted", "c", INT),), row + (("extra", "x", INT),)):
        with pytest.raises(TypeError, match="_Probe"):
            derive_codec(_Probe, (99, "probe", bad))


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------

by_class = pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda c: c.__name__)


@by_class
def test_message_roundtrip_property(cls):
    rng = random.Random(f"codec-{cls.__name__}")
    for _ in range(50):
        msg = gen_message(cls, rng)
        encoded = encode_message(msg)
        decoded = decode_message(encoded)
        assert type(decoded) is cls
        assert canonical_message_bytes(decoded) == canonical_message_bytes(msg)


def test_value_roundtrip_property():
    rng = random.Random("codec-values")
    for _ in range(200):
        value = rand_payload(rng)
        assert decode_value(encode_value(value)) == value


@by_class
def test_binary_message_roundtrip_property(cls):
    rng = random.Random(f"codec-bin-{cls.__name__}")
    for _ in range(50):
        msg = gen_message(cls, rng)
        encoded = encode_message_binary(msg)
        decoded = decode_message_binary(encoded)
        assert type(decoded) is cls
        assert canonical_message_bytes(decoded) == canonical_message_bytes(msg)
        # Bit-stable: re-encoding the decoded message reproduces the
        # exact bytes (unordered containers are canonically sorted).
        assert encode_message_binary(decoded) == encoded


@by_class
def test_cross_format_roundtrip_property(cls):
    # Both codecs are lossless encodings of the same content: a message
    # that crosses formats (binary decode -> JSON encode -> JSON decode
    # -> binary encode) must reproduce the original bytes of *each*
    # format — nodes running different codec settings interoperate.
    rng = random.Random(f"codec-cross-{cls.__name__}")
    for _ in range(25):
        msg = gen_message(cls, rng)
        json_bytes = encode_message(msg)
        bin_bytes = encode_message_binary(msg)
        via_binary = decode_message_binary(bin_bytes)
        assert encode_message(via_binary) == json_bytes
        via_json = decode_message(json_bytes)
        assert encode_message_binary(via_json) == bin_bytes


@by_class
def test_envelope_carries_every_message_class(cls):
    # The hot-path shape: a registered message directly as an envelope's
    # payload (the generators only nest them inside a Multicast).
    rng = random.Random(f"codec-nested-{cls.__name__}")
    env = Envelope(1, 2, gen_message(cls, rng), (0, 1))
    for decoded in (
        decode_message(encode_message(env)),
        decode_message_binary(encode_message_binary(env)),
    ):
        assert type(decoded.payload) is cls
        assert decoded.kind == env.kind
        assert canonical_message_bytes(decoded) == canonical_message_bytes(env)


def test_binary_value_roundtrip_property():
    rng = random.Random("codec-bin-values")
    for _ in range(200):
        value = rand_payload(rng)
        out = bytearray()
        encode_value_binary(value, out)
        decoded, off = decode_value_binary(bytes(out), 0)
        assert off == len(out)
        assert decoded == value


def test_binary_bigint_escape_roundtrip():
    # Width-0 escape: ints beyond 8 bytes still round-trip exactly.
    for n in (2**70, -(2**80), 2**63, -(2**63) - 1):
        out = bytearray()
        encode_value_binary(n, out)
        decoded, off = decode_value_binary(bytes(out), 0)
        assert off == len(out)
        assert decoded == n


def test_binary_rejects_trailing_garbage():
    rng = random.Random("codec-bin-trailing")
    encoded = encode_message_binary(gen_message(Ack, rng))
    with pytest.raises(CodecError):
        decode_message_binary(encoded + b"\x00")


# Per wire type: values at the two ends of the field's declared range
# (they round-trip) and values one past an end (encode refuses them).
_WIDE = Multicast((2**16 - 1, 2**63 - 1), frozenset({0, 2**16 - 1}), None)
_MANY = tuple(range(255))  # an int list's count is one byte
_TOP_EPOCH = Epoch(2**32 - 1, 2**16 - 1)
FIELD_EDGES = {
    ID: ([0, 2**16 - 1], [-1, 2**16]),
    INT: ([-(2**63), 2**63 - 1], [-(2**63) - 1, 2**63]),
    VALUE: ([2**70, -(2**70)], []),  # the open vocabulary has no width
    PAYLOAD: ([2**70, None, Bump(_TOP_EPOCH, 2**63 - 1, 2**16 - 1, None), Envelope(1, 2, None, ())], []),
    EPOCH: ([Epoch(0, 0), _TOP_EPOCH], [Epoch(2**32, 0), Epoch(0, 2**16), Epoch(-1, 0), Epoch(0, -1)]),
    DP: (
        [None, (_TOP_EPOCH, 2**63 - 1), (Epoch(0, 0), -(2**63))],
        [(Epoch(2**32, 0), 0), (Epoch(0, 2**16), 0), (Epoch(0, 0), 2**63), (Epoch(0, 0), -(2**63) - 1)],
    ),
    MULTICAST: (
        [_WIDE, Multicast((0, -(2**63)), frozenset({0}), None), Multicast((0, 0), frozenset(_MANY), None)],
        [
            Multicast((2**16, 0), frozenset({0}), None),
            Multicast((0, 2**63), frozenset({0}), None),
            Multicast((-1, 0), frozenset({0}), None),
            Multicast((0, 0), frozenset({2**16}), None),
            Multicast((0, 0), frozenset(range(256)), None),
        ],
    ),
    T_SEQ: (
        [[], [(_TOP_EPOCH, _WIDE, 2**63 - 1), (Epoch(0, 0), _WIDE, -(2**63))]],
        [[(Epoch(2**32, 0), _WIDE, 0)], [(Epoch(0, 0), _WIDE, 2**63)], [(Epoch(0, 0), Multicast((2**16, 0), frozenset({0})), 0)]],
    ),
    INTS: ([(), (0,), (2**16 - 1, 0), _MANY], [(2**16,), (-1,), tuple(range(256))]),
    ENVELOPES: ([()], []),
}


@by_class
def test_field_boundaries(cls):
    rng = random.Random(f"codec-bounds-{cls.__name__}")

    def with_field(attr, value):
        msg = gen_message(cls, rng)
        setattr(msg, attr, value)
        return msg

    for attr, _key, wt in SCHEMA[cls][2]:
        inside, outside = FIELD_EDGES[wt]
        for value in inside:
            msg = with_field(attr, value)
            decoded = decode_message_binary(encode_message_binary(msg))
            assert canonical_message_bytes(decoded) == canonical_message_bytes(msg), (attr, value)
        for value in outside:
            # Refused whole — not truncated, not sent in some wider form
            # — and the envelope around it keeps no half-built memo.
            msg = with_field(attr, value)
            env = msg if cls is Envelope else Envelope(1, 2, msg, (0, 1))
            for encode in (encode_message_binary, lambda m: encode_msg_frame(3, m, binary=True)):
                with pytest.raises(CodecError, match="does not fit"):
                    encode(env)
                assert env.wire is None, (attr, value)
            # JSON has no widths and still carries it.
            assert canonical_message_bytes(decode_message(encode_message(env))) == canonical_message_bytes(env)


def test_epoch_is_not_flattened_to_a_tuple():
    # Epoch is a NamedTuple; the codec must keep its identity, not
    # degrade it to a plain tuple (a real bug this test pins).
    e = Epoch(3, 7)
    decoded = decode_value(encode_value(e))
    assert isinstance(decoded, Epoch)
    assert decoded.leader == 7


def test_unregistered_message_raises():
    class Rogue:
        kind = "rogue"

    for encode in (encode_message, encode_message_binary):
        with pytest.raises(CodecError, match="no codec registered for message class"):
            encode(Rogue())


def test_plain_dict_payload_cannot_collide_with_tags():
    sneaky = {"__": "ep", "n": 1, "l": 2}
    decoded = decode_value(encode_value(sneaky))
    assert decoded == sneaky
    assert not isinstance(decoded, Epoch)


# ----------------------------------------------------------------------
# the pinned wire: literal frames, binary format v3 and JSON
# ----------------------------------------------------------------------

#: ``ts`` of the corpus ack: large, and inside its i64 field (binary
#: format 1 carried 2**70 here as a bigint; see ``_ACK_V1`` below).
_ACK_TS = 2**62 + 5
_MC = Multicast((3, 17), frozenset({0, 2}), {"c": 1, "i": 4})
_ACK = Ack(_MC, 0, Epoch(0, 0), _ACK_TS, 1, (Epoch(0, 0), 12))
_MC_JSON = '{"__":"mc","dest":[0,2],"mid":{"__":"t","v":[3,17]},"p":{"__":"d","v":[["c",1],["i",4]]}}'
#: A multicast: mid (u16 origin pid, i64 seq) | dest gids (count byte,
#: u16 each) | payload value.
_MC_HEX = "0003" "0000000000000011" "02" "0000" "0002" "0b01020601016303010106010169030104"
_ACK_JSON = (
    '{"dp":{"__":"t","v":[{"__":"ep","l":0,"n":0},12]},"e":{"__":"ep","l":0,"n":0},'
    '"g":0,"k":"ack","mc":' + _MC_JSON + ',"s":1,"ts":%d}'
)
#: The ack as binary format 1 knew it: JSON carries any int, so this
#: body is today's byte for byte; format 2 refuses a ts beyond i64.
_ACK_V1 = Ack(_MC, 0, Epoch(0, 0), 2**70, 1, (Epoch(0, 0), 12))
_ACK_V1_JSON = _ACK_JSON % 1180591620717411303424
_ACK_JSON %= _ACK_TS
#: tag | epoch (u32 number, u16 leader) | group | ts | sender | dp (flag,
#: epoch, i64 count) | multicast.
_ACK_HEX = "02" "000000000000" "0000" "4000000000000005" "0001" "01" "000000000000" "000000000000000c" + _MC_HEX
#: A delivered-prefix report that is not there: flag 0 and zeros.
_NO_DP_HEX = "00" "000000000000" "0000000000000000"

#: (message, binary frame as hex, JSON frame body), all sent by pid 7:
#: 4-byte length | 0x00 | version 3 | MSG kind 3 | u32 src | tag | body.
#: A change to a hex literal is a wire-format change (BINARY_VERSION);
#: the JSON bodies are those of the hand-written codec the schema
#: replaced and have never changed (``test_golden_json_...`` below).
GOLDEN = [
    (
        Start(Multicast((0, 1), frozenset({1}), "hello")),
        "0000001d00030300000007" "01" "0000" "0000000000000001" "01" "0001" "06010568656c6c6f",
        '{"m":{"k":"start","mc":{"__":"mc","dest":[1],"mid":{"__":"t","v":[0,1]},"p":"hello"}},"src":7,"t":"m"}',
    ),
    (
        Ack(_MC, 2, Epoch(1, 3), 41, 5, None),  # dp unset
        "0000004900030300000007" "02" "000000010003" "0002" "0000000000000029" "0005" + _NO_DP_HEX + _MC_HEX,
        '{"m":{"dp":null,"e":{"__":"ep","l":3,"n":1},"g":2,"k":"ack","mc":' + _MC_JSON + ',"s":5,"ts":41},"src":7,"t":"m"}',
    ),
    (
        _ACK,  # dp set, ts near the top of i64
        "0000004900030300000007" + _ACK_HEX,
        '{"m":' + _ACK_JSON + ',"src":7,"t":"m"}',
    ),
    (
        Bump(Epoch(2, 4), 300, 4, None),
        "0000002700030300000007" "03" "000000020004" "000000000000012c" "0004" + _NO_DP_HEX,
        '{"m":{"dp":null,"e":{"__":"ep","l":4,"n":2},"k":"bump","s":4,"ts":300},"src":7,"t":"m"}',
    ),
    (
        Bump(Epoch(2, 4), -7, 4, (Epoch(1, 3), 70000)),
        "0000002700030300000007" "03" "000000020004" "fffffffffffffff9" "0004" "01" "000000010003" "0000000000011170",
        '{"m":{"dp":{"__":"t","v":[{"__":"ep","l":3,"n":1},70000]},"e":{"__":"ep","l":4,"n":2},"k":"bump","s":4,"ts":-7},"src":7,"t":"m"}',
    ),
    (
        NewEpoch(Epoch(5, 8)),
        "0000000e00030300000007" "04" "000000050008",
        '{"m":{"e":{"__":"ep","l":8,"n":5},"k":"new-epoch"},"src":7,"t":"m"}',
    ),
    (
        EpochPromise(Epoch(3, 1), 2, 99, Epoch(2, 0), [], 0),  # empty t_seq
        # epoch | sender | clock | e_cur | t_base | u32 row count
        "0000002a00030300000007" "05" "000000030001" "0002" "0000000000000063" "000000020000" "0000000000000000" "00000000",
        '{"m":{"c":99,"e":{"__":"ep","l":1,"n":3},"ec":{"__":"ep","l":0,"n":2},"k":"promise","s":2,"t":[],"tb":0},"src":7,"t":"m"}',
    ),
    (
        EpochPromise(
            Epoch(3, 1), 2, 99, Epoch(2, 0),
            [(Epoch(2, 0), _MC, 40), (Epoch(1, 3), Multicast((1, 0), frozenset({0}), None), 7)],
            6,
        ),
        # ... then per row: epoch | ts | multicast
        "0000007400030300000007" "05" "000000030001" "0002" "0000000000000063" "000000020000" "0000000000000006" "00000002"
        "000000020000" "0000000000000028" + _MC_HEX
        + "000000010003" "0000000000000007" "0001" "0000000000000000" "01" "0000" "00",
        '{"m":{"c":99,"e":{"__":"ep","l":1,"n":3},"ec":{"__":"ep","l":0,"n":2},"k":"promise","s":2,"t":['
        '{"__":"t","v":[{"__":"ep","l":0,"n":2},' + _MC_JSON + ',40]},'
        '{"__":"t","v":[{"__":"ep","l":3,"n":1},{"__":"mc","dest":[0],"mid":{"__":"t","v":[1,0]},"p":null},7]}'
        '],"tb":6},"src":7,"t":"m"}',
    ),
    (
        NewState(Epoch(3, 1), [], 100, 0),
        # epoch | ts | t_base | u32 row count
        "0000002200030300000007" "06" "000000030001" "0000000000000064" "0000000000000000" "00000000",
        '{"m":{"e":{"__":"ep","l":1,"n":3},"k":"new-state","t":[],"tb":0,"ts":100},"src":7,"t":"m"}',
    ),
    (
        NewState(Epoch(3, 1), [(Epoch(2, 0), _MC, 40)], 100, 5),
        "0000005000030300000007" "06" "000000030001" "0000000000000064" "0000000000000005" "00000001"
        "000000020000" "0000000000000028" + _MC_HEX,
        '{"m":{"e":{"__":"ep","l":1,"n":3},"k":"new-state","t":[{"__":"t","v":[{"__":"ep","l":0,"n":2},'
        + _MC_JSON + ',40]}],"tb":5,"ts":100},"src":7,"t":"m"}',
    ),
    (
        AcceptEpoch(Epoch(3, 1), 2),
        "0000001000030300000007" "07" "000000030001" "0002",
        '{"m":{"e":{"__":"ep","l":1,"n":3},"k":"accept-epoch","s":2},"src":7,"t":"m"}',
    ),
    (
        Envelope(4, 1000, _ACK, (0, 1, 2)),  # nested message
        # origin | seq | dest pids (count byte, u16 each) | payload value (MSG tag 0e)
        "0000005c00030300000007" "08" "0004" "00000000000003e8" "03" "000000010002" "0e" + _ACK_HEX,
        '{"m":{"d":[0,1,2],"k":"envelope","o":4,"p":{"__":"pm","v":' + _ACK_JSON + '},"q":1000},"src":7,"t":"m"}',
    ),
    (
        Envelope(  # container payload (dict, set, frozenset, tuple, bigint)
            4, 1001,
            {"s": {1, 2}, "f": frozenset({"a"}), "t": (1.5, None, True), "big": -(2**80)},
            (5,),
        ),
        "0000005700030300000007" "08" "0004" "00000000000003e9" "01" "0005"
        "0b01040601036269670300010bff00000000000000000000060101660a0101060101610601017309010203010103010206010174080103053ff80000000000000001",
        '{"m":{"d":[5],"k":"envelope","o":4,"p":{"__":"d","v":[["big",-1208925819614629174706176],'
        '["f",{"__":"fs","v":["a"]}],["s",{"__":"s","v":[1,2]}],["t",{"__":"t","v":[1.5,null,true]}]]},'
        '"q":1001},"src":7,"t":"m"}',
    ),
    (
        Batch((
            Envelope(1, 7, Bump(Epoch(0, 0), 9, 1, None), (0, 2)),
            Envelope(2, 8, _ACK, (0, 1, 2)),
        )),
        # u32 envelope count, then untagged envelope bodies
        "0000009000030300000007" "09" "00000002"
        "0001" "0000000000000007" "02" "00000002" "0e" "03" "000000000000" "0000000000000009" "0001" + _NO_DP_HEX
        + "0002" "0000000000000008" "03" "000000010002" "0e" + _ACK_HEX,
        '{"m":{"envs":[{"d":[0,2],"o":1,"p":{"__":"pm","v":{"dp":null,"e":{"__":"ep","l":0,"n":0},"k":"bump","s":1,"ts":9}},"q":7},'
        '{"d":[0,1,2],"o":2,"p":{"__":"pm","v":' + _ACK_JSON + '},"q":8}],"k":"batch"},"src":7,"t":"m"}',
    ),
]

#: sha256 over the corpus' JSON bodies, newline-joined. Format 3 took
#: the envelope's ``"r"`` (relayed) key out of JSON as well; every other
#: body is byte for byte what the v1 codec wrote for the same message.
GOLDEN_JSON_SHA256 = "27cbf86a651a43d49ed2b3a30fce07ff5b7087f22d223ef0612a5b026d3971bc"


def test_golden_corpus_covers_every_class():
    assert {type(msg) for msg, _, _ in GOLDEN} == set(wire_message_classes())
    assert BINARY_VERSION == 3


@pytest.mark.parametrize("msg,binary_hex,json_body", GOLDEN, ids=lambda v: type(v).__name__)
def test_golden_frames(msg, binary_hex, json_body):
    binary_frame = bytes.fromhex(binary_hex)
    json_frame = LEN_STRUCT.pack(len(json_body.encode())) + json_body.encode()
    assert encode_msg_frame(7, msg, binary=True) == binary_frame
    assert encode_msg_frame(7, msg) == json_frame
    # ... and the literals decode to the same content (header: 4-byte
    # length, 0x00, version, MSG kind, u32 src).
    for decoded in (
        decode_message_binary(binary_frame[11:]),
        decode_message(json.loads(json_body)["m"]),
    ):
        assert canonical_message_bytes(decoded) == canonical_message_bytes(msg)


def test_golden_json_bodies_are_byte_identical_to_format_1s():
    # Format 2 changed the binary layout only, format 3 dropped one
    # envelope field (see GOLDEN_JSON_SHA256). The ack's ts was 2**70 in
    # the v1 corpus, and JSON still writes that ack as it always did —
    # only binary refuses it.
    bodies = [encode_msg_frame(7, msg)[LEN_STRUCT.size :] for msg, _, _ in GOLDEN]
    assert bodies == [json_body.encode() for _, _, json_body in GOLDEN]
    assert hashlib.sha256(b"\n".join(bodies)).hexdigest() == GOLDEN_JSON_SHA256
    assert encode_msg_frame(7, _ACK_V1)[LEN_STRUCT.size :] == ('{"m":' + _ACK_V1_JSON + ',"src":7,"t":"m"}').encode()
    env = Envelope(4, 1000, _ACK_V1, (0, 1, 2))
    with pytest.raises(CodecError, match="Ack.*does not fit"):
        encode_msg_frame(7, env, binary=True)
    assert env.wire is None


def test_golden_multicast_has_one_layout():
    # In a message's fused struct, in the value vocabulary (behind its
    # tag byte) and in a T row: the same bytes.
    as_value = bytearray()
    encode_value_binary(_MC, as_value)
    assert as_value.hex() == "0d" + _MC_HEX
    assert encode_message_binary(Start(_MC)).hex() == "01" + _MC_HEX
    assert decode_value_binary(bytes(as_value), 0)[0].dest is decode_message_binary(b"\x01" + as_value[1:]).multicast.dest


def test_golden_v1_frame_is_refused_by_its_version():
    # A complete format-1 frame (the v1 corpus' first Bump).
    v1 = bytes.fromhex("0000001200010300000007" "03" "0102010402012c010400")
    with pytest.raises(CodecError, match="unsupported binary frame version 1"):
        FrameDecoder().feed(v1)


# ----------------------------------------------------------------------
# encode once per envelope: the memo must be invisible
# ----------------------------------------------------------------------


def _reachable(msg, cls):
    """Every ``cls`` instance reachable from ``msg``, outermost first
    (generated payloads nest registered messages inside Multicasts,
    t_seq rows and containers)."""
    if isinstance(msg, cls):
        yield msg
    if isinstance(msg, (list, tuple, set, frozenset)):
        for item in msg:
            yield from _reachable(item, cls)
    elif isinstance(msg, dict):
        yield from _reachable(list(msg.items()), cls)
    elif isinstance(msg, Multicast):
        yield from _reachable(msg.payload, cls)
    elif type(msg) in SCHEMA:
        for attr, _, _ in SCHEMA[type(msg)][2]:
            yield from _reachable(getattr(msg, attr), cls)


def _envelopes(msg):
    return _reachable(msg, Envelope)


def _multicasts(msg):
    return _reachable(msg, Multicast)


def _holding(*multicasts):
    """A node's lookup that holds ``multicasts`` (the last one of a mid wins)."""
    return {mc.mid: mc for mc in multicasts}.get


def _big_envelope(rng):
    return Envelope(2, rng.randrange(2**40), Start(Multicast((2, 5), frozenset({0, 1}), "x" * 16384)), (0, 1, 3))


@by_class
def test_memoised_encoding_equals_cold_encoding(cls):
    # Same seed twice: ``msg`` and ``fresh`` are structurally equal and
    # share no object.
    rng, rng_fresh = (random.Random(f"codec-memo-{cls.__name__}") for _ in range(2))
    for _ in range(50):
        msg, fresh = gen_message(cls, rng), gen_message(cls, rng_fresh)
        as_json = encode_msg_frame(3, msg)
        first = encode_msg_frame(3, msg, binary=True)
        assert all(env.wire is not None for env in _envelopes(msg))
        assert encode_msg_frame(3, msg, binary=True) == first
        assert all(env.wire is None for env in _envelopes(fresh))
        assert all(mc.wire is None for mc in _multicasts(fresh))
        assert encode_msg_frame(3, fresh, binary=True) == first
        # JSON does not look at the memo ...
        assert encode_msg_frame(3, msg) == as_json == encode_msg_frame(3, fresh)
        # ... and a decoded message starts cold and re-encodes bit-stably.
        decoded = decode_message_binary(first[11:])
        assert all(env.wire is None for env in _envelopes(decoded))
        assert encode_msg_frame(3, decoded, binary=True) == first
        # A multicast keeps its dest list and payload once encoded (the
        # node that decodes it keeps the bytes it came in), and a decoder
        # holding one returns it for those bytes: every encode is the
        # cold one.
        sent, received = list(_multicasts(msg)), list(_multicasts(decoded))
        assert all(mc.wire is not None for mc in sent + received)
        assert [mc.wire for mc in received] == [mc.wire for mc in sent]
        rebuilt = decode_message_binary(first[11:], _holding(*sent))
        assert encode_msg_frame(3, rebuilt, binary=True) == first
        if len({mc.mid for mc in sent}) == len(sent):
            assert {id(mc) for mc in _multicasts(rebuilt)} <= {id(mc) for mc in sent}


def test_batch_of_partly_encoded_envelopes_equals_the_cold_batch():
    # The §7.1 path: an ack goes out alone to one peer, then inside
    # different Batches to others, up to batching_ms later.
    rng, rng_cold = (random.Random("codec-memo-batch") for _ in range(2))

    def envelopes(r):
        envs = [gen_message(Envelope, r) for _ in range(8)]
        return envs + [Envelope(1, 9, gen_message(Ack, r), (0, 2)), _big_envelope(r)]

    warm, cold = envelopes(rng), envelopes(rng_cold)
    alone = [encode_msg_frame(1, env, binary=True) for env in warm[::2]]
    assert [env.wire is not None for env in warm] == [True, False] * 5
    assert encode_msg_frame(1, Batch(tuple(warm)), binary=True) == encode_msg_frame(
        1, Batch(tuple(cold)), binary=True
    )
    assert alone == [encode_msg_frame(1, env, binary=True) for env in cold[::2]]
    # The memo is the untagged body: what a Batch carries per envelope,
    # and what follows the 11-byte header and the tag byte in a frame.
    assert all(frame[12:] == env.wire for frame, env in zip(alone, warm[::2]))


def test_golden_frames_with_every_envelope_already_encoded():
    for msg, binary_hex, json_body in GOLDEN:
        for env in _envelopes(msg):
            encode_message_binary(env)
            assert env.wire is not None
        assert encode_msg_frame(7, msg, binary=True) == bytes.fromhex(binary_hex)
        assert encode_msg_frame(7, msg)[LEN_STRUCT.size :] == json_body.encode()


def test_an_origins_frame_of_an_envelope_is_built_once():
    rng, rng_cold = (random.Random("codec-memo-frame") for _ in range(2))
    env, cold = gen_message(Envelope, rng), gen_message(Envelope, rng_cold)
    other = (env.origin + 1) % 2**16
    frame = encode_msg_frame(env.origin, env, binary=True)
    assert env.frame is frame and encode_msg_frame(env.origin, env, binary=True) is frame
    assert frame == encode_msg_frame(cold.origin, cold, binary=True)
    # Anyone else's frame of it carries another src: built every time,
    # from the memoised body.
    relayed = encode_msg_frame(other, env, binary=True)
    assert relayed[11:] == frame[11:] and relayed is not encode_msg_frame(other, env, binary=True)
    assert env.frame is frame
    # JSON never reads or writes the frame memo.
    assert encode_msg_frame(env.origin, env) == encode_msg_frame(cold.origin, cold)
    assert decode_message_binary(frame[11:]).frame is None


def test_envelope_memo_is_a_slot_not_a_dict():
    env = gen_message(Envelope, random.Random("codec-memo-slot"))
    assert env.wire is None and "wire" in Envelope.__slots__
    assert env.frame is None and "frame" in Envelope.__slots__
    assert not hasattr(env, "__dict__")
    # Not constructor arguments: the wire schema and the simulator
    # (which never sets or reads them) are unchanged.
    assert not {"wire", "frame"} & set(inspect.signature(Envelope.__init__).parameters)
    # A multicast's memo likewise.
    mc = rand_multicast(random.Random("codec-memo-slot"))
    assert mc.wire is None and "wire" in Multicast.__slots__
    assert not hasattr(mc, "__dict__")
    assert "wire" not in inspect.signature(Multicast.__init__).parameters


@by_class
def test_decoders_build_what_the_constructor_builds(cls):
    # The binary decoders store slots instead of calling __init__: every
    # slot must come out as __init__ sets it from the decoded fields —
    # Envelope.kind too, an envelope inside an envelope included.
    rng = random.Random(f"codec-slots-{cls.__name__}")
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    for _ in range(50):
        msg = gen_message(cls, rng)
        for decoded in (decode_message_binary(encode_message_binary(msg)),
                        decode_message_binary(encode_message_binary(Envelope(1, 2, msg, (0,)))).payload):
            built = cls(*(getattr(decoded, p) for p in params))
            for slot in cls.__slots__:
                assert getattr(decoded, slot) == getattr(built, slot), (cls.__name__, slot)
    nested = decode_message_binary(encode_message_binary(Envelope(1, 2, Envelope(3, 4, gen_message(Ack, rng), (5,)), (0,))))
    assert (nested.kind, nested.payload.kind) == ("ack", "ack")
    assert decode_message_binary(encode_message_binary(Envelope(1, 2, Envelope(3, 4, 7, ()), ()))).kind == "rm"
    # A multicast without a destination is refused as its constructor refuses it.
    with pytest.raises(CodecError, match="at least one destination"):
        decode_message_binary(bytes.fromhex("01" "0000" "0000000000000001" "00" "00"))


# ----------------------------------------------------------------------
# decode once per multicast per node: the held object
# ----------------------------------------------------------------------


def _held_ack():
    """An ack frame from pid 1 and the multicast it carries, as the node
    that decodes it holds it (encoded once: its ``wire`` is set)."""
    held = Multicast((2, 1), frozenset({0, 1}), {"k": "x" * 40, "n": 1})
    frame = encode_msg_frame(1, Envelope(1, 1, Ack(held, 0, Epoch(0, 0), 9, 1, None), (0, 3)), binary=True)
    return frame, held


def test_a_held_multicast_is_decoded_to_the_held_object():
    frame, held = _held_ack()
    wire = held.wire
    for lookup in (_holding(held), _holding(Multicast((2, 0), frozenset({0}), None), held)):
        assert FrameDecoder(lookup).feed(frame)[0]["msg"].payload.multicast is held
    # Not held, or held but never encoded: decoded anew, bytes kept.
    for lookup in (codec_mod.nothing_held, _holding(Multicast(held.mid, held.dest, held.payload))):
        decoded = FrameDecoder(lookup).feed(frame)[0]["msg"].payload.multicast
        assert decoded is not held and decoded.wire == wire and decoded.payload == held.payload
    assert held.wire is wire


def test_decoders_with_different_lookups_never_return_each_others_objects():
    # Six nodes on one loop: each decoder returns only its own node's
    # copy, however many copies of the same multicast the others hold.
    frame, sent = _held_ack()
    copies = [decode_message_binary(frame[11:]).payload.multicast for _ in range(3)]
    decoders = [FrameDecoder(_holding(mc)) for mc in copies]
    for _ in range(2):
        got = [decoder.feed(frame)[0]["msg"].payload.multicast for decoder in decoders]
        assert all(mine is copy for mine, copy in zip(got, copies))
    assert FrameDecoder().feed(frame)[0]["msg"].payload.multicast not in copies + [sent]


@pytest.mark.fuzz
def test_fuzz_a_held_multicast_one_byte_off_is_decoded_anew():
    # A later copy that differs in any one byte of the dest list or the
    # payload is not the held multicast: decoded (or refused) on its
    # own, and the held object and its bytes are untouched.
    frame, held = _held_ack()
    wire, payload = held.wire, dict(held.payload)
    at = frame.index(wire)
    for i in range(at, at + len(wire)):
        for byte in {0x00, 0xFF, frame[i] ^ 0x01} - {frame[i]}:
            flipped = frame[:i] + bytes((byte,)) + frame[i + 1 :]
            try:
                frames = FrameDecoder(_holding(held)).feed(flipped)
            except CodecError:
                frames = []
            for f in frames:
                assert f["msg"].payload.multicast is not held
            assert held.wire is wire and held.payload == payload


@pytest.mark.fuzz
def test_fuzz_a_held_multicast_cut_short_raises_codec_error():
    frame, held = _held_ack()
    wire = held.wire
    body = frame[LEN_STRUCT.size :]
    for cut in range(len(body)):
        with pytest.raises(CodecError):
            FrameDecoder(_holding(held)).feed(framed(body[:cut]))
    assert held.wire is wire


# ----------------------------------------------------------------------
# format 2: interned int lists, and what decoding a frame costs
# ----------------------------------------------------------------------


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty intern tables: earlier tests' random lists fill them."""
    for name in ("_PIDS", "_GIDS", "_LIST_RAW"):
        monkeypatch.setattr(codec_mod, name, {})


def test_intern_tables_stop_at_their_cap_and_decoding_goes_on(fresh_tables):
    cap = codec_mod._INTERN_MAX
    for i in range(10_000):  # 10 k distinct pid lists and gid sets
        env = Envelope(1, i, Start(Multicast((1, i), frozenset({i, i + 1}), None)), (i, 0, i))
        decoded = decode_message_binary(encode_message_binary(env))
        assert decoded.dests == env.dests and decoded.payload.multicast.dest == env.payload.multicast.dest
        assert canonical_message_bytes(decoded) == canonical_message_bytes(env)
        assert max(map(len, (codec_mod._PIDS, codec_mod._GIDS, codec_mod._LIST_RAW))) <= cap
    assert len(codec_mod._PIDS) == len(codec_mod._GIDS) == len(codec_mod._LIST_RAW) == cap
    # A list that made it into a table decodes to one shared object, one
    # that did not to a fresh, equal one each time.
    early, late = (encode_message_binary(Envelope(1, 0, None, (i, 0, i))) for i in (0, 9_999))
    assert decode_message_binary(early).dests is decode_message_binary(early).dests
    assert decode_message_binary(late).dests is not decode_message_binary(late).dests
    assert decode_message_binary(late).dests == (9_999, 0, 9_999)


def test_decoded_epochs_are_interned_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(codec_mod, "_EPOCHS", {})
    cap = codec_mod._INTERN_MAX

    def frame(number, leader, seq):
        ack = Ack(Multicast((1, seq), frozenset({0}), None), 0, Epoch(number, leader), 7, 1, (Epoch(number, leader), seq))
        return encode_msg_frame(1, Envelope(1, seq, ack, (0, 1)), binary=True)

    # Equal epochs are one object: within a message (epoch and dp),
    # across frames, and across message classes.
    first, second = (FrameDecoder().feed(frame(3, 2, seq))[0]["msg"].payload for seq in (0, 1))
    assert first.epoch == Epoch(3, 2) and type(first.epoch) is Epoch
    assert first.epoch is first.dp[0] is second.epoch is second.dp[0]
    bump = decode_message_binary(encode_message_binary(Bump(Epoch(3, 2), 9, 1, None)))
    assert bump.epoch is first.epoch and bump.dp is None
    assert decode_message_binary(encode_message_binary(NewEpoch(Epoch(3, 2)))).epoch is first.epoch
    # 10 k distinct hostile epochs: the table stops at its cap, decoding goes on.
    for i in range(10_000):
        ack = FrameDecoder().feed(frame(1000 + i, i % 7, i))[0]["msg"].payload
        assert ack.epoch == ack.dp[0] == (1000 + i, i % 7) and type(ack.epoch) is Epoch
        assert len(codec_mod._EPOCHS) <= cap
    assert len(codec_mod._EPOCHS) == cap
    late = [FrameDecoder().feed(frame(10_999, 3, 0))[0]["msg"].payload.epoch for _ in range(2)]
    assert late[0] == late[1] == Epoch(10_999, 3) and late[0] is not late[1]
    assert FrameDecoder().feed(frame(3, 2, 5))[0]["msg"].payload.epoch is first.epoch


def _bench_ack(rng):
    """The ack of the bench workloads: six destination pids, two groups,
    a 64-byte text, a delivered-prefix report."""
    multicast = Multicast((rng.randrange(6), rng.randrange(1 << 16)), frozenset((0, 1)), "x" * 64)
    ack = Ack(multicast, rng.randrange(2), Epoch(0, 0), rng.randrange(1 << 20), rng.randrange(6),
              (Epoch(0, 0), rng.randrange(1 << 16)))
    return Envelope(ack.sender, rng.randrange(1 << 16), ack, tuple(range(6)))


def _calls(fn, name=None) -> int:
    """Python and C function calls made by ``fn()`` (no wall clock); with
    ``name``, only the calls of the Python function of that name."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if name is None and event in ("call", "c_call") or event == "call" and frame.f_code.co_name == name:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count - (name is None)  # that last sys.setprofile


def test_call_count_to_decode_an_ack_frame(fresh_tables):
    # The deterministic side of "decode an ack with one struct call":
    # format 1 took 68 calls for the frame and 56 per batched envelope,
    # format 3 with a constructor call per message 36 and 30. A node
    # that holds the multicast (every ack after the first) decodes no
    # payload: 4 calls fewer per ack.
    rng = random.Random("codec-call-count")
    ack, batch = _bench_ack(rng), Batch(tuple(_bench_ack(rng) for _ in range(14)))
    for msg, cold, held in ((ack, 30, 26), (batch, 1 + 14 * 21, 1 + 14 * 17)):
        frame = encode_msg_frame(0, msg, binary=True)
        multicasts = [env.payload.multicast for env in _envelopes(msg)]
        for decoder, budget in ((FrameDecoder(), cold), (FrameDecoder(_holding(*multicasts)), held)):
            assert len(decoder.feed(frame)) == 1  # warm: the int lists are interned
            assert _calls(lambda: decoder.feed(frame)) <= budget


def test_call_count_a_held_multicasts_later_copies_decode_no_payload():
    frame, held = _held_ack()
    batch = encode_msg_frame(1, Batch(tuple(decode_message_binary(frame[11:]) for _ in range(4))), binary=True)
    cold, warm = FrameDecoder(), FrameDecoder(_holding(held))
    for data in (frame, batch):
        assert _calls(lambda: cold.feed(data), "decode_value_binary") > 0
        assert _calls(lambda: warm.feed(data), "decode_value_binary") == 0


@pytest.mark.parametrize("cls", [Ack, Bump, Envelope, Start], ids=lambda c: c.__name__)
def test_call_count_structure_of_the_generated_decoders(cls):
    # One fused struct per class (a second unpack_from would be a
    # second run); compact ints are for the open value vocabulary only.
    source = codec_mod._CODECS[cls].source
    assert "_cint" not in source
    assert source.count(".pack(") == 1
    assert 1 <= source[source.index("def get(") :].count("unpack_from") <= 2


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def test_frame_decoder_arbitrary_chunking():
    rng = random.Random("framing")
    frames = [encode_message(gen_message(Ack, rng)) for _ in range(20)]
    stream = b"".join(encode_frame(f) for f in frames)
    for trial in range(10):
        decoder = FrameDecoder()
        out = []
        i = 0
        while i < len(stream):
            n = rng.randrange(1, 7)
            out.extend(decoder.feed(stream[i : i + n]))
            i += n
        assert len(out) == len(frames)
        assert out == frames


def test_frame_decoder_rejects_oversized_length():
    decoder = FrameDecoder()
    with pytest.raises(CodecError):
        decoder.feed(b"\xff\xff\xff\xff")


def test_frame_decoder_mixed_binary_json_chunked_stream():
    # One TCP stream interleaving binary and JSON frames (message and
    # heartbeat), fed in arbitrary chunk sizes: the decoder dispatches
    # per frame on the first body byte, so mixed-codec peers — e.g. a
    # rolling upgrade — interoperate on a single connection.
    rng = random.Random("mixed-framing")
    expected = []
    stream = b""
    for _ in range(40):
        binary = rng.random() < 0.5
        if rng.random() < 0.25:
            pid = rng.randrange(0, 9)
            stream += encode_hb_frame(pid, binary=binary)
            expected.append({"t": "hb", "pid": pid})
        else:
            src = rng.randrange(0, 9)
            msg = gen_message(rng.choice(WIRE_CLASSES), rng)
            stream += encode_msg_frame(src, msg, binary=binary)
            expected.append({"t": "m", "src": src, "msg": canonical_message_bytes(msg)})
    for _trial in range(10):
        decoder = FrameDecoder()
        out = []
        i = 0
        while i < len(stream):
            n = rng.randrange(1, 9)
            out.extend(decoder.feed(stream[i : i + n]))
            i += n
        # Either format yields the same frame dict, with the message
        # already decoded — exactly what the host dispatches on.
        for frame in out:
            if "msg" in frame:
                frame["msg"] = canonical_message_bytes(frame["msg"])
        assert out == expected


# ----------------------------------------------------------------------
# hostile bytes: frames or CodecError, nothing else
# ----------------------------------------------------------------------


def framed(body: bytes) -> bytes:
    return LEN_STRUCT.pack(len(body)) + body


def feed_hostile(data: bytes) -> None:
    """The whole contract: ``feed`` returns frames or raises CodecError."""
    try:
        frames = FrameDecoder().feed(data)
    except CodecError:
        return
    assert isinstance(frames, list) and all(isinstance(f, dict) for f in frames)


@pytest.mark.fuzz
@by_class
def test_frame_decoder_survives_truncations_and_byte_flips(cls):
    rng = random.Random(f"codec-hostile-{cls.__name__}")
    for binary in (True, False):
        frame = encode_msg_frame(3, gen_message(cls, rng), binary=binary)
        body = frame[LEN_STRUCT.size :]
        for cut in range(len(frame)):
            # A frame cut short is simply incomplete ...
            assert FrameDecoder().feed(frame[:cut]) == []
        for cut in range(len(body)):
            # ... a body cut short behind an honest length is malformed.
            feed_hostile(framed(body[:cut]))
        for _ in range(300):
            flipped = bytearray(body)
            for _ in range(rng.randrange(1, 4)):
                flipped[rng.randrange(len(body))] = rng.randrange(256)
            feed_hostile(framed(bytes(flipped)))


#: 0x00 | version 3 | MSG kind | u32 src pid 1: what precedes a message.
V3_MSG = b"\x00\x03\x03\x00\x00\x00\x01"
#: ... | Envelope tag | origin, seq | no dests: what precedes a payload
#: value.
V3_VALUE = V3_MSG + b"\x08" + bytes(10) + b"\x00"


def test_fuzz_prefixes_are_sound_frames_up_to_the_value():
    assert FrameDecoder().feed(framed(V3_VALUE + b"\x00"))[0]["msg"].payload is None


def _hot_frames(rng):
    """The frames the fixed layouts were made for, ids and counters at
    both ends of their widths."""
    acks = [Envelope(1, 9, gen_message(Ack, rng), (0, 2, 2**16 - 1)) for _ in range(3)]
    return [
        acks[0],
        Envelope(2, -(2**63), gen_message(Bump, rng), (1,)),
        Envelope(3, 2**63 - 1, Start(_WIDE), _MANY),
        Batch(tuple(acks)),
        gen_message(EpochPromise, rng),
    ]


@pytest.mark.fuzz
def test_fuzz_v2_every_byte_of_the_hot_frames():
    # Exhaustive where the seeded test above samples: every body byte of
    # every hot frame set to 0x00, to 0xff and flipped in its low and
    # high bit — so every count byte, flag, tag and struct field is hit
    # — and every truncation. struct.error (a short fixed run), a short
    # int list, an unknown tag: all CodecError, nothing else escapes.
    rng = random.Random("codec-fuzz-v2")
    for msg in _hot_frames(rng):
        body = encode_msg_frame(3, msg, binary=True)[LEN_STRUCT.size :]
        assert FrameDecoder().feed(framed(body))[0]["src"] == 3
        for cut in range(len(body)):
            with pytest.raises(CodecError):
                FrameDecoder().feed(framed(body[:cut]))
        for at in range(len(body)):
            for byte in {0x00, 0xFF, body[at] ^ 0x01, body[at] ^ 0x80} - {body[at]}:
                feed_hostile(framed(body[:at] + bytes((byte,)) + body[at + 1 :]))


@pytest.mark.fuzz
def test_frame_decoder_survives_arbitrary_bytes():
    rng = random.Random("codec-hostile-arbitrary")
    heads = [b"", b"\x00", b"\x00\x01", b"\x00\x02", V3_MSG, V3_VALUE, b"{", b'{"t":"m","m":']
    heads += [V3_MSG + bytes((row[0],)) for row in SCHEMA.values()]
    for _ in range(3000):
        body = rng.choice(heads) + rng.randbytes(rng.randrange(0, 40))
        feed_hostile(framed(body))
        feed_hostile(body)  # unframed: whatever length its first bytes claim


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(V3_VALUE + b"\x07\x01\x01" * 100_000 + b"\x00", id="binary-nesting"),
        pytest.param(b'{"t":"m","m":' + b"[" * 100_000, id="json-nesting"),
        # A list of 2**31-1 strings of length -3: each element rewinds
        # the offset onto itself; must be refused, not looped over.
        pytest.param(V3_VALUE + b"\x07\x04\x7f\xff\xff\xff\x06\x01\xfd", id="negative-length"),
        pytest.param(V3_VALUE + b"\x03\x00\x01\xfd", id="negative-bigint-width"),
        # A string whose length would carry the read offset past
        # ssize_t, then a fixed run to read there.
        pytest.param(V3_MSG + b"\x09\x00\x00\x00\x02" + V3_VALUE[8:] + b"\x06\x08\x7f" + b"\xff" * 7, id="offset-overflow"),
        pytest.param(V3_MSG + b"\x08" + bytes(10) + b"\x03\x00\x01", id="int-list-cut-short"),
        pytest.param(V3_MSG + b"\x01" + bytes(10) + b"\x00\x00", id="multicast-without-dest"),
        pytest.param(V3_MSG + b"\x03" + bytes(30), id="fixed-run-cut-short"),
        pytest.param(V3_MSG + b"\x03" + bytes(32), id="trailing-byte"),
        pytest.param(V3_MSG + b"\x0a", id="unknown-message-tag"),
        pytest.param(b"\x00\x01\x03\x00\x00\x00\x07\x03\x01\x02\x01\x04\x02\x01\x2c\x01\x04\x00", id="v1-body"),
        # The format-2 corpus' first Envelope: a relayed flag after the seq.
        pytest.param(bytes.fromhex("00020300000007" "08" "0004" "00000000000003e8" "00" "03" "000000010002" "0e" + _ACK_HEX), id="v2-body"),
        pytest.param(b"\x00\x04\x03\x00\x00\x00\x07\x04" + bytes(6), id="future-version"),
        pytest.param(b'{"t":"m","src":1}', id="json-message-without-body"),
        pytest.param(b'{"t":"m","src":1,"m":5}', id="json-message-not-an-object"),
        pytest.param(b'{"t":"m","m":{"k":"envelope","o":1,"q":2,"p":null,"d":3}}', id="json-wrong-field-shape"),
        pytest.param(b"\x00\x03\x02\x00", id="short-heartbeat"),
        pytest.param(b"[1,2]", id="json-not-an-object"),
    ],
)
def test_frame_decoder_malformed_bodies_raise_codec_error(body):
    with pytest.raises(CodecError) as caught:
        FrameDecoder().feed(framed(body))
    assert ("unsupported binary frame version" in str(caught.value)) == (body[:1] == b"\x00" and body[1] != BINARY_VERSION)
