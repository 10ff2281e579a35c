"""The RPRSERVE wire protocol: length-prefixed frames of column batches.

The serving layer moves the engine's columnar event batches
(:class:`~repro.engine.batch.EventBatch`) over a TCP stream.  The unit
is a *frame*::

    offset  size  field
    0       4     u32  payload length L (little-endian)
    4       1     u8   frame type (FRAME_* below)
    5       4     u32  CRC32 of the payload (zlib.crc32)
    9       L     payload

Frame types and their payloads:

========  =========  =============================================
type      direction  payload
========  =========  =============================================
HELLO     client->   magic ``RPRSERVE`` + u32 version + u32 max
                     frame size the client is willing to receive +
                     the 16-byte NUL-padded requested engine backend
                     (all-NUL = server default) + u32 feature flags
                     (bit 0 = the client wants to send CBATCH)
HELLO     server->   magic + u32 version + u32 initial credit +
                     u32 effective max frame size + u32 flags (0) +
                     the 16-byte granted backend + u32 granted
                     feature flags + u32 engine worker count (1 on
                     a single-node server, N behind a gateway)
BATCH     client->   the ``tracefile`` column layout, minus magic:
                     u8 endian flag, u64 n_events, u64 table byte
                     length, the (optional) location-table JSON,
                     then ``ops`` (u8[n]), ``a`` (i32[n]), ``b``
                     (i32[n]) -- byte-identical to the columns an
                     RPR2TRC file stores, so server-side decode is
                     bulk column copies (and, with numpy, zero-copy
                     views for validation), never per-event parsing
CBATCH    client->   a grammar-compressed batch (only after the HELLO
                     exchange granted the CBATCH feature bit):
                     u8 endian flag, u32 block width, u64 expanded
                     event count, u64 unique block count, u64 rule
                     count, u64 table byte length, u64 seq, the
                     (optional) location-table JSON, u32 per-block
                     lengths, then the unique blocks' ``ops``/``a``/
                     ``b`` columns concatenated block-major, and the
                     ``(u32 block id, u32 repeat)`` rule pairs --
                     the :class:`repro.compress.CompressedTrace`
                     shape on the wire, ingested server-side by the
                     memoized kernel without ever expanding; it may
                     expand to at most ``max frame // 9`` events,
                     what a raw BATCH under the same cap can carry
CREDIT    server->   u32 additional BATCH frames the client may send
                     (CBATCH frames spend the same credit)
RACES     server->   UTF-8 JSON object ``{"seq": n, "reports": [...]}``
                     with interned location ids; ``seq`` names the
                     BATCH the reports were found in, so a resuming
                     client that replays a batch replaces (never
                     double-counts) its reports
ERROR     both       u16 error code + UTF-8 message; sender closes
BYE       client->   empty (end of stream, drain and summarise), or
                     one u8 of flags: bit 0 = RELEASE, the session
                     ends for good -- a durable one skips its final
                     checkpoint and deletes the one on disk
BYE       server->   u64 events ingested + u64 races reported
RESUME    client->   UTF-8 session token (durable session handshake,
                     sent once, directly after HELLO)
RESUME    server->   u64 durable sequence number: the highest BATCH
                     seq captured by a checkpoint (0 = fresh session)
ACK       server->   u64 durable sequence number, sent after every
                     background checkpoint; the client drops its
                     replay buffer up to and including it
========  =========  =============================================

HELLO: there is one client and one server shape, both fixed-size.
The client names the engine backend it wants (``lattice2d``, or
``shb`` on a prediction server -- each server grants the one engine it
runs -- or all-NUL for the default) and its feature flags
(:data:`FLAG_CBATCH` asks to send CBATCH frames); the reply names the
backend the session got, echoes the feature bits it granted, and
carries the **worker count** -- the fan-out of the multi-node gateway
tier (:mod:`repro.serve.cluster`), or 1 on a single-node server (see
``docs/SCALE_OUT.md``).  A HELLO of another version or another length
is refused with a typed ``ERR_VERSION`` ERROR frame, a backend the
server does not run with ``ERR_BACKEND``, and a CBATCH request a
prediction server cannot ingest with ``ERR_COMPRESS`` -- a request is
never silently downgraded.

Durability: every BATCH carries a u64 sequence number, assigned
1, 2, 3... by the client.  The server requires contiguous sequencing;
on a durable session (one that sent RESUME) an already-applied seq is
*skipped idempotently* (its credit refunded), which is what makes a
reconnect replay safe, while a gap is an ERR_PROTOCOL.

Like the trace format, the BATCH columns travel in the *sender's*
byte order with an explicit flag, so the common same-order case is
bulk copies and a foreign-order peer pays one in-place ``byteswap``.
Locations are interned client-side; the table field ships only the
locations *new* since the previous BATCH (ids are allocated densely
in first-seen order, exactly like
:class:`~repro.engine.batch.LocationInterner`), and may be empty when
the client keeps its table private -- the hot path then carries no
JSON at all and race reports name interned ids.

Every decoding function here validates **before it allocates**: frame
lengths are bounded by the negotiated maximum before the payload is
read, and a BATCH header whose declared column lengths disagree with
the actual payload size is rejected before any column is materialized
(mirroring :func:`repro.engine.tracefile.read_trace`'s
header-vs-file-size bound check).  All violations raise
:class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from repro.core.reports import AccessKind, RaceReport
from repro.engine.batch import OP_READ, OP_WRITE, EventBatch
from repro.engine.tracefile import _decode_table, _encode_table
from repro.errors import ProtocolError, TraceError

__all__ = [
    "PROTOCOL_MAGIC",
    "PROTOCOL_VERSION",
    "BACKEND_NAME_SIZE",
    "DEFAULT_MAX_FRAME",
    "FRAME_HEADER_SIZE",
    "FLAG_CBATCH",
    "BYE_RELEASE",
    "FRAME_HELLO",
    "FRAME_BATCH",
    "FRAME_CBATCH",
    "FRAME_CREDIT",
    "FRAME_RACES",
    "FRAME_ERROR",
    "FRAME_BYE",
    "FRAME_RESUME",
    "FRAME_ACK",
    "FRAME_NAMES",
    "ERR_PROTOCOL",
    "ERR_VERSION",
    "ERR_FRAME_TOO_LARGE",
    "ERR_BAD_CRC",
    "ERR_MALFORMED_BATCH",
    "ERR_DETECTOR",
    "ERR_IDLE_TIMEOUT",
    "ERR_CREDIT_OVERRUN",
    "ERR_SHUTTING_DOWN",
    "ERR_CHECKPOINT",
    "ERR_BACKEND",
    "ERR_COMPRESS",
    "ERROR_NAMES",
    "MAX_SESSION_TOKEN",
    "valid_session_token",
    "encode_frame",
    "parse_frame_header",
    "check_frame_length",
    "check_payload_crc",
    "encode_hello",
    "decode_hello",
    "encode_hello_reply",
    "decode_hello_reply",
    "encode_batch_payload",
    "decode_batch_payload",
    "encode_cbatch_payload",
    "decode_cbatch_payload",
    "max_cbatch_events",
    "check_cbatch_events",
    "validate_batch_columns",
    "encode_credit",
    "decode_credit",
    "encode_races",
    "decode_races",
    "encode_error",
    "decode_error",
    "encode_bye",
    "decode_bye",
    "encode_bye_summary",
    "decode_bye_summary",
    "encode_resume",
    "decode_resume",
    "encode_resume_reply",
    "decode_resume_reply",
    "encode_ack",
    "decode_ack",
]

PROTOCOL_MAGIC = b"RPRSERVE"
#: the one wire version: a HELLO of any other version is refused
PROTOCOL_VERSION = 5

#: fixed width of the NUL-padded backend name field in HELLO frames
BACKEND_NAME_SIZE = 16

#: HELLO feature bit: the client wants to send CBATCH frames (and the
#: server, echoing it, commits to ingesting them)
FLAG_CBATCH = 1

#: client BYE flag: the session will never be resumed, so a durable
#: session releases its checkpoint instead of writing a final one
BYE_RELEASE = 1

#: default cap on one frame's payload (negotiated down in HELLO)
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

_FRAME = struct.Struct("<IBI")
FRAME_HEADER_SIZE = _FRAME.size

FRAME_HELLO, FRAME_BATCH, FRAME_CREDIT, FRAME_RACES, FRAME_ERROR, \
    FRAME_BYE, FRAME_RESUME, FRAME_ACK, FRAME_CBATCH = range(1, 10)

FRAME_NAMES = {
    FRAME_HELLO: "HELLO",
    FRAME_BATCH: "BATCH",
    FRAME_CREDIT: "CREDIT",
    FRAME_RACES: "RACES",
    FRAME_ERROR: "ERROR",
    FRAME_BYE: "BYE",
    FRAME_RESUME: "RESUME",
    FRAME_ACK: "ACK",
    FRAME_CBATCH: "CBATCH",
}

# -- error codes (carried in ERROR frames) ------------------------------------

ERR_PROTOCOL = 1  #: generic framing violation
ERR_VERSION = 2  #: HELLO of another version or shape
ERR_FRAME_TOO_LARGE = 3  #: frame exceeds the negotiated maximum
ERR_BAD_CRC = 4  #: payload CRC32 disagrees with the header
ERR_MALFORMED_BATCH = 5  #: BATCH header lies about its column lengths
ERR_DETECTOR = 6  #: the event stream violated detector preconditions
ERR_IDLE_TIMEOUT = 7  #: session produced no frame within the idle window
ERR_CREDIT_OVERRUN = 8  #: client sent a BATCH with no credit outstanding
ERR_SHUTTING_DOWN = 9  #: server is draining (SIGTERM)
ERR_CHECKPOINT = 10  #: RESUME hit a corrupt/unloadable checkpoint
ERR_BACKEND = 11  #: requested engine backend refused
ERR_COMPRESS = 12  #: CBATCH feature refused, or a malformed CBATCH frame

ERROR_NAMES = {
    ERR_PROTOCOL: "protocol",
    ERR_VERSION: "version",
    ERR_FRAME_TOO_LARGE: "frame-too-large",
    ERR_BAD_CRC: "bad-crc",
    ERR_MALFORMED_BATCH: "malformed-batch",
    ERR_DETECTOR: "detector",
    ERR_IDLE_TIMEOUT: "idle-timeout",
    ERR_CREDIT_OVERRUN: "credit-overrun",
    ERR_SHUTTING_DOWN: "shutting-down",
    ERR_CHECKPOINT: "checkpoint",
    ERR_BACKEND: "backend",
    ERR_COMPRESS: "compress",
}

#: magic, version, client max frame, requested backend, feature flags
_HELLO_C = struct.Struct("<8sII16sI")
#: magic, version, credit, max frame, flags (0), granted backend,
#: granted feature flags, engine worker count
_HELLO_S = struct.Struct("<8sIIII16sII")
_HELLO_VERSION = struct.Struct("<8sI")  # the prefix every version shares
#: endian flag, n_events, table_len, seq
_BATCH_HEADER = struct.Struct("<B7xQQQ")
#: endian flag, block width, expanded n_events, n_blocks, n_rules,
#: table_len, seq -- the CBATCH header
_CBATCH_HEADER = struct.Struct("<B3xIQQQQQ")
_CBATCH_LEN = struct.Struct("<I")  # one per-block length entry
_CBATCH_RULE = struct.Struct("<II")  # (block id, repeat count)
#: ceiling on a CBATCH block width -- mirrors the RPR2TRZ container's
#: bound, rejecting absurd widths before the length table is read
_MAX_CBATCH_WIDTH = 2 ** 20
_CREDIT = struct.Struct("<I")
_ERROR = struct.Struct("<H")
_BYE_S = struct.Struct("<QQ")  # events ingested, races reported
_SEQ = struct.Struct("<Q")  # RESUME reply / ACK durable sequence number

#: fixed column item sizes (u8 / i32 / i32), as in the trace format
_OPS_SIZE = array("B").itemsize
_INT_SIZE = array("i").itemsize
_PER_EVENT = _OPS_SIZE + 2 * _INT_SIZE


def _native_flag() -> int:
    return 0 if sys.byteorder == "little" else 1


# -- framing ------------------------------------------------------------------


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """One wire frame: header (length, type, CRC32) plus payload."""
    if ftype not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type {ftype}")
    return _FRAME.pack(len(payload), ftype, zlib.crc32(payload)) + payload


def parse_frame_header(head: bytes) -> Tuple[int, int, int]:
    """Unpack a 9-byte frame header; returns ``(length, type, crc)``."""
    if len(head) < FRAME_HEADER_SIZE:
        raise ProtocolError(
            f"truncated frame header ({len(head)} of "
            f"{FRAME_HEADER_SIZE} bytes)"
        )
    length, ftype, crc = _FRAME.unpack(head[:FRAME_HEADER_SIZE])
    if ftype not in FRAME_NAMES:
        raise ProtocolError(f"unknown frame type {ftype}")
    return length, ftype, crc


def check_frame_length(length: int, max_frame: int) -> None:
    """Reject an oversized frame *before* its payload is read."""
    if length > max_frame:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds the negotiated "
            f"maximum of {max_frame}",
            code=ERR_FRAME_TOO_LARGE,
        )


def check_payload_crc(payload: bytes, crc: int) -> None:
    """Verify the header CRC against the received payload."""
    actual = zlib.crc32(payload)
    if actual != crc:
        raise ProtocolError(
            f"frame CRC mismatch: header says {crc:#010x}, payload "
            f"hashes to {actual:#010x}",
            code=ERR_BAD_CRC,
        )


# -- HELLO --------------------------------------------------------------------


def _pack_backend(backend: Optional[str]) -> bytes:
    """The 16-byte field value for a backend name (``None`` = all-NUL,
    meaning "server default")."""
    name = backend or ""
    try:
        raw = name.encode("ascii")
    except UnicodeEncodeError:
        raise ProtocolError(
            f"backend name {name!r} is not ASCII"
        ) from None
    if len(raw) > BACKEND_NAME_SIZE:
        raise ProtocolError(
            f"backend name {name!r} exceeds {BACKEND_NAME_SIZE} bytes"
        )
    if b"\x00" in raw:
        raise ProtocolError(f"backend name {name!r} contains NUL")
    return raw  # struct "16s" NUL-pads on pack


def _unpack_backend(raw: bytes) -> Optional[str]:
    name = raw.rstrip(b"\x00")
    if not name:
        return None
    if b"\x00" in name:
        raise ProtocolError("backend name field has embedded NUL")
    try:
        return name.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("backend name field is not ASCII") from None


def _check_hello(payload: bytes, shape: struct.Struct, what: str) -> None:
    """Refuse anything but the one HELLO shape: a foreign magic is a
    framing fault, another version or length (a truncated magic
    included) an ``ERR_VERSION``."""
    if payload[:8] != PROTOCOL_MAGIC[:len(payload)]:
        raise ProtocolError(f"bad protocol magic {bytes(payload[:8])!r}")
    if len(payload) >= _HELLO_VERSION.size:
        version = _HELLO_VERSION.unpack_from(payload)[1]
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"{what} speaks protocol version {version}, this peer "
                f"only {PROTOCOL_VERSION}",
                code=ERR_VERSION,
            )
    if len(payload) != shape.size:
        raise ProtocolError(
            f"{what} of {len(payload)} bytes; protocol version "
            f"{PROTOCOL_VERSION} sends {shape.size}",
            code=ERR_VERSION,
        )


def encode_hello(
    max_frame: int = DEFAULT_MAX_FRAME,
    backend: Optional[str] = None,
    features: int = 0,
) -> bytes:
    """The client HELLO.  ``backend`` requests an engine backend for
    the session (``None`` keeps the server default); ``features`` is
    the flag word (:data:`FLAG_CBATCH`)."""
    return _HELLO_C.pack(
        PROTOCOL_MAGIC, PROTOCOL_VERSION, max_frame,
        _pack_backend(backend), features,
    )


def decode_hello(payload: bytes) -> Tuple[int, Optional[str], int]:
    """Returns ``(client_max_frame, requested_backend, features)``.
    Another version or length raises ``ERR_VERSION``, so the server
    answers it with a typed ERROR frame."""
    _check_hello(payload, _HELLO_C, "client HELLO")
    _magic, _version, max_frame, raw, features = _HELLO_C.unpack(payload)
    return max_frame, _unpack_backend(raw), features


def encode_hello_reply(
    credit: int,
    max_frame: int,
    backend: Optional[str] = None,
    features: int = 0,
    workers: int = 1,
) -> bytes:
    """The server HELLO reply: ``backend`` names the backend the
    session got, ``features`` the granted flag word, and ``workers``
    the engine-worker fan-out behind this listener (a single-node
    server says 1, the gateway tier its worker count)."""
    if workers < 1:
        raise ProtocolError(f"worker count must be positive, got {workers}")
    return _HELLO_S.pack(
        PROTOCOL_MAGIC, PROTOCOL_VERSION, credit, max_frame, 0,
        _pack_backend(backend), features, workers,
    )


def decode_hello_reply(
    payload: bytes,
) -> Tuple[int, int, Optional[str], int, int]:
    """Returns ``(initial_credit, max_frame, backend, features,
    workers)``."""
    _check_hello(payload, _HELLO_S, "server HELLO reply")
    (_magic, _version, credit, max_frame, _flags, raw, features,
     workers) = _HELLO_S.unpack(payload)
    if workers < 1:
        raise ProtocolError(f"HELLO reply claims {workers} engine workers")
    return credit, max_frame, _unpack_backend(raw), features, workers


# -- BATCH --------------------------------------------------------------------


def _decode_shipped_table(raw: memoryview, frame: str) -> List:
    """A shipped location-table delta, decoded by the strict table
    codec the trace formats use: a malformed, duplicate or unhashable
    entry is a malformed batch, never a crash."""
    try:
        return _decode_table(bytes(raw)).locations()
    except TraceError as exc:
        raise ProtocolError(f"bad {frame} location table ({exc})") from None


def encode_batch_payload(
    batch: EventBatch, new_locations: Sequence = (), seq: int = 0
) -> bytes:
    """Serialise one batch (plus the locations newly interned for it).

    ``new_locations`` are the table entries whose ids start where the
    receiver's table currently ends; pass ``()`` to keep the table
    client-side (race reports then name interned ids).  ``seq`` is the
    client-assigned sequence number (1, 2, 3...); the server enforces
    contiguity and uses it for idempotent replay after a RESUME.
    """
    table = _encode_table(new_locations) if new_locations else b""
    head = _BATCH_HEADER.pack(_native_flag(), len(batch), len(table), seq)
    return b"".join(
        (head, table, batch.ops.tobytes(), batch.a.tobytes(),
         batch.b.tobytes())
    )


def decode_batch_payload(
    payload: bytes,
) -> Tuple[EventBatch, Optional[List], int]:
    """Decode a BATCH payload into ``(batch, new_locations_or_None,
    seq)``.

    The declared column lengths are checked against the payload size
    *before* any column (or the table) is allocated: a header that
    lies about ``n_events`` or ``table_len`` is rejected outright,
    exactly like :func:`~repro.engine.tracefile.read_trace` rejects a
    lying trace-file header against the bytes on disk.
    """
    if len(payload) < _BATCH_HEADER.size:
        raise ProtocolError(
            f"truncated BATCH header ({len(payload)} of "
            f"{_BATCH_HEADER.size} bytes)"
        )
    endian, n_events, table_len, seq = _BATCH_HEADER.unpack_from(payload)
    if endian not in (0, 1):
        raise ProtocolError(f"bad endianness flag {endian} in BATCH")
    need = _BATCH_HEADER.size + table_len + n_events * _PER_EVENT
    if need != len(payload):
        raise ProtocolError(
            f"lying BATCH header: {n_events} events and a "
            f"{table_len}-byte table need {need} payload bytes, "
            f"frame carries {len(payload)}"
        )
    view = memoryview(payload)
    table_off = _BATCH_HEADER.size
    ops_off = table_off + table_len
    a_off = ops_off + n_events * _OPS_SIZE
    b_off = a_off + n_events * _INT_SIZE
    locations: Optional[List] = None
    if table_len:
        locations = _decode_shipped_table(view[table_off:ops_off], "BATCH")
    ops = array("B")
    av = array("i")
    bv = array("i")
    ops.frombytes(view[ops_off:a_off])
    av.frombytes(view[a_off:b_off])
    bv.frombytes(view[b_off:])
    if endian != _native_flag():
        av.byteswap()
        bv.byteswap()
    return EventBatch(ops, av, bv), locations, seq


def encode_cbatch_payload(
    ctrace, new_locations: Sequence = (), seq: int = 0
) -> bytes:
    """Serialise one :class:`~repro.compress.CompressedTrace` (plus
    the locations newly interned for it) as a CBATCH payload.

    The wire shape is the RPR2TRZ section layout minus the per-section
    CRCs (the framing layer already CRCs the whole payload): header,
    optional location-table JSON, u32 per-block lengths, the unique
    blocks' three columns concatenated, then the ``(block id, repeat)``
    rule pairs.  ``seq`` follows the BATCH discipline exactly --
    CBATCH frames share the session's one sequence space.
    """
    table = _encode_table(new_locations) if new_locations else b""
    blocks = ctrace.blocks
    head = _CBATCH_HEADER.pack(
        _native_flag(), ctrace.block_width, ctrace.n_events,
        len(blocks), len(ctrace.rules), len(table), seq,
    )
    lengths = b"".join(_CBATCH_LEN.pack(len(block)) for block in blocks)
    rules = b"".join(
        _CBATCH_RULE.pack(bid, rep) for bid, rep in ctrace.rules
    )
    return b"".join(
        [head, table, lengths]
        + [block.ops.tobytes() for block in blocks]
        + [block.a.tobytes() for block in blocks]
        + [block.b.tobytes() for block in blocks]
        + [rules]
    )


def decode_cbatch_payload(payload: bytes):
    """Decode a CBATCH payload into ``(ctrace, new_locations_or_None,
    seq)`` without expanding it.

    Validation order mirrors :func:`decode_batch_payload` and the
    RPR2TRZ reader: the header's *fixed-size* claims (table, length
    section, rules) are bounded against the payload before anything is
    allocated, each declared block length must satisfy ``0 < len <=
    block_width``, and only then is the exact payload size recomputed
    from the now-trusted lengths and required to match -- a header that
    lies about any count is rejected outright.  Rules must reference
    existing blocks with positive repeats and expand to exactly the
    declared event count, so a decoded trace is structurally sound
    before it reaches an engine.
    """
    from repro.compress.blocks import CompressedTrace

    if len(payload) < _CBATCH_HEADER.size:
        raise ProtocolError(
            f"truncated CBATCH header ({len(payload)} of "
            f"{_CBATCH_HEADER.size} bytes)"
        )
    (
        endian, block_width, n_events, n_blocks, n_rules, table_len, seq,
    ) = _CBATCH_HEADER.unpack_from(payload)
    if endian not in (0, 1):
        raise ProtocolError(f"bad endianness flag {endian} in CBATCH")
    if not 0 < block_width <= _MAX_CBATCH_WIDTH:
        raise ProtocolError(
            f"implausible CBATCH block width {block_width}"
        )
    fixed_need = (
        _CBATCH_HEADER.size + table_len
        + n_blocks * _CBATCH_LEN.size + n_rules * _CBATCH_RULE.size
    )
    if fixed_need > len(payload):
        raise ProtocolError(
            f"lying CBATCH header: {n_blocks} blocks, {n_rules} rules "
            f"and a {table_len}-byte table need at least {fixed_need} "
            f"payload bytes, frame carries {len(payload)}"
        )
    view = memoryview(payload)
    table_off = _CBATCH_HEADER.size
    len_off = table_off + table_len
    ops_off = len_off + n_blocks * _CBATCH_LEN.size
    lengths = array("I")
    lengths.frombytes(view[len_off:ops_off])
    if sys.byteorder != "little":
        lengths.byteswap()
    for i, length in enumerate(lengths):
        if not 0 < length <= block_width:
            raise ProtocolError(
                f"CBATCH block {i} claims {length} events "
                f"(width {block_width})"
            )
    total = sum(lengths)
    need = fixed_need + total * _PER_EVENT
    if need != len(payload):
        raise ProtocolError(
            f"lying CBATCH header: blocks sum to {total} events, "
            f"needing {need} payload bytes, frame carries {len(payload)}"
        )
    locations: Optional[List] = None
    if table_len:
        locations = _decode_shipped_table(view[table_off:len_off], "CBATCH")
    a_off = ops_off + total * _OPS_SIZE
    b_off = a_off + total * _INT_SIZE
    rule_off = b_off + total * _INT_SIZE
    foreign = endian != _native_flag()
    blocks: List[EventBatch] = []
    o, a, b = ops_off, a_off, b_off
    for length in lengths:
        ops = array("B")
        av = array("i")
        bv = array("i")
        ops.frombytes(view[o: o + length])
        av.frombytes(view[a: a + length * _INT_SIZE])
        bv.frombytes(view[b: b + length * _INT_SIZE])
        if foreign:
            av.byteswap()
            bv.byteswap()
        blocks.append(EventBatch(ops, av, bv))
        o += length
        a += length * _INT_SIZE
        b += length * _INT_SIZE
    rules: List[Tuple[int, int]] = []
    expanded = 0
    for i in range(n_rules):
        bid, rep = _CBATCH_RULE.unpack_from(
            payload, rule_off + i * _CBATCH_RULE.size
        )
        if bid >= n_blocks:
            raise ProtocolError(
                f"CBATCH rule {i} references block {bid} of {n_blocks}"
            )
        if rep < 1:
            raise ProtocolError(f"CBATCH rule {i} has zero repeat count")
        if rules and rules[-1][0] == bid:
            rules[-1] = (bid, rules[-1][1] + rep)
        else:
            rules.append((bid, rep))
        expanded += rep * lengths[bid]
    if expanded != n_events:
        raise ProtocolError(
            f"CBATCH rules expand to {expanded} events but the header "
            f"claims {n_events}"
        )
    return CompressedTrace(block_width, blocks, rules), locations, seq


def max_cbatch_events(max_frame: int) -> int:
    """The most events a CBATCH may expand to under ``max_frame``:
    what a raw BATCH of that size could carry (9 bytes per event).  A
    front end pays for the expansion, not for the wire bytes: the
    gateway materializes it to route it and the server's memoized
    kernel walks every repeat, so without this cap a 93-byte frame
    could claim 17 billion events."""
    return max_frame // _PER_EVENT


def check_cbatch_events(n_events: int, max_frame: int) -> None:
    """Refuse a CBATCH expanding past :func:`max_cbatch_events`."""
    limit = max_cbatch_events(max_frame)
    if n_events > limit:
        raise ProtocolError(
            f"CBATCH expands to {n_events} events, over the {limit} a "
            f"raw BATCH under the {max_frame}-byte frame cap can carry",
            code=ERR_MALFORMED_BATCH,
        )


def validate_batch_columns(
    batch: EventBatch, table_size: Optional[int] = None
) -> None:
    """Column-level sanity checks before the batch reaches a kernel.

    Rejects unknown opcodes and negative access location ids (and,
    when the session ships its location table, access ids beyond the
    table) -- the structural stream itself (fork ids, use-after-halt,
    join discipline) is validated by the engine kernels, which raise
    :class:`~repro.errors.DetectorError` exactly as they do for local
    ingestion.  Vectorized under numpy.
    """
    if len(batch) == 0:
        return
    ops_np = _np.frombuffer(batch.ops, dtype=_np.uint8)
    b_np = _np.frombuffer(batch.b, dtype=_np.int32)
    if ops_np.max() > OP_WRITE:
        raise ProtocolError(f"unknown opcode {int(ops_np.max())} in BATCH")
    access = ops_np >= OP_READ  # OP_READ or OP_WRITE
    if access.any():
        lids = b_np[access]
        lo = int(lids.min())
        if lo < 0:
            raise ProtocolError(f"negative location id {lo} in BATCH access")
        if table_size is not None and int(lids.max()) >= table_size:
            raise ProtocolError(
                f"access names location id {int(lids.max())} but "
                f"the session table has {table_size} entries"
            )


# -- CREDIT / ERROR / BYE -----------------------------------------------------


def encode_credit(amount: int) -> bytes:
    return _CREDIT.pack(amount)


def decode_credit(payload: bytes) -> int:
    if len(payload) != _CREDIT.size:
        raise ProtocolError(f"bad CREDIT payload length {len(payload)}")
    return _CREDIT.unpack(payload)[0]


def encode_error(code: int, message: str) -> bytes:
    return _ERROR.pack(code) + message.encode("utf-8", "replace")


def decode_error(payload: bytes) -> Tuple[int, str]:
    if len(payload) < _ERROR.size:
        raise ProtocolError(f"bad ERROR payload length {len(payload)}")
    code = _ERROR.unpack_from(payload)[0]
    return code, payload[_ERROR.size:].decode("utf-8", "replace")


def encode_bye(release: bool = False) -> bytes:
    """A client BYE payload: empty, or the RELEASE flag byte."""
    return bytes([BYE_RELEASE]) if release else b""


def decode_bye(payload: bytes) -> bool:
    """A client BYE payload; returns whether it releases the session."""
    if len(payload) > 1 or (payload and payload[0] & ~BYE_RELEASE):
        raise ProtocolError(f"bad BYE payload {payload[:8].hex()}")
    return payload == encode_bye(True)


def encode_bye_summary(events: int, races: int) -> bytes:
    return _BYE_S.pack(events, races)


def decode_bye_summary(payload: bytes) -> Tuple[int, int]:
    if len(payload) != _BYE_S.size:
        raise ProtocolError(f"bad BYE payload length {len(payload)}")
    events, races = _BYE_S.unpack(payload)
    return events, races


# -- RESUME / ACK -------------------------------------------------------------

#: session tokens become checkpoint file names, so they are restricted
#: to a filesystem- and traversal-safe alphabet
MAX_SESSION_TOKEN = 128
_TOKEN_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def valid_session_token(token: str) -> bool:
    """Whether ``token`` is safe to use as a checkpoint file stem."""
    return (
        0 < len(token) <= MAX_SESSION_TOKEN
        and not token.startswith(".")
        and set(token) <= _TOKEN_CHARS
    )


def encode_resume(token: str) -> bytes:
    if not valid_session_token(token):
        raise ProtocolError(f"bad session token {token!r}")
    return token.encode("ascii")


def decode_resume(payload: bytes) -> str:
    try:
        token = payload.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("session token is not ASCII") from None
    if not valid_session_token(token):
        raise ProtocolError(f"bad session token {token!r}")
    return token


def encode_resume_reply(durable_seq: int) -> bytes:
    return _SEQ.pack(durable_seq)


def decode_resume_reply(payload: bytes) -> int:
    if len(payload) != _SEQ.size:
        raise ProtocolError(
            f"bad RESUME reply payload length {len(payload)}"
        )
    return _SEQ.unpack(payload)[0]


def encode_ack(durable_seq: int) -> bytes:
    return _SEQ.pack(durable_seq)


def decode_ack(payload: bytes) -> int:
    if len(payload) != _SEQ.size:
        raise ProtocolError(f"bad ACK payload length {len(payload)}")
    return _SEQ.unpack(payload)[0]


# -- RACES --------------------------------------------------------------------


def encode_races(reports: Iterable[RaceReport], seq: int = 0) -> bytes:
    """JSON-encode race reports with interned location ids.

    ``seq`` names the BATCH these reports were detected in, so a
    resuming client can key them idempotently.  ``prior_repr`` is a
    representative thread id for every built-in detector; anything
    non-JSON degrades to its ``repr`` rather than failing the stream.
    """
    rows = [
        {
            "loc": r.loc,
            "task": r.task,
            "kind": r.kind.value,
            "prior_kind": r.prior_kind.value,
            "prior_repr": r.prior_repr,
            "op_index": r.op_index,
        }
        for r in reports
    ]
    return json.dumps(
        {"seq": seq, "reports": rows}, separators=(",", ":"), default=repr
    ).encode("utf-8")


def decode_races(payload: bytes) -> Tuple[int, List[RaceReport]]:
    """Decode a RACES payload into ``(seq, reports)``."""
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        raise ProtocolError(f"corrupt RACES payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("corrupt RACES payload: not an object")
    rows = obj.get("reports")
    seq = obj.get("seq", 0)
    if not isinstance(rows, list) or not isinstance(seq, int):
        raise ProtocolError("corrupt RACES payload: bad object shape")
    out: List[RaceReport] = []
    try:
        for row in rows:
            out.append(
                RaceReport(
                    loc=row["loc"],
                    task=row["task"],
                    kind=AccessKind(row["kind"]),
                    prior_kind=AccessKind(row["prior_kind"]),
                    prior_repr=row.get("prior_repr"),
                    op_index=row.get("op_index", -1),
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"corrupt RACES payload: {exc!r}") from None
    return seq, out
