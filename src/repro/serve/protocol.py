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
                     (all-NUL = server default) + u32 feature word
                     (reserved; front ends ignore it)
HELLO     server->   magic + u32 version + u32 initial credit +
                     u32 effective max frame size + u32 flags (0) +
                     the 16-byte granted backend + u32 feature
                     word (always 0) + u32 engine worker count (1 on
                     a single-node server, N behind a gateway)
BATCH     client->   the ``tracefile`` column layout, minus magic:
                     u8 endian flag, u64 n_events, u64 table byte
                     length, the (optional) location-table JSON,
                     then ``ops`` (u8[n]), ``a`` (i32[n]), ``b``
                     (i32[n]) -- byte-identical to the columns an
                     RPR2TRC file stores, so server-side decode is
                     bulk column copies (and, with numpy, zero-copy
                     views for validation), never per-event parsing
CREDIT    server->   u32 additional BATCH frames the client may send
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
runs -- or all-NUL for the default) and a feature word that no
feature uses any more; the reply names the backend the session got,
always carries 0 in its feature word, and carries the **worker
count** -- the fan-out of the multi-node gateway
tier (:mod:`repro.serve.cluster`), or 1 on a single-node server (see
``docs/SCALE_OUT.md``).  A HELLO of another version or another length
is refused with a typed ``ERR_VERSION`` ERROR frame and a backend the
server does not run with ``ERR_BACKEND`` -- a request is never
silently downgraded.

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
    "BYE_RELEASE",
    "FRAME_HELLO",
    "FRAME_BATCH",
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

#: client BYE flag: the session will never be resumed, so a durable
#: session releases its checkpoint instead of writing a final one
BYE_RELEASE = 1

#: default cap on one frame's payload (negotiated down in HELLO)
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

_FRAME = struct.Struct("<IBI")
FRAME_HEADER_SIZE = _FRAME.size

# Frame type 9 (CBATCH) and error code 12 (ERR_COMPRESS) belonged to the
# retired compressed-trace tier; neither is ever reused.  A type-9 frame
# now fails the unknown-frame-type check like any other.
FRAME_HELLO, FRAME_BATCH, FRAME_CREDIT, FRAME_RACES, FRAME_ERROR, \
    FRAME_BYE, FRAME_RESUME, FRAME_ACK = range(1, 9)

FRAME_NAMES = {
    FRAME_HELLO: "HELLO",
    FRAME_BATCH: "BATCH",
    FRAME_CREDIT: "CREDIT",
    FRAME_RACES: "RACES",
    FRAME_ERROR: "ERROR",
    FRAME_BYE: "BYE",
    FRAME_RESUME: "RESUME",
    FRAME_ACK: "ACK",
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
}

#: magic, version, client max frame, requested backend, feature word
#: (reserved: no feature is defined, front ends ignore it)
_HELLO_C = struct.Struct("<8sII16sI")
#: magic, version, credit, max frame, flags (0), granted backend,
#: feature word (always 0), engine worker count
_HELLO_S = struct.Struct("<8sIIII16sII")
_HELLO_VERSION = struct.Struct("<8sI")  # the prefix every version shares
#: endian flag, n_events, table_len, seq
_BATCH_HEADER = struct.Struct("<B7xQQQ")
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
    the reserved feature word, which no front end reads."""
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
    session got, ``features`` the feature word (front ends send 0),
    and ``workers`` the engine-worker fan-out behind this listener (a
    single-node server says 1, the gateway tier its worker count)."""
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


def _decode_shipped_table(raw: memoryview) -> List:
    """A shipped location-table delta, decoded by the strict table
    codec the trace format uses: a malformed, duplicate or unhashable
    entry is a malformed batch, never a crash."""
    try:
        return _decode_table(bytes(raw)).locations()
    except TraceError as exc:
        raise ProtocolError(f"bad BATCH location table ({exc})") from None


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
        locations = _decode_shipped_table(view[table_off:ops_off])
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
