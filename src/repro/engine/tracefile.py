"""Compact binary trace files: capture once, replay into any detector.

The JSONL format of :mod:`repro.trace` is self-describing but pays JSON
encode/decode per event.  The engine's trace format stores the columnar
batch representation directly, so a 100k-event workload is written and
read back as three bulk array copies plus one small location table.

Layout (all header integers little-endian)::

    offset  size  field
    0       8     magic  b"RPR2TRC\\x01"
    8       1     endianness of the array payload (0=little, 1=big)
    9       3     reserved (zero)
    12      4     version (currently 1)
    16      8     n_events
    24      8     byte length L of the location table
    32      L     location table: UTF-8 JSON list, one entry per
                  interned location id, using the same tagged codec as
                  the JSONL format (:func:`repro.trace.encode_location`)
    32+L    n     opcode column   (u8[n])
    ...     4n    primary column  (i32[n])
    ...     4n    secondary column(i32[n])

The array payload is written native-endian for zero-copy speed; the
flag lets a reader on the other byte order ``byteswap()`` on load.

Reading is zero-copy-friendly: :func:`read_trace` ``mmap``\\ s real
files, so each column is materialized with exactly one copy (straight
from the page cache into its ``array``), and a foreign-endian payload
is ``byteswap()``\\ ed *in place* on that single materialized array --
never via an intermediate bytes object.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import struct
import sys
from array import array
from typing import IO, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.batch import EventBatch, LocationInterner
from repro.errors import TraceError
from repro.trace import encode_location

__all__ = [
    "MAGIC",
    "VERSION",
    "write_trace",
    "read_trace",
    "record_trace",
    "is_tracefile",
]

MAGIC = b"RPR2TRC\x01"
#: the retired block-dedup container's magic (this one with ``Z`` for
#: ``C``): still recognised, so such a file gets a typed refusal that
#: names the retirement rather than a bare "bad magic"
_RETIRED_MAGIC = MAGIC[:6] + b"Z\x01"
VERSION = 1

#: what :func:`read_trace` and :func:`write_trace` open by name
PathArg = Union[str, os.PathLike]

_HEADER = struct.Struct("<8sB3xIQQ")


def write_trace(
    fp: Union[PathArg, IO[bytes]],
    batch: EventBatch,
    interner: LocationInterner,
) -> int:
    """Write one batch + its location table to a path or a binary
    stream; returns events written."""
    if isinstance(fp, (str, os.PathLike)):
        with open(fp, "wb") as handle:
            return write_trace(handle, batch, interner)
    table = _encode_table(interner.locations())
    endian = 0 if sys.byteorder == "little" else 1
    fp.write(_HEADER.pack(MAGIC, endian, VERSION, len(batch), len(table)))
    fp.write(table)
    fp.write(batch.ops.tobytes())
    fp.write(batch.a.tobytes())
    fp.write(batch.b.tobytes())
    return len(batch)


#: column item sizes, fixed by the format (u8 / i32 / i32)
_OPS_SIZE = array("B").itemsize
_INT_SIZE = array("i").itemsize
_PER_EVENT = _OPS_SIZE + 2 * _INT_SIZE


def _native_flag() -> int:
    return 0 if sys.byteorder == "little" else 1


def _bytes_remaining(fp: IO[bytes]) -> Union[int, None]:
    """How many bytes are left on ``fp``, or None when unseekable."""
    try:
        pos = fp.tell()
        end = fp.seek(0, 2)
        fp.seek(pos)
    except (AttributeError, OSError, ValueError):
        return None
    return end - pos


def _check_header(head: bytes) -> Tuple[int, int, int]:
    """Unpack + validate a header; returns (endian, n_events, table_len)."""
    magic = head[:len(MAGIC)]
    if magic == _RETIRED_MAGIC:
        raise TraceError(
            f"{magic!r} is the compressed trace container, a retired "
            f"format; only {MAGIC!r} engine traces are read"
        )
    if len(magic) == len(MAGIC) and magic != MAGIC:
        raise TraceError(f"not an engine trace (magic {magic!r})")
    if len(head) < _HEADER.size:
        raise TraceError("truncated engine trace header")
    _magic, endian, version, n_events, table_len = _HEADER.unpack(head)
    if version != VERSION:
        raise TraceError(f"unsupported engine trace version {version}")
    if endian not in (0, 1):
        raise TraceError(f"bad endianness flag {endian} in engine trace")
    return endian, n_events, table_len


def _check_bound(n_events: int, table_len: int, remaining: int) -> None:
    need = table_len + n_events * _PER_EVENT
    if need > remaining:
        raise TraceError(
            f"truncated or lying engine trace: header claims {need} "
            f"payload bytes ({n_events} events, {table_len}-byte "
            f"table) but only {remaining} remain"
        )


def _encode_table(locations: Iterable[Any]) -> bytes:
    return json.dumps(
        [encode_location(loc) for loc in locations],
        separators=(",", ":"),
    ).encode("utf-8")


def _corrupt_table(why: str) -> TraceError:
    return TraceError(f"corrupt engine trace location table: {why}")


class _Label:
    """A decoded ``{"s": x}`` entry, boxed until its container is seen.

    ``json`` hands objects to the hook innermost first, so a bare ``x``
    could not tell ``{"s": {"s": x}}`` from ``{"s": x}``.  A box inside
    a list (a table entry or a ``"t"`` element) unboxes to ``x``; a box
    as the value of ``"s"`` or ``"t"`` is an object nested where the
    codec never writes one, and is refused.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value


def _unbox(items: List[Any]) -> List[Any]:
    return [x.value if type(x) is _Label else x for x in items]


def _decode_table(raw_table: bytes) -> LocationInterner:
    """Decode a location table in one C-level ``json`` pass.

    The ``object_hook`` turns the tagged codec of
    :func:`repro.trace.encode_location` back into locations as the
    scanner meets them: ``{"t": [...]}`` becomes a tuple and
    ``{"s": x}`` becomes ``x``.  The interner is then one
    ``dict(zip(...))``, whose length catches duplicates on the decoded
    values (``1``/``True``/``1.0``, ``"a"``/``{"s": "a"}``).  Every
    malformed table raises :class:`TraceError`.
    """
    # Checked on the raw bytes: the hook would turn a top-level
    # ``{"t": [...]}`` or ``{"s": [...]}`` into a tuple or a list.
    if raw_table.lstrip()[:1] != b"[":
        raise _corrupt_table("not a list")
    labels: List[_Label] = []

    def hook(obj: Dict[str, Any]) -> Any:
        if "t" in obj:
            items = obj["t"]
            if type(items) is list:
                return tuple(_unbox(items) if labels else items)
            if type(items) is str:
                return tuple(items)  # one location per character
            raise _corrupt_table(f"bad tuple encoding {obj!r}")
        if "s" in obj:
            value = obj["s"]
            if type(value) is tuple or type(value) is _Label:
                raise _corrupt_table(f"nested object in {obj!r}")
            label = _Label(value)
            labels.append(label)
            return label
        raise _corrupt_table(f"bad location encoding {obj!r}")

    try:
        locs = json.loads(raw_table.decode("utf-8"), object_hook=hook)
    except (ValueError, RecursionError) as exc:
        raise _corrupt_table(str(exc)) from None
    if labels:
        locs = _unbox(locs)
    try:
        return LocationInterner.from_locations(locs)
    except TypeError:
        raise _corrupt_table("unhashable location") from None
    except ValueError:
        raise TraceError("duplicate locations in trace table") from None


def _try_mmap(fp: IO[bytes]) -> Optional[Tuple[_mmap.mmap, int]]:
    """Map ``fp`` read-only if it is a real file; returns ``(mmap,
    current position)`` or None when the stream cannot be mapped
    (pipe, BytesIO, zero-length file, ...)."""
    try:
        fileno = fp.fileno()
        pos = fp.tell()
        mm = _mmap.mmap(fileno, 0, access=_mmap.ACCESS_READ)
    except (AttributeError, OSError, ValueError):
        return None
    return mm, pos


def read_trace(
    fp: Union[PathArg, IO[bytes]]
) -> Tuple[EventBatch, LocationInterner]:
    """Read a trace file (a path or a binary stream) back into
    ``(batch, interner)``.

    Anything but an ``RPR2TRC`` trace raises a typed
    :class:`~repro.errors.TraceError` -- never a ``ValueError`` or a
    bare ``struct`` error; a file of the retired compressed container
    format gets one that says so.

    Every header field is validated before it sizes an allocation: a
    corrupt or adversarial ``n_events`` / ``table_len`` is rejected
    against the actual bytes remaining on a seekable stream rather
    than handed to ``read()``, and every corruption mode (bad magic,
    bad version, bad endian flag, truncated table or payload, a
    header that lies about lengths) raises :class:`TraceError`.

    Real files are ``mmap``\\ ed, so each column is built with a single
    copy out of the page cache and a foreign-endian payload is swapped
    in place on the materialized array.  Unmappable streams (pipes,
    ``BytesIO``) take a ``read()``-based path with the same checks.
    """
    if isinstance(fp, (str, os.PathLike)):
        with open(fp, "rb") as handle:
            return read_trace(handle)
    mapped = _try_mmap(fp)
    if mapped is None:
        return _read_trace_stream(fp)
    mm, base = mapped
    try:
        view = memoryview(mm)
        try:
            endian, n_events, table_len = _check_header(
                bytes(view[base : base + _HEADER.size])
            )
            _check_bound(n_events, table_len, len(mm) - base - _HEADER.size)
            table_off = base + _HEADER.size
            ops_off = table_off + table_len
            a_off = ops_off + n_events * _OPS_SIZE
            b_off = a_off + n_events * _INT_SIZE
            end = b_off + n_events * _INT_SIZE
            interner = _decode_table(
                bytes(view[table_off : table_off + table_len])
            )
            ops = array("B")
            av = array("i")
            bv = array("i")
            # One copy per column: straight from the mapping into the
            # array buffer, no intermediate bytes objects.
            ops.frombytes(view[ops_off:a_off])
            av.frombytes(view[a_off:b_off])
            bv.frombytes(view[b_off:end])
        finally:
            view.release()
        fp.seek(end)
    finally:
        mm.close()
    if endian != _native_flag():
        av.byteswap()
        bv.byteswap()
    return EventBatch(ops, av, bv), interner


def _read_trace_stream(
    fp: IO[bytes],
) -> Tuple[EventBatch, LocationInterner]:
    """The ``read()``-based path for streams that cannot be mapped."""
    endian, n_events, table_len = _check_header(fp.read(_HEADER.size))
    remaining = _bytes_remaining(fp)
    if remaining is not None:
        _check_bound(n_events, table_len, remaining)
    raw_table = fp.read(table_len)
    if len(raw_table) != table_len:
        raise TraceError("truncated engine trace location table")
    interner = _decode_table(raw_table)
    ops = array("B")
    av = array("i")
    bv = array("i")
    for column in (ops, av, bv):
        want = n_events * column.itemsize
        raw = fp.read(want)
        if len(raw) != want:
            raise TraceError("truncated engine trace payload")
        column.frombytes(raw)
    if endian != _native_flag():
        # In place on the one materialized array -- never via an
        # intermediate swapped copy.
        av.byteswap()
        bv.byteswap()
    return EventBatch(ops, av, bv), interner


def record_trace(body, *args, path: Union[PathArg, IO[bytes]]) -> int:
    """Run ``body`` under a :class:`~repro.engine.batch.BatchBuilder`
    and save the captured batch; returns the number of events."""
    from repro.engine.batch import BatchBuilder
    from repro.forkjoin.interpreter import run

    builder = BatchBuilder()
    run(body, *args, observers=[builder])
    return write_trace(path, builder.batch, builder.interner)


def is_tracefile(path: PathArg) -> bool:
    """Cheap sniff: does ``path`` start with the engine-trace magic?
    A file of the retired compressed format counts too, so that
    :func:`read_trace` refuses it by name instead of a JSONL reader
    failing on its bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) in (MAGIC, _RETIRED_MAGIC)
    except OSError:
        return False
