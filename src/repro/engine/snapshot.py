"""Versioned, CRC-checked checkpoints of detector state.

The paper's whole point -- Θ(1) shadow words per location plus Θ(1)
union-find words per thread (Theorems 4-5) -- is what makes durable
snapshots *tractable*: the complete detector state is a compact,
well-defined cut, unlike a vector-clock detector whose history grows
with the thread count.  This module serializes that cut:

* the union-find forest (``parent`` / ``rank`` / ``label``) including
  its operation counters,
* the per-thread ``visited`` / ``halted`` / ``joined`` flags,
* the shadow columns: each location's ``read_sup`` / ``write_sup``
  (plus the space accounting peak) and the batch kernel's access
  epoch,
* the race reports found so far, the op index, the engine's event
  counter, and (when present) the location interner.

Container layout (all header integers little-endian)::

    offset  size  field
    0       8     magic  b"RPR2CKPT"
    8       1     endianness of the array payload (0=little, 1=big)
    9       3     reserved (zero)
    12      4     version (currently 1)
    16      8     payload length P
    24      4     CRC32 of bytes [0, 24) *and* the payload -- covering
                  the header means a flipped endian flag or reserved
                  byte is caught, not just payload damage
    28      P     payload: u32 JSON header length, the UTF-8 JSON
                  header, then the raw array sections in the order the
                  header's ``sections`` list declares them

The JSON header carries every scalar plus a ``sections`` table of
``[name, typecode, count]`` triples sizing the binary sections that
follow, so a reader validates *every* length against the actual bytes
before allocating.  Any mismatch -- bad magic, unsupported version, CRC
failure, truncation, a header that lies about lengths -- raises
:class:`~repro.errors.CheckpointError`; a damaged checkpoint is never
silently loaded.

Writes are crash-safe: the blob goes to a temporary file in the target
directory, is fsync'd, atomically renamed over the destination, and the
directory is fsync'd, so a reader never observes a torn checkpoint --
it sees either the old complete file or the new complete file.

:func:`state_digest` captures an engine's full state as one comparable
value; the test suite and the checkpoint benchmark use it for the
restored-engine-equals-original differential.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import time
import zlib
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.detector import RaceDetector2D
from repro.core.reports import AccessKind, RaceReport
from repro.core.shadow import EPOCH_DIRTY
from repro.engine.batch import LocationInterner
from repro.engine.ingest import BatchEngine
from repro.errors import CheckpointError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.trace import decode_location, encode_location

__all__ = [
    "MAGIC",
    "VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "engine_to_blob",
    "engine_from_blob",
    "state_digest",
    "pack_state",
    "unpack_state",
    "write_checkpoint_file",
    "read_checkpoint_file",
]

MAGIC = b"RPR2CKPT"
VERSION = 1

_HEADER = struct.Struct("<8sB3xIQI")
_HEADER_PREFIX = struct.Struct("<8sB3xIQ")  # everything before the CRC
_CRC = struct.Struct("<I")
_JSON_LEN = struct.Struct("<I")

_KINDS = (AccessKind.READ, AccessKind.WRITE)
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def _native_flag() -> int:
    return 0 if sys.byteorder == "little" else 1


def _observe(reg: MetricsRegistry, op: str, seconds: float, nbytes: int) -> None:
    """Record one save/restore against the checkpoint instruments."""
    labels = {"component": "checkpoint"}
    reg.counter(
        "checkpoint_ops_total", "checkpoint saves/restores",
        labels={**labels, "op": op},
    ).inc()
    reg.histogram(
        "checkpoint_seconds", "checkpoint save/restore latency",
        labels={**labels, "op": op},
        buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 2.0),
    ).observe(seconds)
    reg.gauge(
        "checkpoint_bytes", "size of the last checkpoint handled",
        labels=labels,
    ).set(nbytes)
    reg.gauge(
        "checkpoint_last_unixtime",
        "wall-clock time of the last checkpoint operation (age source)",
        labels=labels,
    ).set(time.time())


# -- generic container --------------------------------------------------------


def pack_state(obj: Dict[str, Any], sections: Sequence[Tuple[str, array]]) -> bytes:
    """Pack a JSON header plus named array sections into one blob.

    ``obj`` must be JSON-serializable; ``sections`` is an ordered list
    of ``(name, array)`` pairs whose typecodes and counts are recorded
    in the header so :func:`unpack_state` can size its reads exactly.
    """
    head = dict(obj)
    head["sections"] = [
        [name, arr.typecode, len(arr)] for name, arr in sections
    ]
    head_bytes = json.dumps(head, separators=(",", ":")).encode("utf-8")
    parts = [_JSON_LEN.pack(len(head_bytes)), head_bytes]
    parts.extend(arr.tobytes() for _, arr in sections)
    payload = b"".join(parts)
    prefix = _HEADER_PREFIX.pack(
        MAGIC, _native_flag(), VERSION, len(payload)
    )
    crc = zlib.crc32(payload, zlib.crc32(prefix))
    return prefix + _CRC.pack(crc) + payload


def unpack_state(blob: bytes) -> Tuple[Dict[str, Any], Dict[str, array]]:
    """Validate and unpack a blob produced by :func:`pack_state`.

    Every corruption mode raises :class:`CheckpointError`: bad magic,
    unsupported version, bad endian flag, truncated payload, CRC
    mismatch, malformed JSON header, or section lengths that disagree
    with the payload size.
    """
    if len(blob) < _HEADER.size:
        raise CheckpointError(
            f"truncated checkpoint: {len(blob)} bytes is shorter than "
            f"the {_HEADER.size}-byte header"
        )
    magic, endian, version, payload_len, crc = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"not a checkpoint (magic {magic!r})")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if endian not in (0, 1):
        raise CheckpointError(f"bad endianness flag {endian} in checkpoint")
    payload = blob[_HEADER.size:]
    if len(payload) != payload_len:
        raise CheckpointError(
            f"truncated checkpoint: header claims {payload_len} payload "
            f"bytes but {len(payload)} are present"
        )
    prefix = bytes(blob[:_HEADER_PREFIX.size])
    if zlib.crc32(payload, zlib.crc32(prefix)) != crc:
        raise CheckpointError("checkpoint failed its CRC32 check")
    if len(payload) < _JSON_LEN.size:
        raise CheckpointError("checkpoint payload too short for its header")
    (json_len,) = _JSON_LEN.unpack_from(payload)
    if _JSON_LEN.size + json_len > len(payload):
        raise CheckpointError("checkpoint JSON header overruns the payload")
    try:
        head = json.loads(
            payload[_JSON_LEN.size:_JSON_LEN.size + json_len].decode("utf-8")
        )
    except ValueError as exc:
        raise CheckpointError(
            f"corrupt checkpoint JSON header: {exc}"
        ) from None
    if not isinstance(head, dict) or not isinstance(head.get("sections"), list):
        raise CheckpointError("checkpoint JSON header is not a section table")
    arrays: Dict[str, array] = {}
    off = _JSON_LEN.size + json_len
    for entry in head["sections"]:
        try:
            name, typecode, count = entry
            arr = array(typecode)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"bad checkpoint section descriptor {entry!r}: {exc}"
            ) from None
        nbytes = count * arr.itemsize
        if off + nbytes > len(payload):
            raise CheckpointError(
                f"checkpoint section {name!r} overruns the payload"
            )
        arr.frombytes(payload[off:off + nbytes])
        if endian != _native_flag() and arr.itemsize > 1:
            arr.byteswap()
        arrays[name] = arr
        off += nbytes
    if off != len(payload):
        raise CheckpointError(
            f"checkpoint payload has {len(payload) - off} trailing bytes"
        )
    return head, arrays


def write_checkpoint_file(path: str, blob: bytes) -> None:
    """Atomically and durably write ``blob`` to ``path``.

    The blob goes to a same-directory temporary file, is flushed and
    fsync'd, renamed over ``path`` with :func:`os.replace`, and the
    directory entry itself is fsync'd -- a crash at any point leaves
    either the previous complete checkpoint or the new one, never a
    torn file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(
        directory, f".{os.path.basename(path)}.tmp.{os.getpid()}"
    )
    try:
        with open(tmp, "wb") as fp:
            fp.write(blob)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {path!r}: {exc}") from exc
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def read_checkpoint_file(path: str) -> bytes:
    """Read a checkpoint file whole; missing/unreadable files raise
    :class:`CheckpointError` (the caller decides whether that is fatal)."""
    try:
        with open(path, "rb") as fp:
            return fp.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc


# -- BatchEngine serialization ------------------------------------------------


def _check_detector(det: Any) -> RaceDetector2D:
    if not isinstance(det, RaceDetector2D):
        raise CheckpointError(
            f"only RaceDetector2D state can be checkpointed, got "
            f"{type(det).__name__}"
        )
    return det


def _encode_races(races: Sequence[RaceReport]) -> List[List[Any]]:
    return [
        [
            encode_location(r.loc),
            r.task,
            _KINDS.index(r.kind),
            _KINDS.index(r.prior_kind),
            r.prior_repr,
            r.op_index,
            r.label,
        ]
        for r in races
    ]


def _decode_races(rows: Any) -> List[RaceReport]:
    try:
        return [
            RaceReport(
                loc=decode_location(loc),
                task=task,
                kind=_KINDS[kind],
                prior_kind=_KINDS[prior_kind],
                prior_repr=prior_repr,
                op_index=op_index,
                label=label,
            )
            for loc, task, kind, prior_kind, prior_repr, op_index, label in rows
        ]
    except (TypeError, ValueError, IndexError) as exc:
        raise CheckpointError(f"corrupt race table in checkpoint: {exc}") from None


def _int_keyed(mapping: Dict[Any, Any]) -> bool:
    return all(
        type(k) is int and _I64_MIN <= k <= _I64_MAX for k in mapping
    )


def engine_to_blob(
    engine: BatchEngine, *, meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """Serialize a :class:`BatchEngine`'s full detector state.

    ``meta`` is an arbitrary JSON-serializable dict stored alongside the
    state and handed back by :func:`engine_from_blob`; the serve layer
    uses it for its sequence bookkeeping.
    """
    det = _check_detector(engine.detector)
    uf = det._uf
    sh = det.shadow
    # The epoch cache as (location, value) pairs in slot order: a slot
    # with no entry is left out, a dirty one is written as -1.
    E = sh.E
    epoch = [
        (loc, max(E[s], -1)) for loc, s in sh.slot.items() if E[s] != -1
    ] if det._epoch_cache else None

    obj: Dict[str, Any] = {
        "kind": "engine",
        "config": {
            "literal": det._literal,
            "path_compression": uf.path_compression,
            "link_by_rank": uf.link_by_rank,
            "epoch_cache": det._epoch_cache,
        },
        "op_index": det.op_index,
        "events_ingested": engine.events_ingested,
        "uf_counts": [uf.find_count, uf.union_count, uf.hop_count],
        "peak_entries": sh.peak_entries_per_loc,
        "races": _encode_races(det.races),
        "interner": (
            [encode_location(loc) for loc in engine.interner.locations()]
            if engine.interner is not None
            else None
        ),
        "cells_json": None,
        "epoch_json": None,
        "meta": meta if meta is not None else {},
    }

    sections: List[Tuple[str, array]] = [
        ("uf_parent", array("i", uf._parent)),
        ("uf_rank", array("i", uf._rank)),
        ("uf_label", array("i", uf._label)),
        ("visited", array("B", det._visited)),
        ("halted", array("B", det._halted)),
        ("joined", array("B", det._joined)),
    ]

    if _int_keyed(sh.slot):
        # The common case: locations are interned dense ids, and the
        # slot map lists them in slot order, so the shadow columns are
        # the cell sections as they stand.
        sections += [
            ("cell_lid", array("q", sh.slot)),
            ("cell_r", array("i", sh.R)),
            ("cell_w", array("i", sh.W)),
        ]
        if epoch is not None:
            sections += [
                ("epoch_key", array("q", [k for k, _ in epoch])),
                ("epoch_val", array("q", [v for _, v in epoch])),
            ]
    else:
        # Per-event detectors may shadow arbitrary hashable locations;
        # fall back to the tagged JSON codec for those.
        obj["cells_json"] = [
            [encode_location(loc), r, w] for loc, (r, w) in sh.items()
        ]
        if epoch is not None:
            obj["epoch_json"] = [[encode_location(k), v] for k, v in epoch]
    return pack_state(obj, sections)


def engine_from_blob(
    blob: bytes, *, registry: Optional[MetricsRegistry] = None
) -> Tuple[BatchEngine, Dict[str, Any]]:
    """Rebuild a :class:`BatchEngine` from a checkpoint blob.

    Returns ``(engine, meta)`` where ``meta`` is the dict stored at save
    time.  The restored engine is state-identical to the saved one --
    :func:`state_digest` of the two compares equal -- so ingestion can
    continue exactly where it stopped.
    """
    head, arrays = unpack_state(blob)
    if head.get("kind") != "engine":
        raise CheckpointError(
            f"checkpoint holds {head.get('kind')!r} state, not an engine"
        )
    try:
        cfg = head["config"]
        det = RaceDetector2D(
            paper_figure6_literal=bool(cfg["literal"]),
            path_compression=bool(cfg["path_compression"]),
            link_by_rank=bool(cfg["link_by_rank"]),
            epoch_cache=bool(cfg["epoch_cache"]),
        )
        uf = det._uf
        uf._parent = list(arrays["uf_parent"])
        uf._rank = list(arrays["uf_rank"])
        uf._label = list(arrays["uf_label"])
        det._visited = [bool(x) for x in arrays["visited"]]
        det._halted = [bool(x) for x in arrays["halted"]]
        det._joined = [bool(x) for x in arrays["joined"]]
        uf.find_count, uf.union_count, uf.hop_count = head["uf_counts"]
        det.op_index = head["op_index"]
        det.races = _decode_races(head["races"])

        sh = det.shadow
        if head.get("cells_json") is not None:
            for loc, r, w in head["cells_json"]:
                s = sh.new_slot(decode_location(loc))
                sh.R[s] = -1 if r is None else r
                sh.W[s] = -1 if w is None else w
            epoch = [(decode_location(k), v) for k, v in head.get("epoch_json") or ()]
        else:
            lids = arrays["cell_lid"]
            sh.slot = {lid: s for s, lid in enumerate(lids)}
            sh.R = [r if r >= 0 else -1 for r in arrays["cell_r"]]
            sh.W = [w if w >= 0 else -1 for w in arrays["cell_w"]]
            sh.E = [-1] * len(lids)
            epoch = zip(arrays.get("epoch_key", ()), arrays.get("epoch_val", ()))
        if not len(sh.slot) == len(sh.R) == len(sh.W):
            raise CheckpointError("checkpoint cell columns are misaligned")
        if det._epoch_cache:
            for loc, v in epoch:
                sh.E[sh.slot[loc]] = v if v >= 0 else EPOCH_DIRTY
        sh.total = sum(r >= 0 for r in sh.R) + sum(w >= 0 for w in sh.W)
        sh.peak_entries_per_loc = head["peak_entries"]

        n = len(uf._parent)
        if not (
            len(uf._rank) == len(uf._label) == len(det._visited)
            == len(det._halted) == len(det._joined) == n
        ):
            raise CheckpointError(
                "checkpoint thread tables have mismatched lengths"
            )

        interner = None
        if head.get("interner") is not None:
            locs = map(decode_location, head["interner"])
            try:
                interner = LocationInterner.from_locations(locs)
            except ValueError:
                raise CheckpointError(
                    "duplicate locations in checkpoint interner table"
                ) from None
        engine = BatchEngine(det, interner=interner, registry=registry)
        engine.events_ingested = head["events_ingested"]
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint state: {exc!r}") from None
    meta = head.get("meta") or {}
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint meta is not an object")
    return engine, meta


def save_checkpoint(
    engine: BatchEngine, path: str, *, meta: Optional[Dict[str, Any]] = None
) -> int:
    """Serialize ``engine`` durably to ``path``; returns bytes written."""
    t0 = time.perf_counter()
    blob = engine_to_blob(engine, meta=meta)
    write_checkpoint_file(path, blob)
    _observe(get_registry(), "save", time.perf_counter() - t0, len(blob))
    return len(blob)


def load_checkpoint(
    path: str, *, registry: Optional[MetricsRegistry] = None
) -> Tuple[BatchEngine, Dict[str, Any]]:
    """Load ``path`` back into ``(engine, meta)`` (see
    :func:`engine_from_blob`); any validation failure raises
    :class:`CheckpointError`."""
    t0 = time.perf_counter()
    blob = read_checkpoint_file(path)
    engine, meta = engine_from_blob(blob, registry=registry)
    _observe(get_registry(), "restore", time.perf_counter() - t0, len(blob))
    return engine, meta


# -- differentials ------------------------------------------------------------


def state_digest(engine: BatchEngine) -> Dict[str, Any]:
    """The engine's complete observable state as one comparable value.

    Two engines with equal digests behave identically on any future
    event stream: the digest covers the union-find forest (raw parent
    pointers included, so even path-compression state matches), thread
    flags, shadow columns (epochs included), races, counters, and
    interner.
    """
    det = _check_detector(engine.detector)
    uf = det._uf
    sh = det.shadow
    return {
        "parent": tuple(uf._parent),
        "rank": tuple(uf._rank),
        "label": tuple(uf._label),
        "visited": tuple(det._visited),
        "halted": tuple(det._halted),
        "joined": tuple(det._joined),
        "uf_counts": (uf.find_count, uf.union_count, uf.hop_count),
        "cells": {
            loc: (sh.R[s], sh.W[s], sh.E[s]) for loc, s in sh.slot.items()
        },
        "shadow_total": sh.total,
        "peak_entries": sh.peak_entries_per_loc,
        "epoch_cache": det._epoch_cache,
        "races": tuple(
            (r.loc, r.task, r.kind, r.prior_kind, r.prior_repr, r.op_index,
             r.label)
            for r in det.races
        ),
        "op_index": det.op_index,
        "events_ingested": engine.events_ingested,
        "interner": (
            None if engine.interner is None
            else tuple(engine.interner.locations())
        ),
    }
