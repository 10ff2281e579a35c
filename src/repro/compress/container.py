"""The RPR2TRZ container: CRC-checked persistence for compressed traces.

Layout (all header integers little-endian)::

    offset  size        field
    0       8           magic  b"RPR2TRZ\\x01"
    8       1           endianness of the array payload (0=little, 1=big)
    9       3           reserved (zero)
    12      4           version (currently 1)
    16      4           block width W
    20      8           n_events (what the rules expand to)
    28      8           n_blocks (unique blocks)
    36      8           n_rules
    44      8           byte length L of the location table
    52      4           CRC-32 of header bytes [0, 52)
    56      L           location table (same tagged JSON codec as RPR2TRC)
    56+L    4           CRC-32 of the table
    ...     4*n_blocks  block lengths, u32 each, 0 < len <= W
    ...     4           CRC-32 of the lengths section
    ...     S           opcode columns of all blocks, concatenated (u8)
    ...     4*S         primary columns, concatenated (i32)
    ...     4*S         secondary columns, concatenated (i32)
    ...     4           CRC-32 of the three concatenated columns
    ...     8*n_rules   rules: (block_id u32, repeat u32) pairs
    ...     4           CRC-32 of the rules section

where ``S`` is the sum of the block lengths.  This mirrors RPR2TRC's
crash-safety posture and hardens it: every length is validated against
the bytes actually present *before* it sizes an allocation, and every
section (header included) carries a CRC, so any single-bit flip
anywhere in the file is refused with a typed
:class:`~repro.errors.TraceError` -- RPR2TRZ is a dedup format, where
one flipped payload byte would otherwise silently corrupt every
occurrence of a shared block.

The column payload is written native-endian like RPR2TRC (CRCs are
computed over the stored bytes, so they are checked *before* any
byteswap).
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import IO, List, Optional, Tuple, Union

from repro.engine.batch import EventBatch, LocationInterner
from repro.engine.tracefile import (
    MAGIC_COMPRESSED,
    _decode_table,
    _encode_table,
    _native_flag,
)
from repro.errors import TraceError

from repro.compress.blocks import CompressedTrace

__all__ = [
    "ZVERSION",
    "write_tracez",
    "read_tracez",
]

ZVERSION = 1

_ZHEADER = struct.Struct("<8sB3xIIQQQQ")
_CRC = struct.Struct("<I")
_RULE = struct.Struct("<II")
_U32_MAX = 2**32 - 1

#: sanity ceiling for the block width field: wide enough for any real
#: compressor setting, small enough that ``width * u32`` arithmetic on a
#: hostile header cannot approach overflow territory
_MAX_BLOCK_WIDTH = 2**20


def _crc(payload: bytes) -> bytes:
    return _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def write_tracez(
    fp: Union[str, IO[bytes]],
    ctrace: CompressedTrace,
    interner: LocationInterner,
) -> int:
    """Write one compressed trace + location table; returns the total
    (expanded) event count it represents."""
    if isinstance(fp, str):
        with open(fp, "wb") as handle:
            return write_tracez(handle, ctrace, interner)
    blocks = ctrace.blocks
    if len(blocks) > _U32_MAX or len(ctrace.rules) > _U32_MAX:
        raise TraceError(
            "compressed trace too large for the container "
            f"({len(blocks)} blocks, {len(ctrace.rules)} rules)"
        )
    table = _encode_table(interner.locations())
    head = _ZHEADER.pack(
        MAGIC_COMPRESSED,
        _native_flag(),
        ZVERSION,
        ctrace.block_width,
        ctrace.n_events,
        len(blocks),
        len(ctrace.rules),
        len(table),
    )
    fp.write(head)
    fp.write(_crc(head))
    fp.write(table)
    fp.write(_crc(table))
    lengths = array("I", [len(block) for block in blocks]).tobytes()
    fp.write(lengths)
    fp.write(_crc(lengths))
    payload = b"".join(
        [block.ops.tobytes() for block in blocks]
        + [block.a.tobytes() for block in blocks]
        + [block.b.tobytes() for block in blocks]
    )
    fp.write(payload)
    fp.write(_crc(payload))
    rules = b"".join(_RULE.pack(bid, rep) for bid, rep in ctrace.rules)
    fp.write(rules)
    fp.write(_crc(rules))
    return ctrace.n_events


def _bytes_remaining(fp: IO[bytes]) -> Optional[int]:
    try:
        pos = fp.tell()
        end = fp.seek(0, 2)
        fp.seek(pos)
    except (AttributeError, OSError, ValueError):
        return None
    return end - pos


def _read_section(fp: IO[bytes], size: int, what: str) -> bytes:
    """Read ``size`` bytes plus the section CRC; refuse truncation and
    corruption with the section named."""
    raw = fp.read(size + _CRC.size)
    if len(raw) != size + _CRC.size:
        raise TraceError(f"truncated compressed trace {what}")
    data, crc = raw[:size], raw[size:]
    if _crc(data) != crc:
        raise TraceError(f"compressed trace {what} failed its CRC check")
    return data


def read_tracez(
    fp: Union[str, IO[bytes]], *, head: bytes = b""
) -> Tuple[CompressedTrace, LocationInterner]:
    """Read an RPR2TRZ container back into ``(ctrace, interner)``.

    ``head`` is an already-consumed prefix when the caller sniffed the
    magic off an unseekable stream.  Every corruption mode -- unknown
    magic, bad version, truncation anywhere, a header or section that
    lies about lengths, a rule referencing a block that does not exist
    or expanding to a different event count, any flipped bit -- raises
    :class:`~repro.errors.TraceError` before any header-sized
    allocation happens.
    """
    if isinstance(fp, str):
        with open(fp, "rb") as handle:
            return read_tracez(handle)
    raw_head = head + fp.read(_ZHEADER.size + _CRC.size - len(head))
    if len(raw_head) < _ZHEADER.size + _CRC.size:
        raise TraceError("truncated compressed trace header")
    head_bytes, head_crc = raw_head[: _ZHEADER.size], raw_head[_ZHEADER.size:]
    (
        magic, endian, version, block_width, n_events, n_blocks,
        n_rules, table_len,
    ) = _ZHEADER.unpack(head_bytes)
    if magic != MAGIC_COMPRESSED:
        raise TraceError(f"not a compressed engine trace (magic {magic!r})")
    if _crc(head_bytes) != head_crc:
        raise TraceError("compressed trace header failed its CRC check")
    if version != ZVERSION:
        raise TraceError(
            f"unsupported compressed trace version {version}"
        )
    if endian not in (0, 1):
        raise TraceError(
            f"bad endianness flag {endian} in compressed trace"
        )
    if not 0 < block_width <= _MAX_BLOCK_WIDTH:
        raise TraceError(
            f"implausible compressed trace block width {block_width}"
        )
    remaining = _bytes_remaining(fp)
    fixed_need = (
        table_len + 4 * n_blocks + 8 * n_rules + 3 * _CRC.size
    )
    if remaining is not None and fixed_need > remaining:
        raise TraceError(
            f"truncated or lying compressed trace: header claims at "
            f"least {fixed_need} section bytes but only {remaining} "
            f"remain"
        )
    interner = _decode_table(_read_section(fp, table_len, "location table"))
    lengths = array("I")
    lengths.frombytes(_read_section(fp, 4 * n_blocks, "length section"))
    if sys.byteorder != "little":
        lengths.byteswap()
    for i, length in enumerate(lengths):
        if not 0 < length <= block_width:
            raise TraceError(
                f"compressed trace block {i} claims {length} events "
                f"(width {block_width})"
            )
    total = sum(lengths)
    payload_need = 9 * total
    remaining = _bytes_remaining(fp)
    if remaining is not None and payload_need + _CRC.size > remaining:
        raise TraceError(
            f"truncated or lying compressed trace: blocks claim "
            f"{payload_need} payload bytes but only {remaining} remain"
        )
    payload = _read_section(fp, payload_need, "block payload")
    raw_rules = _read_section(fp, 8 * n_rules, "rule section")
    blocks: List[EventBatch] = []
    foreign = endian != _native_flag()
    ops_off, a_off, b_off = 0, total, 5 * total
    for length in lengths:
        ops = array("B", payload[ops_off: ops_off + length])
        av = array("i", payload[a_off: a_off + 4 * length])
        bv = array("i", payload[b_off: b_off + 4 * length])
        if foreign:
            av.byteswap()
            bv.byteswap()
        blocks.append(EventBatch(ops, av, bv))
        ops_off += length
        a_off += 4 * length
        b_off += 4 * length
    rules: List[Tuple[int, int]] = []
    expanded = 0
    for i in range(n_rules):
        bid, rep = _RULE.unpack_from(raw_rules, 8 * i)
        if bid >= n_blocks:
            raise TraceError(
                f"compressed trace rule {i} references block {bid} of "
                f"{n_blocks}"
            )
        if rep < 1:
            raise TraceError(
                f"compressed trace rule {i} has zero repeat count"
            )
        if rules and rules[-1][0] == bid:
            rules[-1] = (bid, rules[-1][1] + rep)
        else:
            rules.append((bid, rep))
        expanded += rep * lengths[bid]
    if expanded != n_events:
        raise TraceError(
            f"compressed trace rules expand to {expanded} events but "
            f"the header claims {n_events}"
        )
    ctrace = CompressedTrace(block_width, blocks, rules)
    return ctrace, interner
