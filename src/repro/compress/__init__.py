"""Grammar-compressed traces: block dedup, RPR2TRZ, memoized detection.

The loop-heavy streams :mod:`repro.workloads.racegen` emits are
massively repetitive, yet every layer built before this one -- RPR2TRC
files, serve BATCH frames, the batch kernels -- moves and scans raw
columnar events.  Following "Data Race Detection on Compressed Traces"
(Kini/Mathur/Viswanathan, PAPERS.md), this package makes repetition pay
three times over:

* :mod:`repro.compress.blocks` splits a columnar
  :class:`~repro.engine.batch.EventBatch` into fixed-width blocks,
  interns repeated blocks, and emits a run-length rule stream over
  block ids -- a straight-line-program restricted to depth one, which
  is exactly what block-periodic loops compress to;
* :mod:`repro.compress.container` persists that form as the versioned,
  CRC-checked **RPR2TRZ** container (RPR2TRC's crash-safety posture:
  every corruption mode answers with a typed
  :class:`~repro.errors.TraceError`, never an allocation blow-up);
* :mod:`repro.compress.memo` runs detection over the compressed form
  *without decompressing*: repeated access-only blocks are scanned
  once and replayed as cached state-transition summaries, keyed by
  ``(block content, entry-state digest)``.

See ``docs/COMPRESSION.md`` for the container layout and the
memoization soundness argument.
"""

from repro.compress.blocks import (
    DEFAULT_BLOCK_WIDTH,
    CompressedTrace,
    compress,
)
from repro.compress.container import read_tracez, write_tracez
from repro.compress.memo import BlockMemo

__all__ = [
    "DEFAULT_BLOCK_WIDTH",
    "CompressedTrace",
    "compress",
    "read_tracez",
    "write_tracez",
    "BlockMemo",
]
