"""Block-dedup grammar compression over the columnar batch layout.

The compressor is deliberately simple: slice the event stream into
fixed-width blocks, intern each distinct ``(ops, a, b)`` column triple
once, and represent the stream as run-length rules over block ids.
Depth-one grammars are all the loop-heavy streams need -- a worker that
repeats a fixed access pattern whose period divides the block width
produces *identical* aligned blocks, so its whole run collapses to one
interned block plus one ``(id, repeat)`` rule.

The interned blocks stay ordinary :class:`~repro.engine.batch.
EventBatch` columns, which is what lets the detection side
(:mod:`repro.compress.memo`) scan a block once and replay it as a
summary, and lets every fallback path reuse the engine's existing
kernels on the cached per-block batches unchanged.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.engine.batch import OP_READ, OP_WRITE, EventBatch
from repro.errors import ProgramError
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["DEFAULT_BLOCK_WIDTH", "CompressedTrace", "compress"]

#: default events per block.  Loop bodies whose period divides this
#: width dedup perfectly; 256 keeps even unique blocks cache-friendly
#: and bounds the memo's per-summary state.
DEFAULT_BLOCK_WIDTH = 256

#: per-block eligibility info for the memoized kernel:
#: ``(acting_task, locations in first-touch order)`` for single-task
#: access-only blocks, None for everything else
BlockInfo = Optional[Tuple[int, Tuple[int, ...]]]


class CompressedTrace:
    """A batch in block-dedup compressed form.

    Attributes
    ----------
    block_width:
        The fixed slicing width the stream was cut at (the last block
        of the stream may be shorter).
    blocks:
        The interned distinct blocks, each an
        :class:`~repro.engine.batch.EventBatch`; a block id is an index
        into this list.  Consumers must not mutate these -- rules may
        reference one block many times.
    rules:
        The run-length rule stream: ``(block_id, repeat)`` pairs whose
        expansion, in order, is the original stream.
    n_events:
        Total events the rules expand to (``len(self)``).
    """

    __slots__ = ("block_width", "blocks", "rules", "n_events", "_info")

    def __init__(
        self,
        block_width: int,
        blocks: List[EventBatch],
        rules: List[Tuple[int, int]],
    ) -> None:
        if block_width < 1:
            raise ProgramError(
                f"block width must be positive, got {block_width}"
            )
        self.block_width = block_width
        self.blocks = blocks
        self.rules = rules
        self.n_events = sum(len(blocks[bid]) * rep for bid, rep in rules)
        self._info: Dict[int, BlockInfo] = {}

    def __len__(self) -> int:
        return self.n_events

    def block_count(self) -> int:
        """Blocks in the *expanded* stream (sum of rule repeats)."""
        return sum(rep for _, rep in self.rules)

    def decompress(self) -> EventBatch:
        """Expand back to the original batch, bit-exactly."""
        out = EventBatch()
        blocks = self.blocks
        for bid, rep in self.rules:
            block = blocks[bid]
            for _ in range(rep):
                out.extend(block)
        return out

    def block_key(self, bid: int) -> Tuple[bytes, bytes, bytes]:
        """Content identity of block ``bid`` (column bytes); the memo
        keys its summaries by this, so identical blocks arriving in
        different containers (e.g. successive CBATCH frames) share
        cached transitions."""
        block = self.blocks[bid]
        return (
            block.ops.tobytes(), block.a.tobytes(), block.b.tobytes()
        )

    def block_info(self, bid: int) -> BlockInfo:
        """Memo eligibility of block ``bid`` (cached).

        A block is memoizable when it is *access-only* (every opcode is
        a read or write) and *single-task* (one acting task, the shape
        every maximal access run of a serial fork-first stream has):
        during such a block no structural event can change the
        happens-before state, which is what makes a cached state
        transition sound.  Returns ``(task, locations)`` with the
        locations in first-touch order, or None.
        """
        info = self._info.get(bid)
        if info is None and bid not in self._info:
            info = self._info[bid] = _block_info(self.blocks[bid])
        return info

    def __repr__(self) -> str:
        return (
            f"CompressedTrace(width={self.block_width}, "
            f"{len(self.blocks)} unique blocks, {len(self.rules)} rules, "
            f"{self.n_events} events)"
        )


def _block_info(block: EventBatch) -> BlockInfo:
    task = -1
    locs: List[int] = []
    seen = set()
    for op, a, b in zip(block.ops, block.a, block.b):
        if op != OP_READ and op != OP_WRITE:
            return None
        if task < 0:
            task = a
        elif a != task:
            return None
        if b not in seen:
            seen.add(b)
            locs.append(b)
    if task < 0:
        return None
    return task, tuple(locs)


def compress(
    batch: EventBatch,
    block_width: int = DEFAULT_BLOCK_WIDTH,
    *,
    registry: Optional[MetricsRegistry] = None,
) -> CompressedTrace:
    """Compress one batch into block-dedup form.

    Slices ``batch`` into ``block_width``-event blocks (the final block
    may be shorter), interns repeated blocks by column-byte identity,
    and run-length encodes consecutive repeats of the same block id.
    ``compress(batch).decompress()`` is column-byte identical to
    ``batch`` for every input.

    Dedup activity is counted on ``registry`` (default: the process
    registry) as ``compress_blocks_total`` / ``compress_blocks_deduped_
    total``, labelled ``component="compress"``.
    """
    if block_width < 1:
        raise ProgramError(f"block width must be positive, got {block_width}")
    reg = registry if registry is not None else get_registry()
    labels = {"component": "compress"}
    c_total = reg.counter(
        "compress_blocks_total", "blocks sliced by the compressor",
        labels=labels,
    )
    c_deduped = reg.counter(
        "compress_blocks_deduped_total",
        "repeated blocks folded onto an interned one", labels=labels,
    )
    ops, a, b = batch.ops, batch.a, batch.b
    n = len(batch)
    ids: Dict[Tuple[bytes, bytes, bytes], int] = {}
    blocks: List[EventBatch] = []
    rules: List[Tuple[int, int]] = []
    total = deduped = 0
    w = block_width
    for start in range(0, n, w):
        stop = min(start + w, n)
        key = (
            ops[start:stop].tobytes(),
            a[start:stop].tobytes(),
            b[start:stop].tobytes(),
        )
        bid = ids.get(key)
        if bid is None:
            bid = ids[key] = len(blocks)
            blocks.append(
                EventBatch(
                    array("B", key[0]), array("i", key[1]),
                    array("i", key[2]),
                )
            )
        else:
            deduped += 1
        total += 1
        if rules and rules[-1][0] == bid:
            rules[-1] = (bid, rules[-1][1] + 1)
        else:
            rules.append((bid, 1))
    c_total.inc(total)
    c_deduped.inc(deduped)
    return CompressedTrace(block_width, blocks, rules)
