"""numpy batch kernel for the DePa backend.

:func:`ingest_depa` drives a :class:`~repro.detectors.depa.DePaDetector`
through an :class:`~repro.engine.batch.EventBatch` by *segments*: the
maximal runs of read/write events between structural events (fork,
join, halt -- and step, which is rare and handled scalar).  Within a
segment the acting task is fixed (the stack top) and no precedence
relation changes, so every event's verdict is a pure function of the
cell state at the segment start:

* a read races iff the location's write supremum exists and is
  unordered;
* a write races with the read supremum first, else the write supremum
  (at most one report per write);
* a clean access folds the cell to the acting task, a racing access
  leaves the old value -- and since the acting task is the same for the
  whole segment, the fold lands on the same value no matter how many
  events repeat it.

That constancy is the batch-level form of the access-epoch idea the
union-find kernel uses per event: repeats of the same ``(loc, task,
kind)`` triple inside a segment need no re-checking, so the kernel
answers the whole segment with a handful of array operations -- one
gather of the read/write cells, one vectorized precedence query, and
one scatter for the folds.  Racing events still produce one report
*per occurrence*, exactly like the per-event path.

The precedence query leans on the detector's flat columns and two
fork-first invariants: a task is live iff it is on the stack, and the
stack's absorbed halt intervals are globally sorted.  The ``LIVE``
sentinel (-1) lands inside the permanent ``[-2, -1]`` guard interval of
the ``g_lo``/``g_hi`` columns, so "live" and "absorbed halt" are the
*same* test; in the steady state where the absorbed set is one range
contiguous with the guard, the whole query is a scalar-threshold
compare, and otherwise one ``searchsorted`` answers every "is this
prior ordered?" question in the segment at once.

Validation is hoisted but never simulated in Python: opcodes and
location ids are checked in one whole-batch comparison each, and every
dispatch piece -- a leaf burst, an access segment, a structural run --
validates its own rows with a handful of C-level vector compares
against the detector's live state right before it applies (fork
parents are the stack top, fork children are the ids the detector
would allocate next, halts and joins name the tasks the stream
implies, access rows act as the task the enclosing piece proved).  A
piece whose compares disagree with the batch -- a corrupt or hostile
stream -- is dropped to the detector's self-validating scalar calls,
so the offending event raises its exact error at its exact
``op_index`` while every already-applied piece stands.

Zero-copy numpy views of the detector's ``array`` columns are rebuilt
when the columns may have resized and never outlive the ingest call --
a held view would make ``array`` refuse to grow.  Cells are pre-grown
once per batch (to the batch's largest location id), so the cell views
stay valid across every segment and scalar span of the call.

For tiny batches, where the array overhead loses, everything goes
through the detector's scalar methods with identical results.
"""

from __future__ import annotations

import numpy as _np

from repro.core.reports import AccessKind, RaceReport
from repro.detectors.depa import DePaDetector
from repro.engine.batch import (
    OP_FORK,
    OP_HALT,
    OP_JOIN,
    OP_READ,
    OP_STEP,
    OP_WRITE,
    EventBatch,
)
from repro.errors import ProgramError

__all__ = ["ingest_depa"]

#: segments shorter than this go through the scalar methods -- numpy
#: call overhead dominates below a few dozen events.
_SCALAR_CUTOFF = 24

#: cap on (fork, halt) pairs absorbed per leaf-burst attempt; bounds
#: the chain scan, and bursts chain anyway -- the next attempt picks
#: up right where a capped one ended.
_BURST_MAX = 256

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


def _scalar_span(det: DePaDetector, batch: EventBatch, s: int, e: int) -> None:
    """Drive events ``[s, e)`` through the detector's scalar methods."""
    ops, col_a, col_b = batch.ops, batch.a, batch.b
    for i in range(s, e):
        op = ops[i]
        a = col_a[i]
        if op == OP_READ:
            det.on_read(a, col_b[i])
        elif op == OP_WRITE:
            det.on_write(a, col_b[i])
        elif op == OP_FORK:
            det.on_fork(a, col_b[i])
        elif op == OP_JOIN:
            det.on_join(a, col_b[i])
        elif op == OP_HALT:
            det.on_halt(a)
        elif op == OP_STEP:
            det.on_step(a)
        else:
            raise ProgramError(f"unknown opcode {op}")


def _run_segment(
    det, r_all, col_a, col_b, cells, batch, s, e
) -> None:
    """Process one pure read/write segment ``[s, e)``.

    Validates the acting task of every row in one compare before
    trusting the vectorized verdicts; a mismatch replays scalar so the
    offending event raises its exact error.
    """
    if e - s < _SCALAR_CUTOFF or not det._stack:
        # Tiny segment, or no current task (the scalar replay raises
        # the precise DetectorError for the latter).
        _scalar_span(det, batch, s, e)
        return
    t = det._stack[-1]
    if not (col_a[s:e] == t).all():
        # Some event names a task that is not the stack top: replay
        # scalar so the offending event raises its exact error.
        _scalar_span(det, batch, s, e)
        return
    locs = col_b[s:e]
    idx2 = locs.astype(_np.int64)
    idx2 += idx2
    idxw = idx2 + 1
    r_pre = cells.take(idx2)
    w_pre = cells.take(idxw)
    # Vectorized ``ordered``: a prior is ordered iff its halt_seq falls
    # inside an absorbed interval of the stack.  Live priors carry
    # halt_seq == LIVE == -1, which lands inside the permanent [-2, -1]
    # guard interval -- correct, because live tasks are on the stack
    # (fork-first) and hence ordered.  Empty lanes (pre == -1) are
    # gathered with mode="clip", landing on the root -- live (hence
    # ordered, hence not racing) for as long as the stack is non-empty,
    # exactly the right verdict for "no prior".
    halt_seq = _np.frombuffer(det._halt_seq, dtype=_np.int64)
    hs_r = halt_seq.take(r_pre, mode="clip")
    hs_w = halt_seq.take(w_pre, mode="clip")
    g_lo, g_hi = det._g_lo, det._g_hi
    # ``unord_r``/``unord_w`` stay None while the corresponding cell
    # column has no stale lane at all -- the usual case, and the
    # one-sided cases below each skip half the mask algebra.
    unord_r = unord_w = None
    if g_lo[-1] <= 0:
        # The absorbed set is one range contiguous with the guard --
        # [-2, g_hi[-1]] -- which is the steady state once joins
        # coalesce (a second interval would have to start above the
        # first's non-negative hi).  The whole precedence query is a
        # threshold compare, and two scalar maxima decide the clean
        # case without building any mask.
        hi = g_hi[-1]
        if hs_r.max() > hi:
            unord_r = hs_r > hi
        if hs_w.max() > hi:
            unord_w = hs_w > hi
    else:
        glo = _np.frombuffer(g_lo, dtype=_np.int64)
        ghi = _np.frombuffer(g_hi, dtype=_np.int64)
        idx = glo.searchsorted(hs_r, side="right")
        idx -= 1
        unord = hs_r > ghi[idx]
        if unord.any():
            unord_r = unord
        idx = glo.searchsorted(hs_w, side="right")
        idx -= 1
        unord = hs_w > ghi[idx]
        if unord.any():
            unord_w = unord
    r_seg = r_all[s:e]
    if unord_r is None and unord_w is None:
        cells[idx2[r_seg]] = t
        cells[idxw[~r_seg]] = t
        det.op_index += e - s
        return
    w_seg = ~r_seg
    races = det.races
    base = det.op_index
    if unord_w is None:
        # Only read cells are stale: a read never races against a read
        # supremum, so just the writes report, and every write cell
        # folds (their suprema are all ordered).
        wr_racy = w_seg & unord_r
        if bool(wr_racy.any()):
            for k in map(int, _np.flatnonzero(wr_racy)):
                races.append(
                    RaceReport(
                        loc=int(locs[k]),
                        task=t,
                        kind=_WRITE,
                        prior_kind=_READ,
                        prior_repr=int(r_pre[k]),
                        op_index=base + k + 1,
                    )
                )
        cells[idx2[r_seg & ~unord_r]] = t
        cells[idxw[w_seg]] = t
    elif unord_r is None:
        # Only write cells are stale: every stale lane races (reads as
        # read-after-write, writes as write-after-write), and every
        # read cell folds.
        for k in map(int, _np.flatnonzero(unord_w)):
            races.append(
                RaceReport(
                    loc=int(locs[k]),
                    task=t,
                    kind=_READ if r_seg[k] else _WRITE,
                    prior_kind=_WRITE,
                    prior_repr=int(w_pre[k]),
                    op_index=base + k + 1,
                )
            )
        cells[idx2[r_seg]] = t
        cells[idxw[w_seg & ~unord_w]] = t
    else:
        read_racy = r_seg & unord_w
        wr_racy = w_seg & unord_r
        ww_racy = w_seg & unord_w & ~wr_racy
        racy = read_racy | wr_racy | ww_racy
        if bool(racy.any()):
            for k in map(int, _np.flatnonzero(racy)):
                if read_racy[k]:
                    kind, prior_kind, prior = _READ, _WRITE, int(w_pre[k])
                elif wr_racy[k]:
                    kind, prior_kind, prior = _WRITE, _READ, int(r_pre[k])
                else:
                    kind, prior_kind, prior = _WRITE, _WRITE, int(w_pre[k])
                races.append(
                    RaceReport(
                        loc=int(locs[k]),
                        task=t,
                        kind=kind,
                        prior_kind=prior_kind,
                        prior_repr=prior,
                        op_index=base + k + 1,
                    )
                )
        cells[idx2[r_seg & ~unord_r]] = t
        cells[idxw[w_seg & ~unord_w]] = t
    det.op_index += e - s


def _run_segment_fast(det, a_seg, loc2, widx, f_idx, r_mask, cells) -> bool:
    """Steady-state fast path for one segment.

    ``a_seg`` is the segment's acting-task column; one compare against
    the stack top validates every row at once (a mismatch declines,
    and the general path's own re-check routes the offending event to
    its exact scalar error).

    ``loc2``/``widx``/``f_idx``/``r_mask`` are zero-cost views into
    per-slice precomputes over the interleaved cell column (read
    supremum of ``loc`` at ``2 * loc``, write supremum at ``2 * loc +
    1``): each lane's read-cell index, write-cell index, fold-cell
    index (read cell for reads, write cell for writes), and kind.

    The race test and the fold mask share one gather: a read lane's
    *read* supremum never produces a race (read/read pairs are not
    races), only its fold decision, so "no race anywhere" is exactly
    "every write cell, plus every read cell under a write lane, is
    ordered" -- and the surviving stale read cells under read lanes
    (e.g. halted-but-unjoined sibling readers) are precisely the lanes
    whose fold keeps its old value.  Empty cells (-1) gathered with
    mode="clip" land on the root -- live, hence ordered, exactly the
    verdict for "no prior".  Returns False without touching any state
    when the segment needs the general path: a fragmented absorbed
    set, a mismatched acting task, or any stale prior that a race
    verdict could depend on.
    """
    g_lo = det._g_lo
    if g_lo[-1] > 0:
        return False
    t = det._stack[-1]
    if not (a_seg == t).all():
        return False
    hi = det._g_hi[-1]
    halt_seq = _np.frombuffer(det._halt_seq, dtype=_np.int64)
    if int(halt_seq.take(cells.take(widx), mode="clip").max(initial=-1)) > hi:
        return False
    rpre = cells.take(loc2)
    st = halt_seq.take(rpre, mode="clip") > hi
    if bool(st.any()):
        if bool((st & ~r_mask).any()):
            return False
        # Stale read suprema under read lanes keep their old value,
        # exactly like the scalar fold rule; everything else folds to
        # the acting task.  One fused scatter covers both kinds.
        cells[f_idx] = _np.where(st, rpre, t)
    else:
        cells[f_idx] = t
    det.op_index += len(loc2)
    return True


def _run_burst_fast(det, k, a_reg, loc2, widx, f_idx, ids, r_mask, cells,
                    scratch) -> bool:
    """Steady-state fast path for a validated *leaf burst*: ``k``
    consecutive (fork, accesses, halt) triples, each child halting
    before the next fork.

    The burst never touches the global interval columns (leaf halts
    park their own one-point interval; no joins occur), so "is this
    prior ordered?" is one fixed threshold for every lane even though
    the acting task changes from triple to triple -- ``a_reg`` carries
    the per-lane acting tasks (the validated ``a`` column).

    Intra-burst same-location interactions are the one sequential
    dependency: an earlier sibling's fold changes what a later lane
    sees.  A collision group whose members are all reads is still
    exact against burst-start cells -- the write supremum they race
    against cannot change, and the scalar outcome (only the first
    reader can fold) is reproduced by scattering the folds in reverse
    lane order.  Any write-involved collision declines to the scalar
    replay, as does any stale race-relevant prior (the race test and
    the stale-fold mask share one gather, as in
    :func:`_run_segment_fast`).  Returns False with no state touched
    on decline.
    """
    g_lo = det._g_lo
    if g_lo[-1] > 0:
        return False
    hi = det._g_hi[-1]
    scratch[loc2] = ids
    got = scratch.take(loc2)
    coll = got != ids
    if bool(coll.any()):
        if bool((coll & ~r_mask).any()):
            return False
        if not bool(r_mask.take(got[coll] - ids[0]).all()):
            return False
    halt_seq = _np.frombuffer(det._halt_seq, dtype=_np.int64)
    if int(halt_seq.take(cells.take(widx), mode="clip").max(initial=-1)) > hi:
        del halt_seq
        return False
    rpre = cells.take(loc2)
    st = halt_seq.take(rpre, mode="clip") > hi
    if bool(st.any()):
        if bool((st & ~r_mask).any()):
            del halt_seq
            return False
        vals = _np.where(st, rpre, a_reg)
        cells[f_idx[::-1]] = vals[::-1]
    else:
        cells[f_idx[::-1]] = a_reg[::-1]
    del halt_seq  # the view must not outlive the column growth below
    det._bulk_leaf_triples(k)
    det.op_index += len(loc2)
    return True


def ingest_depa(det: DePaDetector, batch: EventBatch) -> str:
    """Ingest one batch; returns the dispatch path actually taken
    (``"vectorized"`` or ``"generic"`` for the scalar fallback)."""
    n = len(batch)
    if n < _SCALAR_CUTOFF:
        _scalar_span(det, batch, 0, n)
        return "generic"
    ops = _np.frombuffer(batch.ops, dtype=_np.uint8)
    if int(ops.max(initial=0)) > OP_WRITE:
        bad = int(ops[ops > OP_WRITE][0])
        raise ProgramError(f"unknown opcode {bad}")
    col_a = _np.frombuffer(batch.a, dtype=_np.int32)
    col_b = _np.frombuffer(batch.b, dtype=_np.int32)
    # Validate location ids for the whole batch up front (halt/step
    # rows legitimately carry b == -1, so only access rows count);
    # segments can then gather cells without re-checking.  The check
    # rides the access gather the precomputes below need anyway.
    acc = ops >= OP_READ
    locs_acc = col_b[acc]
    if int(locs_acc.min(initial=0)) < 0:
        mn = int(locs_acc.min())
        raise ProgramError(f"negative location id {mn} in batch")
    r_all = ops == OP_READ
    # Pre-grow the cell columns to the batch's largest b value (an
    # over-approximation of the largest location id -- structural
    # events put task ids there, which are comparatively few), so the
    # zero-copy cell views below stay valid for the whole call.
    det._ensure_loc(int(col_b.max(initial=0)))
    cells = _np.frombuffer(det._cells, dtype=_np.int64)
    # Structural events (plus the rare steps) are the segment barriers;
    # their columns are pulled into plain ints once, up front.  There
    # is no up-front stack simulation: each dispatch piece (burst,
    # segment, structural run) validates itself with a handful of
    # C-level compares right before it applies, and any mismatch drops
    # just that piece to the self-validating scalar calls so the
    # offending event raises its exact error at its exact op_index.
    barriers = _np.flatnonzero(ops < OP_READ)
    b_op_arr = ops[barriers]
    b_pos = barriers.tolist()
    b_op = b_op_arr.tolist()
    b_a = col_a[barriers].tolist()
    b_b = col_b[barriers].tolist()
    nb = len(b_pos)
    # One prefix sum over the access mask plus pre-scaled interleaved
    # cell indices make every segment's and burst's gather/scatter
    # index lists zero-cost views, so the fast paths never do
    # per-segment boolean indexing or index arithmetic.
    a_acc = col_a[acc]
    loc2_acc = locs_acc.astype(_np.int64)
    loc2_acc += loc2_acc
    widx_acc = loc2_acc + 1
    r_acc = r_all[acc]
    # Fold-cell index per lane: the read cell for reads, the write
    # cell for writes -- precomputed once so the fast paths' fused
    # fold scatter needs no per-piece mask select.
    fold_acc = loc2_acc + ~r_acc
    ids_acc = _np.arange(len(a_acc), dtype=_np.int32)
    scratch = _np.empty(len(cells), dtype=_np.int32)
    ax = _np.empty(n + 1, dtype=_np.int64)
    ax[0] = 0
    _np.cumsum(acc, out=ax[1:])
    # Leaf-burst chain mask: ``chain[p]`` says barrier pair (p, p+1) is
    # a (fork, halt) pair whose fork is adjacent to the previous
    # barrier, so a burst reaching pair ``p`` extends through it.  With
    # the mask precomputed, each burst's extent is one strided argmin
    # instead of a Python loop over the pairs.
    if nb >= 2:
        chain = (b_op_arr[:-1] == OP_FORK) & (b_op_arr[1:] == OP_HALT)
        chain[1:] &= barriers[1:-1] == barriers[:-2] + 1
    else:
        chain = None
    stk = det._stack
    i = 0
    pos = 0
    while i < nb:
        end = b_pos[i]
        if end > pos:
            if end - pos < _SCALAR_CUTOFF or not stk:
                _scalar_span(det, batch, pos, end)
            else:
                a0 = ax[pos]
                a1 = ax[end]
                if not _run_segment_fast(
                    det,
                    a_acc[a0:a1],
                    loc2_acc[a0:a1],
                    widx_acc[a0:a1],
                    fold_acc[a0:a1],
                    r_acc[a0:a1],
                    cells,
                ):
                    _run_segment(
                        det, r_all, col_a, col_b, cells, batch, pos, end
                    )
            pos = end
        # Leaf-burst attempt: a maximal run of (fork, halt) barrier
        # pairs with only access rows between each fork and its halt
        # and each next fork adjacent to the previous halt.  The
        # structural validation is a handful of vector compares: fork
        # parents are all the stack top (fork-first: each leaf halts
        # before the next fork), fork children are the ids the detector
        # would allocate, halts name those children, and the access
        # rows between each pair act as that pair's child.
        if (
            stk
            and b_op[i] == OP_FORK
            and i + 1 < nb
            and b_op[i + 1] == OP_HALT
        ):
            u = i + 2
            if chain is not None:
                ext = chain[u:u + 2 * _BURST_MAX - 2:2]
                if ext.size:
                    stop = int(ext.argmin())
                    if stop == 0 and ext[0]:
                        stop = ext.size
                    u += 2 * stop
            e_reg = b_pos[u - 1] + 1
            if e_reg - pos >= _SCALAR_CUTOFF:
                kk = (u - i) // 2
                nxt = len(det._halt_seq)
                kid_list = list(range(nxt, nxt + kk))
                a0 = ax[pos]
                a1 = ax[e_reg]
                a_seg = a_acc[a0:a1]
                # Fork parents, fork children, and halt actors are
                # validated on the already-materialized barrier lists
                # -- plain list compares over kk elements beat four
                # numpy launches on these short runs.  The per-access
                # acting tasks stay a vector compare: one repeat of
                # the child ids by each pair's access count.
                if (
                    b_a[i:u:2].count(stk[-1]) == kk
                    and b_b[i:u:2] == kid_list
                    and b_a[i + 1:u:2] == kid_list
                ):
                    fk = barriers[i:u:2]
                    ht = barriers[i + 1:u:2]
                    kids = _np.arange(nxt, nxt + kk, dtype=_np.int32)
                    rep = _np.repeat(kids, ht - fk - 1)
                    if (
                        len(a_seg) == len(rep)
                        and bool((a_seg == rep).all())
                        and _run_burst_fast(
                            det,
                            kk,
                            a_seg,
                            loc2_acc[a0:a1],
                            widx_acc[a0:a1],
                            fold_acc[a0:a1],
                            ids_acc[a0:a1],
                            r_acc[a0:a1],
                            cells,
                            scratch,
                        )
                    ):
                        pos = e_reg
                        i = u
                        continue
        j = i + 1
        while j < nb and b_pos[j] == b_pos[j - 1] + 1:
            j += 1
        # A fork trailing the run (e.g. the first fork of a round right
        # after the previous round's joins) may open a leaf burst whose
        # halt is the next barrier: leave it for the next iteration so
        # the burst pattern above can see it.
        if j - 1 > i and b_op[j - 1] == OP_FORK and j < nb and (
            b_op[j] == OP_HALT
        ):
            j -= 1
        # Maximal same-opcode sub-runs become one amortized bulk state
        # update each, so a deep-fanout stream no longer pays one
        # Python method call per fork/halt/join.  Each sub-run's
        # validation is an O(run) C-level list compare against what the
        # detector's own scalar calls would require (fork runs push
        # fork-first, so each fork's parent is the previous child;
        # halt runs pop a stack suffix; join/step runs all act as the
        # stack top); _bulk_joins additionally validates the join
        # targets itself.  Any mismatch replays that sub-run scalar.
        k = i
        while k < j:
            op = b_op[k]
            m = k + 1
            while m < j and b_op[m] == op:
                m += 1
            cnt = m - k
            if op == OP_FORK:
                if cnt == 1:
                    det.on_fork(b_a[k], b_b[k])
                else:
                    nxt = len(det._halt_seq)
                    if (
                        stk
                        and b_a[k] == stk[-1]
                        and b_b[k:m] == list(range(nxt, nxt + cnt))
                        and b_a[k + 1:m] == list(range(nxt, nxt + cnt - 1))
                    ):
                        det._bulk_forks(cnt)
                    else:
                        for x in range(k, m):
                            det.on_fork(b_a[x], b_b[x])
            elif op == OP_HALT:
                if cnt == 1:
                    det.on_halt(b_a[k])
                elif len(stk) >= cnt and b_a[k:m] == stk[:-cnt - 1:-1]:
                    det._bulk_halts(cnt)
                else:
                    for x in range(k, m):
                        det.on_halt(b_a[x])
            elif op == OP_JOIN:
                if cnt == 1:
                    det.on_join(b_a[k], b_b[k])
                elif not (
                    stk
                    and b_a[k:m].count(stk[-1]) == cnt
                    and det._bulk_joins(b_a[k], b_b[k:m])
                ):
                    for x in range(k, m):
                        det.on_join(b_a[x], b_b[x])
            else:  # step: only moves op_index once validated
                if stk and b_a[k:m].count(stk[-1]) == cnt:
                    det.op_index += cnt
                else:
                    for x in range(k, m):
                        det.on_step(b_a[x])
            k = m
        pos = b_pos[j - 1] + 1
        i = j
    if pos < n:
        if n - pos < _SCALAR_CUTOFF or not stk:
            _scalar_span(det, batch, pos, n)
        else:
            a0 = ax[pos]
            a1 = ax[n]
            if not _run_segment_fast(
                det,
                a_acc[a0:a1],
                loc2_acc[a0:a1],
                widx_acc[a0:a1],
                fold_acc[a0:a1],
                r_acc[a0:a1],
                cells,
            ):
                _run_segment(
                    det, r_all, col_a, col_b, cells, batch, pos, n
                )
    return "vectorized"
