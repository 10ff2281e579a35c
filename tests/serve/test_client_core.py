"""The merged race stream of the sans-I/O client core
(:class:`repro.serve.client.ClientCore`), driven with hand-built RACES
and RESUME frames and no socket."""

from __future__ import annotations

import pytest

from repro.core.reports import AccessKind, RaceReport
from repro.serve import protocol as wire
from repro.serve.client import ClientCore

pytestmark = pytest.mark.serve


def report(loc: int) -> RaceReport:
    return RaceReport(
        loc=loc, task=1, kind=AccessKind.WRITE, prior_kind=AccessKind.WRITE,
        prior_repr=0, op_index=loc,
    )


def races(core: ClientCore, seq: int, *locs: int) -> None:
    core.receive(
        wire.FRAME_RACES,
        wire.encode_races([report(loc) for loc in locs], seq=seq),
    )


def locs(core: ClientCore) -> list:
    return [r.loc for r in core.races]


class TestRaceStream:
    def test_later_seqs_append_in_place(self):
        core = ClientCore(session="t")
        merged = core.races
        races(core, 1, 10, 11)
        races(core, 3, 30)
        races(core, 4)  # an empty frame adds nothing
        races(core, 5, 50)
        assert core.races is merged
        assert locs(core) == [10, 11, 30, 50]

    def test_replay_replaces_by_seq_and_keeps_seq_order(self):
        core = ClientCore(session="t")
        races(core, 1, 10)
        races(core, 3, 30)
        races(core, 2, 20, 21)  # an earlier seq lands in its place
        races(core, 1, 10, 12, 13)  # a longer copy shifts what follows
        races(core, 3, 30)  # an identical replay changes nothing
        assert locs(core) == [10, 12, 13, 20, 21, 30]
        races(core, 2)  # an empty copy empties its seq
        races(core, 6, 60)
        assert locs(core) == [10, 12, 13, 30, 60]

    def test_unsequenced_reports_accumulate_first(self):
        core = ClientCore()
        races(core, 0, 1)
        races(core, 0, 2)
        assert locs(core) == [1, 2]

    def test_resume_snapshot_replaces_everything_it_covers(self):
        core = ClientCore(session="t")
        races(core, 1, 10)
        races(core, 2, 20)
        races(core, 3, 30)
        assert core.on_resume_frame(
            wire.FRAME_RESUME, wire.encode_resume_reply(2)
        )
        assert locs(core) == [30]  # shorter until the snapshot lands
        races(core, 2, 10, 20)  # the snapshot, keyed at the durable seq
        races(core, 3, 30)  # the replayed batch
        assert locs(core) == [10, 20, 30]

