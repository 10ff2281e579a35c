"""The conformance referee on traces whose race status is known.

The referee is the engine's acceptance gate: lattice2d, fasttrack and
spbags must give the same per-access verdict on every spawn-sync trace
we can generate -- with and without seeded races -- and the sharded
fast path must flag exactly the same accesses as the unsharded one.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.engine.differential import (
    CONFIGS,
    DEFAULT_DETECTORS,
    Config,
    check_conformance,
)
from repro.engine.ingest import ShardedBatchEngine
from repro.errors import ProgramError
from repro.workloads.racegen import (
    bulk_access_program,
    conflicting_pair_program,
    with_injected_race,
)

from tests.engine.test_conformance import capture

pytestmark = pytest.mark.engine


class TestTrioAgreement:
    @pytest.mark.parametrize("ordered", [False, True])
    def test_conflicting_pair(self, ordered):
        batch, interner = capture(
            conflicting_pair_program("x", ordered=ordered)
        )
        report = check_conformance(batch, interner)
        assert report.agreed, [str(d) for d in report.divergences]
        expected = 0 if ordered else 1
        assert report.races == dict.fromkeys(DEFAULT_DETECTORS, expected)

    def test_clean_bulk_workload(self):
        batch, interner = capture(bulk_access_program(4, 3, 10))
        report = check_conformance(batch, interner)
        assert report.agreed
        assert set(report.races.values()) == {0}

    def test_racy_bulk_workload_counts_match_seeding(self):
        batch, interner = capture(
            bulk_access_program(5, 3, 10, racy_rounds=(0, 3))
        )
        report = check_conformance(batch, interner)
        assert report.agreed
        assert set(report.races.values()) == {2}  # one per racy round

    def test_injected_race_over_clean_base(self):
        body = with_injected_race(bulk_access_program(3, 2, 8))
        batch, interner = capture(body)
        report = check_conformance(batch, interner)
        assert report.agreed
        assert set(report.races.values()) == {1}

    def test_summary_mentions_the_verdict(self):
        batch, interner = capture(conflicting_pair_program("x"))
        report = check_conformance(batch, interner)
        assert "all detectors agree" in report.summary()
        assert report.accesses == 2

    def test_unknown_detector_name_rejected(self):
        batch, interner = capture(conflicting_pair_program("x"))
        with pytest.raises(ProgramError, match="unknown detector"):
            check_conformance(batch, interner, ("lattice2d", "nope"))


class TestDivergenceDetection:
    def test_a_bent_detector_is_caught(self):
        """Feed the referee one detector that stopped reporting, as a
        table row: the divergence machinery itself must light up."""

        class Muzzled:
            name = "muzzled"

            def __init__(self):
                self._inner = CONFIGS["lattice2d"].make()
                self.races = []  # never grows

            def __getattr__(self, attr):
                return getattr(self._inner, attr)

        batch, interner = capture(conflicting_pair_program("x"))
        muzzled = Config("muzzled", "verdict", Muzzled)
        report = check_conformance(batch, interner, ("lattice2d", muzzled))
        assert not report.agreed
        [div] = report.divergences
        assert div.flagged == ("lattice2d",)
        assert div.silent == ("muzzled",)
        assert div.loc == "x"
        assert "flagged" in str(div)


class TestShardedCrossCheck:
    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_sharded_agrees_on_racy_workload(self, num_shards):
        batch, interner = capture(
            bulk_access_program(4, 4, 9, racy_rounds=(1, 2))
        )
        row = Config(
            "sharded",
            "multiset",
            partial(ShardedBatchEngine, num_shards),
            feed="batches",
        )
        report = check_conformance(batch, interner, (row,), batch_size=31)
        assert report.cells["sharded"]
        assert report.races["lattice2d"] == report.races["sharded"] == 2
