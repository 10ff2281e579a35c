"""CI gate: assert the fresh benchmark record's correctness invariants.

Every tier that merges into ``BENCH_engine.json`` certifies itself
with a ``differential.*`` flag -- the tier changed *no verdicts*
against the union-find referee / local replay -- and a throughput
series proving the leg actually ran.  Those assertions used to live as
inline ``python - <<'EOF'`` blocks in ``.github/workflows/ci.yml``,
one per tier, each added by the PR that introduced the tier.  This
script consolidates them behind one declarative manifest so a new tier
adds a manifest line instead of a workflow block.

The manifest is self-introducing in the same sense as
``check_bench_regression.py``: an entry marked not-required is skipped
(with a note) when the fresh record predates its tier, so the gate can
land in the same PR as the benchmark that feeds it.  Entries for tiers
the current code always measures are marked required -- a fresh record
missing them means the benchmark leg silently failed to run, which is
exactly what this gate exists to catch.

Usage::

    python benchmarks/assert_bench_invariants.py BENCH_engine.json

Exits 0 when every invariant holds, 1 on any violated invariant or
missing required key, 2 on unusable input.  Throughput *levels* are
not this script's business -- ``check_bench_regression.py`` gates
those against the committed baseline.
"""

from __future__ import annotations

import json
import sys

#: ``differential.<flag>`` entries that must be ``True``:
#: (flag, required, what it certifies)
DIFFERENTIAL_FLAGS = (
    ("predict_sound", True,
     "predicted race set covers every observed race"),
    ("serve_multinode_agrees", True,
     "location-sharded gateway == local replay at 2 and 4 workers"),
)

#: ``events_per_sec.<key>`` series whose presence proves the leg ran:
#: (key, required)
REQUIRED_SERIES = (
    ("predict", True),
    ("serve_multinode_2w", True),
    ("serve_multinode_4w", True),
)

def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1], "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"cannot read benchmark record: {exc!r}", file=sys.stderr)
        return 2
    failed = False

    differential = record.get("differential")
    if not isinstance(differential, dict):
        print("differential: missing from the record", file=sys.stderr)
        differential = {}
        failed = True
    for flag, required, meaning in DIFFERENTIAL_FLAGS:
        name = f"differential.{flag}"
        if flag not in differential:
            if required:
                print(f"{name}: MISSING ({meaning})", file=sys.stderr)
                failed = True
            else:
                print(f"{name}: not in the record yet; skipping")
            continue
        value = differential[flag]
        ok = value is True
        failed = failed or not ok
        print(f"{name}: {value} -> {'OK' if ok else 'VIOLATED'} ({meaning})")

    series = record.get("events_per_sec")
    if not isinstance(series, dict):
        print("events_per_sec: missing from the record", file=sys.stderr)
        series = {}
        failed = True
    for key, required in REQUIRED_SERIES:
        name = f"events_per_sec.{key}"
        if key not in series:
            if required:
                print(f"{name}: MISSING (leg did not run)", file=sys.stderr)
                failed = True
            else:
                print(f"{name}: not in the record yet; skipping")
            continue
        print(f"{name}: {series[key]:,.0f} ev/s -> present")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
