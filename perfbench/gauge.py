"""Machine-speed gauge: a fixed reference computation timed between slots.

The shared machine this benchmark runs on switches between speed modes
about 2.4x apart for minutes at a time (no CPU steal; the slow mode is
slower per CPU second too). A wall-clock figure then says more about
the mode a run landed in than about the program. The gauge times a
fixed piece of pure-Python work, owned by the benchmark and never
changed by a change to ``src/``, right before and after every timed
slot; a duration measured in that slot is rescaled to the speed at
which the reference work takes :data:`NOMINAL_MS`. In the slow mode
single readings scatter widely, so a slot's speed is the median of the
readings around it (:data:`WINDOW`), several seconds of the run; the
modes last minutes.

The work mixes what the system spends its time on: big-integer bitset
ANDs and popcounts (mining), ``$``-separated field splitting and dict
counting (FAERS parsing and cleaning), tuple sorting (ranking), JSON
encoding (snapshots and responses) and lookups in a catalog larger than
a core's L2 cache (item and case-id catalogs). Each part is repeated
and timed on its own, as each stage of the program runs long on its
own working set: timed back to back in one sequence, the parts slowed
about 12% more than a batch job did in the slow mode.

A change to the program moves the rescaled figures exactly as it moves
the raw ones (the rescaling factor does not depend on the program); a
change of machine speed moves both the slot and the reference, and
cancels out.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time

#: Reference-work time the rescaled figures are expressed at, in ms:
#: about what it takes on the machine's fast mode.
NOMINAL_MS = 10.0
#: Runs of each part per reading. The fastest is kept: noise only adds
#: time (a page copied on write after a fork, a preempted slice).
REPEATS = 3
#: Readings whose median gives a slot's speed: five before it, five after.
WINDOW = 5

_rng = random.Random(0)  # fixed: the same work in every run
_MASKS = [_rng.getrandbits(6000) for _ in range(110)]
_WORDS = [f"DRUG{_rng.randrange(400)}" for _ in range(1200)]
_LINES = ["$".join(_rng.choices(_WORDS, k=12)) for _ in range(3000)]
_ROWS = [(_rng.random(), _rng.randrange(1000), f"r{i}") for i in range(12000)]
_RECORDS = [
    {"id": i, "drugs": _rng.sample(_WORDS, 3), "score": _rng.random()} for i in range(1500)
]
# Larger than a core's L2 cache (2 MiB here), probed in random order;
# small next to the system's own memory, whose peak is measured in this
# process too.
_CATALOG = {f"CASE{i:07d}": i for i in range(24000)}
_PROBES = _rng.choices(list(_CATALOG), k=20000)


def _bitsets() -> int:
    total = 0
    bit_count = int.bit_count
    for i, left in enumerate(_MASKS):
        for right in _MASKS[i + 1 :]:
            total += bit_count(left & right)
    return total


def _fields() -> int:
    counts: dict[str, int] = {}
    for line in _LINES:
        for token in line.split("$"):
            counts[token] = counts.get(token, 0) + 1
    return len(counts)


def _ranking() -> int:
    return sorted(_ROWS)[len(_ROWS) // 2][1]


def _encoding() -> int:
    return len(json.dumps(_RECORDS, sort_keys=True))


def _lookups() -> int:
    catalog = _CATALOG
    return sum(catalog[key] for key in _PROBES)


#: The reference work, part by part.
PARTS = (_bitsets, _fields, _ranking, _encoding, _lookups)


class SpeedGauge:
    """Readings of the reference work's time; factors that rescale durations."""

    def __init__(self) -> None:
        self.readings_ms: list[float] = []

    def read(self) -> float:
        """Time the reference work: Σ over parts of the fastest run, in ms."""
        enabled = gc.isenabled()
        gc.disable()  # the benchmark's heap size must not leak into the reading
        try:
            reading = 0.0
            for part in PARTS:
                fastest = float("inf")
                for _ in range(REPEATS):
                    started = time.perf_counter()
                    part()
                    fastest = min(fastest, time.perf_counter() - started)
                reading += fastest * 1e3
        finally:
            if enabled:
                gc.enable()
        self.readings_ms.append(reading)
        return reading

    def settle(self) -> None:
        """Take the readings a window needs after the last slot."""
        for _ in range(WINDOW - 1):
            self.read()

    def factor(self, before: int) -> float:
        """Rescaling factor for a duration measured right after reading ``before``.

        Call it once the readings after the slot have been taken.
        """
        nearby = self.readings_ms[max(0, before + 1 - WINDOW) : before + 1 + WINDOW]
        return NOMINAL_MS / statistics.median(nearby)
