"""Bounded-memory regression: the streaming ingest holds O(chunk), not O(N).

The 200k-report tier of the capacity promise, enforced on every CI run
(the 1M tier lives in ``benchmarks/bench_capacity.py``). The measurement
is tracemalloc's *transient* overhead — peak traced bytes minus bytes
still live once the pass returns — which isolates scratch memory from
the retained database: a hidden ``list()`` of the stream is freed by
return, so it shows up in (peak − end) at ~300 bytes per report, while
the honest chunked path's scratch is a few chunks regardless of N. A
canary test materializes the stream on purpose and asserts the
measurement *would* catch it, so the bound can't rot into a tautology.
"""

from __future__ import annotations

import tracemalloc

from repro.faers import (
    SyntheticConfig,
    SyntheticFAERSGenerator,
    iter_quarter,
    write_quarter_files,
)
from repro.faers.ingest import StreamEncoder, iter_chunks

N_REPORTS = 200_000
CHUNK_SIZE = 4096

#: Transient tracemalloc overhead allowed for the full 200k pass. The
#: measured honest value is a few MiB (chunk scratch + cleaning sets);
#: a materialized 200k-report stream costs ~60 MiB transient.
TRANSIENT_LIMIT = 24 * 2**20


def capacity_config(n_reports: int) -> SyntheticConfig:
    return SyntheticConfig(
        n_reports=n_reports, n_drugs=2000, n_adrs=400, seed=20140, quarter="2014Q1"
    )


def transient_bytes(stream) -> tuple[int, int]:
    """(peak − end) traced bytes around one chunked ingest pass.

    The encoder stays alive across the end-reading, so its *retained*
    state — database, catalog, and the O(distinct-cases) dedup/merge
    maps the algorithm genuinely needs — counts as live memory, and
    (peak − end) isolates true scratch: chunk buffers, cleaning sets,
    mask-update churn, and any silently materialized copy of the
    stream (which is freed once the stream drains, so it lands squarely
    in the transient number).
    """
    encoder = StreamEncoder()
    tracemalloc.start()
    try:
        for chunk in iter_chunks(stream, CHUNK_SIZE):
            encoder.ingest_chunk(chunk)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert encoder.stats.rows_in > 0
    return peak - current, encoder.stats.reports_out


def test_200k_stream_transient_memory_is_bounded():
    generator = SyntheticFAERSGenerator(capacity_config(N_REPORTS))
    transient, kept = transient_bytes(generator.iter_reports())
    assert kept > N_REPORTS * 0.8  # the pass actually did the work
    assert transient <= TRANSIENT_LIMIT, (
        f"streaming 200k reports held {transient / 2**20:.1f} MiB of "
        f"transient memory (limit {TRANSIENT_LIMIT / 2**20:.0f} MiB) — "
        "is the stream being materialized somewhere?"
    )


def test_transient_memory_does_not_scale_with_stream_length():
    """4× the reports must not mean anywhere near 4× the scratch."""
    small, _ = transient_bytes(
        SyntheticFAERSGenerator(capacity_config(50_000)).iter_reports()
    )
    large, _ = transient_bytes(
        SyntheticFAERSGenerator(capacity_config(N_REPORTS)).iter_reports()
    )
    # Allow generous slack for allocator noise; O(N) scratch would put
    # the ratio at ~4.
    assert large <= max(2.0 * small, 8 * 2**20), (
        f"transient scratch grew from {small / 2**20:.1f} MiB at 50k to "
        f"{large / 2**20:.1f} MiB at 200k — scaling with stream length"
    )


def test_canary_materialized_stream_trips_the_measurement():
    """Prove the detector detects: a list()-ed stream blows the bound."""
    generator = SyntheticFAERSGenerator(capacity_config(N_REPORTS))

    def materializing_stream():
        yield from list(generator.iter_reports())  # the sin being guarded

    transient, _ = transient_bytes(materializing_stream())
    assert transient > TRANSIENT_LIMIT, (
        "a fully materialized 200k stream stayed under the transient "
        "bound — the bound is too loose to catch regressions"
    )


def test_parser_sheds_its_demo_index_while_feeding_the_encoder(tmp_path):
    """``iter_quarter`` → encoder peaks near the larger of the two, not the sum.

    The parser must hold every DEMO row until the DRUG and REAC files
    are read, but releases each case's row as it is emitted, so the
    index shrinks while the encoder's retained state grows. A parser
    that kept its DEMO rows to the end of the stream would add them
    (~550 bytes per case) to the encoder's state at the pass's peak.

    Two readings of one parse → encode pass:

    - the peak above the larger of the parse index's own peak and the
      encoder's retained state at the end — "near the larger, not the
      sum", whichever of the two is larger;
    - what the parser still holds as it yields its last report: traced
      memory then, minus traced memory once its frame has returned
      (before the encoder ingests the final chunk).
    """
    n_reports = 20_000
    reports = list(SyntheticFAERSGenerator(capacity_config(n_reports)).iter_reports())
    files = write_quarter_files(reports, tmp_path, quarter="2014Q1").as_tuple()
    del reports

    tracemalloc.start()
    try:
        for _ in iter_quarter(*files):
            pass
        _, index_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    readings: dict[str, int] = {}

    def watched(stream):
        for report in stream:
            readings["last_yield"] = tracemalloc.get_traced_memory()[0]
            yield report
        readings["exhausted"] = tracemalloc.get_traced_memory()[0]

    encoder = StreamEncoder()
    tracemalloc.start()
    try:
        for chunk in iter_chunks(watched(iter_quarter(*files)), CHUNK_SIZE):
            encoder.ingest_chunk(chunk)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert encoder.stats.reports_out > 0
    bound = index_peak / 8
    index_mib = index_peak / 2**20

    # Measured on 20k reports: index peak ~30 MiB, encoder state at the
    # end ~27 MiB, peak ~2 MiB above the index peak; DEMO rows or drug
    # sets held to the end put it ~6 MiB above, a parser that holds its
    # whole index until just before its last reports ~21 MiB.
    over = peak - max(index_peak, end)
    assert over < bound, (
        f"the parse → encode pass peaked {over / 2**20:.1f} MiB above the "
        f"larger of a {index_mib:.1f} MiB parse index and "
        f"{end / 2**20:.1f} MiB of encoder state — the parser holds its "
        f"index while the encoder grows"
    )
    # Measured: ~1.2 MiB held at the last report (the emptied dicts);
    # DEMO rows held to the end put it at ~9 MiB.
    held = readings["last_yield"] - readings["exhausted"]
    assert held < bound, (
        f"{held / 2**20:.1f} MiB still held at the last report against a "
        f"{index_mib:.1f} MiB parse index — the parser holds its DEMO "
        f"rows until the stream ends"
    )
