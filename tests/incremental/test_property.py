"""Property test: incremental == one-shot for *arbitrary* batch splits.

Hypothesis generates small report streams — repeated case ids
(follow-up versions), colliding content (duplicate drops), shared
drug/ADR pools — and arbitrary cut points, and the engine must
reproduce the one-shot pipeline's full export byte for byte. This is
the adversarial complement to the seeded differential grid: splits can
land a follow-up before its first version's batch boundary, produce
empty batches, or cut every row into its own batch.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.incremental import SurveillanceMonitor
from repro.core.pipeline import Maras, MarasConfig

from tests.incremental.streams import export_bytes

from repro.faers.schema import CaseReport

# "PAIN" is in both pools, so examples reach the drug/ADR label
# collision (the reaction item is suffixed " (REACTION)").
DRUGS = ["ASPIRIN", "WARFARIN", "NEXIUM", "IBUPROFEN", "METFORMIN", "PAIN"]
ADRS = ["NAUSEA", "HAEMORRHAGE", "RASH", "DIZZINESS", "PAIN"]

report_strategy = st.builds(
    lambda case, drugs, adrs: CaseReport.build(
        f"c{case}", drugs, adrs, quarter="2014Q1"
    ),
    case=st.integers(min_value=0, max_value=7),  # few ids → many follow-ups
    drugs=st.sets(st.sampled_from(DRUGS), min_size=1, max_size=3),
    adrs=st.sets(st.sampled_from(ADRS), min_size=1, max_size=2),
)

stream_strategy = st.lists(report_strategy, min_size=1, max_size=16)


@st.composite
def stream_with_cuts(draw):
    stream = draw(stream_strategy)
    n_cuts = draw(st.integers(min_value=0, max_value=4))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream)),
                min_size=n_cuts,
                max_size=n_cuts,
            )
        )
    )
    return stream, cuts


def batches_from(stream, cuts):
    bounds = [0, *cuts, len(stream)]
    return [
        stream[lo:hi] for lo, hi in zip(bounds, bounds[1:])
    ]


@given(data=stream_with_cuts())
@settings(max_examples=25, deadline=None)
def test_incremental_equals_one_shot_for_any_split(data):
    stream, cuts = data
    config = MarasConfig(min_support=1, clean=True, incremental=True)
    with SurveillanceMonitor(config) as monitor:
        for batch in batches_from(stream, cuts):
            if batch:
                monitor.ingest(batch)
        result = monitor.result
    reference = Maras(MarasConfig(min_support=1, clean=True)).run(list(stream))
    assert export_bytes(result) == export_bytes(reference)
