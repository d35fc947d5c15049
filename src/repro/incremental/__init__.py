"""Incremental surveillance: per-batch cost proportional to the delta.

The one-shot pipeline re-cleans, re-encodes and re-mines the full
accumulated history on every surveillance batch. This package folds each
stage over the stream instead — see
:class:`~repro.incremental.engine.IncrementalEngine` for the per-batch
flow and the byte-identity guarantee against the one-shot run. The
cleaning fold and the encoder live in :mod:`repro.faers` (they are the
only cleaning and encoding implementations) and are re-exported here.
"""

from repro.faers.cleaning import CleaningDelta, IncrementalCleaner
from repro.faers.dataset import EncodingDelta, IncrementalEncoder
from repro.incremental.engine import IncrementalEngine
from repro.incremental.mining import carry_closed_itemsets

__all__ = [
    "CleaningDelta",
    "EncodingDelta",
    "IncrementalCleaner",
    "IncrementalEncoder",
    "IncrementalEngine",
    "carry_closed_itemsets",
]
