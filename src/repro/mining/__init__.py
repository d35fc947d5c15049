"""Itemset-mining substrate.

This package is a from-scratch implementation of the frequent-itemset and
association-rule machinery that MeDIAR/MARAS is built on:

- :mod:`repro.mining.transactions` — integer-encoded transaction database
  plus the item catalog that maps labels to item ids.
- :mod:`repro.mining.measures` — interestingness measures (support,
  confidence, lift, leverage, conviction, ...).
- :mod:`repro.mining.fptree` — the FP-tree data structure.
- :mod:`repro.mining.fpgrowth` — FP-Growth frequent itemset mining.
- :mod:`repro.mining.fpclose` — closed frequent itemset mining.
- :mod:`repro.mining.apriori` — level-wise Apriori baseline, used both as
  a comparison point and as a correctness oracle in the test suite.
- :mod:`repro.mining.closure` — the Galois closure operator and
  closedness checks used by Lemma 3.4.2 of the paper.
- :mod:`repro.mining.rules` — association-rule generation, including the
  partitioned drug→ADR generation used by the core system.
"""

from repro.mining.apriori import apriori
from repro.mining.bitsets import SupportOracle
from repro.mining.closure import closure, is_closed
from repro.mining.fpgrowth import fpgrowth
from repro.mining.fpclose import fpclose, fpclose_reference
from repro.mining.generators import (
    minimal_generators,
    minimal_generators_of,
    non_redundant_rules,
    redundancy_ratio,
)
from repro.mining.maximal import lattice_summary, maximal_itemsets
from repro.mining.measures import (
    RuleMetrics,
    confidence,
    conviction,
    jaccard,
    leverage,
    lift,
    support_fraction,
)
from repro.mining.rules import AssociationRule, generate_rules, partitioned_rules
from repro.mining.transactions import (
    FrequentItemset,
    ItemCatalog,
    SupportCounter,
    TransactionDatabase,
)

__all__ = [
    "AssociationRule",
    "FrequentItemset",
    "ItemCatalog",
    "RuleMetrics",
    "SupportCounter",
    "SupportOracle",
    "TransactionDatabase",
    "apriori",
    "closure",
    "confidence",
    "conviction",
    "fpclose",
    "fpclose_reference",
    "fpgrowth",
    "generate_rules",
    "is_closed",
    "jaccard",
    "lattice_summary",
    "leverage",
    "lift",
    "maximal_itemsets",
    "minimal_generators",
    "minimal_generators_of",
    "non_redundant_rules",
    "partitioned_rules",
    "redundancy_ratio",
    "support_fraction",
]
