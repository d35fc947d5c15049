"""Drug-ADR associations and the support taxonomy of §3.3.

A *drug-ADR association* (§3.1) is an association rule whose antecedent
contains only drugs and whose consequent contains only ADRs. §3.3
classifies such a rule by how the report database witnesses it:

- **explicitly supported** (Def. 3.3.1): at least one report's complete
  item set equals the rule's complete item set;
- **implicitly supported** (Def. 3.3.2): the rule's item set is the
  intersection of at least two reports' item sets;
- **unsupported**: neither — the rule is a spurious partial reading of
  some report and must be discarded.

A note on Lemma 3.4.2 (closed ⇒ supported): the lemma holds with the
*generalized* implicit definition used here — the rule's item set equals
the intersection of **some set of two or more** containing reports
(equivalently, for a non-explicit closed itemset with support ≥ 2, the
intersection of *all* containing reports). Under the paper's literal
*pairwise* wording it admits counterexamples (three reports pairwise
intersecting above the itemset but jointly exactly at it), so this
module exposes both: :func:`classify_support` implements the generalized
definition the lemma needs, and :func:`is_pairwise_implicit` the strict
pairwise variant, with the discrepancy exercised in the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from repro.errors import ConfigError
from repro.mining.rules import AssociationRule
from repro.mining.transactions import Itemset, TransactionDatabase, mask_tids


class SupportType(enum.Enum):
    """How the database witnesses a drug-ADR association (§3.3)."""

    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    UNSUPPORTED = "unsupported"

    @property
    def is_supported(self) -> bool:
        return self is not SupportType.UNSUPPORTED


def classify_support(database: TransactionDatabase, items: Itemset) -> SupportType:
    """Classify an itemset per the (generalized) §3.3 taxonomy.

    Explicit wins over implicit when both hold, mirroring the paper's
    presentation order. The implicit test uses the intersection of all
    containing transactions: for support ≥ 2 that intersection equals
    the itemset exactly when the itemset is closed over its tidset,
    which is the generalized implicit-support condition.
    """
    items = frozenset(items)
    if not items:
        raise ConfigError("cannot classify the empty itemset")
    tids = mask_tids(database.itemset_mask(items), len(database))
    if not tids:
        return SupportType.UNSUPPORTED
    for tid in tids:
        if database[tid] == items:
            return SupportType.EXPLICIT
    if len(tids) < 2:
        return SupportType.UNSUPPORTED
    intersection: set[int] | None = None
    for seen, tid in enumerate(tids, start=1):
        transaction = database[tid]
        intersection = (
            set(transaction) if intersection is None else intersection & transaction
        )
        # The intersection can never shrink below `items` (every folded
        # transaction contains it), so reaching |items| after at least
        # two transactions settles the answer.
        if seen >= 2 and len(intersection) == len(items):
            return SupportType.IMPLICIT
    assert intersection is not None
    return (
        SupportType.IMPLICIT
        if frozenset(intersection) == items
        else SupportType.UNSUPPORTED
    )


def is_pairwise_implicit(
    database: TransactionDatabase, items: Itemset, *, max_pairs: int | None = 200_000
) -> bool:
    """The paper's literal Def. 3.3.2: some *pair* of reports intersects at ``items``.

    Quadratic in the itemset's support; ``max_pairs`` bounds the search
    (raising :class:`~repro.errors.ConfigError` if exceeded) so a
    careless call on a high-support itemset cannot stall the pipeline.
    """
    items = frozenset(items)
    tids = mask_tids(database.itemset_mask(items), len(database))
    n_pairs = len(tids) * (len(tids) - 1) // 2
    if max_pairs is not None and n_pairs > max_pairs:
        raise ConfigError(
            f"pairwise implicit check would examine {n_pairs} pairs "
            f"(> max_pairs={max_pairs}); use classify_support instead"
        )
    for left, right in combinations(tids, 2):
        if database[left] & database[right] == items:
            return True
    return False


@dataclass(frozen=True, slots=True)
class DrugADRAssociation:
    """A drug→ADR rule together with its support classification.

    This is the unit the MCAC builder consumes: the rule (with metrics)
    plus how the report data witnesses it. Only supported associations
    enter clustering; the pipeline builds these from closed itemsets so
    the classification is a checked invariant rather than a filter.
    """

    rule: AssociationRule
    support_type: SupportType

    @classmethod
    def from_rule(
        cls,
        rule: AssociationRule,
        database: TransactionDatabase,
    ) -> "DrugADRAssociation":
        return cls(rule=rule, support_type=classify_support(database, rule.items))

    def stable_id(self, catalog) -> str:
        """Deterministic content-hash id of this association (``assoc-…``).

        Depends only on the rule's drug/ADR labels (see
        :mod:`repro.core.ids`), not on catalog numbering or list
        position, so it survives re-encoding and export round-trips.
        """
        from repro.core.ids import association_id

        return association_id(
            catalog.labels(self.rule.antecedent),
            catalog.labels(self.rule.consequent),
        )

    @property
    def n_drugs(self) -> int:
        return len(self.rule.antecedent)

    @property
    def is_multi_drug(self) -> bool:
        """True for the rules MeDIAR evaluates (≥ 2 drugs, §3.4)."""
        return self.n_drugs >= 2

    def describe(self, catalog) -> str:
        return f"{self.rule.describe(catalog)}  [{self.support_type.value}]"
