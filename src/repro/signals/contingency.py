"""2×2 contingency tables over a report database.

Disproportionality statistics all start from the same table, built for
an exposure itemset ``E`` (one drug or a drug combination) and an
outcome itemset ``O`` (one ADR or an ADR set):

======================  ==============  ==============
..                       outcome          no outcome
exposure                 a                b
no exposure              c                d
======================  ==============  ==============

with ``a + b + c + d = N`` (total reports).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.mining.transactions import TransactionDatabase


@dataclass(frozen=True, slots=True)
class ContingencyTable:
    """Cell counts of one exposure/outcome 2×2 table."""

    a: int  # exposed, outcome
    b: int  # exposed, no outcome
    c: int  # unexposed, outcome
    d: int  # unexposed, no outcome

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ConfigError(f"negative cell count in {self}")

    @property
    def n(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def n_exposed(self) -> int:
        return self.a + self.b

    @property
    def n_outcome(self) -> int:
        return self.a + self.c

    def haldane_corrected(self) -> "ContingencyTable":
        """Add ½ to every cell (the standard fix for zero cells).

        Statistics that divide by ``b``, ``c`` or ``d`` apply this
        correction when any cell is zero; the counts are scaled by 2 to
        stay integral (+½ to each cell leaves every *ratio* of the
        corrected table identical to +1 on the doubled table).
        """
        return ContingencyTable(
            2 * self.a + 1, 2 * self.b + 1, 2 * self.c + 1, 2 * self.d + 1
        )

    @property
    def has_zero_cell(self) -> bool:
        return 0 in (self.a, self.b, self.c, self.d)


def contingency_for(
    database: TransactionDatabase,
    exposure: Iterable[int],
    outcome: Iterable[int],
) -> ContingencyTable:
    """Build the 2×2 table of an exposure/outcome itemset pair.

    Exposure means the report contains *every* exposure item; outcome
    means it contains every outcome item (the joint-ADR convention used
    throughout the reproduction). Exposure and outcome itemsets must be
    disjoint and non-empty.
    """
    exposure = frozenset(exposure)
    outcome = frozenset(outcome)
    if not exposure or not outcome:
        raise ConfigError("exposure and outcome must be non-empty")
    if exposure & outcome:
        raise ConfigError(
            f"exposure and outcome overlap: {sorted(exposure & outcome)}"
        )
    exposed = database.itemset_mask(exposure)
    with_outcome = database.itemset_mask(outcome)
    a = (exposed & with_outcome).bit_count()
    b = exposed.bit_count() - a
    c = with_outcome.bit_count() - a
    d = len(database) - a - b - c
    return ContingencyTable(a, b, c, d)
