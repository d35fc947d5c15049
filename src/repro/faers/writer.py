"""Writer for FAERS-format quarterly ASCII files.

The inverse of :mod:`repro.faers.parser`: serialize case reports into
the DEMO / DRUG / REAC ``$``-delimited layout FDA publishes. Used by the
CLI's ``generate`` command, the examples, and the round-trip tests —
and handy for producing fixture quarters for any downstream tool that
consumes the real format.
"""

from __future__ import annotations

import os
import re
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigError
from repro.faers.schema import CaseReport

_DEMO_FILE_NAME = re.compile(r"DEMO(\d\d)Q([1-4])\.TXT")

_REPORT_CODES = {
    "EXPEDITED": "EXP",
    "PERIODIC": "PER",
    "DIRECT": "DIR",
}


@dataclass(frozen=True, slots=True)
class QuarterFiles:
    """Paths of one written quarter."""

    demo: Path
    drug: Path
    reac: Path

    def as_tuple(self) -> tuple[Path, Path, Path]:
        return (self.demo, self.drug, self.reac)


def quarter_file_names(quarter: str) -> tuple[str, str, str]:
    """Canonical file names for a quarter label, e.g. 2014Q1 → DEMO14Q1.txt."""
    if len(quarter) != 6 or quarter[4] != "Q" or not quarter[:4].isdigit():
        raise ConfigError(f"quarter must look like 2014Q1, got {quarter!r}")
    suffix = quarter[2:4] + quarter[4:]
    return (f"DEMO{suffix}.txt", f"DRUG{suffix}.txt", f"REAC{suffix}.txt")


def quarter_of_demo_file(path: str | os.PathLike[str]) -> str:
    """The quarter a DEMO file's name carries, e.g. DEMO14Q1.txt → 2014Q1.

    The inverse of :func:`quarter_file_names` for the DEMO file, also
    accepting the upper-case ``.TXT`` of older extracts; ``""`` when
    the name has another form.
    """
    match = _DEMO_FILE_NAME.fullmatch(Path(path).name.upper())
    return f"20{match[1]}Q{match[2]}" if match else ""


def write_quarter_files(
    reports: Sequence[CaseReport],
    directory: str | os.PathLike[str],
    *,
    quarter: str | None = None,
) -> QuarterFiles:
    """Write ``reports`` as one quarter's DEMO/DRUG/REAC files.

    ``quarter`` defaults to the uniform quarter label of the reports;
    it must be resolvable one way or the other because it names the
    files. Report ids become ``primaryid`` values verbatim, so parsing
    the files back yields the same case ids.
    """
    if not reports:
        raise ConfigError("nothing to write: reports are empty")
    if quarter is None:
        labels = {report.quarter for report in reports if report.quarter}
        if len(labels) != 1:
            raise ConfigError(
                "reports carry no single quarter label; pass quarter= explicitly"
            )
        quarter = next(iter(labels))
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    demo_name, drug_name, reac_name = quarter_file_names(quarter)

    demo_lines = ["primaryid$caseid$rept_cod$age$age_cod$sex$occr_country$event_dt"]
    drug_lines = ["primaryid$drug_seq$role_cod$drugname"]
    reac_lines = ["primaryid$pt"]
    for report in reports:
        if "$" in report.case_id:
            raise ConfigError(
                f"case id {report.case_id!r} contains the field delimiter"
            )
        age = "" if report.age is None else f"{report.age:g}"
        event = (report.event_date or "").replace("-", "")
        demo_lines.append(
            f"{report.case_id}${report.case_id}$"
            f"{_REPORT_CODES[report.report_type.name]}$"
            f"{age}$YR${report.sex or ''}${report.country or ''}${event}"
        )
        for sequence, drug in enumerate(report.drugs, start=1):
            drug_lines.append(f"{report.case_id}${sequence}$PS${drug}")
        reac_lines.extend(f"{report.case_id}${adr}" for adr in report.adrs)

    files = QuarterFiles(
        demo=directory / demo_name,
        drug=directory / drug_name,
        reac=directory / reac_name,
    )
    files.demo.write_text("\n".join(demo_lines) + "\n", encoding="latin-1")
    files.drug.write_text("\n".join(drug_lines) + "\n", encoding="latin-1")
    files.reac.write_text("\n".join(reac_lines) + "\n", encoding="latin-1")
    return files
