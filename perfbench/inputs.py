"""Sizes, seeded inputs and expected outputs of the benchmark.

Everything the system under test receives is generated here: the
synthetic FAERS quarter (in ``--seed`` order, written out as ASCII
files and parsed back, as ``mediar run`` reads a real extract), its
split into the stream's base and small batches, and the seeded
open-loop query traffic. The expected outputs the correctness checks
compare against are derived here too, from the inputs alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from urllib.parse import quote, urlencode

from repro import ReportCleaner, SyntheticFAERSGenerator
from repro.faers import parse_quarter, quarter_config, write_quarter_files
from repro.faers.schema import ReportType
from repro.serve import DEFAULT_PAGE_SIZE

QUARTER = "2014Q1"
MIN_SUPPORT = 5  # `mediar run` / `mediar watch` defaults
MAX_DRUGS = 4
MAX_ITEMSET_LEN = 8  # MarasConfig default
STREAM_WORKERS = 2  # `mediar watch --workers 2`
LRU_ENTRIES = 512  # QueryEngine / `mediar serve` default cache size


@dataclass(frozen=True)
class Profile:
    """How much work one run does; ``full`` is the benchmark, ``tiny`` its smoke test."""

    scale: float  # synthetic quarter size, share of the paper's 2014Q1
    setup_rounds: int
    batch_jobs_per_s: float  # batch jobs per second of --seconds (at least 3)
    stream_base_share: float  # share of the cleaned stream in the base
    stream_batches: int  # small batches after the base
    stream_chunk: int  # small batches per slot
    cold_starts: int  # cold monitors whose first result is timed
    light_rps: float  # fixed rate well under the knee
    heavy_rps: float  # fixed rate at about 60% of the knee
    ladder_rps: tuple[float, ...]  # fixed rates above heavy, ascending
    p99_limit_ms: float  # latency limit a ladder step must meet
    lag_limit_ms: float  # generator lag p99 a ladder step must stay under
    headline_windows: int  # windows at the light and heavy rates
    headline_window_share: float  # share of --seconds per headline window
    ladder_window_share: float  # share of --seconds per higher ladder step
    min_step_requests: int  # requests per window at least: >= 10 beyond p99


PROFILES = {
    "full": Profile(
        scale=0.05,
        setup_rounds=3,
        batch_jobs_per_s=0.1875,
        stream_base_share=0.3,
        stream_batches=100,
        stream_chunk=10,
        cold_starts=3,
        light_rps=1000.0,
        heavy_rps=3000.0,
        ladder_rps=(
            4000.0, 5000.0, 6000.0, 6500.0, 7000.0, 7500.0, 8000.0, 8500.0, 9000.0,
            10000.0, 11000.0, 12000.0, 13000.0, 14000.0, 16000.0,
        ),
        p99_limit_ms=50.0,
        lag_limit_ms=5.0,
        headline_windows=5,
        headline_window_share=0.009,
        ladder_window_share=0.0125,
        min_step_requests=1000,
    ),
    "tiny": Profile(
        scale=0.015,
        setup_rounds=2,
        batch_jobs_per_s=0.5,
        stream_base_share=0.5,
        stream_batches=12,
        stream_chunk=4,
        cold_starts=2,
        light_rps=100.0,
        heavy_rps=200.0,
        ladder_rps=(300.0,),
        p99_limit_ms=250.0,
        lag_limit_ms=100.0,
        headline_windows=2,
        headline_window_share=0.05,
        ladder_window_share=0.1,
        min_step_requests=20,
    ),
}


@dataclass(frozen=True)
class Workload:
    """One query traffic mix; the batch and stream phases are the same in each."""

    name: str
    tail_specs: int  # distinct long-tail query specs


#: `spill`: the long tail spans 3x the response LRU, so parameterized
#: reads mostly miss it; `fit`: it fits in half, so they hit after first
#: touch. BENCHMARK.json states the same reasons.
WORKLOADS = {
    "spill": Workload("spill", 3 * LRU_ENTRIES),
    "fit": Workload("fit", LRU_ENTRIES // 2),
}


# -- the quarter -----------------------------------------------------------


def generate_quarter(seed: int, scale: float):
    """The synthetic quarter in seeded report order, and its generator.

    The quarter's content is the fixed synthetic 2014Q1 of ``mediar
    generate`` at this scale; the seed only orders the reports. A
    reseeded generator would redraw the planted co-occurrences, and the
    mining cost of a 6k-report quarter moves by a third with them, so
    seed-to-seed spread would drown every regression bound.
    """
    generator = SyntheticFAERSGenerator(quarter_config(QUARTER, scale=scale))
    reports = generator.generate()
    random.Random(f"{seed}:order").shuffle(reports)
    return generator, reports


def write_files(reports, directory) -> tuple:
    return write_quarter_files(reports, directory, quarter=QUARTER).as_tuple()


def parse_files(files) -> list:
    """``parse_quarter`` as ``mediar run`` calls it on a real extract."""
    reports, _ = parse_quarter(
        *files, quarter=QUARTER, report_types=frozenset({ReportType.EXPEDITED})
    )
    return reports


def clean(reports) -> list:
    return ReportCleaner().clean(reports)[0]


def planted_targets(reports, specs) -> set[tuple[frozenset, frozenset]]:
    """Rule targets every correct mine must contain, one per cleared signal.

    A planted interaction clears min support when some of its ADRs
    co-occurs with its full drug combination in at least MIN_SUPPORT
    reports. The closed itemset holding that combination is then the
    intersection of those reports; its drug ⇒ ADR split is a cluster
    target unless it falls outside the mining bounds.
    """
    targets = set()
    for spec in specs:
        drugs = set(spec.drugs)
        for adr in spec.adrs:
            rows = [r for r in reports if adr in r.adrs and drugs.issubset(r.drugs)]
            if len(rows) < MIN_SUPPORT:
                continue
            closed_drugs = frozenset.intersection(*(frozenset(r.drugs) for r in rows))
            closed_adrs = frozenset.intersection(*(frozenset(r.adrs) for r in rows))
            if (
                2 <= len(closed_drugs) <= MAX_DRUGS
                and len(closed_drugs) + len(closed_adrs) <= MAX_ITEMSET_LEN
            ):
                targets.add((closed_drugs, closed_adrs))
    return targets


def cluster_targets(payload) -> set[tuple[frozenset, frozenset]]:
    return {
        (frozenset(record["drugs"]), frozenset(record["adrs"]))
        for record in payload["clusters"]
    }


# -- the stream ------------------------------------------------------------


def stream_batches(cleaned, profile: Profile) -> tuple[list, list[list]]:
    """Base plus small batches of 1.5% of the base, in stream order.

    Every batch has the same size, so each run streams the same amount
    of work; the seed still decides which reports land in which batch.
    """
    n_base = round(len(cleaned) * profile.stream_base_share)
    size = max(1, round(n_base * 0.015))
    ends = range(n_base + size, len(cleaned) + 1, size)
    batches = [cleaned[end - size : end] for end in ends][: profile.stream_batches]
    return cleaned[:n_base], batches


# -- the query traffic -----------------------------------------------------

#: Request kinds and their shares of the traffic: byte-cached hot
#: resources first, then the parameterized long tail.
MIX = (
    ("cluster", 0.35),
    ("drug", 0.20),
    ("listing", 0.10),
    ("page", 0.20),
    ("search", 0.15),
)
#: One cluster fetch in this many revalidates a cached copy (If-None-Match).
CONDITIONAL_EVERY = 4


def _misspelled(token: str, rng: random.Random) -> str:
    chars = list(token)
    position = rng.randrange(len(chars) - 1)
    edit = rng.randrange(3)
    if edit == 0:  # transposition
        chars[position], chars[position + 1] = chars[position + 1], chars[position]
    elif edit == 1:  # dropped letter
        del chars[position]
    else:  # doubled letter
        chars.insert(position, chars[position])
    return "".join(chars)


def query_pools(snapshot, workload: Workload, seed: int) -> dict[str, list[tuple]]:
    """Distinct requests per kind as ``(path, if_none_match_from)`` pairs.

    ``if_none_match_from`` names the path whose ETag a conditional
    request sends (``None`` for a plain GET).
    """
    rng = random.Random(f"{seed}:{workload.name}:pools")
    records = snapshot.records
    sort_keys = list(snapshot.indexes.sort_keys)
    clusters = [f"/v1/clusters/{record['id']}" for record in records]
    drugs = [f"/v1/drugs/{quote(name)}" for name in sorted(snapshot.indexes.by_drug)]
    listings = ["/v1/clusters", "/v1/associations"] + [
        f"/v1/{endpoint}?sort={key}"
        for endpoint in ("clusters", "associations")
        for key in sort_keys
    ]
    n_pages = round(workload.tail_specs * 0.20 / 0.35)
    n_search = workload.tail_specs - n_pages
    all_pages = [
        (sort, order, limit, offset)
        for sort in sort_keys
        for order in ("desc", "asc")
        for limit in (10, 20, 50)
        for offset in range(0, len(records), limit)
        if not (order == "desc" and limit == DEFAULT_PAGE_SIZE and offset == 0)
    ]
    pages = [
        "/v1/associations?"
        + urlencode({"sort": s, "order": o, "limit": lim, "offset": off})
        for s, o, lim, off in rng.sample(all_pages, min(n_pages, len(all_pages)))
    ]
    tokens = sorted(
        {
            token
            for record in records
            for label in (*record["drugs"], *record["adrs"])
            for token in label.lower().split()
            if len(token) >= 4
        }
    )
    queries: set[str] = set()
    attempts = 0
    while len(queries) < n_search and attempts < 50 * n_search:
        attempts += 1
        token = rng.choice(tokens)
        if rng.random() < 0.5:
            queries.add(token[: rng.randint(2, min(6, len(token)))])
        else:
            queries.add(_misspelled(token, rng))
    search = [f"/v1/search?{urlencode({'q': q})}" for q in sorted(queries)]
    return {
        "cluster": [(path, None) for path in clusters]
        + [(path, path) for path in clusters[::CONDITIONAL_EVERY]],
        "drug": [(path, None) for path in drugs],
        "listing": [(path, None) for path in listings],
        "page": [(path, None) for path in pages],
        "search": [(path, None) for path in search],
    }


@dataclass
class Traffic:
    """Distinct wire requests and the answers expected for them."""

    wire: list[bytes]  # request bytes by request index
    expected: list[tuple[int, bytes, str | None]]  # (status, body, etag)
    index: dict[tuple, int]  # (path, if_none_match_from) -> request index

    def request_index(self, request: tuple, responder) -> int:
        """Index of ``request``, asking ``responder`` for its answer when new."""
        found = self.index.get(request)
        if found is not None:
            return found
        path, conditional = request
        headers = {}
        if conditional is not None:
            headers["if-none-match"] = responder.handle("GET", conditional).etag
        answer = responder.handle("GET", path, headers)
        wire = f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n"
        if conditional is not None:
            wire += f"If-None-Match: {headers['if-none-match']}\r\n"
        self.wire.append((wire + "\r\n").encode("latin-1"))
        self.expected.append((answer.status, answer.body, answer.etag))
        self.index[request] = len(self.wire) - 1
        return self.index[request]


def schedule(
    pools: dict[str, list[tuple]],
    traffic: Traffic,
    responder,
    rate: float,
    seconds: float,
    rng: random.Random,
) -> list[tuple[float, int]]:
    """Poisson arrivals at ``rate`` for ``seconds``: ``(offset_s, request)``.

    Expected answers are computed through ``responder`` as requests are
    first drawn, so this must run in the parent before the server forks.
    """
    kinds = [kind for kind, _ in MIX]
    weights = [share for _, share in MIX]
    arrivals = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        kind = rng.choices(kinds, weights)[0]
        request = rng.choice(pools[kind])
        arrivals.append((offset, traffic.request_index(request, responder)))
        offset += rng.expovariate(rate)
    return arrivals
