"""Output checker: every result row of every rep is one checked operation.

The checks are independent of how the rows were produced: they hold for any
correct allocator simulation (a peak demand that no allocator can change, a
reservation that covers it, a planner that does not lose to the online
baseline) and for any correct cache or fan-out (the same rows, whichever way
they were obtained).  An ``OOM`` row is a simulated result, not a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

#: Row columns that describe the host run, not the simulation.
HOST_COLUMNS = ("cached", "elapsed_seconds")

BASELINE = "torch2.3"
STALLOC = "stalloc"


@dataclass
class Verdict:
    """Operations attempted and failed in one rep, with the reasons."""

    attempted: int
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    @classmethod
    def all_failed(cls, attempted: int, reason: str) -> "Verdict":
        return cls(attempted, attempted, [reason])


def expected_rows(workload, document: dict | None = None) -> int:
    """Result rows one rep must produce.

    A sweep's count follows from its spec; a search reports how many
    candidates survived its prunes, so its own ``evaluated`` is the
    expectation (cross-checked against the row count by :func:`check_cold`).
    """
    if workload.kind == "sweep":
        return math.prod(len(values) for values in workload.spec["grid"].values()) * len(
            workload.spec["allocators"]
        )
    return int(document["evaluated"]) if document else 1


def simulated(row: dict) -> dict:
    return {key: value for key, value in row.items() if key not in HOST_COLUMNS}


def rows_digest(document: dict) -> str:
    """sha256 over the simulated columns of every row, ordered by point."""
    rows = sorted((simulated(row) for row in document["rows"]), key=lambda row: row["point"])
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def check_cold(workload, document: dict) -> Verdict:
    """Invariants of one cold run's rows."""
    rows = document["rows"]
    verdict = Verdict(attempted=expected_rows(workload, document))
    bad: set = set()

    def flag(row_id, message: str) -> None:
        bad.add(row_id)
        verdict.messages.append(f"{workload.name}: {message}")

    if workload.kind == "sweep":
        present = {row.get("point") for row in rows}
        for index in range(verdict.attempted):
            if index not in present:
                flag(("missing", index), f"point {index} has no row")
    else:
        total = document["pruned_by_memory"] + document["pruned_by_bound"] + document["evaluated"]
        if total != document["candidates_total"]:
            flag("accounting", f"prunes + evaluated = {total}, not {document['candidates_total']}")
        if len(rows) != document["evaluated"]:
            flag("accounting", f"{len(rows)} rows for {document['evaluated']} evaluated")
        ranks = [row.get("search_rank") for row in rows]
        if ranks != list(range(1, len(rows) + 1)):
            flag("ranks", "search_rank is not contiguous from 1")
        if rows and rows[0].get("status") != "ok":
            flag(rows[0].get("point"), "rank-1 row is not ok")

    by_config: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        if row.get("status") not in ("ok", "OOM"):
            flag(row.get("point"), f"point {row.get('point')} has status {row.get('status')!r}")
        elif row["status"] == "ok":
            by_config[row["config"]].append(row)
    for config, group in by_config.items():
        peaks = {row["allocated_gib"] for row in group}
        if len(peaks) > 1:
            for row in group:
                flag(row["point"], f"{config}: allocated_gib differs across allocators {sorted(peaks)}")
        for row in group:
            if row["reserved_gib"] < row["allocated_gib"]:
                flag(row["point"], f"{config}/{row['allocator']}: reserved < allocated")
        if workload.kind == "sweep":
            frag = {row["allocator"]: row for row in group}
            if BASELINE in frag and STALLOC in frag:
                if frag[STALLOC]["fragmentation_pct"] > frag[BASELINE]["fragmentation_pct"]:
                    flag(frag[STALLOC]["point"], f"{config}: stalloc fragments more than {BASELINE}")
    verdict.failed = min(verdict.attempted, len(bad))
    return verdict


def check_same_rows(workload, reference: dict, document: dict, *, what: str) -> Verdict:
    """``document`` must hold ``reference``'s rows on every simulated column."""
    verdict = Verdict(attempted=len(reference["rows"]))
    other = {row["point"]: row for row in document["rows"]}
    for row in reference["rows"]:
        twin = other.get(row["point"])
        if twin is None or simulated(twin) != simulated(row):
            verdict.failed += 1
            verdict.messages.append(
                f"{workload.name}: {what} row for point {row['point']} differs from the cold row"
            )
        elif what == "warm" and not twin.get("cached"):
            verdict.failed += 1
            verdict.messages.append(
                f"{workload.name}: warm row for point {row['point']} was recomputed"
            )
    return verdict


def simulated_stats(workload, document: dict) -> dict:
    """The simulated end-to-end statistics of one cold run (exact per seed)."""
    rows = document["rows"]
    stalloc = [row for row in rows if row["allocator"] == STALLOC and row["status"] == "ok"]
    baseline = {
        row["config"]: row
        for row in rows
        if row["allocator"] == BASELINE and row["status"] == "ok"
    }
    pairs = [(row, baseline[row["config"]]) for row in stalloc if row["config"] in baseline]
    baseline_frag = sum(base["fragmentation_pct"] for _, base in pairs)
    if not pairs or baseline_frag <= 0:
        raise ValueError(f"{workload.name}: no config where both stalloc and {BASELINE} are ok")
    if workload.kind == "search":
        tokens = rows[0]["tokens_per_second"]
    else:
        tokens = statistics.geometric_mean(row["tokens_per_second"] for row in stalloc)
    return {
        "events": sum(row["events_replayed"] for row in rows),
        "stalloc_mem_eff_pct": statistics.fmean(row["memory_efficiency_pct"] for row in stalloc),
        "frag_reduction_pct": 100
        * (1 - sum(row["fragmentation_pct"] for row, _ in pairs) / baseline_frag),
        "sim_tokens_per_s": tokens,
    }
