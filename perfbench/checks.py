"""Output checks for the benchmark's operations.

Each check returns ``(attempted, failed, problems)`` for one CLI call:
``attempted`` counts the workload's operations inside that call (cells,
or (instance, policy) pairs for verify), ``failed`` those that failed a
check, and ``problems`` says why. The values are recomputed here from
the files the CLI wrote, without calling gridshare, so a bug shared by
the program and its own tests still shows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from pathlib import Path

SLOT_MINUTES = 5
SWEEP_POLICIES = ("fcfs", "fdfs", "rr", "minmax-er", "minmax-dt")
SWEEP_SDRS = ("1.2", "2")
SWEEP_FIGURES = (
    "fig1-fraction-delayed.svg", "fig2-average-delay.svg", "fig3-delay-distribution.svg",
)
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

# Files whose bytes must not change for the same resolved config.
DIGEST_FILES = {
    "cell-dt-tight": ("fod.csv", "adfd.csv", "outcomes.csv"),
    "sweep-mix": ("fod.csv", "adfd.csv", "delaydist.csv"),
}

_VERIFY_SUMMARY = re.compile(
    r"verified (\d+) steady \+ (\d+) cycling random instances x (\d+) policies: "
    r"(\d+) audit violation\(s\), (\d+) optimum mismatch\(es\)"
)
_VIOLATION_PAIR = re.compile(r"((?:varying )?instance \d+) policy (\S+):")


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def file_digests(out_dir, names) -> dict[str, str]:
    return {
        name: hashlib.sha256(Path(out_dir, name).read_bytes()).hexdigest() for name in names
    }


def recorded_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Digests recorded for (workload, seed), or None when that seed has none."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))


def check_cell(out_dir, stdout: str, seed: int):
    """One simulate call = one cell; fod and adfd are recomputed from outcomes.csv."""
    problems = []
    measured = []
    for r in _rows(os.path.join(out_dir, "outcomes.csv")):
        arrival, expected, satisfied, actual, delay = (
            int(r[k]) for k in ("arrival_slot", "expected_departure_slot", "satisfied_slot",
                                "actual_departure_slot", "delay_slots"))
        if actual != max(expected, satisfied) or delay != actual - expected \
                or int(r["delayed"]) != (delay > 0) or satisfied < arrival:
            problems.append(f"outcomes.csv: inconsistent row for vehicle {r['id']}")
            break
        if r["measured"] == "1":
            measured.append(delay)
    delays = [d for d in measured if d > 0]
    fod_rows = _rows(os.path.join(out_dir, "fod.csv"))
    adfd_rows = _rows(os.path.join(out_dir, "adfd.csv"))
    if not measured or len(fod_rows) != 1 or len(adfd_rows) != 1:
        problems.append("expected one fod/adfd row over a non-empty measurement window")
    else:
        fod, adfd = fod_rows[0], adfd_rows[0]
        if int(fod["n"]) != len(measured) or int(adfd["n"]) != len(measured):
            problems.append(f"n={fod['n']} but outcomes.csv has {len(measured)} measured")
        if not _close(float(fod["fod"]), len(delays) / len(measured)):
            problems.append(f"fod={fod['fod']} but outcomes.csv gives {len(delays) / len(measured)}")
        expected_adfd = SLOT_MINUTES * sum(delays) / len(delays) if delays else None
        if (adfd["adfd_minutes"] == "NA") != (expected_adfd is None) or (
                expected_adfd is not None and not _close(float(adfd["adfd_minutes"]), expected_adfd)):
            problems.append(f"adfd={adfd['adfd_minutes']} but outcomes.csv gives {expected_adfd}")
    return 1, 1 if problems else 0, problems


def check_sweep(out_dir, stdout: str, seed: int):
    """One sweep call = ten cells (five policies x two ratios), each checked on its rows."""
    cells = [(p, s) for p in SWEEP_POLICIES for s in SWEEP_SDRS]
    bad: dict[tuple, str] = {}
    fod = {(r["policy"], r["sdr"], r["seed"]): r for r in _rows(os.path.join(out_dir, "fod.csv"))}
    adfd = {(r["policy"], r["sdr"], r["seed"]): r for r in _rows(os.path.join(out_dir, "adfd.csv"))}
    dist: dict[tuple, float] = {}
    for r in _rows(os.path.join(out_dir, "delaydist.csv")):
        dist[(r["policy"], r["sdr"])] = dist.get((r["policy"], r["sdr"]), 0.0) + float(r["fraction"])
    if len(fod) != 2 * len(cells) or len(adfd) != 2 * len(cells):
        bad[("all", "")] = f"expected {2 * len(cells)} fod/adfd rows, got {len(fod)}/{len(adfd)}"
    for cell in cells:
        row, mean = fod.get((*cell, str(seed))), fod.get((*cell, "mean"))
        arow, amean = adfd.get((*cell, str(seed))), adfd.get((*cell, "mean"))
        if None in (row, mean, arow, amean):
            bad[cell] = "missing rows"
            continue
        share = float(row["fod"])
        if not (int(row["n"]) > 0 and 0.0 <= share <= 1.0):
            bad[cell] = f"n={row['n']} fod={row['fod']}"
        elif (row["fod"], row["n"], arow["adfd_minutes"]) != (mean["fod"], mean["n"], amean["adfd_minutes"]):
            bad[cell] = "single-seed mean row differs from the seed row"
        elif (arow["adfd_minutes"] == "NA") != (share == 0.0):
            bad[cell] = f"adfd={arow['adfd_minutes']} with fod={row['fod']}"
        elif share > 0.0 and not math.isclose(dist.get(cell, 0.0), 1.0, abs_tol=1e-6):
            bad[cell] = f"delay histogram sums to {dist.get(cell, 0.0)}"
    for name in SWEEP_FIGURES:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or "</svg>" not in Path(path).read_text(encoding="utf-8"):
            bad[("all", "")] = f"{name} missing or truncated"
    failed = len(cells) if ("all", "") in bad else len(bad)
    return len(cells), failed, [f"{c[0]}@{c[1]}: {why}" for c, why in bad.items()]


def check_verify(out_dir, stdout: str, seed: int):
    """(instance, policy) pairs; any audit violation or optimum mismatch fails its pairs."""
    match = _VERIFY_SUMMARY.search(stdout)
    if match is None:
        return 1, 1, ["verify printed no summary line"]
    steady, cycling, n_policies, n_violations, n_mismatches = (int(x) for x in match.groups())
    attempted = (steady + cycling) * n_policies
    pairs = set()
    for r in _rows(os.path.join(out_dir, "violations.csv")):
        found = _VIOLATION_PAIR.search(r.get("detail", ""))
        pairs.add(found.groups() if found else r.get("detail"))
    failed = min(attempted, len(pairs) + n_mismatches)
    problems = []
    if n_violations or n_mismatches or failed:
        problems.append(
            f"{n_violations} audit violation(s), {n_mismatches} optimum mismatch(es)")
    return attempted, failed, problems
