"""Evaluation metrics and the (policy, supply ratio, seed) sweep.

The headline quantities are the fraction of measured vehicles that left
late and the mean lateness of just those vehicles, plus the delay
distribution among them, all computed from the engine's `Outcomes`
columns. A sweep runs one simulation per grid cell, optionally across a
process pool, and appends seed-averaged rows.

A cell's fleet and its required energy depend only on its fleet key
(workload, arrival profile, charger, seed), not on the policy or the
ratio. `run_cells` hands cells out grouped by fleet key (seed-major for
a sweep's grid), and each process that runs them keeps the last key's
fleet in a memo, so a process generates each fleet at most once. The memo lives for one `run_cells`
call: a pool worker's dies with the pool, and the in-process one is
cleared when the call returns or raises. A direct `run_cell` call keeps
no memo and generates its fleet every time.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import Outcomes, RunStats, SimConfig, measurement_filter, run_simulation
from .policies import Policy
from .powergrid import (
    ChargerSpec,
    LoadShape,
    check_supply_ratio,
    day_capacity_profile,
    make_grid,
)
from .units import SLOT_MINUTES
from .workload import ArrivalProfile, WorkloadConfig, generate_fleet, total_required_energy

THREADS_ENV_VAR = "GRIDSHARE_THREADS"


@dataclass(frozen=True)
class MetricsReport:
    """One sweep cell (or a seed-averaged row, seed None)."""

    policy: str
    sdr: float
    seed: int | None
    n_measured: int
    fod: float
    adfd_minutes: float | None
    delay_histogram: tuple  # (lo_min, hi_min, fraction-of-delayed) triples


def fraction_delayed(outcomes: Outcomes) -> float:
    """Share of vehicles that left after their expected departure."""
    if not len(outcomes):
        raise ValueError("no outcomes to evaluate")
    return np.count_nonzero(outcomes.delayed) / len(outcomes)


# The delay metrics do their arithmetic on Python ints and floats over
# the delayed rows only, so the reported numbers do not depend on numpy's
# summation order.
def _delays(outcomes: Outcomes) -> list[int]:
    """The delays in slots of the vehicles that left late."""
    return outcomes.delay_slots[outcomes.delayed].tolist()


def average_delay_of_delayed(outcomes: Outcomes) -> float | None:
    """Mean delay in minutes over delayed vehicles; None when none were."""
    delays = _delays(outcomes)
    if not delays:
        return None
    return SLOT_MINUTES * sum(delays) / len(delays)


def delay_distribution(outcomes: Outcomes, bin_width_min: float) -> tuple:
    """Histogram of delay minutes, normalized over delayed vehicles.

    Bins are [i*w, (i+1)*w); the fractions sum to 1.
    """
    if bin_width_min <= 0:
        raise ValueError("bin width must be positive")
    delays = [SLOT_MINUTES * d for d in _delays(outcomes)]
    if not delays:
        raise ValueError("no delayed vehicles")
    n_bins = int(max(delays) // bin_width_min) + 1
    counts = [0] * n_bins
    for d in delays:
        counts[int(d // bin_width_min)] += 1
    total = len(delays)
    return tuple(
        (i * bin_width_min, (i + 1) * bin_width_min, c / total)
        for i, c in enumerate(counts)
    )


@dataclass(frozen=True)
class SweepBase:
    """Everything a sweep cell needs besides (policy, sdr, seed)."""

    workload: WorkloadConfig
    profile: ArrivalProfile
    shape: LoadShape
    charger: ChargerSpec
    warmup_days: int
    last_measured_day: int
    peak_other_fraction: float
    bin_width_min: float


def run_cell(
    base: SweepBase, policy: Policy, sdr: float, seed: int, trace_path=None, memo=None
) -> tuple[MetricsReport, Outcomes]:
    """Generate the seed's fleet, calibrate, simulate, and summarize.

    Returns the cell's report and every vehicle's outcome; trace_path,
    if given, receives the engine's per-slot trace. memo is the fleet
    memo of the `run_cells` call running this cell; without one the
    fleet is generated afresh.
    """
    fleet, tpr = _seed_work(base, seed, {} if memo is None else memo)
    grid = make_grid(base.shape, tpr, sdr, base.peak_other_fraction)
    cfg = SimConfig(
        policy=policy, days=base.workload.days,
        warmup_days=base.warmup_days, last_measured_day=base.last_measured_day,
    )
    # Nothing here reads the stats; the benchmark's engine span hooks read
    # them from the `stats` keyword.
    outcomes = run_simulation(
        cfg, fleet, day_capacity_profile(grid, base.charger), stats=RunStats(), trace_path=trace_path,
    )
    report = build_report(policy.name, sdr, seed, measurement_filter(outcomes), base.bin_width_min)
    return report, outcomes


def _fleet_key(base: SweepBase, seed: int) -> tuple:
    """What a generated fleet depends on."""
    return base.workload, base.profile, base.charger, seed


def _seed_work(base: SweepBase, seed: int, memo: dict) -> tuple:
    """The fleet and its daily required energy.

    memo holds at most one fleet key's work: the same key returns it
    again, another key replaces it.
    """
    key = _fleet_key(base, seed)
    if key not in memo:
        memo.clear()  # the old fleet goes before the new one is built
        fleet = generate_fleet(base.workload, base.profile, base.charger, seed)
        memo[key] = fleet, total_required_energy(fleet, base.workload.days)
    return memo[key]


def build_report(
    policy_name: str,
    sdr: float,
    seed: int | None,
    measured: Outcomes,
    bin_width_min: float,
) -> MetricsReport:
    fod = fraction_delayed(measured)
    adfd = average_delay_of_delayed(measured)
    if measured.delayed.any():
        histogram = delay_distribution(measured, bin_width_min)
    else:
        histogram = ()
    return MetricsReport(
        policy=policy_name, sdr=sdr, seed=seed, n_measured=len(measured),
        fod=fod, adfd_minutes=adfd, delay_histogram=histogram,
    )


# A sweep pool worker's fleet memo, set by _start_worker in the worker
# process only; it dies with the pool.
_worker_memo: dict | None = None


def _start_worker() -> None:
    global _worker_memo
    _worker_memo = {}


def _run_cell_entry(cell, memo=None):
    base, policy, sdr, seed = cell
    try:
        return run_cell(base, policy, sdr, seed, memo=_worker_memo if memo is None else memo)[0]
    except Exception as exc:
        # A refused input stays a ValueError (a config error), anything else is a runtime one.
        error = ValueError if isinstance(exc, ValueError) else RuntimeError
        raise error(f"sweep cell policy={policy.name} sdr={sdr} seed={seed} failed: {exc}") from exc


def resolve_workers(max_workers: int | None = None) -> int:
    """The pool size: max_workers, else $GRIDSHARE_THREADS, else the CPU count.

    Raises ValueError for a count below 1 or a non-integer variable.
    """
    if max_workers is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if env is None:
            return os.cpu_count() or 1
        try:
            max_workers = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR}={env!r} is not a whole number") from None
    if max_workers < 1:
        raise ValueError(f"worker count must be at least 1, not {max_workers}")
    return max_workers


def run_cells(cells: Sequence[tuple], max_workers: int | None = None) -> list[MetricsReport]:
    """One report per (base, policy, sdr, seed) cell, in the order given.

    Cells run independently, across a process pool when more than one
    worker is allowed. They are handed out grouped by fleet key, keys in
    the order they first appear, and each process keeps the last key's
    fleet in a memo, so it generates each fleet at most once. The memo
    lives for this call only: a pool worker's dies with the pool, and
    the in-process one is cleared when the call returns or raises.
    Raises ValueError before any cell runs if there are no cells or a
    supply ratio is outside [1, `powergrid.MAX_SUPPLY_RATIO`].
    """
    if not cells:
        raise ValueError("no cells to run: at least one policy, ratio and seed required")
    for _, _, sdr, _ in cells:
        check_supply_ratio(sdr)
    groups: dict[tuple, list[int]] = {}
    for index, (base, _, _, seed) in enumerate(cells):
        groups.setdefault(_fleet_key(base, seed), []).append(index)
    order = [index for group in groups.values() for index in group]
    dispatch = [cells[index] for index in order]

    workers = min(resolve_workers(max_workers), len(cells))
    if workers > 1:
        # Imported here: simulate and verify never start a pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker) as pool:
            results = list(pool.map(_run_cell_entry, dispatch, chunksize=1))
    else:
        memo: dict = {}
        try:
            results = [_run_cell_entry(cell, memo) for cell in dispatch]
        finally:
            memo.clear()

    reports: list = [None] * len(cells)
    for index, report in zip(order, results):
        reports[index] = report
    return reports


def sweep(
    policies: Sequence[Policy],
    sdr_grid: Sequence[float],
    seeds: Sequence[int],
    base: SweepBase,
    max_workers: int | None = None,
) -> list[MetricsReport]:
    """One report per (policy, sdr, seed) plus a seed-averaged row per curve.

    The grid's cells go to `run_cells`, which runs them seed-major (each
    seed's fleet is generated at most once per process, and the fleet
    memo lives for this call only). The output order is canonical
    regardless of run order: policies in the given order, ratios
    ascending, seeds ascending, averaged row last.
    """
    sdr_grid = sorted(sdr_grid)
    seeds = sorted(seeds)
    cells = [(base, p, sdr, seed) for p in policies for sdr in sdr_grid for seed in seeds]
    reports = run_cells(cells, max_workers)

    table: list[MetricsReport] = []
    for start in range(0, len(reports), len(seeds)):
        group = reports[start:start + len(seeds)]
        table.extend(group)
        table.append(average_reports(group))
    return table


def average_reports(group: Sequence[MetricsReport]) -> MetricsReport:
    """Seed-averaged row: unweighted means across the per-seed reports."""
    if not group:
        raise ValueError("nothing to average")
    fod = sum(r.fod for r in group) / len(group)
    adfds = [r.adfd_minutes for r in group if r.adfd_minutes is not None]
    adfd = sum(adfds) / len(adfds) if adfds else None
    return MetricsReport(
        policy=group[0].policy, sdr=group[0].sdr, seed=None,
        n_measured=sum(r.n_measured for r in group),
        fod=fod, adfd_minutes=adfd,
        delay_histogram=_average_histograms(group),
    )


def _average_histograms(group):
    with_delays = [r for r in group if r.delay_histogram]
    if not with_delays:
        return ()
    width = with_delays[0].delay_histogram[0][1] - with_delays[0].delay_histogram[0][0]
    n_bins = max(len(r.delay_histogram) for r in with_delays)
    sums = [0.0] * n_bins
    for r in with_delays:
        for i, (_, _, frac) in enumerate(r.delay_histogram):
            sums[i] += frac
    return tuple(
        (i * width, (i + 1) * width, s / len(with_delays)) for i, s in enumerate(sums)
    )


# ---------------------------------------------------------------------------
# CSV output contracts


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _seed_label(seed: int | None) -> str:
    return "mean" if seed is None else str(seed)


def write_fod_csv(reports: Sequence[MetricsReport], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "sdr", "seed", "n", "fod"])
        for r in reports:
            writer.writerow([r.policy, _fmt(r.sdr), _seed_label(r.seed), r.n_measured, _fmt(r.fod)])


def write_adfd_csv(reports: Sequence[MetricsReport], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "sdr", "seed", "n", "adfd_minutes"])
        for r in reports:
            value = "NA" if r.adfd_minutes is None else _fmt(r.adfd_minutes)
            writer.writerow([r.policy, _fmt(r.sdr), _seed_label(r.seed), r.n_measured, value])


def write_delaydist_csv(reports: Sequence[MetricsReport], path) -> None:
    """Seed-averaged delay histograms, one row per (curve, bin)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "sdr", "bin_lo_min", "bin_hi_min", "fraction"])
        for r in reports:
            if r.seed is not None:
                continue
            for lo, hi, frac in r.delay_histogram:
                writer.writerow([r.policy, _fmt(r.sdr), _fmt(lo), _fmt(hi), _fmt(frac)])


def write_outcomes_csv(outcomes: Outcomes, path) -> None:
    """Raw per-vehicle results, sufficient to recompute every metric.

    Every field is an integer (the two flags as 0/1), so nothing needs
    quoting: each row is formatted directly, with csv.writer's "\r\n"
    line ending, and handed to the file's own buffer. That writes the
    bytes csv.writer wrote at about half the cost; joining rows into
    blocks first costs no less and raised the benchmark's peak RSS.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write = fh.write
        write("id,arrival_slot,expected_departure_slot,satisfied_slot,"
              "actual_departure_slot,delay_slots,delayed,measured\r\n")
        for row in zip(*(column.tolist() for column in outcomes.columns())):
            write("%d,%d,%d,%d,%d,%d,%d,%d\r\n" % row)
