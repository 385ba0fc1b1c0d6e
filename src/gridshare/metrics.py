"""Evaluation metrics and the (policy, supply ratio, seed) sweep.

The headline quantities are the fraction of measured vehicles that left
late and the mean lateness of just those vehicles, plus the delay
distribution among them. Which vehicles are measured is decided here,
not in the engine: `SweepBase` holds the measurement window (the
arrival days between the warm-up and the tail) and the delay
histogram's bin width, and checks both when it is built. A sweep runs
one simulation per grid cell, optionally across a process pool, and
appends seed-averaged rows. Fleet rows, and so outcome rows, come in
arrival order, so the measured vehicles are one run of rows
(`SweepBase.measured_ranks`): a cell reads their delays, a sweep cell
asks the engine for those ranks only and its run ends once the last of
them has left, and `outcomes.csv` flags them. `run_cell` without
`measured_only` (what `simulate` runs) still simulates every vehicle,
since `outcomes.csv` lists them all. At seed 1 of the default scenario
(`fcfs`, `rr` and `minmax-dt` at ratios 1.05 and 2.0), a sweep cell's
run ends at slot 4002-4034 of the 4577-4580 a full run takes. The
engine is causal, so every sweep output is that of a full run; one
difference follows: a sweep cell whose unmeasured tail would never
drain finishes, where a full run (`simulate`, `verify`, the tests)
raises at the engine's drain bound.

A cell's fleet and its required energy depend only on its fleet key
(workload, arrival profile, charger, seed), not on the policy or the
ratio. `run_cells` hands cells out grouped by fleet key (seed-major for
a sweep's grid), and each process that runs them keeps the last key's
fleet and required energy in the module's memo, so a process generates
each fleet, and with it the run data every run over it reads (see
`workload.Fleet`), at most once. The memo lives for one `run_cells`
call: it is empty outside the call, so a pool worker, forked or
spawned, starts with it empty; a pool worker's dies with the pool, and
the in-process one is cleared when the call returns or raises. A direct
`run_cell` call keeps no memo and generates its fleet every time. The
measured ranks are not memoized with the fleet, since cells that share
a fleet may not share a window.

Each CSV writer writes the one file at the path it is given; `cli.run`
calls them through `cli.RunDir.write` once the command has its results.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import Outcomes, RunStats, run_simulation
from .policies import Policy
from .powergrid import (
    ChargerSpec,
    LoadShape,
    check_supply_ratio,
    day_capacity_profile,
    make_grid,
)
from .units import SLOT_MINUTES, SLOTS_PER_DAY
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

    def __post_init__(self):
        if self.warmup_days < 0:
            raise ValueError(f"warmup_days must be 0 or more, not {self.warmup_days}")
        if not self.warmup_days < self.last_measured_day < self.workload.days:
            raise ValueError(
                f"need warmup_days < last_measured_day < days, but warmup_days={self.warmup_days}, "
                f"last_measured_day={self.last_measured_day} and days={self.workload.days}: "
                "set warmup_days and last_measured_day, or raise days (--days)")
        check_bin_width(self.bin_width_min)

    def measured_ranks(self, arrival_slot: np.ndarray) -> range:
        """The rows of ascending arrival slots (a fleet's or an outcome table's)
        that arrive in zero-based days warmup_days to last_measured_day - 1."""
        first, stop = np.searchsorted(
            arrival_slot, (self.warmup_days * SLOTS_PER_DAY, self.last_measured_day * SLOTS_PER_DAY))
        return range(int(first), int(stop))


def check_bin_width(bin_width_min: float) -> None:
    """Refuse a delay-histogram bin narrower than one slot: the histogram has
    max delay / width bins, so only a bound on the width bounds its length."""
    if bin_width_min <= 0.0:
        raise ValueError(f"bin_width_min must be positive, not {bin_width_min:g}")
    if bin_width_min < SLOT_MINUTES:
        raise ValueError(
            f"bin_width_min must be at least one slot ({SLOT_MINUTES} minutes), not "
            f"{bin_width_min:g}: delays are whole slots, so a narrower bin only adds empty bins")


def run_cell(
    base: SweepBase, policy: Policy, sdr: float, seed: int, trace_path=None, memo=None,
    measured_only: bool = False,
) -> tuple[MetricsReport, Outcomes]:
    """Generate the seed's fleet, calibrate, simulate, and summarize.

    Returns the cell's report and every vehicle's outcome, or with
    measured_only the measured vehicles' outcomes from a run that ends
    once the last of them has left; the report is the same either way.
    trace_path, if given, receives the engine's per-slot trace. memo is
    the fleet memo of the `run_cells` call running this cell; without
    one the fleet is generated afresh. Raises ValueError before the run
    if no vehicle arrives in the measurement window.
    """
    fleet, tpr = _seed_work(base, seed, {} if memo is None else memo)
    measured = base.measured_ranks(fleet.arrival_slot)
    if not measured:
        raise ValueError(f"measurement window empty: no vehicle arrives between warmup_days="
                         f"{base.warmup_days} and last_measured_day={base.last_measured_day}")
    grid = make_grid(base.shape, tpr, sdr, base.peak_other_fraction)
    # Nothing here reads the stats; the benchmark's engine span hooks read
    # them from the `stats` keyword.
    outcomes = run_simulation(
        policy, fleet, day_capacity_profile(grid, base.charger),
        ranks=measured if measured_only else None, stats=RunStats(), trace_path=trace_path,
    )
    rows = base.measured_ranks(outcomes.arrival_slot)
    delays = outcomes.delay_slots[rows.start:rows.stop].tolist()
    return build_report(policy.name, sdr, seed, delays, base.bin_width_min), outcomes


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
    delays: Sequence[int],
    bin_width_min: float,
) -> MetricsReport:
    """A cell's report from the delays in slots of its measured vehicles (0 for on time).

    fod is the share of delays above 0, adfd their mean in minutes (None
    when no vehicle was late), and the histogram bins their minutes into
    [i*w, (i+1)*w) as fractions of the late vehicles that sum to 1
    (empty when none was late). The arithmetic is on Python ints and
    floats, so the numbers do not depend on numpy's summation order.
    """
    if not delays:
        raise ValueError("measurement window empty")
    check_bin_width(bin_width_min)
    late = [SLOT_MINUTES * d for d in delays if d > 0]
    adfd, histogram = None, ()
    if late:
        adfd = sum(late) / len(late)
        counts = [0] * (int(max(late) // bin_width_min) + 1)
        for d in late:
            counts[int(d // bin_width_min)] += 1
        histogram = tuple(
            (i * bin_width_min, (i + 1) * bin_width_min, c / len(late))
            for i, c in enumerate(counts)
        )
    return MetricsReport(
        policy=policy_name, sdr=sdr, seed=seed, n_measured=len(delays),
        fod=len(late) / len(delays), adfd_minutes=adfd, delay_histogram=histogram,
    )


# This process's sweep fleet memo; the module docstring states its lifetime.
_memo: dict = {}


def _run_cell_entry(cell):
    base, policy, sdr, seed = cell
    try:
        return run_cell(base, policy, sdr, seed, memo=_memo, measured_only=True)[0]
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
    fleet in the module's memo, so it generates each at most once.
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

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell_entry, dispatch, chunksize=1))
    else:
        try:
            results = [_run_cell_entry(cell) for cell in dispatch]
        finally:
            _memo.clear()

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

    The grid's cells go to `run_cells`, which runs them seed-major. The
    output order is canonical regardless of run order: policies in the
    given order, ratios ascending, seeds ascending, averaged row last.
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
    _write_curve_csv(reports, path, "fod", [_fmt(r.fod) for r in reports])


def write_adfd_csv(reports: Sequence[MetricsReport], path) -> None:
    _write_curve_csv(reports, path, "adfd_minutes",
                     ["NA" if r.adfd_minutes is None else _fmt(r.adfd_minutes) for r in reports])


def _write_curve_csv(reports, path, column: str, values) -> None:
    """One row per report: its policy, sdr, seed and measured count, then its value under column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "sdr", "seed", "n", column])
        for r, value in zip(reports, values):
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


# Rows of outcomes.csv that `write_outcomes_csv` encodes at a time.
OUTCOMES_BLOCK_ROWS = 4096


def write_outcomes_csv(outcomes: Outcomes, measured: range, path) -> None:
    """Raw per-vehicle results, sufficient to recompute every metric.

    The engine's columns are followed by two 0/1 flags: delayed (delay
    above 0) and measured (the row is in measured, the range that
    `SweepBase.measured_ranks` gives for the arrival slots). Every field
    is an integer, so nothing needs quoting: the file holds exactly the
    bytes of `"%d,%d,%d,%d,%d,%d,%d,%d\\r\\n" % row` for each row (the
    bytes csv.writer wrote), for any int64 value. They are encoded in
    numpy by `_encode_int_rows`, `OUTCOMES_BLOCK_ROWS` rows at a time,
    and written in binary mode. Formatting one row at a time took 12-13%
    of a default-scale `simulate` call's CPU (25-33 ms for 22.4k rows on
    a 2-core host); the blocks take about a sixth of that, and the
    writer's allocations peak at 0.8 MB against the row loop's 5 MB.
    """
    flags = np.zeros(len(outcomes), dtype=np.int64)
    flags[measured.start:measured.stop] = 1
    columns = (*outcomes.columns(), (outcomes.delay_slots > 0).astype(np.int64), flags)
    with open(path, "wb") as fh:
        fh.write(b"id,arrival_slot,expected_departure_slot,satisfied_slot,"
                 b"actual_departure_slot,delay_slots,delayed,measured\r\n")
        for start in range(0, len(outcomes), OUTCOMES_BLOCK_ROWS):
            fh.write(_encode_int_rows([column[start:start + OUTCOMES_BLOCK_ROWS] for column in columns]))


def _encode_int_rows(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The bytes of `"%d,...,%d\\r\\n" % row` for each row of equal-length
    int64 columns (at least one row), as a uint8 array.

    Each field gets a fixed-width byte column: a '-' column if the field
    has a negative value, then as many digit columns as its largest
    magnitude has digits, then the separator. Digits are written from
    the right, one floor division by ten per position; a digit is kept
    if it is the last or what is left of the value before it is not 0,
    and a '-' if the value is negative. The kept bytes, read row by row,
    are the rows. Magnitudes are uint64, so int64's minimum has one.
    """
    fields = []
    for column in columns:
        value = np.asarray(column, dtype=np.int64)
        negative = value < 0
        bits = value.view(np.uint64)
        if negative.any():
            magnitude = np.where(negative, 0 - bits, bits)
        else:
            magnitude, negative = bits, None
        fields.append((magnitude, negative, len(str(int(magnitude.max())))))
    width = sum(digits + (negative is not None) + 1 for _, negative, digits in fields) + 1
    out = np.empty((len(columns[0]), width), dtype=np.uint8)
    keep = np.ones(out.shape, dtype=bool)
    at = 0
    for magnitude, negative, digits in fields:
        if negative is not None:
            out[:, at] = ord("-")
            keep[:, at] = negative
            at += 1
        last = at + digits - 1
        for j in range(last, at - 1, -1):
            if j < last:
                keep[:, j] = magnitude != 0
            quotient = magnitude // 10
            out[:, j] = magnitude - quotient * 10 + ord("0")
            magnitude = quotient
        at += digits
        out[:, at] = ord(",")
        at += 1
    out[:, at - 1] = ord("\r")
    out[:, at] = ord("\n")
    return out[keep]
