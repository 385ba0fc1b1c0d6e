"""Evaluation metrics, report building, sweep harness, CSV contracts."""

import csv
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scenario
from gridshare import cli, engine, metrics
from gridshare.engine import Outcomes
from gridshare.metrics import (
    average_reports,
    build_report,
    run_cell,
    run_cells,
    sweep,
    write_adfd_csv,
    write_delaydist_csv,
    write_fod_csv,
    write_outcomes_csv,
)
from gridshare.policies import parse_policy
from gridshare.units import SLOTS_PER_DAY
from gridshare.workload import generate_fleet


def delays_from_minutes(minutes):
    """The delays in slots of measured vehicles that each left the given minutes after their expected departure."""
    return [m // 5 for m in minutes]


def report_from_minutes(minutes, bin_width_min=30.0):
    return build_report("fcfs", 1.2, 1, delays_from_minutes(minutes), bin_width_min)


# --- headline metrics --------------------------------------------------------


def test_fraction_delayed_examples():
    assert report_from_minutes([0, 0, 15, 25]).fod == 0.5
    assert report_from_minutes([0, 0, 0]).fod == 0.0
    with pytest.raises(ValueError, match="measurement window empty"):
        report_from_minutes([])


def test_average_delay_examples():
    assert report_from_minutes([0, 0, 15, 25]).adfd_minutes == 20.0
    assert report_from_minutes([125]).adfd_minutes == 125.0
    assert report_from_minutes([0, 0]).adfd_minutes is None


def test_delay_distribution_examples():
    histogram = report_from_minutes([10, 10, 130], 60.0).delay_histogram
    assert histogram[0] == (0.0, 60.0, pytest.approx(2 / 3))
    assert histogram[1][2] == 0.0
    assert histogram[2] == (120.0, 180.0, pytest.approx(1 / 3))


def test_delay_distribution_point_mass():
    histogram = report_from_minutes([45], 30.0).delay_histogram
    assert histogram == ((0.0, 30.0, 0.0), (30.0, 60.0, 1.0))


def test_delay_distribution_errors():
    with pytest.raises(ValueError, match="bin_width_min must be positive, not 0$"):
        report_from_minutes([10], 0.0)
    with pytest.raises(ValueError, match=r"at least one slot \(5 minutes\), not 0.5: delays are whole slots"):
        report_from_minutes([10], 0.5)
    # Without a late vehicle there is nothing to bin.
    assert report_from_minutes([0]).delay_histogram == ()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=60),
       st.sampled_from([15.0, 30.0, 60.0]))
def test_distribution_mass_and_cdf_monotonicity(delays, width):
    if not any(delays):
        return
    histogram = build_report("fcfs", 1.2, 1, delays, width).delay_histogram
    assert sum(f for _, _, f in histogram) == pytest.approx(1.0)
    values = list(itertools.accumulate(f for _, _, f in histogram))
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(1.0)


# --- reports and averaging ---------------------------------------------------


def test_build_report_without_delays_has_empty_distribution():
    report = build_report("fcfs", 1.5, 1, delays_from_minutes([0, 0]), 30.0)
    assert report.fod == 0.0
    assert report.adfd_minutes is None
    assert report.delay_histogram == ()


def test_average_reports_means_and_sums():
    a = build_report("fcfs", 1.2, 1, delays_from_minutes([0, 30]), 30.0)
    b = build_report("fcfs", 1.2, 2, delays_from_minutes([0, 0, 60, 90]), 30.0)
    avg = average_reports([a, b])
    assert avg.seed is None
    assert avg.n_measured == 6
    assert avg.fod == pytest.approx((0.5 + 0.5) / 2)
    assert min(a.fod, b.fod) <= avg.fod <= max(a.fod, b.fod)
    assert avg.adfd_minutes == pytest.approx((30.0 + 75.0) / 2)
    assert sum(f for _, _, f in avg.delay_histogram) == pytest.approx(1.0)


def test_average_reports_ignores_na_delay_averages():
    a = build_report("fcfs", 1.2, 1, delays_from_minutes([0, 0]), 30.0)
    b = build_report("fcfs", 1.2, 2, delays_from_minutes([0, 40]), 30.0)
    avg = average_reports([a, b])
    assert avg.adfd_minutes == pytest.approx(40.0)
    all_zero = average_reports([a, a])
    assert all_zero.adfd_minutes is None


# --- sweep -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_base():
    return scenario(days=4, arrivals_per_day=60, warmup_days=1, last_measured_day=2).base


def test_single_cell_sweep_equals_direct_run(tiny_base):
    policy = parse_policy("fcfs")
    table = sweep([policy], [1.1], [5], tiny_base, max_workers=1)
    direct, _ = run_cell(tiny_base, policy, 1.1, 5)
    assert len(table) == 2  # the cell plus its averaged row
    assert table[0] == direct
    assert table[1].seed is None
    assert table[1].fod == pytest.approx(direct.fod)


def test_sweep_canonical_ordering_and_determinism(tiny_base):
    policies = [parse_policy("minmax-dt"), parse_policy("fcfs")]
    table = sweep(policies, [1.3, 1.1], [2, 1], tiny_base, max_workers=2)
    labels = [(r.policy, r.sdr, r.seed) for r in table]
    assert labels == [
        ("minmax-dt", 1.1, 1), ("minmax-dt", 1.1, 2), ("minmax-dt", 1.1, None),
        ("minmax-dt", 1.3, 1), ("minmax-dt", 1.3, 2), ("minmax-dt", 1.3, None),
        ("fcfs", 1.1, 1), ("fcfs", 1.1, 2), ("fcfs", 1.1, None),
        ("fcfs", 1.3, 1), ("fcfs", 1.3, 2), ("fcfs", 1.3, None),
    ]
    again = sweep(policies, [1.3, 1.1], [2, 1], tiny_base, max_workers=1)
    assert table == again


@pytest.fixture
def fleet_seeds(monkeypatch):
    """The seed of every fleet that metrics generates, in call order."""
    seeds = []

    def counted(workload, profile, charger, seed):
        seeds.append(seed)
        return generate_fleet(workload, profile, charger, seed)

    monkeypatch.setattr(metrics, "generate_fleet", counted)
    return seeds


def test_in_process_sweep_generates_each_fleet_once(tiny_base, fleet_seeds):
    policies = [parse_policy(name) for name in ("fcfs", "rr", "minmax-dt")]
    table = sweep(policies, [1.3, 1.1], [2, 1], tiny_base, max_workers=1)
    assert fleet_seeds == [1, 2]  # seed-major: every seed-1 cell runs first
    for report in table:
        if report.seed is not None:
            policy = next(p for p in policies if p.name == report.policy)
            assert report == run_cell(tiny_base, policy, report.sdr, report.seed)[0]


def test_direct_runs_generate_their_fleet_every_time(tiny_base, fleet_seeds, tmp_path):
    policy = parse_policy("fcfs")
    assert run_cell(tiny_base, policy, 1.1, 1) == run_cell(tiny_base, policy, 1.1, 1)
    assert fleet_seeds == [1, 1]
    argv = ["simulate", "--days", "4", "--arrivals-per-day", "60",
            "--policy", "fcfs", "--sdr", "1.1", "--seed", "3"]
    for out in ("a", "b"):
        assert cli.run(argv + ["--out", str(tmp_path / out)]) == cli.EXIT_OK
    assert fleet_seeds == [1, 1, 3, 3]


def test_sweep_rejects_bad_grid(tiny_base):
    with pytest.raises(ValueError):
        sweep([parse_policy("fcfs")], [0.9], [1], tiny_base)
    with pytest.raises(ValueError):
        sweep([], [1.1], [1], tiny_base)


def test_run_cells_rejects_bad_cells_before_running_any(tiny_base, fleet_seeds):
    with pytest.raises(ValueError):
        run_cells([])
    cells = [(tiny_base, parse_policy("fcfs"), 1.1, 1), (tiny_base, parse_policy("fcfs"), 0.9, 2)]
    with pytest.raises(ValueError):
        run_cells(cells, max_workers=1)
    assert fleet_seeds == []


def test_sweep_base_window_validation():
    with pytest.raises(ValueError, match="need warmup_days < last_measured_day < days"):
        scenario(days=10, warmup_days=9, last_measured_day=9)
    base = scenario().base
    with pytest.raises(ValueError, match="warmup_days must be 0 or more, not -1"):
        dataclasses.replace(base, warmup_days=-1)
    # A window may open on the first day.
    assert dataclasses.replace(base, warmup_days=0).measured_ranks(np.array([0, 3743, 3744])) == range(0, 2)


def test_sweep_base_refuses_a_bin_narrower_than_a_slot():
    base = scenario().base
    with pytest.raises(ValueError, match="bin_width_min must be positive, not 0$"):
        dataclasses.replace(base, bin_width_min=0.0)
    with pytest.raises(ValueError, match=r"at least one slot \(5 minutes\), not 0.01: delays are whole slots"):
        dataclasses.replace(base, bin_width_min=0.01)
    assert dataclasses.replace(base, bin_width_min=5.0).bin_width_min == 5.0


def test_sweep_cell_measures_part_of_its_outcomes(tiny_base):
    report, outcomes = run_cell(tiny_base, parse_policy("rr"), 1.4, 3)
    assert 0 < report.n_measured < len(outcomes)


@pytest.mark.parametrize("name", ["minmax-dt", "rr-simple"])
def test_measured_only_cell_stops_once_its_last_measured_vehicle_has_left(tiny_base, monkeypatch, name):
    runs = []

    def recorded_run(*args, **kwargs):
        runs.append(kwargs["stats"])
        return engine.run_simulation(*args, **kwargs)

    monkeypatch.setattr(metrics, "run_simulation", recorded_run)
    policy = parse_policy(name)
    full_report, full = run_cell(tiny_base, policy, 1.05, 3)
    report, measured = run_cell(tiny_base, policy, 1.05, 3, measured_only=True)
    assert report == full_report
    rows = tiny_base.measured_ranks(full.arrival_slot)
    assert measured == Outcomes(*(column[rows.start:rows.stop] for column in full.columns()))
    # The window is zero-based day 1 alone.
    in_window = (full.arrival_slot >= SLOTS_PER_DAY) & (full.arrival_slot < 2 * SLOTS_PER_DAY)
    assert list(rows) == np.flatnonzero(in_window).tolist()
    assert runs[1].slots_run == measured.actual_departure_slot.max() < runs[0].slots_run


# --- CSV contracts -----------------------------------------------------------


def test_fod_and_adfd_csv_layout(tmp_path):
    reports = [
        build_report("fcfs", 1.2, 1, delays_from_minutes([0, 30]), 30.0),
        average_reports([build_report("fcfs", 1.2, 1, delays_from_minutes([0, 0]), 30.0)]),
    ]
    fod_path = tmp_path / "fod.csv"
    write_fod_csv(reports, fod_path)
    rows = list(csv.DictReader(open(fod_path, newline="")))
    assert rows[0] == {"policy": "fcfs", "sdr": "1.2", "seed": "1", "n": "2", "fod": "0.5"}
    assert rows[1]["seed"] == "mean"

    adfd_path = tmp_path / "adfd.csv"
    write_adfd_csv(reports, adfd_path)
    rows = list(csv.DictReader(open(adfd_path, newline="")))
    assert rows[0]["adfd_minutes"] == "30"
    assert rows[1]["adfd_minutes"] == "NA"  # no delayed vehicles: explicit marker


def test_delaydist_csv_uses_averaged_rows(tmp_path):
    per_seed = build_report("rr", 1.2, 1, delays_from_minutes([10, 40]), 30.0)
    avg = average_reports([per_seed])
    path = tmp_path / "delaydist.csv"
    write_delaydist_csv([per_seed, avg], path)
    rows = list(csv.DictReader(open(path, newline="")))
    assert all(r["policy"] == "rr" for r in rows)
    assert [r["bin_lo_min"] for r in rows] == ["0", "30"]
    assert sum(float(r["fraction"]) for r in rows) == pytest.approx(1.0)


def test_outcomes_csv_supports_independent_recomputation(tmp_path):
    delay = np.array(delays_from_minutes([0, 15, 0, 45, 125, 30]), dtype=np.int64)
    arrival = np.arange(len(delay), dtype=np.int64) * 100
    sample = Outcomes(np.arange(len(delay)), arrival, arrival + 50, arrival + 50 + delay,
                      arrival + 50 + delay, delay)
    in_window = range(5)
    path = tmp_path / "outcomes.csv"
    write_outcomes_csv(sample, in_window, path)

    # One-line oracle: recompute the headline numbers from the raw CSV.
    rows = list(csv.DictReader(open(path, newline="")))
    assert [r["delayed"] for r in rows] == ["0", "1", "0", "1", "1", "1"]  # delay above 0
    assert [r["measured"] for r in rows] == ["1"] * 5 + ["0"]
    measured = [r for r in rows if r["measured"] == "1"]
    delayed = [int(r["delay_slots"]) for r in measured if r["delayed"] == "1"]
    fod = len(delayed) / len(measured)
    adfd = 5.0 * sum(delayed) / len(delayed)

    report = build_report("fcfs", 1.2, 1, delay[:5].tolist(), 30.0)
    assert abs(fod - report.fod) < 1e-9
    assert abs(adfd - report.adfd_minutes) < 1e-9
    recomputed_delay = [
        int(r["actual_departure_slot"]) - int(r["expected_departure_slot"]) for r in rows
    ]
    assert recomputed_delay == [int(r["delay_slots"]) for r in rows]


# --- outcomes.csv encoding ----------------------------------------------------

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

OUTCOMES_HEADER = (b"id,arrival_slot,expected_departure_slot,satisfied_slot,"
                   b"actual_departure_slot,delay_slots,delayed,measured\r\n")


def outcomes_of(rows):
    """An outcome table of int64 (id, arrival, expected, satisfied, actual, delay) rows."""
    columns = np.array(rows, dtype=np.int64).reshape(-1, 6).T
    return Outcomes(*(np.ascontiguousarray(column) for column in columns))


def percent_d_bytes(rows, measured):
    """outcomes.csv as one `%d` format per row: the bytes the encoder must write."""
    return OUTCOMES_HEADER + b"".join(
        b"%d,%d,%d,%d,%d,%d,%d,%d\r\n" % (*row, row[5] > 0, i in measured)
        for i, row in enumerate(rows))


def written_outcomes(tmp_path, rows, measured):
    path = tmp_path / "outcomes.csv"
    write_outcomes_csv(outcomes_of(rows), measured, path)
    return path.read_bytes()


def edge_values():
    """Each side of every power of ten in int64, both signs, and int64's limits."""
    values = {0, INT64_MIN, INT64_MAX}
    for k in range(19):
        for v in (10**k - 1, 10**k, 10**k + 1):
            values.update(x for x in (v, -v) if INT64_MIN <= x <= INT64_MAX)
    return sorted(values)


def test_outcomes_csv_of_an_empty_table_is_its_header(tmp_path):
    assert written_outcomes(tmp_path, [], range(0)) == OUTCOMES_HEADER


def test_outcomes_csv_of_one_row(tmp_path):
    row = (7, 12, 40, 30, 43, 3)
    assert written_outcomes(tmp_path, [row], range(1)) == OUTCOMES_HEADER + b"7,12,40,30,43,3,1,1\r\n"


def test_outcomes_csv_writes_every_int64_edge_as_percent_d(tmp_path):
    values = edge_values()
    # Every column meets every value, next to values of other widths and signs.
    rows = [tuple(values[(i + 7 * c) % len(values)] for c in range(6)) for i in range(len(values))]
    measured = range(3, len(rows) - 3)
    assert written_outcomes(tmp_path, rows, measured) == percent_d_bytes(rows, measured)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_outcomes_csv_is_percent_d_across_block_edges(tmp_path, extra):
    n = metrics.OUTCOMES_BLOCK_ROWS + extra
    rng = np.random.default_rng(n)
    # Magnitudes of 1 to 19 digits, a few negative; the last rows are wider than the first block's.
    magnitudes = rng.integers(0, 2**62, size=(n, 6)) >> rng.integers(0, 63, size=(n, 6))
    signs = np.where(rng.random((n, 6)) < 0.05, -1, 1)
    rows = [tuple(row) for row in (magnitudes * signs).tolist()]
    rows[-1] = (INT64_MAX, INT64_MIN, 10**18, -10**18, 9, -1)
    measured = range(n // 3, n - 2)
    assert written_outcomes(tmp_path, rows, measured) == percent_d_bytes(rows, measured)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(min_value=INT64_MIN, max_value=INT64_MAX)] * 6), max_size=40),
       st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_outcomes_csv_is_percent_d_for_any_int64_table(tmp_path_factory, rows, start, stop):
    measured = range(min(start, len(rows)), min(max(start, stop), len(rows)))
    got = written_outcomes(tmp_path_factory.mktemp("outcomes"), rows, measured)
    assert got == percent_d_bytes(rows, measured)
