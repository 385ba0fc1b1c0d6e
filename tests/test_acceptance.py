"""Acceptance gate: headline quantitative claims at their stated tolerances.

Each test prints one pass/fail line. The sweep cells are computed once
per session with the command line's default configuration (around 1500
arrivals/day, 15 days, measurement window days 5-13, household charger,
seeds 1-3), in one `run_cells` call with the high-power charger's cells,
and shared across criteria. The criteria that are not about lateness
read what a cell is built from: the adjustment rate from each seed's
generated fleet, the calibration from each cell's grid rebuilt and
re-integrated, and the stability of the queue from one cell's outcomes.
"""

import numpy as np
import pytest

from conftest import realized_sdr, scenario
from gridshare import oracle
from gridshare.metrics import average_reports, run_cell, run_cells
from gridshare.policies import parse_policy
from gridshare.powergrid import make_grid
from gridshare.units import SLOTS_PER_DAY, SLOTS_PER_HOUR
from gridshare.workload import adjusted_departure_fraction, generate_fleet, total_required_energy

DEFAULT = scenario()
SEEDS = DEFAULT.seeds
BASES = {"home": DEFAULT.base, "dryer": scenario(charger="dryer-220-30").base}

# (charger, policy, supply ratios) of every curve the criteria read.
CURVES = [
    ("home", "minmax-dt", [1.05, 1.2]),
    ("home", "fdfs", [1.2, 1.4, 1.6]),
    ("home", "fcfs", [1.2, 2.0, 3.0]),
    ("home", "rr", [1.2, 3.0]),
    ("home", "minmax-er", [1.2, 3.0]),
    ("dryer", "fcfs", [2.0]),
]


@pytest.fixture(scope="module")
def tables():
    """Per charger, every cell the criteria need keyed by (policy, sdr,
    seed), with each curve's seed average under seed None."""
    cells = [(BASES[charger], parse_policy(name), sdr, seed)
             for charger, name, ratios in CURVES for sdr in ratios for seed in SEEDS]
    reports = iter(run_cells(cells))
    tables = {charger: {} for charger in BASES}
    for charger, name, ratios in CURVES:
        for sdr in ratios:
            group = [next(reports) for _ in SEEDS]
            tables[charger].update({(r.policy, r.sdr, r.seed): r for r in group})
            tables[charger][(name, sdr, None)] = average_reports(group)
    return tables


@pytest.fixture(scope="module")
def fleets():
    """Each (charger, seed) fleet the cells were run on, generated once."""
    return {(charger, seed): generate_fleet(base.workload, base.profile, base.charger, seed)
            for charger, base in BASES.items() for seed in SEEDS}


@pytest.fixture(scope="module")
def table(tables):
    return tables["home"]


@pytest.fixture(scope="module")
def dryer_table(tables):
    return tables["dryer"]


def mean_cell(table, policy, sdr):
    return table[(policy, sdr, None)]


def check(ok: bool, label: str) -> bool:
    print(("[PASS] " if ok else "[FAIL] ") + label)
    return ok


def tail_over_120(report):
    """Share of delayed vehicles late by 2 h or more."""
    return sum(frac for lo, _, frac in report.delay_histogram if lo >= 120.0)


def test_criterion_1_min_max_delay_near_feasibility(table):
    averaged = mean_cell(table, "minmax-dt", 1.05).fod
    seed_one = table[("minmax-dt", 1.05, 1)].fod
    ok = averaged < 0.05 and seed_one < 0.05
    assert check(ok, f"criterion 1: minmax-dt fod@1.05 = {averaged:.4f} (seed1 {seed_one:.4f}) < 0.05")


def test_criterion_2_earliest_departure_threshold(table):
    at_16 = mean_cell(table, "fdfs", 1.6).fod
    at_14 = mean_cell(table, "fdfs", 1.4).fod
    at_12 = mean_cell(table, "fdfs", 1.2).fod
    ok = at_16 < 0.05 and at_14 >= 0.05
    assert check(
        ok,
        f"criterion 2: fdfs fod = {at_12:.4f}@1.2, {at_14:.4f}@1.4, {at_16:.4f}@1.6 "
        "(>=0.05 up to 1.4, <0.05 at 1.6)",
    )


def test_criterion_3_uninformed_policies_threshold(table):
    ok = True
    parts = []
    for policy in ("fcfs", "rr", "minmax-er"):
        low = mean_cell(table, policy, 1.2).fod
        high = mean_cell(table, policy, 3.0).fod
        parts.append(f"{policy} {low:.3f}@1.2 {high:.3f}@3.0")
        ok = ok and low >= 0.10 and high <= 0.15
    assert check(ok, "criterion 3: " + "; ".join(parts) + " (>=0.10 at 1.2, <=0.15 at 3)")


def test_criterion_4_policy_ordering_at_moderate_ratio(table):
    fods = {p: mean_cell(table, p, 1.2).fod
            for p in ("minmax-dt", "fdfs", "fcfs", "rr", "minmax-er")}
    ok = (fods["minmax-dt"] <= fods["fdfs"] <= fods["fcfs"]
          <= fods["rr"] <= fods["minmax-er"])
    assert check(
        ok,
        "criterion 4: fod@1.2 ordering "
        + " <= ".join(f"{p}:{fods[p]:.3f}" for p in ("minmax-dt", "fdfs", "fcfs", "rr", "minmax-er")),
    )


def test_criterion_5_delay_tails_at_moderate_ratio(table):
    fcfs_tail = tail_over_120(mean_cell(table, "fcfs", 1.2))
    rr_tail = tail_over_120(mean_cell(table, "rr", 1.2))
    # For the worst policy the published figure counts vehicles late by
    # 2 h or more as a share of all measured vehicles.
    er = mean_cell(table, "minmax-er", 1.2)
    er_tail_of_delayed = tail_over_120(er)
    er_share_of_all = er_tail_of_delayed * er.fod
    ok = fcfs_tail > 0.05 and rr_tail > 0.05 and 0.20 <= er_share_of_all <= 0.50
    assert check(
        ok,
        f"criterion 5: of delayed, late 2 h or more: fcfs {fcfs_tail:.3f}, rr {rr_tail:.3f} (> 0.05); "
        f"minmax-er share of all vehicles {er_share_of_all:.3f} in [0.20, 0.50] "
        f"(of delayed: {er_tail_of_delayed:.3f})",
    )


def test_criterion_6_high_power_charger(table, dryer_table):
    home = mean_cell(table, "fcfs", 2.0).fod
    dryer = mean_cell(dryer_table, "fcfs", 2.0).fod
    ok = dryer <= 0.05 and 0.05 <= home <= 0.15
    assert check(
        ok,
        f"criterion 6: fcfs fod@2.0 home {home:.4f} in [0.05, 0.15], "
        f"high-power {dryer:.4f} <= 0.05",
    )


def test_criterion_7_departure_adjustment_rate(fleets):
    fractions = [adjusted_departure_fraction(fleets[("home", s)]) for s in SEEDS]
    averaged = sum(fractions) / len(fractions)
    ok = 0.02 <= averaged <= 0.08
    assert check(
        ok,
        f"criterion 7: adjusted departures {averaged:.4f} in [0.02, 0.08] "
        f"(per seed: {', '.join(f'{f:.4f}' for f in fractions)})",
    )


def test_criterion_8_oracle_equivalence(tmp_path):
    policies = [parse_policy(n) for n in ("fcfs", "fdfs", "rr", "minmax-er", "minmax-dt")]
    n_equality = 500
    n_varying = 100
    violations, mismatches = oracle.verify_campaign(
        policies, np.random.default_rng(2024), n_equality, n_varying, tmp_path / "trace.csv")
    ok = not mismatches and not violations
    assert check(
        ok,
        f"criterion 8: {n_equality} steady-capacity instances, {len(mismatches)} optimum "
        f"mismatches; audits over {n_equality + n_varying} instances x 5 policies, "
        f"{len(violations)} violations",
    )


def test_criterion_9_conservation_and_determinism(table):
    # Internal conservation checks run inside every cell above (the
    # engine raises on any violation); here repeatability is pinned too.
    policy = parse_policy("rr")
    first = run_cell(DEFAULT.base, policy, 1.1, 2)
    second = run_cell(DEFAULT.base, policy, 1.1, 2)
    ok = first == second and len(table) > 0
    assert check(
        ok,
        "criterion 9: conservation checks enforced in every cell; "
        f"repeat run identical = {first == second}",
    )


def test_criterion_10_calibration_round_trip(tables, fleets):
    # Each cell's grid, rebuilt from its fleet's requirement, delivers its
    # target ratio when re-integrated slot by slot.
    worst = 0.0
    cells = 0
    for charger, table in tables.items():
        base = BASES[charger]
        for r in table.values():
            if r.seed is None:
                continue
            tpr = total_required_energy(fleets[(charger, r.seed)], base.workload.days)
            grid = make_grid(base.shape, tpr, r.sdr, base.peak_other_fraction)
            worst = max(worst, abs(realized_sdr(grid) - r.sdr))
            cells += 1
    ok = worst <= 1e-6
    assert check(
        ok,
        f"criterion 10: supply ratio round-trip over {cells} cells, "
        f"max |realized - target| = {worst:.2e} <= 1e-6",
    )


def test_plugged_census_stable_inside_measurement_window():
    # Queue stability at the nightly census: no upward trend over the
    # measured days at the smallest supply margin. The census counts the
    # vehicles still plugged at the end of each day's 4 a.m. slot t: those
    # that arrived by t and leave after its boundary t + 1.
    _, outcomes = run_cell(DEFAULT.base, parse_policy("minmax-dt"), 1.05, 1)
    days = range(DEFAULT.base.warmup_days, DEFAULT.base.last_measured_day)  # one-based days 5..13
    census_slots = [d * SLOTS_PER_DAY + 4 * SLOTS_PER_HOUR for d in days]
    samples = [int(np.count_nonzero((outcomes.arrival_slot <= t) & (outcomes.actual_departure_slot > t + 1)))
               for t in census_slots]
    x = np.arange(len(samples))
    slope = float(np.polyfit(x, samples, 1)[0])
    mean = float(np.mean(samples))
    ok = slope <= max(2.0, 0.02 * mean)
    assert check(
        ok,
        f"stability: plugged census days 5-13 slope {slope:.2f}/day vs mean {mean:.0f}",
    )
