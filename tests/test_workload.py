"""Workload sampler distributions, determinism, and fleet assembly."""

import csv
import math

import numpy as np
import pytest

from gridshare import workload
from gridshare.policies import intervals_for_deficit
from gridshare.powergrid import charger_preset
from gridshare.workload import (
    ArrivalProfile,
    Fleet,
    Vehicle,
    adjusted_departure_fraction,
    dump_fleet_csv,
    generate_fleet,
    sample_arrivals,
    sample_connection_duration,
    sample_initial_charge,
    sample_required_miles,
)

from conftest import make_test_vehicle, scenario


def rng(seed=1):
    return np.random.default_rng(seed)


# --- arrival profile -------------------------------------------------------


def test_profile_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        ArrivalProfile(hourly_weights=(0.5,) + (0.1,) * 23, expected_daily_arrivals=100.0)


def test_profile_rejects_negative_weights():
    weights = [1.0 / 22] * 24
    weights[3] = -1.0 / 22
    weights[4] = 3.0 / 22
    with pytest.raises(ValueError):
        ArrivalProfile(hourly_weights=tuple(weights), expected_daily_arrivals=100.0)


def test_default_profile_is_normalized_and_peaks_in_the_evening():
    profile = scenario().base.profile
    assert abs(math.fsum(profile.hourly_weights) - 1.0) < 1e-9
    peak_hour = max(range(24), key=lambda h: profile.hourly_weights[h])
    assert peak_hour == 17  # morning commute peak shifted ten hours


# --- arrivals --------------------------------------------------------------


def test_arrivals_degenerate_single_hour():
    weights = [0.0] * 24
    weights[18] = 1.0
    profile = ArrivalProfile(hourly_weights=tuple(weights), expected_daily_arrivals=12.0)
    arrivals = sample_arrivals(profile, days=1, rng=rng(7))
    assert arrivals, "expected about 12 arrivals"
    assert all(216 <= slot <= 227 for slot in arrivals)


def test_arrivals_zero_rate_gives_empty_list():
    profile = scenario(arrivals_per_day=0).base.profile
    assert sample_arrivals(profile, days=3, rng=rng(7)) == []


def test_arrivals_sorted_and_deterministic():
    profile = scenario(arrivals_per_day=100).base.profile
    a = sample_arrivals(profile, days=2, rng=rng(5))
    b = sample_arrivals(profile, days=2, rng=rng(5))
    assert a == b
    assert a == sorted(a)


def test_arrivals_daily_mean_matches_configured_rate():
    profile = scenario().base.profile
    arrivals = sample_arrivals(profile, days=15, rng=rng(1))
    daily_mean = len(arrivals) / 15
    assert abs(daily_mean - 1500.0) / 1500.0 < 0.05


def test_arrivals_rejects_zero_days():
    with pytest.raises(ValueError):
        sample_arrivals(scenario().base.profile, days=0, rng=rng(1))


# --- connection duration ---------------------------------------------------


def truncated_normal_mean(mu, sigma, lo, hi):
    """Analytic mean of a Normal(mu, sigma) restricted to [lo, hi]."""
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
    cdf = lambda x: 0.5 * (1 + math.erf(x / math.sqrt(2)))
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    z = cdf(b) - cdf(a)
    return mu + sigma * (phi(a) - phi(b)) / z


def test_duration_always_inside_truncation_bounds():
    cfg = scenario().base.workload
    r = rng(3)
    for _ in range(2000):
        s = sample_connection_duration(cfg, r)
        assert 72 <= s <= 264


def test_duration_degenerate_zero_std_is_point_mass():
    cfg = scenario(duration_std_h=0).base.workload
    r = rng(3)
    assert all(sample_connection_duration(cfg, r) == 168 for _ in range(20))


def test_duration_mean_matches_truncated_normal_oracle():
    cfg = scenario().base.workload
    r = rng(11)
    n = 100_000
    mean_slots = sum(sample_connection_duration(cfg, r) for _ in range(n)) / n
    expected_h = truncated_normal_mean(14.0, 4.0, 6.0, 22.0)
    assert expected_h == pytest.approx(14.0)  # symmetric bounds
    assert abs(mean_slots / 12.0 - expected_h) < 0.2


# --- required miles --------------------------------------------------------


def test_required_miles_floor_when_commute_is_zero():
    cfg = scenario(one_way_commute_mean_mi=0).base.workload
    assert sample_required_miles(cfg, rng(2)) == pytest.approx(30.0)


def test_required_miles_bounded_by_cap_plus_allowances():
    cfg = scenario().base.workload
    # The cap plus the fixed allowances exactly fills the default battery.
    assert cfg.commute_cap_mi + cfg.extra_daily_mi + cfg.emergency_mi == pytest.approx(100.0)
    r = rng(4)
    samples = [sample_required_miles(cfg, r) for _ in range(20_000)]
    assert all(30.0 < s <= 100.0 for s in samples)


def test_required_miles_matches_truncated_exponential_cdf():
    cfg = scenario().base.workload
    scale = 2.0 * cfg.one_way_commute_mean_mi  # round-trip exponential mean
    cap = cfg.commute_cap_mi

    def oracle_cdf(x):
        return (1.0 - math.exp(-x / scale)) / (1.0 - math.exp(-cap / scale))

    r = rng(12)
    n = 100_000
    round_trips = np.sort([sample_required_miles(cfg, r) - 30.0 for _ in range(n)])
    grid = np.arange(1, n + 1) / n
    theo = np.array([oracle_cdf(x) for x in round_trips])
    ks = max(np.max(np.abs(theo - grid)), np.max(np.abs(theo - (grid - 1.0 / n))))
    assert ks < 0.01


# --- initial charge --------------------------------------------------------


def test_initial_charge_bounds_and_degenerate_zero():
    cfg = scenario().base.workload
    r = rng(5)
    assert all(0.0 <= sample_initial_charge(cfg, r) <= 30.0 for _ in range(2000))
    zero_cfg = scenario(initial_charge_max_mi=0).base.workload
    assert sample_initial_charge(zero_cfg, r) == 0.0


def test_initial_charge_mean_matches_uniform_oracle():
    cfg = scenario().base.workload
    r = rng(13)
    n = 100_000
    mean = sum(sample_initial_charge(cfg, r) for _ in range(n)) / n
    assert abs(mean - 15.0) < 0.2


# --- draws against numpy's distribution methods ----------------------------


@pytest.mark.parametrize("overrides", [
    {},
    {"duration_mean_h": 13.3, "duration_std_h": 5.7, "one_way_commute_mean_mi": 17.9,
     "initial_charge_max_mi": 27.3},
], ids=["default", "odd-parameters"])
def test_samplers_draw_what_numpy_distribution_methods_draw(monkeypatch, overrides):
    """Each sampler returns exactly the double that rng.normal, rng.exponential
    or rng.uniform returns from the same stream, and consumes the same bits."""
    monkeypatch.setattr(workload, "hours_to_slots", lambda hours: hours)  # keep the sampled hours
    cfg = scenario(**overrides).base.workload
    ours, numpys = rng(21), rng(21)
    for _ in range(5000):
        while True:
            hours = numpys.normal(cfg.duration_mean_h, cfg.duration_std_h)
            if cfg.duration_min_h <= hours <= cfg.duration_max_h:
                break
        assert sample_connection_duration(cfg, ours) == hours
        while True:
            round_trip = 2.0 * numpys.exponential(cfg.one_way_commute_mean_mi)
            if round_trip <= cfg.commute_cap_mi:
                break
        assert sample_required_miles(cfg, ours) == round_trip + cfg.extra_daily_mi + cfg.emergency_mi
        assert sample_initial_charge(cfg, ours) == numpys.uniform(0.0, cfg.initial_charge_max_mi)
    assert ours.bit_generator.state == numpys.bit_generator.state


# --- fleet assembly and session checks -------------------------------------


def one_session(charger, arrival, stay, required, initial, capacity=100.0, **kw):
    return Fleet(charger, [arrival], [stay], [required], [initial], capacity, **kw)


def test_fleet_pushes_out_infeasible_departure(home_charger):
    # Needs 200 intervals but the stay is only 150 slots.
    fleet = one_session(home_charger, 100, 150, 100.0, 0.0)
    assert fleet.expected_departure_slot.tolist() == [100 + 200]
    assert adjusted_departure_fraction(fleet) == 1.0


def test_fleet_keeps_feasible_departure(home_charger):
    fleet = one_session(home_charger, 100, 150, 10.0, 10.0)
    assert fleet.expected_departure_slot.tolist() == [100 + 150]
    assert adjusted_departure_fraction(fleet) == 0.0


def test_hand_built_departure_is_kept_even_if_infeasible(home_charger):
    v = make_test_vehicle(0, 100, 150, required=100.0, current=0.0, capacity=100.0)
    assert Fleet.from_vehicles([v], home_charger).expected_departure_slot.tolist() == [150]


def test_fleet_rejects_required_above_capacity(home_charger):
    with pytest.raises(ValueError, match="exceeds battery capacity"):
        one_session(home_charger, 0, 100, 120.0, 0.0)


@pytest.mark.parametrize("required, initial, message", [
    (10.0, -1.0, "current charge outside battery bounds"),
    (10.0, 101.0, "current charge outside battery bounds"),
    (-1.0, 0.0, "required charge outside battery bounds"),
])
def test_fleet_rejects_charge_outside_battery_bounds(unit_charger, required, initial, message):
    with pytest.raises(ValueError, match=message):
        one_session(unit_charger, 0, 100, required, initial)
    v = make_test_vehicle(0, 0, 100, required=required, current=initial, capacity=100.0)
    with pytest.raises(ValueError, match=message):
        Fleet.from_vehicles([v], unit_charger)


def test_fleet_rejects_departure_not_after_arrival(unit_charger):
    with pytest.raises(ValueError, match="departure must come after arrival"):
        Fleet.from_vehicles([make_test_vehicle(0, 5, 5, required=1.0)], unit_charger)
    with pytest.raises(ValueError, match="departure must come after arrival"):
        one_session(unit_charger, 5, 0, 0.0, 0.0)  # no stay and nothing to charge


def test_fleet_rejects_counters_beyond_the_priority_key_range(unit_charger):
    v = make_test_vehicle(0, 0, 2**31, required=1.0)
    with pytest.raises(ValueError, match="priority-key range"):
        Fleet.from_vehicles([v], unit_charger)


def test_hand_built_fleet_rows_come_in_arrival_order(unit_charger):
    vehicles = [
        Vehicle(9, 4, 10, 3.0, 1.0, 5.0, 6), Vehicle(2, 4, 8, 2.0, 0.0, 4.0),
        Vehicle(5, 1, 3, 1.0, 1.0, 1.0),
    ]
    fleet = Fleet.from_vehicles(vehicles, unit_charger)
    assert fleet.id.tolist() == [5, 2, 9]
    assert fleet.arrival_slot.tolist() == [1, 4, 4]
    assert fleet.expected_departure_slot.tolist() == [3, 8, 10]
    assert fleet.connected_slots.tolist() == [0, 0, 6]
    assert fleet.need.tolist() == [0, 2, 2]
    assert fleet.room.tolist() == [0, 4, 4]
    assert len(fleet) == 3


def test_adjusted_fraction_near_five_percent(home_charger):
    base = scenario().base
    fleet = generate_fleet(base.workload, base.profile, home_charger, 1)
    assert 0.02 <= adjusted_departure_fraction(fleet) <= 0.08


# --- fleet properties ------------------------------------------------------


@pytest.fixture(scope="module")
def small_fleet():
    base = scenario(days=6, arrivals_per_day=120).base
    cfg, profile = base.workload, base.profile
    return cfg, profile, generate_fleet(cfg, profile, charger_preset("home-110-15"), 42)


def columns(fleet, rows=None):
    """Every column of the fleet as a list, optionally of its first rows only."""
    return [getattr(fleet, name)[:rows].tolist() for name in Fleet.__slots__]


def test_fleet_deterministic(small_fleet):
    cfg, profile, fleet = small_fleet
    again = generate_fleet(cfg, profile, charger_preset("home-110-15"), 42)
    assert columns(fleet) == columns(again)


def test_fleet_prefix_independent_of_horizon(small_fleet):
    # Extending the horizon must not disturb earlier vehicles: samples
    # depend only on a vehicle's position in the arrival sequence.
    cfg, profile, fleet = small_fleet
    longer = generate_fleet(
        scenario(days=9).base.workload, profile, charger_preset("home-110-15"), 42
    )
    assert len(longer) > len(fleet)
    assert columns(longer, len(fleet)) == columns(fleet)


def test_fleet_draws_each_vehicle_in_turn(small_fleet):
    # Each vehicle draws its stay, then its requirement, then its initial
    # charge, from the attribute substream of the seed.
    cfg, profile, fleet = small_fleet
    _, attrs_ss = np.random.SeedSequence(42).spawn(2)
    r = np.random.default_rng(attrs_ss)
    for stay, required, initial in zip(fleet.connected_slots.tolist(), fleet.required_miles.tolist(),
                                       fleet.initial_miles.tolist()):
        assert sample_connection_duration(cfg, r) == stay
        assert sample_required_miles(cfg, r) == required
        assert sample_initial_charge(cfg, r) == initial


def test_fleet_respects_distribution_bounds(small_fleet):
    _, _, fleet = small_fleet
    assert all(72 <= s <= 264 for s in fleet.connected_slots.tolist())
    assert all(30.0 < r <= 100.0 for r in fleet.required_miles.tolist())
    assert all(0.0 <= c <= 30.0 for c in fleet.initial_miles.tolist())
    assert set(fleet.battery_capacity_miles.tolist()) == {100.0}


def test_fleet_departures_feasible_after_adjustment(small_fleet):
    _, _, fleet = small_fleet
    rate = charger_preset("home-110-15").miles_per_slot
    for arrival, departure, required, initial, need in zip(
            fleet.arrival_slot.tolist(), fleet.expected_departure_slot.tolist(),
            fleet.required_miles.tolist(), fleet.initial_miles.tolist(), fleet.need.tolist()):
        assert need == intervals_for_deficit(required, initial, rate)
        assert departure - arrival >= need


def test_fleet_ids_follow_arrival_order(small_fleet):
    _, _, fleet = small_fleet
    assert fleet.id.tolist() == list(range(len(fleet)))
    arrivals = fleet.arrival_slot.tolist()
    assert arrivals == sorted(arrivals)


def test_dump_fleet_csv_roundtrip(tmp_path, small_fleet):
    _, _, fleet = small_fleet
    path = tmp_path / "fleet.csv"
    dump_fleet_csv(fleet, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(fleet)
    assert rows[0].keys() == {"id", "arrival_slot", "departure_slot", "required_miles", "initial_miles"}
    assert [int(row["id"]) for row in rows] == fleet.id.tolist()
    assert [int(row["arrival_slot"]) for row in rows] == fleet.arrival_slot.tolist()
    assert [int(row["departure_slot"]) for row in rows] == fleet.expected_departure_slot.tolist()
    assert [float(row["required_miles"]) for row in rows] == pytest.approx(fleet.required_miles.tolist())


def test_config_validation():
    with pytest.raises(ValueError, match="bracket the mean"):
        scenario(duration_min_h=15)  # below the mean required
    with pytest.raises(ValueError, match="emergency_mi must be non-negative"):
        scenario(emergency_mi=-1)
    with pytest.raises(ValueError, match="at least one simulated day"):
        scenario(days=0)
