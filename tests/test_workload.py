"""Workload sampler distributions, determinism, and fleet assembly."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from gridshare.engine import run_simulation
from gridshare.policies import (
    POLICY_NAMES,
    departure_keys,
    intervals_for_deficit,
    parse_policy,
)
from gridshare.powergrid import charger_preset
from gridshare.workload import (
    ArrivalProfile,
    Fleet,
    Vehicle,
    adjusted_departure_fraction,
    draw_sessions,
    dump_fleet_csv,
    generate_fleet,
    sample_arrivals,
)
from gridshare.units import hours_to_slots

from conftest import make_test_vehicle, scenario


def rng(seed=1):
    return np.random.default_rng(seed)


def stays(cfg, seed, count):
    """Stays in slots of `count` vehicles drawn from a generator seeded with seed."""
    return hours_to_slots(draw_sessions(cfg, rng(seed), count)[0]).tolist()


def numpy_session(cfg, r):
    """One vehicle's stay hours, requirement and initial charge, drawn in turn
    with numpy's distribution methods."""
    while True:
        hours = r.normal(cfg.duration_mean_h, cfg.duration_std_h)
        if cfg.duration_min_h <= hours <= cfg.duration_max_h:
            break
    while True:
        round_trip = 2.0 * r.exponential(cfg.one_way_commute_mean_mi)
        if round_trip <= cfg.commute_cap_mi:
            break
    required = round_trip + cfg.extra_daily_mi + cfg.emergency_mi
    return hours, required, r.uniform(0.0, cfg.initial_charge_max_mi)


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
    # build_config refuses a zero rate, so the default profile is set to one here.
    profile = dataclasses.replace(scenario().base.profile, expected_daily_arrivals=0.0)
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
    assert all(72 <= s <= 264 for s in stays(cfg, 3, 2000))


def test_duration_degenerate_zero_std_is_point_mass():
    cfg = scenario(duration_std_h=0).base.workload
    assert stays(cfg, 3, 20) == [168] * 20


def test_duration_mean_matches_truncated_normal_oracle():
    cfg = scenario().base.workload
    n = 100_000
    mean_slots = sum(stays(cfg, 11, n)) / n
    expected_h = truncated_normal_mean(14.0, 4.0, 6.0, 22.0)
    assert expected_h == pytest.approx(14.0)  # symmetric bounds
    assert abs(mean_slots / 12.0 - expected_h) < 0.2


def test_stays_round_to_slots_as_round_does():
    # Ties go to even: k / 24 hours is k / 2 slots, so every odd k is a
    # tie (6.125 h is 73.5 slots, rounded to 74).
    hours = draw_sessions(scenario().base.workload, rng(6), 5000)[0]
    hours += [k / 24 for k in range(0, 540)]
    assert hours_to_slots(hours).tolist() == [round(h * 12) for h in hours]


# --- required miles --------------------------------------------------------


def test_required_miles_floor_when_commute_is_zero():
    cfg = scenario(one_way_commute_mean_mi=0).base.workload
    assert draw_sessions(cfg, rng(2), 1)[1] == [pytest.approx(30.0)]


def test_required_miles_bounded_by_cap_plus_allowances():
    cfg = scenario().base.workload
    # The cap plus the fixed allowances exactly fills the default battery.
    assert cfg.commute_cap_mi + cfg.extra_daily_mi + cfg.emergency_mi == pytest.approx(100.0)
    samples = draw_sessions(cfg, rng(4), 20_000)[1]
    assert all(30.0 < s <= 100.0 for s in samples)


def test_required_miles_matches_truncated_exponential_cdf():
    cfg = scenario().base.workload
    scale = 2.0 * cfg.one_way_commute_mean_mi  # round-trip exponential mean
    cap = cfg.commute_cap_mi

    def oracle_cdf(x):
        return (1.0 - math.exp(-x / scale)) / (1.0 - math.exp(-cap / scale))

    n = 100_000
    round_trips = np.sort([s - 30.0 for s in draw_sessions(cfg, rng(12), n)[1]])
    grid = np.arange(1, n + 1) / n
    theo = np.array([oracle_cdf(x) for x in round_trips])
    ks = max(np.max(np.abs(theo - grid)), np.max(np.abs(theo - (grid - 1.0 / n))))
    assert ks < 0.01


# --- initial charge --------------------------------------------------------


def test_initial_charge_bounds_and_degenerate_zero():
    cfg = scenario().base.workload
    assert all(0.0 <= c <= 30.0 for c in draw_sessions(cfg, rng(5), 2000)[2])
    zero_cfg = scenario(initial_charge_max_mi=0).base.workload
    assert draw_sessions(zero_cfg, rng(5), 1)[2] == [0.0]


def test_initial_charge_mean_matches_uniform_oracle():
    cfg = scenario().base.workload
    n = 100_000
    mean = sum(draw_sessions(cfg, rng(13), n)[2]) / n
    assert abs(mean - 15.0) < 0.2


# --- draws against numpy's distribution methods ----------------------------


@pytest.mark.parametrize("overrides", [
    {},
    {"duration_mean_h": 13.3, "duration_std_h": 5.7, "one_way_commute_mean_mi": 17.9,
     "initial_charge_max_mi": 27.3},
], ids=["default", "odd-parameters"])
def test_samplers_draw_what_numpy_distribution_methods_draw(overrides):
    """Each draw is exactly the double that rng.normal, rng.exponential or
    rng.uniform returns from the same stream, and the draws consume the same bits."""
    cfg = scenario(**overrides).base.workload
    ours, numpys = rng(21), rng(21)
    drawn = draw_sessions(cfg, ours, 5000)
    assert [len(column) for column in drawn] == [5000] * 3
    for session in zip(*drawn):
        assert session == numpy_session(cfg, numpys)
    assert ours.bit_generator.state == numpys.bit_generator.state


def test_no_sessions_draw_nothing():
    r = rng(21)
    before = r.bit_generator.state
    assert draw_sessions(scenario().base.workload, r, 0) == ([], [], [])
    assert r.bit_generator.state == before


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


def test_hand_built_fleet_run_data_follow_its_rows_in_arrival_order(unit_charger):
    # Given latest arrival first: a deficit vehicle, one full on arrival
    # (it joins no tier), one satisfied with room (it joins top-off), and
    # two deficit vehicles arriving together, the higher id first.
    in_order = [
        make_test_vehicle(1, 0, 9, required=3.0, capacity=5.0),
        make_test_vehicle(4, 2, 6, required=2.0, current=4.0, capacity=4.0),
        make_test_vehicle(0, 3, 20, required=1.0, current=2.0, capacity=6.0),
        make_test_vehicle(2, 5, 12, required=4.0, capacity=4.0),
        make_test_vehicle(3, 5, 8, required=2.0, capacity=3.0),
    ]
    fleet = Fleet.from_vehicles(in_order[::-1], unit_charger)
    assert fleet.id.tolist() == [1, 4, 0, 2, 3]
    assert fleet.arrivals == fleet.arrival_slot.tolist() == [0, 2, 3, 5, 5]
    assert fleet.departures == fleet.expected_departure_slot.tolist() == [9, 6, 20, 12, 8]
    assert fleet.departure_order == [1, 4, 0, 3, 2]
    assert fleet.departure_boundaries == [6, 8, 9, 12, 20]
    assert fleet.last_departure == 20
    assert fleet.total_need == int(fleet.need.sum()) == 9
    assert np.array_equal(fleet.departure_keys, departure_keys(fleet))
    sorted_fleet = Fleet.from_vehicles(in_order, unit_charger)
    for name in POLICY_NAMES:
        policy = parse_policy(name)
        for k_profile in ([1], [2, 0, 1]):
            # Traced and untraced: only a traced run serves the top-off tier.
            for sink in (None, lambda group: None):
                assert (run_simulation(policy, fleet, k_profile, trace_sink=sink)
                        == run_simulation(policy, sorted_fleet, k_profile, trace_sink=sink))
    # No run changes the fleet's lists.
    assert fleet.arrivals == [0, 2, 3, 5, 5]
    assert fleet.departures == [9, 6, 20, 12, 8]


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


COLUMNS = ("id", "arrival_slot", "connected_slots", "expected_departure_slot", "need", "room",
           "required_miles", "initial_miles", "battery_capacity_miles")


def columns(fleet, rows=None):
    """Every column of the fleet as a list, optionally of its first rows only."""
    return [getattr(fleet, name)[:rows].tolist() for name in COLUMNS]


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
        hours, want_required, want_initial = numpy_session(cfg, r)
        assert (stay, required, initial) == (round(hours * 12), want_required, want_initial)


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
