"""Grid calibration, charger arithmetic, and per-slot capacity."""

import csv
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridshare.defaults import default_load_shape_values
from gridshare.powergrid import (
    CHARGER_PRESETS,
    MAX_SUPPLY_RATIO,
    ChargerSpec,
    LoadShape,
    calibrate_capacity,
    charger_preset,
    day_capacity_profile,
    make_grid,
    slot_vehicle_capacity,
)
from gridshare.units import SLOTS_PER_DAY
from gridshare.workload import Fleet, dump_fleet_csv, generate_fleet, total_required_energy

from conftest import make_test_vehicle, realized_sdr, scenario


# --- load shape ------------------------------------------------------------


def test_load_shape_validation():
    with pytest.raises(ValueError):
        LoadShape.from_values([0.5] * 100)
    with pytest.raises(ValueError):
        LoadShape.from_values([0.5] * 288)  # peak must be 1
    with pytest.raises(ValueError):
        LoadShape.from_values([1.2] + [1.0] * 287)


def test_default_shape_has_documented_features():
    values = default_load_shape_values()
    shape = LoadShape.from_values(values)
    assert len(shape.values) == SLOTS_PER_DAY
    assert max(shape.values) == pytest.approx(1.0, abs=1e-12)
    assert 0.55 <= min(shape.values) <= 0.65  # night trough near 0.6
    peak_slot = max(range(SLOTS_PER_DAY), key=lambda s: shape.values[s])
    assert 17 * 12 <= peak_slot <= 22 * 12  # evening peak


# --- charger arithmetic ----------------------------------------------------


def test_charger_presets_satisfy_rate_power_identity():
    assert CHARGER_PRESETS == ("home-110-15", "home-110-15-exact", "home-110-13", "dryer-220-30")
    for name in CHARGER_PRESETS:
        c = charger_preset(name)
        assert c.miles_per_slot == pytest.approx(c.kw / 12.0 / 0.28, abs=1e-6)


def test_home_charger_defaults_to_six_miles_per_hour():
    c = charger_preset("home-110-15")
    assert c.miles_per_slot == 0.5           # 100 miles in 200 intervals
    assert c.kw == pytest.approx(1.68)


def test_exact_home_charger_matches_electrical_rating():
    c = charger_preset("home-110-15-exact")
    assert c.kw == pytest.approx(110 * 15 / 1000)
    assert c.miles_per_slot == pytest.approx(1.65 / 12 / 0.28)


def test_derated_home_charger_runs_at_13_amps():
    c = charger_preset("home-110-13")
    assert c.kw == pytest.approx(110 * 13 / 1000)
    assert c.amps == 13.0


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown charger preset.*home-110-15-exact"):
        charger_preset("rv-park-480")


def test_charger_requires_positive_rate():
    with pytest.raises(ValueError):
        ChargerSpec(volts=110, amps=15, miles_per_slot=0.0)


# --- required energy -------------------------------------------------------


def test_single_empty_vehicle_needs_28_kwh_per_day(home_charger):
    v = make_test_vehicle(0, 0, 200, required=100.0, current=0.0, capacity=100.0)
    assert total_required_energy(Fleet.from_vehicles([v], home_charger), days=1) == pytest.approx(28.0)


def test_already_charged_vehicle_contributes_nothing(home_charger):
    full = make_test_vehicle(0, 0, 200, required=40.0, current=60.0, capacity=100.0)
    needy = make_test_vehicle(1, 0, 200, required=50.0, current=0.0, capacity=100.0)
    fleet = Fleet.from_vehicles([full, needy], home_charger)
    assert total_required_energy(fleet, days=1) == pytest.approx(50.0 * 0.28)


def test_empty_fleet_rejected(home_charger):
    with pytest.raises(ValueError, match="empty workload"):
        total_required_energy(Fleet.from_vehicles([], home_charger), days=1)


def test_fleet_energy_matches_recomputation_from_csv(tmp_path, home_charger):
    base = scenario(days=5, arrivals_per_day=200).base
    cfg = base.workload
    fleet = generate_fleet(cfg, base.profile, home_charger, 1)
    tpr = total_required_energy(fleet, cfg.days)

    path = tmp_path / "fleet.csv"
    dump_fleet_csv(fleet, path)
    with open(path, newline="") as fh:
        deficits = [
            max(float(r["required_miles"]) - float(r["initial_miles"]), 0.0)
            for r in csv.DictReader(fh)
        ]
    oracle = math.fsum(deficits) * 0.28 / cfg.days
    assert tpr == pytest.approx(oracle, abs=1e-6)


# --- calibration -----------------------------------------------------------


def test_calibration_closed_form_flat_shape(flat_shape):
    capacity = calibrate_capacity(flat_shape, 0.8, tpr_kwh=100.0, sdr_target=1.0)
    assert capacity == pytest.approx(100.0 / (24.0 * 0.2))


def test_calibration_linear_in_target(flat_shape):
    one = calibrate_capacity(flat_shape, 0.8, 100.0, 1.0)
    two = calibrate_capacity(flat_shape, 0.8, 100.0, 2.0)
    assert two == pytest.approx(2.0 * one)


def test_calibration_rejects_bad_inputs(flat_shape):
    with pytest.raises(ValueError, match="indefinitely"):
        calibrate_capacity(flat_shape, 0.8, 100.0, 0.9)
    with pytest.raises(ValueError):
        calibrate_capacity(flat_shape, 1.0, 100.0, 1.5)  # no headroom left
    with pytest.raises(ValueError):
        calibrate_capacity(flat_shape, 0.8, 0.0, 1.5)
    with pytest.raises(ValueError, match="only up to 1000000"):
        calibrate_capacity(flat_shape, 0.8, 100.0, MAX_SUPPLY_RATIO * 1.01)


@settings(max_examples=200, deadline=None)
@given(sdr=st.floats(min_value=1.0, max_value=MAX_SUPPLY_RATIO),
       tpr=st.floats(min_value=1e-3, max_value=1e8),
       peak=st.floats(min_value=0.01, max_value=0.99),
       flat=st.booleans())
def test_every_accepted_ratio_survives_the_round_trip(sdr, tpr, peak, flat):
    # The limit leaves room for rounding: make_grid's 1e-6 check holds.
    values = [1.0] * 288 if flat else default_load_shape_values()
    grid = make_grid(LoadShape.from_values(values), tpr, sdr, peak)
    assert grid.tpa_kwh / grid.tpr_kwh == pytest.approx(sdr, abs=1e-6)


def test_calibration_round_trip_on_default_shape():
    shape = LoadShape.from_values(default_load_shape_values())
    grid = make_grid(shape, tpr_kwh=15000.0, sdr_target=1.2, peak_other_fraction=0.8)
    assert realized_sdr(grid) == pytest.approx(1.2, abs=1e-6)
    assert grid.tpa_kwh / grid.tpr_kwh == pytest.approx(1.2, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    sdr=st.floats(min_value=1.0, max_value=3.0),
    trough=st.floats(min_value=0.1, max_value=0.9),
)
def test_calibration_round_trip_property(sdr, trough):
    # Two-level shape: trough at night, peak 1 in the evening.
    values = [trough] * 200 + [1.0] * 88
    grid = make_grid(LoadShape.from_values(values), tpr_kwh=5000.0, sdr_target=sdr,
                     peak_other_fraction=0.8)
    assert realized_sdr(grid) == pytest.approx(sdr, abs=1e-6)


# --- available power and K -------------------------------------------------


def test_available_power_at_peak_is_twenty_percent(flat_shape):
    grid = make_grid(flat_shape, tpr_kwh=4.8 * 100.0 / 1.0, sdr_target=1.0,
                     peak_other_fraction=0.8)
    assert grid.capacity_kw == pytest.approx(100.0)
    assert grid.available_kw[0] == pytest.approx(20.0)


def test_available_power_full_capacity_when_other_load_zero():
    values = [0.0] * 287 + [1.0]
    grid = make_grid(LoadShape.from_values(values), tpr_kwh=100.0, sdr_target=1.0,
                     peak_other_fraction=0.8)
    assert grid.available_kw[0] == pytest.approx(grid.capacity_kw)
    assert all(grid.available_kw[s] >= 0.0 for s in range(SLOTS_PER_DAY))


def test_slot_capacity_floors_whole_chargers(flat_shape):
    # 20 kW available
    grid = make_grid(flat_shape, tpr_kwh=480.0, sdr_target=1.0, peak_other_fraction=0.8)
    assert grid.available_kw[0] == pytest.approx(20.0)
    exact_home = charger_preset("home-110-15-exact")
    assert slot_vehicle_capacity(grid, exact_home, 0) == 12  # floor(20 / 1.65)
    dryer = charger_preset("dryer-220-30")
    assert slot_vehicle_capacity(grid, dryer, 0) == 3        # floor(20 / 6.6)


def test_slot_capacity_zero_when_power_below_one_charger(flat_shape):
    # 1 kW available
    grid = make_grid(flat_shape, tpr_kwh=24.0, sdr_target=1.0, peak_other_fraction=0.8)
    assert slot_vehicle_capacity(grid, charger_preset("home-110-15"), 0) == 0


def test_capacity_monotone_in_sdr_and_shape():
    shape = LoadShape.from_values(default_load_shape_values())
    charger = charger_preset("home-110-15")
    low = day_capacity_profile(make_grid(shape, 15000.0, 1.0, 0.8), charger)
    high = day_capacity_profile(make_grid(shape, 15000.0, 2.0, 0.8), charger)
    assert all(h >= l for h, l in zip(high, low))
    grid = make_grid(shape, 15000.0, 1.5, 0.8)
    ks = day_capacity_profile(grid, charger)
    order = sorted(range(SLOTS_PER_DAY), key=lambda s: shape.values[s])
    ks_by_shape = [ks[s] for s in order]
    assert all(a >= b for a, b in zip(ks_by_shape, ks_by_shape[1:]))
